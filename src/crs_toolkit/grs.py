"""Greedy rejection sampling: stochastic sampler and exact index recursion.

The sampler walks shared i.i.d. proposals X_1, X_2, ... ~ P and accepts X_k
with probability beta_k = clip((dQ/dP(X_k) - L_k) / S_k, 0, 1), where L_k is
the width mass already spent and S_k = P[K >= k] the survival mass. Since
S_k + integral of w over [0, L_k] stays 1, the survival is the tail integral
T(h) = integral of w over [h, h_max] at L_k, and the state is the orbit of
one map:

    L_1      = 0,  S_k = T(L_k)
    L_{k+1}  = L_k + T(L_k)
    p_k      = P[K = k] = T(L_k) - T(L_{k+1})

so the whole index distribution is a deterministic functional of the width,
and E[K] = sum_k S_k = sum_k (L_{k+1} - L_k) = h_max by telescoping. Each
step costs one tail integral: closed forms for the Laplace, Gaussian and step
widths (see width.py), quadrature for any other width. Both the stochastic
and the exact paths read (L_k, S_k) from the same lazily extended orbit.

Truncation is certified: after stopping with survival mass s = S_{n+1},

    sum_{k>n} S_k = h_max - L_{n+1}                  (exactly; telescoping
                                                      L and L_k -> h_max)
    sum_{k>n} -p_k log2 p_k <= s (log2 m - 2 log2 s + log2 e),  m the mean
                                                      tail above,

the entropy bound coming from splitting -log2 p_k = -log2(p_k/s) - log2 s
and maximizing the normalized tail entropy at fixed mean by a geometric law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, StepBudgetError
from .streams import RngStream
from .measures import DistributionPair
from .width import StepWidth, WidthFunction

LOG2_E = math.log2(math.e)

DEFAULT_STEP_CAP = 10**6
# relative tolerance of a quadrature tail integral; closed forms ignore it
_TAIL_TOL_FACTOR = 1e-13


class GrsRecursion:
    """Lazily extended orbit L_{k+1} = L_k + S_k, S_{k+1} = T(L_{k+1}).

    S is clamped to be non-increasing, so p_k = S_k - S_{k+1} >= 0 even
    where a tail integral rounds up.
    """

    def __init__(self, w: WidthFunction, step_cap: int = DEFAULT_STEP_CAP):
        self.w = w
        self.step_cap = step_cap
        self.L = [0.0]
        self.S = [1.0]

    @property
    def q(self) -> np.ndarray:
        """Conditional acceptance q_k = p_k / S_k of the steps taken so far."""
        s = np.array(self.S)
        q = np.ones(s.size - 1)
        np.divide(s[:-1] - s[1:], s[:-1], out=q, where=s[:-1] > 0.0)
        return q

    def state(self, k: int) -> tuple[float, float]:
        """(L_k, S_k) at 1-based step k, extending the orbit as needed."""
        if k < 1:
            raise InvalidParameterError("steps are 1-based")
        if k > self.step_cap:
            raise StepBudgetError(f"recursion asked to extend beyond the step cap {self.step_cap}")
        while len(self.L) < k:
            self._advance()
        return self.L[k - 1], self.S[k - 1]

    def _advance(self):
        S = self.S[-1]
        L = self.L[-1] + S
        if S > 0.0:
            S = min(S, self.w.tail_integral(L, tol=max(S * _TAIL_TOL_FACTOR, 1e-300)).value)
        self.L.append(L)
        self.S.append(S)


@dataclass(frozen=True)
class IndexDistribution:
    """Exact (truncated) GRS index law with certified tails. Bits throughout."""

    p: np.ndarray
    truncation_index: int
    tail_mass: float
    entropy_bits: float
    entropy_tail_bound_bits: float
    mean_index: float
    mean_tail_bound: float
    survival: np.ndarray = field(repr=False)

    def to_json(self) -> dict:
        return {
            "p": [float(v) for v in self.p],
            "tail_mass": self.tail_mass,
            "entropy_bits": self.entropy_bits,
            "entropy_tail_bound_bits": self.entropy_tail_bound_bits,
            "mean_index": self.mean_index,
            "mean_tail_bound": self.mean_tail_bound,
        }


def _entropy_tail_bound_bits(tail_mass: float, mean_tail: float) -> float:
    if tail_mass <= 0.0:
        return 0.0
    m = max(mean_tail, tail_mass)
    return tail_mass * (math.log2(m) - 2.0 * math.log2(tail_mass) + LOG2_E)


def default_eps_stop(w: WidthFunction) -> float:
    """1e-12 for step widths (their recursion advances in closed-form blocks,
    so deep truncation is free), 1e-9 for smooth widths."""
    return 1e-12 if isinstance(w, StepWidth) else 1e-9


def _step_budget_error(survival: float, step_cap: int) -> StepBudgetError:
    return StepBudgetError(f"survival mass still {survival:.3e} after {step_cap} steps; "
                           "raise eps_stop or the step cap")


def _step_width_lists(w: StepWidth, eps_stop: float, step_cap: int):
    """(p_list, S_list, L_final, S_final) for a piecewise-constant width.

    Inside one constant segment of value v the recursion is exactly geometric
    (q_k = v), so it advances in closed-form blocks; only bands that straddle
    a breakpoint take scalar steps. Identical to the scalar recursion up to
    float rounding, at any eps_stop depth.
    """
    edges, values = w.edges, w.values
    L, S = 0.0, 1.0
    p_parts: list[np.ndarray] = []
    s_parts: list[np.ndarray] = []
    steps = 0
    while S > eps_stop:
        if steps >= step_cap:
            raise _step_budget_error(S, step_cap)
        j = min(int(np.searchsorted(edges, L, side="right")) - 1, len(values) - 1)
        right = edges[j + 1]
        v = values[j]
        if L + S > right or v <= 0.0:
            # straddling band: one exact scalar step
            q = min(max(w.band_integral(L, L + S) / S, 0.0), 1.0)
            p_parts.append(np.array([S * q]))
            s_parts.append(np.array([S]))
            L += S
            S *= 1.0 - q
            steps += 1
            continue
        if v >= 1.0:
            p_parts.append(np.array([S]))
            s_parts.append(np.array([S]))
            L += S
            S = 0.0
            steps += 1
            break
        # geometric block: m steps with q = v, survival ratio r = 1 - v
        ln_r = math.log1p(-v)
        m_eps = max(1, math.ceil(math.log(eps_stop / S) / ln_r))
        overshoot = L + S / v - right  # block limit of L minus segment end
        if overshoot > 0.0:
            rhs = overshoot / (S * (1.0 / v - 1.0))
            m_exit = 1 + max(0, math.floor(math.log(rhs) / ln_r)) if rhs < 1.0 else 1
        else:
            m_exit = m_eps
        m = min(m_eps, m_exit, step_cap - steps)
        r_m = math.exp(m * ln_r)
        if steps + m >= step_cap and S * r_m > eps_stop:
            # the cap ends this block above eps_stop: fail before building it
            raise _step_budget_error(S * r_m, step_cap)
        ratios = np.exp(np.arange(m) * ln_r)
        s_parts.append(S * ratios)
        p_parts.append(S * v * ratios)
        L += (S / v) * (1.0 - r_m)
        S *= r_m
        steps += m
    p = np.concatenate(p_parts) if p_parts else np.zeros(0)
    survival = np.concatenate(s_parts) if s_parts else np.zeros(0)
    return p, survival, L, S


def grs_index_distribution(
    w: WidthFunction,
    eps_stop: float | None = None,
    step_cap: int = DEFAULT_STEP_CAP,
) -> IndexDistribution:
    """Iterate the recursion until the survival mass falls to eps_stop.

    Needs finite h_max for the certified tail bounds (with infinite h_max the
    survival cannot reach every eps_stop within a finite cap anyway).
    """
    if eps_stop is None:
        eps_stop = default_eps_stop(w)
    if not (0.0 < eps_stop < 1.0):
        raise InvalidParameterError("eps_stop must lie in (0, 1)")
    if not math.isfinite(w.h_max):
        raise InvalidParameterError("index distribution needs a width with finite h_max")
    if isinstance(w, StepWidth):
        p, survival, L_next, tail_mass = _step_width_lists(w, eps_stop, step_cap)
    else:
        rec = GrsRecursion(w, step_cap=step_cap)
        n = 0
        while rec.state(n + 1)[1] > eps_stop:
            n += 1
            if n >= step_cap:
                raise _step_budget_error(rec.S[n - 1], step_cap)
        # steps 1..n have S_k > eps_stop; S_{n+1} <= eps_stop is the tail mass
        s = np.array(rec.S[:n + 1])
        survival, p = s[:-1], s[:-1] - s[1:]
        tail_mass = float(s[-1])
        L_next = rec.L[n]
    mean_index = float(np.sum(survival))
    mean_tail = max(w.h_max - L_next, 0.0)
    pos = p[p > 0.0]
    entropy_bits = float(-np.dot(pos, np.log2(pos))) + 0.0 if pos.size else 0.0
    return IndexDistribution(
        p=p,
        truncation_index=int(p.size),
        tail_mass=float(tail_mass),
        entropy_bits=entropy_bits,
        entropy_tail_bound_bits=_entropy_tail_bound_bits(float(tail_mass), mean_tail),
        mean_index=mean_index,
        mean_tail_bound=mean_tail,
        survival=survival,
    )


def grs_sample(
    pair: DistributionPair,
    w: WidthFunction,
    rng_stream: RngStream,
    step_cap: int = DEFAULT_STEP_CAP,
    recursion: GrsRecursion | None = None,
):
    """One greedy rejection sampling run: (accepted point, index k).

    pair and w must describe the same (Q, P); the acceptance state is read
    from the exact recursion, so a run's (L_k, S_k) trace coincides with the
    deterministic path. Finite Renyi-infinity divergence keeps the expected
    index finite; the step cap turns a mismatched pair/width (or an infinite
    mean) into an error instead of an endless loop.
    """
    rec = recursion if recursion is not None else GrsRecursion(w, step_cap=step_cap)
    gen = rng_stream.generator()
    for k in range(1, step_cap + 1):
        L, S = rec.state(k)
        x = pair.draw(gen, 1)
        u = gen.random()
        r = math.exp(float(pair.log_ratio(x)[0]))
        beta = 1.0 if S <= 0.0 else min(max((r - L) / S, 0.0), 1.0)
        if u <= beta:
            point = x[0]
            return (point if np.ndim(point) else point.item()), k
    raise StepBudgetError(f"no acceptance within {step_cap} proposals")


@dataclass(frozen=True)
class GrsEmpirical:
    """n independent sampler runs: index histogram plus accepted points."""

    indices: np.ndarray
    accepted: np.ndarray

    @property
    def histogram(self) -> dict[int, int]:
        ks, counts = np.unique(self.indices, return_counts=True)
        return {int(k): int(c) for k, c in zip(ks, counts)}

    def survival_estimate(self, k: int) -> float:
        return float(np.mean(self.indices >= k))


def grs_empirical(
    pair: DistributionPair,
    w: WidthFunction,
    rng_stream: RngStream,
    n: int,
    step_cap: int = DEFAULT_STEP_CAP,
    recursion: GrsRecursion | None = None,
) -> GrsEmpirical:
    """n sampler replicas, run in lockstep over the shared proposal steps.

    At step k only still-active replicas draw a proposal and a uniform, in
    replica order, so the output is a deterministic function of the stream
    key alone; accepted points are stored by replica index, which makes the
    result independent of acceptance timing.
    """
    if n < 1000:
        raise InvalidParameterError("empirical runs need n >= 1000")
    rec = recursion if recursion is not None else GrsRecursion(w, step_cap=step_cap)
    gen = rng_stream.generator()
    active = np.arange(n)
    indices = np.zeros(n, dtype=np.int64)
    accepted = np.zeros((n, *pair.point_shape), dtype=float)
    for k in range(1, step_cap + 1):
        if active.size == 0:
            return GrsEmpirical(indices=indices, accepted=accepted)
        L, S = rec.state(k)
        x = pair.draw(gen, active.size)
        u = gen.random(active.size)
        r = np.exp(pair.log_ratio(x))
        if S <= 0.0:
            beta = np.ones(active.size)
        else:
            beta = np.clip((r - L) / S, 0.0, 1.0)
        acc = u <= beta
        hit = active[acc]
        indices[hit] = k
        accepted[hit] = x[acc]
        active = active[~acc]
    raise StepBudgetError(f"{active.size} replicas still active after {step_cap} steps")

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
and E[K] = sum_k S_k = sum_k (L_{k+1} - L_k) = h_max by telescoping. Samplers
and index law read one lazily extended orbit. A step costs one tail integral
(see width.py); a step width crosses a constant segment of value v < 1 in one
closed-form geometric block (q_k = v) and a breakpoint in one exact band step.

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
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, StepBudgetError
from .streams import RngStream
from .measures import DistributionPair
from .width import StepWidth, WidthFunction

LOG2_E = math.log2(math.e)

DEFAULT_STEP_CAP = 10**6
# relative tolerance of a quadrature tail integral; closed forms ignore it
_TAIL_TOL_FACTOR = 1e-13
# fewest steps a piece of a geometric block adds: a piece costs about the
# same up to a few hundred steps, and most sampler runs end within one
_MIN_PIECE = 64


class GrsRecursion:
    """Lazily extended orbit L_{k+1} = L_k + S_k, S_{k+1} = T(L_{k+1}).

    L, S and p are float64 arrays with L_k, S_k and p_k (stored per step) at
    index k - 1; S is clamped to be non-increasing. A geometric block is built
    from its first step in pieces that each at least double the orbit. With
    eps_stop > 0 (the index law) a block is built whole and also ends where S
    first falls to eps_stop; one the step cap cuts above eps_stop raises
    before it is built. Reads past step step_cap + 1 raise.
    """

    def __init__(self, w: WidthFunction, step_cap: int = DEFAULT_STEP_CAP, eps_stop: float = 0.0):
        self.w = w
        self.step_cap = step_cap
        self.eps_stop = eps_stop
        self._blocks = isinstance(w, StepWidth)
        self.L, self.S, self.p = array("d", [0.0]), array("d", [1.0]), array("d")
        self._block = None  # (first step, length, L, S, v, log(1 - v), (1 - v)^length)

    def state(self, k: int) -> tuple[float, float]:
        """(L_k, S_k) at 1-based step k, extending the orbit as needed."""
        if k < 1:
            raise InvalidParameterError("steps are 1-based")
        while len(self.S) < k:
            self._advance(k)
        return self.L[k - 1], self.S[k - 1]

    def _advance(self, k: int):
        """Extend the orbit toward step k: one step, or one piece of a block."""
        steps, L, S = len(self.p), self.L[-1], self.S[-1]
        if self._block is None:
            block = self._open_block(steps, L, S) if self._blocks and steps < self.step_cap else None
            S_cap = S if block is None else S * block[6]  # survival after step_cap steps
            if steps >= self.step_cap or (block and steps + block[1] >= self.step_cap
                                          and S_cap > self.eps_stop > 0.0):
                raise StepBudgetError(f"survival mass still {S_cap:.3e} after {self.step_cap} steps; "
                                      "raise eps_stop or the step cap")
            if block is None:
                return self._step(L, S)
            self._block = block
        start, m, L0, S0, v, ln_r, r_m = self._block
        i = steps - start
        j = m if self.eps_stop > 0.0 else min(m, i + max(k - len(self.S), len(self.S), _MIN_PIECE))
        r = np.arange(i, j + 1.0)
        np.exp(np.multiply(r, ln_r, out=r), out=r)
        if j == m:
            r[-1] = r_m  # the block's end, from which the orbit goes on
            self._block = None
        # in place: each temporary array is fresh memory, slow to touch first
        x = r[:-1] * (S0 * v)
        self.p.frombytes(x.data.cast("B"))
        self.S.frombytes(np.multiply(r[1:], S0, out=x).data.cast("B"))
        np.subtract(1.0, r[1:], out=x)
        x *= S0 / v
        self.L.frombytes(np.add(x, L0, out=x).data.cast("B"))

    def _open_block(self, steps: int, L: float, S: float):
        """The geometric block from (L, S), or None where one step is taken."""
        j = self.w._segment(L)
        right, v = self.w.breakpoints[j], float(self.w.values[j])
        if L + S > right or v >= 1.0:
            return None
        ln_r = math.log1p(-v)
        m = self.step_cap - steps
        if S > self.eps_stop > 0.0:
            m = min(m, max(1, math.ceil(math.log(self.eps_stop / S) / ln_r)))
        overshoot = L + S / v - right  # block limit of L minus segment end
        if overshoot > 0.0:
            rhs = overshoot / (S * (1.0 / v - 1.0))
            m = min(m, 1 + max(0, math.floor(math.log(rhs) / ln_r)) if rhs < 1.0 else 1)
        return steps, m, L, S, v, ln_r, math.exp(m * ln_r)

    def _step(self, L: float, S: float):
        if self._blocks:  # exact band step; S = 0 only past the width's end
            q = min(max(self.w.band_integral(L, L + S) / S, 0.0), 1.0) if S > 0.0 else 1.0
            p, S_next = S * q, S * (1.0 - q)
        else:
            tol = max(S * _TAIL_TOL_FACTOR, 1e-300)
            S_next = min(S, self.w.tail_integral(L + S, tol=tol).value) if S > 0.0 else S
            p = S - S_next
        self.L.append(L + S)
        self.S.append(S_next)
        self.p.append(p)


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
    rec = GrsRecursion(w, step_cap=step_cap, eps_stop=eps_stop)
    while rec.S[-1] > eps_stop:
        rec.state(len(rec.S) + 1)
    # steps 1..n have S_k > eps_stop; S_{n+1} <= eps_stop is the tail mass
    p, tail_mass = np.frombuffer(rec.p), rec.S[-1]
    mean_tail = max(w.h_max - rec.L[-1], 0.0)
    pos = p if p.min() > 0.0 else p[p > 0.0]  # no copy in the usual case
    entropy_bits = float(-np.dot(pos, np.log2(pos))) + 0.0 if pos.size else 0.0
    return IndexDistribution(
        p=p,
        truncation_index=int(p.size),
        tail_mass=tail_mass,
        entropy_bits=entropy_bits,
        entropy_tail_bound_bits=_entropy_tail_bound_bits(tail_mass, mean_tail),
        mean_index=float(np.sum(np.frombuffer(rec.S)[:-1])),
        mean_tail_bound=mean_tail,
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

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
read one lazily extended orbit, as does a smooth width's index law. A step
costs one tail integral (see width.py); a step width crosses a constant
segment of value v < 1 in one closed-form geometric block (q_k = v) and a
breakpoint in one exact band step.

A block from survival S holds p_i = S v r^i for i < m, with r = 1 - v, and
the index law of a step width sums each block in closed form, storing no p_k:

    mass          S (1 - r^m),  1 - r^m = -expm1(m ln r)
    E[K] share    S (1 - r^m) / v
    entropy       -ln(S v) S (1 - r^m) - ln(r) S v sum_{i<m} i r^i   (nats),
                  sum_{i<m} i r^i = ((1 - r^m) r / v - m r^m) / v

Truncation is certified: after stopping with survival mass s = S_{n+1},

    sum_{k>n} S_k = h_max - L_{n+1}                  (exactly; telescoping
                                                      L and L_k -> h_max)
    sum_{k>n} -p_k log2 p_k <= s (log2 m - 2 log2 s + log2 e),  m the mean
                                                      tail above,

the entropy bound coming from splitting -log2 p_k = -log2(p_k/s) - log2 s
and maximizing the normalized tail entropy at fixed mean by a geometric law.
"""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, StepBudgetError
from .streams import RngStream
from .measures import DistributionPair
from .width import StepWidth, WidthFunction

LOG2_E = math.log2(math.e)
LN2 = math.log(2.0)

DEFAULT_STEP_CAP = 10**6
# relative tolerance of a quadrature tail integral; closed forms ignore it
_TAIL_TOL_FACTOR = 1e-13


class GrsRecursion:
    """Lazily extended orbit L_{k+1} = L_k + S_k, S_{k+1} = T(L_{k+1}).

    L and S are float64 arrays with L_k and S_k at index k - 1, so that
    p_k = S_k - S_{k+1}; S is clamped to be non-increasing. A geometric block
    is filled only up to the step read, step i of it from its first step as
    S r^i with r^i = exp(i ln r), the call that ends the block in _next_piece.
    Reads past step step_cap + 1 raise.
    """

    def __init__(self, w: WidthFunction, step_cap: int = DEFAULT_STEP_CAP):
        self.w = w
        self.step_cap = step_cap
        self._blocks = isinstance(w, StepWidth)
        self.L, self.S = array("d", [0.0]), array("d", [1.0])
        self._block = None  # the block being filled, as _next_piece gives it

    def state(self, k: int) -> tuple[float, float]:
        """(L_k, S_k) at 1-based step k, extending the orbit as needed."""
        if k < 1:
            raise InvalidParameterError("steps are 1-based")
        while len(self.S) < k:
            self._advance(k)
        return self.L[k - 1], self.S[k - 1]

    def _advance(self, k: int):
        """Extend the orbit toward step k: one step, or a block up to step k."""
        steps, L, S = len(self.S) - 1, self.L[-1], self.S[-1]
        if not self._blocks:  # one tail integral
            if steps >= self.step_cap:
                raise _budget_error(S, self.step_cap)
            tol = max(S * _TAIL_TOL_FACTOR, 1e-300)
            S_next = min(S, self.w.tail_integral(L + S, tol=tol).value) if S > 0.0 else S
            self.L.append(L + S)
            self.S.append(S_next)
            return
        if self._block is None:
            piece = _next_piece(self.w, steps, L, S, self.step_cap, 0.0)
            if len(piece) == 3:
                self.L.append(piece[0])
                self.S.append(piece[1])
                return
            self._block = piece
        start, m, L0, S0, v, ln_r, _ = self._block
        end, span = min(m, k - 1 - start), S0 / v  # span: the block's limit of L - L0
        for i in range(steps - start + 1, end + 1):
            r_i = math.exp(i * ln_r)
            self.S.append(S0 * r_i)
            self.L.append((1.0 - r_i) * span + L0)
        if end == m:  # the block's end, from which the orbit goes on
            self._block = None


def _budget_error(S: float, step_cap: int) -> StepBudgetError:
    return StepBudgetError(f"survival mass still {S:.3e} after {step_cap} steps; "
                           "raise eps_stop or the step cap")


def _next_piece(w: StepWidth, steps: int, L: float, S: float, step_cap: int, eps_stop: float):
    """The piece of a step width's orbit after `steps` steps, at (L, S).

    One exact band step (L_next, S_next, p) where the band straddles a
    breakpoint or v = 1; else a geometric block (first step, length m, L, S, v,
    log(1 - v), (1 - v)^m) that ends at the segment's end, at the step cap
    and, with eps_stop > 0 (the index law), where S first falls to eps_stop.
    Such a block that the cap cuts above eps_stop raises at once.
    """
    if steps >= step_cap:
        raise _budget_error(S, step_cap)
    j = w._segment(L)
    right, v = w.breakpoints[j], float(w.values[j])
    if L + S > right or v >= 1.0:  # exact band step; S = 0 only past the width's end
        q = min(max(w.band_integral(L, L + S) / S, 0.0), 1.0) if S > 0.0 else 1.0
        return L + S, S * (1.0 - q), S * q
    ln_r = math.log1p(-v)
    m = step_cap - steps
    if S > eps_stop > 0.0:
        m = min(m, max(1, math.ceil(math.log(eps_stop / S) / ln_r)))
    overshoot = L + S / v - right  # block limit of L minus segment end
    if overshoot > 0.0:
        rhs = overshoot / (S * (1.0 / v - 1.0))
        m = min(m, 1 + max(0, math.floor(math.log(rhs) / ln_r)) if rhs < 1.0 else 1)
    r_m = math.exp(m * ln_r)
    if steps + m >= step_cap and S * r_m > eps_stop > 0.0:
        raise _budget_error(S * r_m, step_cap)  # the survival after step_cap steps
    return steps, m, L, S, v, ln_r, r_m


def _pieces_p(pieces: tuple) -> np.ndarray:
    """p_1..p_n of a step width's law, built from its pieces."""
    # a block (first step, m, L, S, v, ln r, r^m) holds p_i = S v r^i, i < m
    return np.concatenate([np.exp(np.arange(piece[1]) * piece[5]) * (piece[3] * piece[4])
                           if len(piece) == 7 else [piece[2]] for piece in pieces])


@dataclass(frozen=True)
class IndexDistribution:
    """Exact (truncated) GRS index law with certified tails. Bits throughout.

    p = (p_1, ..., p_n) is built when first read: a step width's law keeps
    only its pieces, one per band step or geometric block.
    """

    truncation_index: int
    tail_mass: float
    entropy_bits: float
    entropy_tail_bound_bits: float
    mean_index: float
    mean_tail_bound: float
    _build_p: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def p(self) -> np.ndarray:
        return self._build_p()

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
    """1e-12 for step widths (their law sums closed-form geometric blocks, so
    deep truncation is free), 1e-9 for smooth widths."""
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
    if isinstance(w, StepWidth):
        return _step_width_law(w, eps_stop, step_cap)
    rec = GrsRecursion(w, step_cap=step_cap)
    while rec.S[-1] > eps_stop:
        rec.state(len(rec.S) + 1)
    # steps 1..n have S_k > eps_stop; S_{n+1} <= eps_stop is the tail mass
    S = np.frombuffer(rec.S)
    p, tail_mass = S[:-1] - S[1:], rec.S[-1]
    mean_tail = max(w.h_max - rec.L[-1], 0.0)
    pos = p if p.min() > 0.0 else p[p > 0.0]  # no copy in the usual case
    entropy_bits = float(-np.dot(pos, np.log2(pos))) + 0.0 if pos.size else 0.0
    return IndexDistribution(
        truncation_index=int(p.size),
        tail_mass=tail_mass,
        entropy_bits=entropy_bits,
        entropy_tail_bound_bits=_entropy_tail_bound_bits(tail_mass, mean_tail),
        mean_index=float(np.sum(S[:-1])),
        mean_tail_bound=mean_tail,
        _build_p=lambda: p,
    )


def _step_width_law(w: StepWidth, eps_stop: float, step_cap: int) -> IndexDistribution:
    """The law from the orbit's pieces, each block summed in closed form."""
    pieces, steps, L, S = [], 0, 0.0, 1.0
    mean_terms, entropy_terms = [], []  # E[K] shares; entropy in bits
    while S > eps_stop:
        piece = _next_piece(w, steps, L, S, step_cap, eps_stop)
        pieces.append(piece)
        if len(piece) == 3:
            mean_terms.append(S)
            L, S, p = piece
            if p > 0.0:
                entropy_terms.append(-p * math.log2(p))
            steps += 1
            continue
        _, m, L0, S0, v, ln_r, r_m = piece
        one_minus_r_m = -math.expm1(m * ln_r)
        mass = S0 * one_minus_r_m
        sum_i_r_i = (one_minus_r_m * (1.0 - v) / v - m * r_m) / v
        mean_terms.append(mass / v)
        entropy_terms.append(-math.log2(S0 * v) * mass - ln_r / LN2 * S0 * v * sum_i_r_i)
        # the block's end as the orbit stores it
        S, L = S0 * r_m, (1.0 - r_m) * (S0 / v) + L0
        steps += m
    mean_tail = max(w.h_max - L, 0.0)
    return IndexDistribution(
        truncation_index=steps,
        tail_mass=S,
        entropy_bits=math.fsum(entropy_terms) + 0.0,
        entropy_tail_bound_bits=_entropy_tail_bound_bits(S, mean_tail),
        mean_index=math.fsum(mean_terms),
        mean_tail_bound=mean_tail,
        _build_p=functools.partial(_pieces_p, tuple(pieces)),
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

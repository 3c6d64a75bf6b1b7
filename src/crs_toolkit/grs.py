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
sampler call, and a smooth width's index law, reads its own lazily extended
orbit of w: a smooth step costs one tail integral (see width.py), and a step
width's orbit is its pieces, one closed-form geometric block (q_k = v) across
a constant segment of value v < 1 and one exact band step across a breakpoint.

An index law is the orbit's pieces up to its stop point (L, S), plus a
certified tail. A piece is a tuple whose first entry is its kind, a class
never instantiated (dense head, band step or geometric block) that defines
once the piece's end state after i steps, its (E[K], entropy) shares and
its p; the law adds the shares with math.fsum and builds p on first read.
A block from (L, S) holds p_i = S v r^i for i < m, r = 1 - v, and the orbit
reads its steps, as the law ends it, through one end state:

    end after i   S r^i,  L + (1 - r^i) S / v,  r^i = exp(i ln r)
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
That bound is about as large as the tail itself, so a step width's law, and
a smooth width's law that reaches eps_stop, report it, with its upper end
padded by _ROUNDING_PAD for the rounding of the law's float sums.

A smooth width's law usually stops much earlier, behind a two-sided
enclosure of the remaining entropy. Let p(L) = T(L) - T(L + T(L)), so that
p_k = p(L_k), and f = -p log2 p. Then

    p'(L) = w(L + T)(1 - w(L)) - w(L) <= -w(L)^2,

so p falls with L, and f falls once p < 1/e. Let phi(L) = integral of dL/T,
the orbit's stretch function (GPRS's sigma). One step advances phi by
integral over [L_k, L_k + S_k] of dL/T, which is at least S_k/S_k = 1, as T
falls, and at most 1/(1 - w(L_k)), as T >= S_k - p_k >= S_k (1 - w(L_k))
there. So with g = f read as a function of phi, falling, the term g(phi_k)
is at most the mean of g over the step before it, so at most its integral
there, and at least the mean over the step after it, so at least 1 - w(L_k)
times its integral there. Summing from a step N where p_N < 1/e, with
w(L_k) <= w(L_N),

    (1 - w(L_N)) I  <=  sum_{k>=N} f(p_k)  <=  f(p_N) + I,
    I = integral over [L_N, h_max] of f(L)/T(L) dL = integral of g dphi.

T(h_max) = 0, so I is integrated only up to a cut X near h_max. The orbit
points at or beyond X hold at most the max-entropy bound at (T(X), h_max - X),
as the bound grows with both arguments, and the points before X see only the
integral up to X; so the enclosure is (1 - w) I_X <= tail <= f(p_N) + I_X +
maxent(T(X), h_max - X). I_X is bracketed by monotone panel bounds: on
[a, b], f/T lies in [f(b)/T(a), f(a)/T(b)], with T's and p's error bars
folded in, and the widest panel is split until the enclosure is narrow
enough. w(L_N) is bounded by the chord of T over the step before L_N.

What is narrow enough. Were the orbit continued to survival eps_stop, its
max-entropy bound would be at least tau = s (log2(1/(s w)) + log2 e) with
w = w(L_N) and s = (1 - w) eps_stop: its survival would be above s, as each
step keeps at least 1 - w of it, and its mean tail h_max - L above s/w, as
T(L) <= w(L) (h_max - L). The orbit stops at the first step N where
f(p_N) + w I is at most _STOP_SHARE tau, with I at most the max-entropy
bound at (S_N, h_max - L_N) over 1 - w: a test of O(1) per step on orbit
values. The rest of tau goes to the panel bracket and the cut, which are
built once, there. An enclosure that still misses tau is dropped, and the
orbit tries again once its survival has fallen fourfold.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, QuadratureError, StepBudgetError
from .streams import RngStream, _integer
from .measures import DistributionPair
from .width import StepWidth, WidthFunction

LOG2_E = math.log2(math.e)
LN2 = math.log(2.0)

# the step budget of every index law and sampler call, read at call time
DEFAULT_STEP_CAP = 10**6
# a smooth law's stopping test leaves all but this share of the target
# width to the panel bracket and the cut of its entropy enclosure; the
# bracket converges only to first order, so a small share, which stops the
# orbit later, needs far fewer panels
_STOP_SHARE = 0.05
# the cut's max-entropy term takes at most this share of what remains
_CUT_SHARE = 0.25
# relative pad of an entropy interval's ends for the rounding of its float sums
_ROUNDING_PAD = 1e-12
_EPS = sys.float_info.epsilon
_INV_E = 1.0 / math.e
# a sampler round draws about this many points once fewer replicas are active
_ROUND_POINTS = 256
# a lone replica's first block of steps; each round doubles it
_FIRST_BLOCK = 8


class GrsRecursion:
    """Lazily extended orbit L_{k+1} = L_k + S_k, S_{k+1} = T(L_{k+1}).

    A smooth width's orbit is two float64 arrays with L_k and S_k at index
    k - 1, so that p_k = S_k - S_{k+1}; S is clamped to be non-increasing.
    A step width's orbit is its pieces, each built as a read first passes
    the last one's end, and step k is read from the piece that holds it. The
    orbit has no step cap: the code that reads it counts steps.
    """

    def __init__(self, w: WidthFunction):
        self.w = w
        if isinstance(w, StepWidth):  # pieces, the steps they start at, the last one's end
            self._pieces, self._firsts, self._end = [], [], 1
        else:
            self._pieces, self.L, self.S = None, array("d", [0.0]), array("d", [1.0])

    def state(self, k: int) -> tuple[float, float]:
        """(L_k, S_k) at 1-based step k, extending the orbit as needed."""
        if k < 1:
            raise InvalidParameterError("steps are 1-based")
        pieces = self._pieces
        if pieces is None:
            while len(self.S) < k:
                self._advance()
            return self.L[k - 1], self.S[k - 1]
        while k > self._end:
            L, S = pieces[-1][0].end(pieces[-1], pieces[-1][1]) if pieces else (0.0, 1.0)
            pieces.append(_next_piece(self.w, L, S))
            self._firsts.append(self._end)
            self._end += pieces[-1][1]
        j = bisect.bisect_left(self._firsts, k) - 1  # the piece with first < k <= its end
        if j < 0:  # step 1
            return 0.0, 1.0
        return pieces[j][0].end(pieces[j], k - self._firsts[j])

    def _advance(self):
        """One smooth step: one tail integral, which raises if T did not converge."""
        L, S = self.L[-1], self.S[-1]
        S_next = min(S, self.w.tail_integral(L + S).value) if S > 0.0 else S
        self.L.append(L + S)
        self.S.append(S_next)


def _budget_error(S: float, step_cap: int) -> StepBudgetError:
    return StepBudgetError(f"survival mass still {S:.3e} after {step_cap} steps; raise eps_stop")


def _next_piece(w: StepWidth, L: float, S: float) -> tuple:
    """The piece of a step width's orbit from (L, S): a band step across a
    breakpoint or where v = 1, else a geometric block to the segment's end;
    a block on the orbit's last segment has no end: m is inf."""
    j = w._segment(L)
    right, v = w.breakpoints[j], float(w.values[j])
    if L + S > right or v >= 1.0:  # exact band step; S = 0 only past the width's end
        q = min(max(w.band_integral(L, L + S) / S, 0.0), 1.0) if S > 0.0 else 1.0
        return _Band, 1, L, S, q, S * q
    ln_r = math.log1p(-v)
    m = math.inf
    overshoot = L + S / v - right  # block limit of L minus segment end
    if overshoot > 0.0:
        rhs = overshoot / (S * (1.0 / v - 1.0))
        m = 1 + max(0, math.floor(math.log(rhs) / ln_r)) if rhs < 1.0 else 1
    return _Block, m, L, S, v, ln_r


class _Head:
    """A smooth width's dense head (_Head, S_k..S_{k+n}): p_i = S_i - S_{i+1}."""

    def shares(piece) -> tuple[float, float]:
        S, p = piece[1], _Head.p(piece)
        pos = p if p.min() > 0.0 else p[p > 0.0]  # no copy in the usual case
        return float(np.sum(S[:-1])), float(-np.dot(pos, np.log2(pos))) if pos.size else 0.0

    def p(piece) -> np.ndarray:
        return piece[1][:-1] - piece[1][1:]


class _Band:
    """An exact band step (_Band, 1, L, S, q, p = S q) from (L, S)."""

    def end(piece, i: int) -> tuple[float, float]:
        return (piece[2] + piece[3], piece[3] * (1.0 - piece[4])) if i else (piece[2], piece[3])

    def shares(piece) -> tuple[float, float]:
        return piece[3], _xlog2(piece[5])

    def p(piece) -> list[float]:
        return [piece[5]]


class _Block:
    """A geometric block (_Block, m, L, S, v, ln r), r = 1 - v (module docstring)."""

    def end(piece, i: int) -> tuple[float, float]:
        _, _, L, S, v, ln_r = piece
        # 1 - r^i by expm1: 1.0 - exp rounds to 0 once i v < 1e-16
        return -math.expm1(i * ln_r) * (S / v) + L, S * math.exp(i * ln_r)

    def shares(piece) -> tuple[float, float]:
        _, m, _, S, v, ln_r = piece
        one_minus_r_m = -math.expm1(m * ln_r)
        mass = S * one_minus_r_m
        sum_i_r_i = (one_minus_r_m * (1.0 - v) / v - m * math.exp(m * ln_r)) / v
        return mass / v, -math.log2(S * v) * mass - ln_r / LN2 * S * v * sum_i_r_i

    def p(piece) -> np.ndarray:
        return np.exp(np.arange(piece[1]) * piece[5]) * (piece[3] * piece[4])


@dataclass(frozen=True)
class IndexDistribution:
    """Exact (truncated) GRS index law with certified tails, in bits. It keeps
    its pieces, and builds p = (p_1, ..., p_n) from them when first read."""

    truncation_index: int
    tail_mass: float
    entropy_bits: float
    entropy_tail_bound_bits: float
    mean_index: float
    mean_tail_bound: float
    _pieces: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def p(self) -> np.ndarray:
        return np.concatenate([piece[0].p(piece) for piece in self._pieces])

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


def grs_index_distribution(w: WidthFunction, eps_stop: float | None = None) -> IndexDistribution:
    """Iterate the recursion until the survival mass falls to eps_stop.

    Needs finite h_max for the certified tail bounds (with infinite h_max the
    survival cannot reach every eps_stop within DEFAULT_STEP_CAP anyway).
    """
    if eps_stop is None:
        eps_stop = default_eps_stop(w)
    if not (0.0 < eps_stop < 1.0):
        raise InvalidParameterError("eps_stop must lie in (0, 1)")
    if not math.isfinite(w.h_max):
        raise InvalidParameterError("index distribution needs a width with finite h_max")
    if isinstance(w, StepWidth):
        return _step_width_law(w, eps_stop)
    return _smooth_width_law(w, eps_stop)


def _smooth_width_law(w: WidthFunction, eps_stop: float) -> IndexDistribution:
    """The law from the orbit, one tail integral a step, up to the first step
    N whose entropy enclosure is narrow enough, or else to S <= eps_stop."""
    rec, h_max, step_cap = GrsRecursion(w), w.h_max, DEFAULT_STEP_CAP
    n, (L, S), retry_below, tail = 1, rec.state(1), 1.0, None
    while S > eps_stop:
        if n > step_cap:  # S = S_n is the survival after step_cap steps
            raise _budget_error(S, step_cap)
        L_next, S_next = rec.state(n + 1)
        if 1 < n and S <= retry_below:  # the O(1) stopping test at N = n
            p, L_prev = S - S_next, rec.L[n - 2]
            w_est = (rec.S[n - 2] - S) / (L - L_prev)
            if p < _INV_E and 0.0 < w_est < 1.0:
                tau = _target_width_bits(eps_stop, w_est)
                i_max = _entropy_tail_bound_bits(S, h_max - L) / (1.0 - w_est)
                if _xlog2(p) + w_est * i_max <= _STOP_SHARE * tau:
                    try:  # at most n panel splits: about the orbit's own cost
                        tail = _entropy_enclosure(w, L_prev, L, eps_stop, n)
                    except QuadratureError:  # an unconverged T certifies nothing
                        tail = None
                    if tail is not None:
                        break
                    retry_below = S / 4.0
        n, L, S = n + 1, L_next, S_next
    # steps 1..n-1 are the head; S = S_n is the tail mass
    return _law([(_Head, np.frombuffer(rec.S)[:n])], n - 1, L, S, h_max, tail)


def _law(pieces: list, steps: int, L: float, S: float, h_max: float, tail) -> IndexDistribution:
    """The law of the pieces' steps, stopped at (L, S); tail is the enclosure
    (lower end, width) of the entropy past it, or None: the max-entropy bound."""
    means, entropies = [], []
    for piece in pieces:
        mean, entropy = piece[0].shares(piece)
        means.append(mean)
        entropies.append(entropy)
    mean_tail = max(h_max - L, 0.0)
    head, bound = math.fsum(entropies), _entropy_tail_bound_bits(S, mean_tail)
    # the bound's upper end is padded as the enclosure pads its own
    tail_lo, tail_width = (0.0, bound + (head + bound) * _ROUNDING_PAD) if tail is None else tail
    return IndexDistribution(
        truncation_index=steps,
        tail_mass=S,
        entropy_bits=head + tail_lo,
        entropy_tail_bound_bits=tail_width,
        mean_index=math.fsum(means),
        mean_tail_bound=mean_tail,
        _pieces=tuple(pieces),
    )


def _xlog2(p: float) -> float:
    """-p log2 p, 0 at p = 0."""
    return -p * math.log2(p) if p > 0.0 else 0.0


def _target_width_bits(eps_stop: float, w_bar: float) -> float:
    """A lower bound on the max-entropy bound the orbit would report at
    survival eps_stop, for w_bar >= w(L_N) (module docstring)."""
    s = (1.0 - w_bar) * eps_stop
    return s * (LOG2_E - math.log2(s * w_bar))


class _Node(NamedTuple):
    """Bars on T(L), on p(L) = T(L) - T(L + T(L)) and on w(L) at one L."""

    L: float
    t_lo: float
    t_hi: float
    p_lo: float
    p_hi: float
    w_hi: float


def _node(w: WidthFunction, L: float, L_left: float, t_hi_left: float) -> _Node:
    """The node at L, from an upper bar on T at some L_left < L, whose chord
    of T bounds w(L) from above."""
    t, t_err = w.tail_integral(L)[:2]
    w_hi = min(1.0, (t_hi_left - (t - t_err)) / (L - L_left) * (1.0 + 4.0 * _EPS))
    L2 = L + t
    t2, t2_err = w.tail_integral(L2)[:2]
    # T is read at the float L2, off L + T(L) by t_err and half an ulp, which
    # moves the second T by at most w(L) times that
    p_err = t_err + t2_err + w_hi * (t_err + 0.5 * math.ulp(L2)) + _EPS * t
    return _Node(L, t - t_err, t + t_err, max(t - t2 - p_err, 0.0), t - t2 + p_err, w_hi)


def _panel(a: _Node, b: _Node) -> tuple[float, float]:
    """Bounds on the integral of f/T over [a.L, b.L] between two nodes with
    t_lo > 0: f and T fall, so f/T lies in [f(b)/T(a), f(a)/T(b)]. f rises
    up to p = 1/e, its largest value, and falls after."""
    d = b.L - a.L
    return _xlog2(b.p_lo) / a.t_hi * d, _xlog2(min(a.p_hi, _INV_E)) / b.t_lo * d


def _cut_nodes(w: WidthFunction, first: _Node, budget: float) -> list[_Node]:
    """Nodes from first toward h_max, the offset h_max - L halving each time,
    up to the cut X: the first node whose max-entropy term is within budget,
    or else the last one whose T is resolved from 0."""
    h_max, nodes = w.h_max, [first]
    offset = h_max - first.L
    while _entropy_tail_bound_bits(nodes[-1].t_hi, h_max - nodes[-1].L) > budget:
        offset *= 0.5
        X = h_max - offset
        if not nodes[-1].L < X < h_max:
            break
        node = _node(w, X, nodes[-1].L, nodes[-1].t_hi)
        if not node.t_lo > 0.0:
            break
        nodes.append(node)
    return nodes


def _entropy_enclosure(w: WidthFunction, L_prev: float, L: float,
                       eps_stop: float, max_splits: int) -> tuple[float, float] | None:
    """(lower end, width) of the enclosure of sum_{k>=N} -p_k log2 p_k from
    the orbit point L = L_N after L_prev = L_{N-1}, with at most max_splits
    panel splits, or None when it is wider than the target. A tail integral
    on the way that does not converge raises QuadratureError."""
    t_prev, t_err = w.tail_integral(L_prev)[:2]
    first = _node(w, L, L_prev, t_prev + t_err)
    w_bar = first.w_hi
    if not (first.t_lo > 0.0 and first.p_hi < _INV_E and 0.0 < w_bar < 1.0):
        return None
    tau = _target_width_bits(eps_stop, w_bar)
    nodes = _cut_nodes(w, first, _CUT_SHARE * (1.0 - _STOP_SHARE) * tau)
    X = nodes[-1]
    fixed = _xlog2(first.p_hi) + _entropy_tail_bound_bits(X.t_hi, w.h_max - X.L)
    # panels by bracket width, widest first; the count breaks ties
    order, heap = itertools.count(), []
    for a, b in zip(nodes, nodes[1:]):
        lo, hi = _panel(a, b)
        heap.append((lo - hi, next(order), a, b, lo, hi))
    heapq.heapify(heap)
    lo_sum, hi_sum = sum(e[4] for e in heap), sum(e[5] for e in heap)
    for _ in range(max_splits):
        if fixed + hi_sum - (1.0 - w_bar) * lo_sum <= tau or not heap:
            break
        _, _, a, b, lo, hi = heap[0]
        mid = w.h_max - math.sqrt((w.h_max - a.L) * (w.h_max - b.L))
        c = _node(w, mid, a.L, a.t_hi) if a.L < mid < b.L else None
        if c is None or not c.t_lo > 0.0:  # the widest panel cannot be split
            break
        heapq.heappop(heap)
        lo_sum, hi_sum = lo_sum - lo, hi_sum - hi
        for x, y in ((a, c), (c, b)):
            lo, hi = _panel(x, y)
            heapq.heappush(heap, (lo - hi, next(order), x, y, lo, hi))
            lo_sum, hi_sum = lo_sum + lo, hi_sum + hi
    tail_lo = (1.0 - w_bar) * math.fsum(e[4] for e in heap) * (1.0 - _ROUNDING_PAD)
    tail_hi = (fixed + math.fsum(e[5] for e in heap)) * (1.0 + _ROUNDING_PAD)
    return (tail_lo, tail_hi - tail_lo) if tail_hi - tail_lo <= tau else None


def _step_width_law(w: StepWidth, eps_stop: float) -> IndexDistribution:
    """The law from the orbit's pieces, up to S <= eps_stop within the step cap."""
    pieces, steps, L, S, step_cap = [], 0, 0.0, 1.0, DEFAULT_STEP_CAP
    while S > eps_stop:
        piece = _next_piece(w, L, S)
        kind, m = piece[0], piece[1]
        if kind is _Block:  # the law's last block ends where S first falls to eps_stop
            m = min(m, max(1, math.ceil(math.log(eps_stop / S) / piece[5])))
            piece = (kind, m, *piece[2:])
        # a piece that passes the cap raises, before it is kept, with the
        # survival after step_cap steps: above eps_stop, where the piece ends
        if steps + m > step_cap:
            raise _budget_error(kind.end(piece, step_cap - steps)[1], step_cap)
        pieces.append(piece)
        L, S = kind.end(piece, m)
        steps += m
    return _law(pieces, steps, L, S, w.h_max, None)


def _run_replicas(pair: DistributionPair, w: WidthFunction, rng_stream: RngStream,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """The acceptance kernel: n sampler replicas over the shared proposal
    steps, as (index k, accepted point) arrays in replica order.

    The replicas still active all stand at the same step k. A round draws a
    block of B proposals and B uniforms for each of the m active replicas,
    step by step in replica order, so a result is a function of the stream
    key alone: B does not depend on the step budget, which only stops the scan.
    B is 1 while m > _ROUND_POINTS / 2: one step for many replicas, in
    whole-array passes. Below that B is _ROUND_POINTS // m, capped by a
    growth from _FIRST_BLOCK that doubles each round, so that a lone
    replica, whose index is often 1 or 2, draws few points it never reads;
    such a block holds at most _ROUND_POINTS points and is scanned point by
    point.

    A replica accepts at step k with u S_k + L_k <= r, that is u <= beta,
    where r is dQ/dP at the proposal; a step with no survival mass left
    accepts, as its beta is 1. A round reads its proposals and their r in
    one pair.draw_ratio call, which a discrete or step-width synthetic pair
    answers from a table. The orbit of w is read step by step, so no
    deeper than the deepest step a replica reaches.
    """
    rec, gen = GrsRecursion(w), rng_stream.generator()
    indices = np.zeros(n, dtype=np.int64)
    accepted = None
    active, k, grow = np.arange(n), 1, _FIRST_BLOCK
    while active.size:
        m = active.size
        B = max(1, min(_ROUND_POINTS // m, grow))
        grow = min(2 * grow, _ROUND_POINTS)
        x, r = pair.draw_ratio(gen, m * B)
        u = gen.random(m * B)
        if accepted is None:
            accepted = np.zeros((n, *x.shape[1:]), dtype=x.dtype)
        if B == 1:
            L, S = _acceptance_state(rec, k, m, n)
            u *= S  # u S + L <= r, in place
            u += L
            acc = u <= r
            pos = np.flatnonzero(acc)  # take and compress beat indexing by a mask
            hit = active.take(pos)
            indices[hit] = k
            accepted[hit] = x.take(pos, axis=0)
            active = active.compress(~acc)
        else:  # at most _ROUND_POINTS points, scanned one by one
            u, r, ids, live = u.tolist(), r.tolist(), active.tolist(), range(m)
            for j in range(B):
                L, S = _acceptance_state(rec, k + j, len(live), n)
                still = []
                for i in live:
                    if u[j * m + i] * S + L <= r[j * m + i]:
                        indices[ids[i]] = k + j
                        accepted[ids[i]] = x[j * m + i]
                    else:
                        still.append(i)
                live = still
                if not live:
                    break
            active = active[live] if live else active[:0]
        k += B
    return indices, accepted


def _acceptance_state(rec: GrsRecursion, k: int, active: int, n: int) -> tuple[float, float]:
    """(L_k, S_k), with L_k = -inf where S_k = 0 so that u S_k + L_k <= r holds;
    a step past the cap, with active of the n replicas still running, raises."""
    if k > DEFAULT_STEP_CAP:
        raise StepBudgetError(f"{active} of {n} replicas still active after {DEFAULT_STEP_CAP} steps")
    L, S = rec.state(k)
    return (L, S) if S > 0.0 else (-math.inf, S)


def grs_sample(pair: DistributionPair, w: WidthFunction, rng_stream: RngStream):
    """One greedy rejection sampling run: (accepted point, index k).

    pair and w must describe the same (Q, P); the acceptance state is read
    from the exact recursion, so a run's (L_k, S_k) trace coincides with the
    deterministic path, read up to step k and no further on a smooth width.
    The run is the one-replica case of the kernel behind grs_empirical: it
    draws its proposals and uniforms in blocks that grow from 8 by doubling,
    so it is a function of the stream key alone, but not the first run of
    grs_empirical on the same key. Finite Renyi-infinity divergence keeps
    the expected index finite; the step budget DEFAULT_STEP_CAP turns a
    mismatched pair/width (or an infinite mean) into an error instead of an
    endless loop, and a run that accepts within it is the same under any cap.
    """
    indices, accepted = _run_replicas(pair, w, rng_stream, 1)
    point = accepted[0]
    return (point if point.ndim else point.item()), int(indices[0])


@dataclass(frozen=True)
class GrsEmpirical:
    """n independent sampler runs: index histogram plus accepted points."""

    indices: np.ndarray
    accepted: np.ndarray

    @property
    def histogram(self) -> dict[int, int]:
        ks, counts = np.unique(self.indices, return_counts=True)
        return {int(k): int(c) for k, c in zip(ks, counts)}


def grs_empirical(pair: DistributionPair, w: WidthFunction, rng_stream: RngStream,
                  n: int) -> GrsEmpirical:
    """n sampler replicas, run together over the shared proposal steps.

    While many replicas are active they advance in lockstep, one step a
    round; the last few draw blocks of steps at once (see _run_replicas).
    Draws are made in replica order within each step, so the output is a
    deterministic function of the stream key alone; accepted points are
    stored by replica index, which makes the result independent of
    acceptance timing. The orbit is read up to the largest index and no
    further on a smooth width. The step budget stops runs as in grs_sample.
    """
    if _integer(n, "n") < 1000:
        raise InvalidParameterError("empirical runs need n >= 1000")
    indices, accepted = _run_replicas(pair, w, rng_stream, n)
    return GrsEmpirical(indices=indices, accepted=accepted.astype(float, copy=False))

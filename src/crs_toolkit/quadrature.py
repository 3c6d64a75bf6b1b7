"""Adaptive panel quadrature for width-function integrals.

The engine is a Gauss-Kronrod 15(7) rule with greedy bisection of the worst
panel. Width integrands live on (0, h_max] with h_max anywhere between 1 and
e^350, and have kinks at width breakpoints plus log-type endpoint behaviour,
so one driver, _log_h_quad, integrates g(w(h), ln h) dh in u = ln h: panels
are seeded between mapped breakpoints, the stub below e^u_lo is replaced by a
certified remainder bound, and infinite h_max is cut where a power-law tail
majorant bounds the discarded part. Each public integral supplies only its
integrand g, its stub end and bound, and its tail majorant:

  phi_of_width_integral  g = phi(w)     stub e^u_lo * sup(phi)   _phi_majorant
  width_log_h_integral   g = w ln h     stub d (1 + |ln d|)      the w ln h tail;
                                        h = 1 is a breakpoint (sign change)

All integrals are in nats; callers convert to bits at the report boundary.
Panel sums are accumulated with math.fsum in position order, so results do
not depend on the refinement schedule.

adaptive() returns exactly what the one-panel greedy returns, panel set
included, but calls the integrand on up to _BATCH panels at once: gk15 takes
arrays of panel ends, and panels that the greedy must split before it can
converge are split together. Its stop test keeps the error sum as a running
total with a rounding bound and falls back to math.fsum only near tol, so a
refinement of n panels costs O(n log n), not the O(n^2) of re-summing after
each split.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError, QuadratureError

if TYPE_CHECKING:  # pragma: no cover
    from .width import WidthFunction  # width.py imports this module

# Kronrod-15 abscissae on [-1, 1]; Gauss-7 points are the odd indices.
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_W_GAUSS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

# |K15 - G7| underestimates the true error on long homogeneous tails; panel
# errors are inflated by this factor before being trusted.
_ERR_SAFETY = 4.0

DEFAULT_MAX_PANELS = 20000

# Panels per call of the integrand in adaptive(). Up to about 150 points a
# call costs mostly its fixed overhead, so 16 panels (240 points) take most
# of what grouping gains.
_BATCH = 16

_EPS = 2.0**-52
# rounding below the normal range is absolute, up to 2^-1075 per operation
_TINY = 2.0**-1000


# The dot of w with each row of y, each by the 1-D kernel of `w @ row`, so a
# panel's sums do not depend on its batch; a matrix product rounds otherwise.
# np.vecdot (numpy >= 2.0) does this in one call; older numpy loops.
def _row_dots_by_row(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.array([w @ row for row in y])


_row_dots = getattr(np, "vecdot", _row_dots_by_row)


class QuadResult(NamedTuple):
    value: float
    error: float
    converged: bool
    panels: int


def gk15(
    f: Callable[[np.ndarray], np.ndarray], a: float | np.ndarray, b: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Kronrod-15 panels on [a, b]: (integral, error estimate).

    Float ends give one panel and two floats. Arrays of ends give two arrays,
    from one call of f on all their nodes; each panel's entries are
    bit-identical to its scalar call.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(-1, _NODES.size)
    halves = half.ravel()
    ik = halves * _row_dots(y, _W_KRONROD)
    err = _ERR_SAFETY * np.abs(ik - halves * _row_dots(y[:, 1::2], _W_GAUSS))
    if half.ndim == 0:
        return float(ik[0]), float(err[0])
    return ik, err


def _check_tol(tol: float) -> None:
    if not tol > 0.0:  # NaN fails too
        raise InvalidParameterError(f"tol must be positive, got {tol!r}")


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], lo: list[float],
                 hi: list[float]) -> list[tuple[float, float, float, float]]:
    """(a, b, value, error) of the panels [lo[i], hi[i]], _BATCH panels per call of f."""
    out = []
    for i in range(0, len(lo), _BATCH):
        v, e = gk15(f, np.array(lo[i:i + _BATCH]), np.array(hi[i:i + _BATCH]))
        out.extend(zip(lo[i:i + _BATCH], hi[i:i + _BATCH], v.tolist(), e.tolist()))
    return out


def adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    panels: Sequence[tuple[float, float]],
    tol: float,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """Refine the worst panel until the summed error estimate is below tol.

    The result, panel set included, is that of the one-panel greedy: pop the
    panel of largest error (the first pushed among ties), bisect it, and stop
    once the error sum is at most tol, max_panels panels are held, or the
    popped panel is at float resolution. Only the calls of f are grouped,
    _BATCH panels per call: the seeds, and each split of a panel that was not
    split ahead, which takes along every held panel whose own error exceeds
    tol. Errors are >= 0, so the sum cannot fall to tol while such a panel
    is held, and the greedy splits each of them before it converges. A
    converged result has therefore seen f at exactly 15 (2 panels - seeds)
    points. A stop at max_panels or at float resolution can leave panels
    split ahead in vain; no more are split ahead than the panel budget has
    splits left. A popped error <= tol means no held error exceeds tol, and
    that panel is split alone.

    The error sum is a running total with a bound on its rounding. math.fsum
    over the held panels runs only when tol lies within that bound, so each
    stop decision is the one an fsum after every split would make.
    """
    _check_tol(tol)
    if not panels:
        return QuadResult(0.0, 0.0, True, 0)
    ends = np.array(panels, dtype=float)
    if not np.isfinite(ends).all():
        raise InvalidParameterError("panel ends must be finite")
    store: dict[int, tuple[float, float, float, float]] = {}
    heap: list[tuple[float, int]] = []
    ahead: dict[int, list[tuple[float, float, float, float]]] = {}  # children split ahead
    fresh: list[int] = []  # held panels with error > tol and no children yet

    def push(uid: int, panel: tuple[float, float, float, float]) -> None:
        store[uid] = panel
        heapq.heappush(heap, (-panel[3], uid))
        if panel[3] > tol:
            fresh.append(uid)

    for uid, panel in enumerate(_eval_panels(f, ends[:, 0].tolist(), ends[:, 1].tolist())):
        push(uid, panel)
    uid = len(store)
    # drift bounds |total - exact error sum|, and fsum rounds the exact sum
    # once more; outside twice that band total and fsum fall on the same side
    # of tol. Inside it, or when total is inf or NaN, fsum decides.
    total = math.fsum(r[3] for r in store.values())
    drift = _EPS * total
    while len(store) < max_panels:
        if not abs(total - tol) > 2.0 * (drift + _EPS * abs(total)) + _TINY:
            total = math.fsum(r[3] for r in store.values())
            drift = _EPS * total
        if not total > tol:
            break
        _, k = heapq.heappop(heap)
        a, b, v, e = store.pop(k)
        if k not in ahead:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:  # interval at float resolution
                store[k] = (a, b, v, e)
                break
            # split ahead no more panels than the budget can still split
            room = max_panels - len(store) - 2 - len(ahead)
            others = [j for j in fresh if j != k]
            if len(others) > room:
                others = heapq.nsmallest(max(room, 0), others, key=lambda j: (-store[j][3], j))
            split, lo, hi = [], [], []
            for j, (a2, b2) in [(k, (a, b))] + [(j, store[j][:2]) for j in others]:
                m = 0.5 * (a2 + b2)
                if a2 < m < b2:
                    split.append(j)
                    lo += (a2, m)
                    hi += (m, b2)
            done = _eval_panels(f, lo, hi)
            for i, j in enumerate(split):
                ahead[j] = done[2 * i:2 * i + 2]
            fresh.clear()
        left, right = ahead.pop(k)
        push(uid, left)
        push(uid + 1, right)
        uid += 2
        total += (left[3] + right[3]) - e
        drift += _EPS * (left[3] + right[3] + e + abs(total))
    ordered = sorted(store.values())
    value = math.fsum(r[2] for r in ordered)
    error = math.fsum(r[3] for r in ordered)
    return QuadResult(value, error, error <= tol, len(store))


def seed_panels(
    lo: float, hi: float, cuts: Sequence[float] = (), max_len: float = 2.0
) -> list[tuple[float, float]]:
    """Initial subdivision of [lo, hi] split at cuts, no piece longer than max_len."""
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    panels: list[tuple[float, float]] = []
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(1, math.ceil((b - a) / max_len))
        edges = np.linspace(a, b, k + 1)
        panels.extend(zip(edges[:-1], edges[1:]))
    return panels


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    cuts: Sequence[float] = (),
) -> QuadResult:
    """Plain adaptive integration of f over [lo, hi] in the given variable."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError("integration bounds must be finite")
    if hi <= lo:
        return QuadResult(0.0, 0.0, True, 0)
    span = hi - lo
    return adaptive(f, seed_panels(lo, hi, cuts, max_len=max(span / 8, 1e-12)), tol)


@dataclass(frozen=True)
class PowerTail:
    """Certificate w(h) <= coef * h**-exponent for all h >= h_from, exponent > 1."""

    coef: float
    exponent: float
    h_from: float

    def __post_init__(self):
        if not (self.exponent > 1.0 and self.coef > 0.0 and self.h_from > 0.0):
            raise InvalidParameterError("power tail needs coef > 0, exponent > 1, h_from > 0")


@dataclass(frozen=True)
class PhiSpec:
    """A concave integrand phi on [0, 1] with phi(0) = phi(1) = 0, in nats.

    sup_value bounds phi on [0, 1]. The optional majorant asserts
    phi(x) <= maj_a * x - maj_b * x * ln(x) on (0, 1/2]; it certifies tail
    remainders when the width has a power-law tail certificate.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup_value: float
    maj_a: float | None = None
    maj_b: float | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.clip(x, 0.0, 1.0))


def _phi_xlogx(x: np.ndarray) -> np.ndarray:
    # the floor gives 0 at x = 0; "0.0 -" keeps phi(1) = +0.0, not -0.0
    return 0.0 - x * np.log(np.maximum(x, math.ulp(0.0)))


def _phi_binary_entropy(x: np.ndarray) -> np.ndarray:
    return _phi_xlogx(x) + _phi_xlogx(1.0 - x)


# -x ln x peaks at 1/e; H_b peaks at ln 2. Majorants: -x ln x <= -x ln x,
# and H_b(x) <= x - x ln x on (0, 1/2] since -(1-x) ln(1-x) <= x.
PHI_XLOGX = PhiSpec(_phi_xlogx, sup_value=math.exp(-1.0), maj_a=0.0, maj_b=1.0)
PHI_BINARY_ENTROPY = PhiSpec(_phi_binary_entropy, sup_value=math.log(2.0), maj_a=1.0, maj_b=1.0)


def _tail_cut(ln_bound: Callable[[float], float], u_start: float,
              budget: float) -> tuple[float, float]:
    """First u = u_start + k/4 with ln_bound(u) <= ln(budget): (u, e^ln_bound(u)).

    ln_bound(u) is the log of a certified bound on the width integral beyond
    H = e^u; working in log space keeps heavy tails (exponent close to 1)
    from overflowing.
    """
    u, ln_budget = u_start, math.log(budget)
    for _ in range(5000):
        ln_b = ln_bound(u)
        if ln_b <= ln_budget:
            return u, math.exp(ln_b)
        if u > 690.0:
            raise QuadratureError(
                "power tail too heavy to truncate within float range; "
                "exponent too close to 1")
        u += 0.25
    raise QuadratureError("could not place the tail cut")


def _phi_majorant(tail: PowerTail, phi: PhiSpec) -> tuple[Callable[[float], float], float]:
    """Log bound on the phi(w) tail beyond H = e^u, and where it starts to hold.

    Uses int_H^inf [a*w - b*w*ln w] dh with w <= C h^-p, valid once
    C h^-p <= 1/2.
    """
    if phi.maj_a is None or phi.maj_b is None:
        raise QuadratureError(
            "width has infinite h_max and phi carries no integrable tail certificate")
    c, p, a, b = tail.coef, tail.exponent, phi.maj_a, phi.maj_b
    # loop invariants are hoisted, but the sums keep their order: reordering
    # the terms of a bound moves the last ulp of the reported error
    lnc, ln_p1, flat = math.log(c), math.log(p - 1.0), b * p / (p - 1.0)

    def ln_bound(u: float) -> float:
        bracket = a + b * max(p * u - lnc, 0.0) + flat
        return lnc + (1.0 - p) * u + math.log(bracket) - ln_p1

    return ln_bound, max(math.log(tail.h_from), (lnc + math.log(2.0)) / p, 0.0)


def _log_h_quad(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    w: WidthFunction,
    u_lo: float,
    stub: float,
    majorant: Callable[[PowerTail], tuple[Callable[[float], float], float]],
    tol: float,
    cuts: Sequence[float] = (),
) -> QuadResult:
    """integral of g(w(h), ln h) dh over (e^u_lo, w.h_max], in u = ln h.

    stub bounds the part below e^u_lo. For infinite h_max, majorant(w.tail)
    gives (ln_bound, u_start) for _tail_cut, and the cut's remainder is
    folded into the error as the stub is. Panels are seeded between the
    width's breakpoints and the extra cuts, all in h.
    """
    remainder = stub
    if math.isinf(w.h_max):
        if w.tail is None:
            raise QuadratureError("width has infinite h_max and no tail certificate")
        u_hi, tail_rem = _tail_cut(*majorant(w.tail), tol / 8.0)
        remainder += tail_rem
    else:
        u_hi = math.log(w.h_max)
    if u_hi <= u_lo:
        return QuadResult(0.0, remainder, True, 0)
    u_cuts = [math.log(b) for b in (*w.breakpoints, *cuts)
              if b > 0 and u_lo < math.log(b) < u_hi]

    def f(u: np.ndarray) -> np.ndarray:
        h = np.exp(u)
        return g(w(h), u) * h

    res = adaptive(f, seed_panels(u_lo, u_hi, u_cuts, max_len=4.0), tol / 2.0)
    return QuadResult(res.value, res.error + remainder, res.converged, res.panels)


def phi_of_width_integral(w: WidthFunction, phi: PhiSpec, tol: float) -> QuadResult:
    """integral of phi(w(h)) dh over (0, h_max], in nats.

    The stub below e^u_lo contributes at most e^u_lo * sup(phi); an infinite
    h_max requires a power-tail certificate on the width and a majorant on phi.
    """
    _check_tol(tol)
    u_lo = math.log(tol / (8.0 * phi.sup_value))
    return _log_h_quad(lambda v, u: phi(v), w, u_lo, math.exp(u_lo) * phi.sup_value,
                       lambda t: _phi_majorant(t, phi), tol)


def width_log_h_integral(w: WidthFunction, tol: float) -> QuadResult:
    """integral of w(h) ln(h) dh over (0, h_max], in nats.

    The integrand is signed (negative below h = 1), so h = 1 is always a
    breakpoint. Stub bound: |int_0^d w ln h| <= d (1 + |ln d|).
    """
    _check_tol(tol)
    u_lo = math.log(tol / 8.0) - 1.0
    d = math.exp(u_lo)

    def majorant(t: PowerTail) -> tuple[Callable[[float], float], float]:
        lnc, p, inv_sq = math.log(t.coef), t.exponent, 1.0 / (t.exponent - 1.0) ** 2
        # int_H^inf C h^-p ln h dh = C H^(1-p) [ln H/(p-1) + 1/(p-1)^2]
        return (lambda u: lnc + (1.0 - p) * u + math.log(u / (p - 1.0) + inv_sq),
                max(math.log(t.h_from), 1.0))

    return _log_h_quad(lambda v, u: v * u, w, u_lo, d * (1.0 + abs(math.log(d))), majorant,
                       tol, cuts=(1.0,))

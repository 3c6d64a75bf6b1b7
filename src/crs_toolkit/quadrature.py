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
  width_mass_integral    g = w          stub e^u_lo (or h_lo, 0) C H^(1-p)/(p-1)
  width_log_h_integral   g = w ln h     stub d (1 + |ln d|)      the w ln h tail;
                                        h = 1 is a breakpoint (sign change)

All integrals are in nats; callers convert to bits at the report boundary.
Panel sums are accumulated with math.fsum in position order, so results do
not depend on the refinement schedule.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, QuadratureError

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


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    converged: bool
    panels: int


def gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """One Kronrod-15 panel on [a, b]: (integral, error estimate)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = np.asarray(f(x), dtype=float)
    ik = half * float(_W_KRONROD @ y)
    ig = half * float(_W_GAUSS @ y[1::2])
    return ik, _ERR_SAFETY * abs(ik - ig)


def adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    panels: Sequence[tuple[float, float]],
    tol: float,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """Refine the worst panel until the summed error estimate is below tol."""
    if not panels:
        return QuadResult(0.0, 0.0, True, 0)
    store: dict[int, tuple[float, float, float, float]] = {}
    heap: list[tuple[float, int]] = []
    uid = 0
    for a, b in panels:
        v, e = gk15(f, a, b)
        store[uid] = (a, b, v, e)
        heapq.heappush(heap, (-e, uid))
        uid += 1
    total_err = math.fsum(r[3] for r in store.values())
    while total_err > tol and len(store) < max_panels:
        _, k = heapq.heappop(heap)
        a, b, v, e = store.pop(k)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval at float resolution
            store[k] = (a, b, v, e)
            break
        for lo, hi in ((a, mid), (mid, b)):
            v2, e2 = gk15(f, lo, hi)
            store[uid] = (lo, hi, v2, e2)
            heapq.heappush(heap, (-e2, uid))
            uid += 1
        total_err = math.fsum(r[3] for r in store.values())
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
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """Plain adaptive integration of f over [lo, hi] in the given variable."""
    if hi <= lo:
        return QuadResult(0.0, 0.0, True, 0)
    span = hi - lo
    return adaptive(f, seed_panels(lo, hi, cuts, max_len=max(span / 8, 1e-12)), tol,
                    max_panels=max_panels)


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
    out = np.zeros_like(x)
    m = (x > 0.0) & (x < 1.0)
    out[m] = -x[m] * np.log(x[m])
    return out


def _phi_binary_entropy(x: np.ndarray) -> np.ndarray:
    return _phi_xlogx(x) + _phi_xlogx(1.0 - x)


# -x ln x peaks at 1/e; H_b peaks at ln 2. Majorants: -x ln x <= -x ln x,
# and H_b(x) <= x - x ln x on (0, 1/2] since -(1-x) ln(1-x) <= x.
PHI_XLOGX = PhiSpec(_phi_xlogx, sup_value=math.exp(-1.0), maj_a=0.0, maj_b=1.0)
PHI_BINARY_ENTROPY = PhiSpec(_phi_binary_entropy, sup_value=math.log(2.0), maj_a=1.0, maj_b=1.0)


def wrap_phi(fn: Callable[[np.ndarray], np.ndarray]) -> PhiSpec:
    """Wrap a plain callable as a PhiSpec, estimating its sup on a dense grid.

    No small-x majorant is attached, so the wrapped phi cannot certify
    integrals against widths with infinite h_max.
    """
    grid = np.linspace(0.0, 1.0, 4097)
    vals = np.asarray(fn(grid), dtype=float)
    if vals.min() < -1e-12:
        raise InvalidParameterError("phi must be non-negative on [0, 1]")
    if abs(float(vals[0])) > 1e-12 or abs(float(vals[-1])) > 1e-12:
        raise InvalidParameterError("phi must vanish at 0 and 1")
    return PhiSpec(fn, sup_value=float(vals.max()) * 1.1 + 1e-3)


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
    weval: Callable[[np.ndarray], np.ndarray],
    u_lo: float,
    stub: float,
    h_max: float,
    tail: PowerTail | None,
    majorant: Callable[[PowerTail], tuple[Callable[[float], float], float]],
    tol: float,
    breakpoints: Sequence[float],
    max_panels: int,
) -> QuadResult:
    """integral of g(w(h), ln h) dh over (e^u_lo, h_max], in u = ln h.

    stub bounds the part below e^u_lo. For infinite h_max, majorant(tail)
    gives (ln_bound, u_start) for _tail_cut, and the cut's remainder is
    folded into the error as the stub is.
    """
    remainder = stub
    if math.isinf(h_max):
        if tail is None:
            raise QuadratureError("width has infinite h_max and no tail certificate")
        u_hi, tail_rem = _tail_cut(*majorant(tail), tol / 8.0)
        remainder += tail_rem
    else:
        u_hi = math.log(h_max)
    if u_hi <= u_lo:
        return QuadResult(0.0, remainder, True, 0)
    cuts = [math.log(b) for b in breakpoints if b > 0 and u_lo < math.log(b) < u_hi]

    def f(u: np.ndarray) -> np.ndarray:
        h = np.exp(u)
        return g(weval(h), u) * h

    res = adaptive(f, seed_panels(u_lo, u_hi, cuts, max_len=4.0), tol / 2.0, max_panels)
    return QuadResult(res.value, res.error + remainder, res.converged, res.panels)


def phi_of_width_integral(
    weval: Callable[[np.ndarray], np.ndarray],
    h_max: float,
    phi: PhiSpec,
    tol: float,
    breakpoints: Sequence[float] = (),
    tail: PowerTail | None = None,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """integral of phi(w(h)) dh over (0, h_max], in nats.

    The stub below e^u_lo contributes at most e^u_lo * sup(phi); an infinite
    h_max requires a power-tail certificate on the width and a majorant on phi.
    """
    u_lo = math.log(tol / (8.0 * phi.sup_value))
    return _log_h_quad(lambda w, u: phi(w), weval, u_lo, math.exp(u_lo) * phi.sup_value,
                       h_max, tail, lambda t: _phi_majorant(t, phi), tol, breakpoints,
                       max_panels)


def width_mass_integral(
    weval: Callable[[np.ndarray], np.ndarray],
    h_lo: float,
    h_max: float,
    tol: float,
    breakpoints: Sequence[float] = (),
    tail: PowerTail | None = None,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """integral of w(h) dh over (h_lo, h_max], log-substituted.

    h_lo = 0 is allowed: the stub below e^u_lo is bounded by its length since
    w <= 1.
    """
    if h_lo < 0:
        raise InvalidParameterError("h_lo must be >= 0")
    u_lo = math.log(h_lo or tol / 8.0)

    def majorant(t: PowerTail) -> tuple[Callable[[float], float], float]:
        lnc, p, ln_p1 = math.log(t.coef), t.exponent, math.log(t.exponent - 1.0)
        return lambda u: lnc + (1.0 - p) * u - ln_p1, max(math.log(t.h_from), u_lo)

    return _log_h_quad(lambda w, u: w, weval, u_lo, 0.0 if h_lo else math.exp(u_lo), h_max,
                       tail, majorant, tol, breakpoints, max_panels)


def width_log_h_integral(
    weval: Callable[[np.ndarray], np.ndarray],
    h_max: float,
    tol: float,
    breakpoints: Sequence[float] = (),
    tail: PowerTail | None = None,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """integral of w(h) ln(h) dh over (0, h_max], in nats.

    The integrand is signed (negative below h = 1), so h = 1 is always a
    breakpoint. Stub bound: |int_0^d w ln h| <= d (1 + |ln d|).
    """
    u_lo = math.log(tol / 8.0) - 1.0
    d = math.exp(u_lo)

    def majorant(t: PowerTail) -> tuple[Callable[[float], float], float]:
        lnc, p, inv_sq = math.log(t.coef), t.exponent, 1.0 / (t.exponent - 1.0) ** 2
        # int_H^inf C h^-p ln h dh = C H^(1-p) [ln H/(p-1) + 1/(p-1)^2]
        return (lambda u: lnc + (1.0 - p) * u + math.log(u / (p - 1.0) + inv_sq),
                max(math.log(t.h_from), 1.0))

    return _log_h_quad(lambda w, u: w * u, weval, u_lo, d * (1.0 + abs(math.log(d))), h_max,
                       tail, majorant, tol, (*breakpoints, 1.0), max_panels)

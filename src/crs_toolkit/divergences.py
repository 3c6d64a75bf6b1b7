"""Divergences computed from width functions, and the bound arithmetic.

Everything reduces to one-dimensional integrals of the width:

  D_CS  = -int w(h) log2 w(h) dh          (channel simulation divergence)
  D_ACS =  int Hb[w(h)] dh                (binary-entropy variant)
  D^phi =  int phi(w(h)) dh               (concave phi, phi(0) = phi(1) = 0)
  D_KL  =  log2 e + int w(h) log2 h dh    (integration-by-parts identity)

Step widths are integrated exactly. Any other width goes through one driver,
_log_h_quad, which integrates g(w(h), ln h) dh in u = ln h on the adaptive
engine: panels are seeded between mapped breakpoints, the stub below e^u_lo
is replaced by a certified remainder bound, and an infinite h_max is cut
where a power-law tail majorant bounds the discarded part. Each integral
supplies only its integrand g, its stub end and bound, and its tail majorant:

  D^phi   g = phi(w)   stub e^u_lo * sup(phi)   _phi_majorant
  D_KL    g = w ln h   stub d (1 + |ln d|)      the w ln h tail;
                                                h = 1 is a breakpoint (sign change)

Internal arithmetic is in nats; bits appear only in reports. Every
divergence takes its tolerance in bits, DEFAULT_TOL_BITS = 1e-9 for every
width unless the caller sets it, and refuses a tol that is not positive.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import measures
from .errors import InvalidParameterError, QuadratureError
from .quadrature import QuadResult, _check_tol, adaptive, seed_panels
from .width import PowerTail, StepWidth, WidthFunction

LN2 = math.log(2.0)
LOG2_E_PLUS_1 = math.log2(math.e + 1.0)

DEFAULT_TOL_BITS = 1e-9


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
    # log(1 - x) would round away the -x term for small x; log1p keeps it.
    # The clamp keeps x = 1 finite: 0 * log1p(-1) would be 0 * -inf = nan.
    return _phi_xlogx(x) - (1.0 - x) * np.log1p(-np.minimum(x, 1.0 - 2.0**-53))


# -x ln x peaks at 1/e; H_b peaks at ln 2. Majorants: -x ln x <= -x ln x,
# and H_b(x) <= x - x ln x on (0, 1/2] since -(1-x) ln(1-x) <= x.
PHI_XLOGX = PhiSpec(_phi_xlogx, sup_value=math.exp(-1.0), maj_a=0.0, maj_b=1.0)
PHI_BINARY_ENTROPY = PhiSpec(_phi_binary_entropy, sup_value=math.log(2.0), maj_a=1.0, maj_b=1.0)


@dataclass(frozen=True)
class DivergenceReport:
    kind: str  # KL | CS | ACS | PHI
    value_bits: float
    abs_error_estimate: float
    method: str  # closed_form | quadrature | discrete_sum
    converged: bool = True

    def __post_init__(self):
        if self.value_bits < 0.0:
            raise InvalidParameterError("divergence values are non-negative")

    def to_json(self) -> dict:
        return asdict(self)


def _report(kind: str, value_bits: float, err_bits: float, method: str,
            converged: bool = True) -> DivergenceReport:
    if value_bits < 0.0:
        if value_bits < -max(err_bits, 1e-12):
            raise QuadratureError(f"{kind} evaluated to {value_bits}, beyond its error bar")
        value_bits = 0.0
    return DivergenceReport(kind, value_bits, err_bits, method, converged)


def _quarter_steps(u: float, n: int) -> float:
    """u >= 0 after n steps of u += 0.25, as one sum u + j/4 per run of steps
    up to the first past the next power of two: only that last one rounds."""
    if (t := u + 0.25 * n) - u == 0.25 * n and t - 0.25 * n == u:  # exact (Fast2Sum): so is each step
        return t
    while n:
        j = min(n, math.ceil((2.0 ** math.frexp(u)[1] - u) * 4.0))
        u, n = u + 0.25 * j, n - j
    return u


def _tail_cut(ln_bound: Callable[[float], float], u_start: float,
              budget: float) -> tuple[float, float]:
    """(u, e^ln_bound(u)) at the first u with ln_bound(u) <= ln(budget) on
    the grid u_start, then each point the last plus 0.25, up to its first
    point past 690; QuadratureError if none. ln_bound(u) is the log of a
    certified bound on the width integral beyond H = e^u. Both majorants
    are (1 - p) u plus the log of an increasing affine function of u on
    [u_start, inf) (the phi bracket does not clamp there, the KL one needs
    u >= 1), so concave: once fallen within budget they keep falling, and
    past u_start a gallop and a bisection find the grid's suffix within it."""
    ln_budget = math.log(budget)
    lo, hi, u_lo, u_hi, ln_b = -1, 0, -math.inf, u_start, ln_bound(u_start)
    while not ln_b <= ln_budget and u_hi <= 690.0:  # over budget at grid[hi]: gallop
        lo, u_lo = hi, u_hi
        hi, u_hi = 2 * hi + 1, _quarter_steps(u_hi, hi + 1)
        ln_b = ln_bound(u_hi)
    while hi - lo > 1 and ln_b <= ln_budget:  # over budget at grid[lo], within at grid[hi]
        mid = (lo + hi) // 2
        u = _quarter_steps(u_lo, mid - lo)
        if (ln_mid := ln_bound(u)) <= ln_budget:
            hi, u_hi, ln_b = mid, u, ln_mid
        else:
            lo, u_lo = mid, u
    # an over-budget point past 690, the gallop's or grid[lo], is where the scan raises
    if not ln_b <= ln_budget or u_lo > 690.0:
        raise QuadratureError("power tail too heavy to truncate within float range; "
                              "exponent too close to 1")
    return u_hi, math.exp(ln_b)


def _log_h_quad(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    w: WidthFunction,
    u_lo: float,
    stub: float,
    majorant: Callable[[PowerTail], tuple[Callable[[float], float], float]],
    tol: float,
    cuts: Sequence[float] = (),
) -> QuadResult:
    """integral of g(w(h), ln h) dh over (e^u_lo, w.h_max], in u = ln h, in nats.

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


def _phi_quad(w: WidthFunction, phi: PhiSpec, tol: float) -> QuadResult:
    """integral of phi(w(h)) dh over (0, h_max] by _log_h_quad, in nats; the
    stub below e^u_lo contributes at most e^u_lo * sup(phi)."""
    u_lo = math.log(tol / (8.0 * phi.sup_value))
    return _log_h_quad(lambda v, u: phi(v), w, u_lo, math.exp(u_lo) * phi.sup_value,
                       lambda t: _phi_majorant(t, phi), tol)


def quad_phi_integral(
    w: WidthFunction,
    phi: PhiSpec,
    tol: float = DEFAULT_TOL_BITS,
) -> DivergenceReport:
    """D^phi = integral of phi(w(h)) dh, reported in bits.

    phi is a PhiSpec, whose sup_value bounds the stub below the first panel;
    a bare callable carries no such bound and is refused. Step widths are
    summed exactly; otherwise panels split at the width's breakpoints and an
    infinite h_max needs the width's power-tail certificate and phi's
    majorant. A run that exhausts its panel budget reports its best value
    with converged = False. The report's kind is CS for PHI_XLOGX, ACS for
    PHI_BINARY_ENTROPY and PHI for any other phi.
    """
    _check_tol(tol)
    if not isinstance(phi, PhiSpec):
        raise InvalidParameterError("phi must be a PhiSpec with a proven sup_value")
    kind = "CS" if phi is PHI_XLOGX else "ACS" if phi is PHI_BINARY_ENTROPY else "PHI"
    if isinstance(w, StepWidth):
        # phi's clip is left out: the values lie in (0, 1] already
        exact = float(np.dot(w._lengths, phi.fn(w.values)))
        return _report(kind, exact / LN2, 0.0, "discrete_sum")
    res = _phi_quad(w, phi, tol * LN2)
    return _report(kind, res.value / LN2, res.error / LN2, "quadrature", res.converged)


def channel_simulation_divergence(w: WidthFunction, tol: float = DEFAULT_TOL_BITS) -> DivergenceReport:
    """D_CS in bits."""
    return quad_phi_integral(w, PHI_XLOGX, tol)


def alternative_divergence(w: WidthFunction, tol: float = DEFAULT_TOL_BITS) -> DivergenceReport:
    """D_ACS in bits."""
    return quad_phi_integral(w, PHI_BINARY_ENTROPY, tol)


def _w_ln_h_quad(w: WidthFunction, tol: float) -> QuadResult:
    """integral of w(h) ln(h) dh over (0, h_max] by _log_h_quad, in nats.

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

    return _log_h_quad(lambda v, u: v * u, w, u_lo, d * (1.0 + abs(math.log(d))), majorant,
                       tol, cuts=(1.0,))


def _kl_width_identity_bits(w: WidthFunction, tol_bits: float) -> tuple[float, float, bool, str]:
    if isinstance(w, StepWidth):
        # exact: int_a^b ln h dh = F(b) - F(a), F(h) = h ln h - h, F(0) = 0
        f = [0.0, *(h * math.log(h) - h for h in w.breakpoints)]
        total = math.fsum(v * (b - a) for v, a, b in zip(w.values.tolist(), f, f[1:]))
        return (1.0 + total) / LN2, 0.0, True, "discrete_sum"
    res = _w_ln_h_quad(w, tol_bits * LN2)
    return (1.0 + res.value) / LN2, res.error / LN2, res.converged, "quadrature"


def kl_divergence(
    spec: measures.DistributionPair,
    route: str = "closed_form",
    tol: float = DEFAULT_TOL_BITS,
) -> DivergenceReport:
    """D_KL in bits via the family closed form or the width identity.

    The two routes agree within combined tolerance; spec.kl_route names the
    route a family supports (synthetic specs only the width identity). tol
    is checked on both routes, although the closed form and a step width's
    exact sum do not read it.
    """
    _check_tol(tol)
    if route == "closed_form":
        return _report("KL", spec.kl_bits(), 0.0, "closed_form")
    if route == "width_identity":
        value, err, converged, method = _kl_width_identity_bits(spec.width(), tol)
        return _report("KL", value, err, method, converged)
    raise InvalidParameterError(f"unknown KL route {route!r}")


def dcs_laplace_closed(b: float) -> float:
    """Closed-form D_CS of Laplace(0, b) vs Laplace(0, 1), in bits:
    (b + psi(1/b) + gamma - 1) / ln 2."""
    from scipy.special import digamma  # on first use: a 0.3 s import, off every hot path

    if not (0.0 < b <= 1.0):
        raise InvalidParameterError(f"laplace scale must be in (0, 1], got {b}")
    return (b + float(digamma(1.0 / b)) + np.euler_gamma - 1.0) / LN2


def kl_sandwich(kl_bits: float) -> float:
    """The KL-based upper bound on the index entropy, in bits: with
    kl = D_KL, D_CS lies in [kl, kl + log2(kl+1) + 1], and the sampler
    entropy below that upper end plus log2(e+1)."""
    if not kl_bits >= 0.0:
        raise InvalidParameterError("kl_bits must be >= 0")
    cs_upper = kl_bits + math.log2(kl_bits + 1.0) + 1.0
    return cs_upper + LOG2_E_PLUS_1


def dcs_integral_representation_check(
    w: WidthFunction, tol: float = 1e-6
) -> tuple[float, float]:
    """(lhs_bits, rhs_bits): D_CS from its definition versus the nested
    integral representation

        D_CS ln 2 = -1 + int_0^1 dy/y int_0^inf min{w(h), y} dh.

    Finite h_max only. The inner integral is a layer cake: w is
    non-increasing and exceeds y exactly on [0, r(y)), r = w.ratio_inverse,
    so it equals y r(y) + T(r(y)) with T = w.tail_integral, which raises
    where T did not converge. Each outer panel batch takes one
    ratio_inverse call and one tail integral per node.
    The value is stationary in r, since d/dr [y r + T(r)] = y - w(r) = 0 at
    r(y), so an error in r enters only at second order. T needs only a
    relative tolerance, such as each width's tail keeps: T(r(y)) <= y
    (h_max - r(y)), as w <= y beyond r(y), so an error of rho T(r(y)) stays
    below rho h_max after the 1/y factor, for every y.
    """
    if not math.isfinite(w.h_max):
        raise InvalidParameterError("integral representation check needs finite h_max")
    lhs = channel_simulation_divergence(w, tol / 4.0)
    cuts = [b for b in w.breakpoints if 0.0 < b < w.h_max]
    tol_nats = tol * LN2

    def outer_integrand(ys: np.ndarray) -> np.ndarray:
        rs = w.ratio_inverse(ys)
        return rs + np.array([w.tail_integral(r).value for r in rs.tolist()]) / ys

    levels = sorted({float(v) for v in np.atleast_1d(w(np.asarray(cuts))) if 0.0 < v < 1.0}) \
        if cuts else []
    res = adaptive(outer_integrand, seed_panels(0.0, 1.0, levels, max_len=0.125), tol_nats / 2.0)
    if not res.converged:
        raise QuadratureError("outer integral of the representation check did not converge")
    rhs = (res.value - 1.0) / LN2
    return lhs.value_bits, rhs

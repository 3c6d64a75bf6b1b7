"""Width functions w(h) = P(dQ/dP >= h) and their tail integrals.

A width function is non-increasing with w(0) = 1 and unit integral; it is the
only object the divergences and the sampling recursion ever consult. Values
at jump points follow P(dQ/dP >= h) exactly, which is the left-continuous
choice at atoms of the density ratio (the discrete pair with ratios {2, 0}
has w(2) = 0.5); every integral here is insensitive to that choice.

Each class states its formula, _formula(h), valid on h >= 0, its tail T,
_tail(h), and its ratio r, _inverse(u), with no fallback for T or r; the
WidthFunction docstring gives the subclass contract.
The domains live in the base class, once each. WidthFunction.__call__ rejects
negative and NaN h, clips the formula to [0, 1], then pins w(0) = 1 and w = 0
for h > h_max, each pin only when the argument's min or max reaches it.
tail_integral rejects the same h, is 0 from h_max on, so _tail sees only
0 <= h < h_max, and raises QuadratureError where _tail did not converge;
ratio_inverse admits u in (0, 1) only.

Analytic widths per family:

  laplace(b):   w(h) = 1 - (b h)^(b/(1-b)) on [0, 1/b]; indicator of [0, 1]
                at b = 1. Derived from the symmetric superlevel interval
                |x| <= (b/(1-b)) ln(1/(b h)) of the ratio and the Laplace(0,1)
                interval probability 1 - e^-t; cross-checked by Monte Carlo.
  gaussian:     the log-ratio is d*t0 - a * sum_i (x_i - c)^2 with
                a = 1/(2 sigma^2) - 1/2 and c = mu/(1 - sigma^2), so
                w(h) = F[(d*t0 - ln h)/a] where F is the noncentral
                chi-square CDF with d degrees of freedom and noncentrality
                d*c^2, read from scipy.special.chndtr (Boost Math, which sums
                only the Poisson terms that matter at each x).
  discrete:     exact step function over the sorted ratio levels.
  synthetic:    any caller-supplied width; uniform proposal on (0, 1) with
                density ratio equal to the decreasing generalized inverse
                r(u) = sup{h : w(h) > u}.

Tail integrals T(h) = integral of w over (h, h_max], which the GRS recursion
reads once per step, are closed forms: laplace (with a series near h_max),
gaussian (the layer cake T(h) = Q(dQ/dP >= h) - h w(h)), step widths (suffix
sums) and the two optimal widths. A width's mass, 1, is T(0).

scipy.special is imported on first use, not with this module: a GaussianWidth
binds chndtr at its first w(h) and its inverse chndtrix at its first r(u),
and an OptimalAcsWidth betainc at its first T(h > 0). No other width does.
"""
from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidParameterError, QuadratureError
from .quadrature import QuadResult, adaptive

if TYPE_CHECKING:  # pragma: no cover
    from .measures import DistributionPair

LN2 = math.log(2.0)

_EPS = sys.float_info.epsilon
_TINY = math.ulp(0.0)
# below the normal range rounding is absolute, up to this much
_MIN_NORMAL = sys.float_info.min
# Laplace tail: series below this delta * max(e, 1), where its terms shrink
# by a factor 20 or more each, so the term cap is never reached
_LAPLACE_SERIES_BAND = 0.05
_LAPLACE_SERIES_TERMS = 40
# Gaussian tail: quadrature once Q(r >= h) - h w(h) would cancel 7 digits,
# to this tolerance relative to (h_max - h) w(h) >= T(h)
_GAUSSIAN_CANCEL_LIMIT = 1e-7
_GAUSSIAN_QUAD_TOL = 1e-13

def gaussian_log_ratio_constants(mu: float, sigma: float) -> tuple[float, float, float]:
    """Per-dimension constants (a, c, t0) of the Gaussian pair log-ratio.

    ln(q/p)(x) = t0 - a (x - c)^2 with a > 0 for sigma < 1; t0 is the peak
    log-ratio, attained at x = c.
    """
    a = 0.5 / sigma**2 - 0.5
    c = mu / (1.0 - sigma**2)
    t0 = -math.log(sigma) - (c - mu) ** 2 / (2.0 * sigma**2) + c**2 / 2.0
    return a, c, t0


class WidthFunction:
    """Base width function: vectorized evaluation plus integral helpers.

    A subclass sets h_max and breakpoints, and implements _formula, w on an
    array of h >= 0 as a new array, finite and warning-free there (__call__
    overrides it at h = 0 and beyond h_max), _tail, T on [0, h_max) with
    an error bar, and _inverse, r on an array of u in (0, 1). T(0) is the
    mass, 1; a _tail that integrates picks its own tolerance and reports
    converged=False where it misses it, on which tail_integral raises. It
    may set a PowerTail certificate `tail` (needed when h_max is infinite);
    there is no base-class __init__ to call.
    """

    h_max: float
    breakpoints: tuple[float, ...]
    tail: PowerTail | None = None

    def _formula(self, h: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, h) -> np.ndarray:
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if h.size == 1:  # one point: the same values from scalar tests
            return self._one_point(h)
        if h.size == 0:
            return np.zeros_like(h)
        lo, hi = h.min(), h.max()
        if not lo >= 0.0:  # the min of an array holding NaN is NaN
            raise InvalidParameterError("width argument h must be >= 0")
        out = self._formula(h).clip(0.0, 1.0)
        # the pins touch the array only when its range reaches them, so a
        # quadrature panel or an orbit point inside (0, h_max] skips both
        if lo == 0.0:
            out[h == 0.0] = 1.0
        if hi > self.h_max:
            out[h > self.h_max] = 0.0
        return out

    def _one_point(self, h: np.ndarray) -> np.ndarray:
        """__call__ on an array of one point, with no reductions, and no clip
        of a value already in [0, 1]."""
        x = h.item()
        if not x >= 0.0:  # NaN fails too
            raise InvalidParameterError("width argument h must be >= 0")
        if x == 0.0 or x > self.h_max:
            return np.full_like(h, 1.0 if x == 0.0 else 0.0)
        out = self._formula(h)
        return out if 0.0 <= out.item() <= 1.0 else out.clip(0.0, 1.0)

    def tail_integral(self, h: float) -> QuadResult:
        """T(h) = integral of w over (h, h_max], which the GRS recursion reads
        as its survival masses S_k = T(L_k), with its error bar.

        The domain lives here, as w's lives in __call__: NaN or negative h is
        rejected, and T is exactly 0 from h_max on, so a subclass's _tail
        only sees 0 <= h < h_max. A _tail that did not converge raises
        QuadratureError: its value and bar certify nothing.
        """
        if not h >= 0.0:  # NaN fails too
            raise InvalidParameterError("h must be >= 0")
        if h >= self.h_max:
            return QuadResult(0.0, 0.0, True, 0)
        res = self._tail(h)
        if not res.converged:
            raise QuadratureError(f"tail integral at h = {h!r} did not converge")
        return res

    def _tail(self, h: float) -> QuadResult:
        raise NotImplementedError

    def ratio_inverse(self, u) -> np.ndarray:
        """Decreasing generalized inverse r(u) = sup{h : w(h) > u}, u in (0, 1).

        This is the density ratio of the synthetic pair built on this width.
        The domain lives here, as w's lives in __call__: u outside (0, 1),
        NaN included, is rejected before a subclass's _inverse sees it.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if not np.all((u > 0.0) & (u < 1.0)):  # NaN fails too
            raise InvalidParameterError("ratio_inverse is defined on (0, 1)")
        return self._inverse(u)

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class StepWidth(WidthFunction):
    """Piecewise-constant width: values[j] on (edges[j], edges[j+1]].

    All integrals are exact segment sums, so recursions driven by a step
    width are exact up to float rounding.
    """

    def __init__(self, edges: Sequence[float], values: Sequence[float]):
        edges_a = np.asarray(edges, dtype=float)
        values_a = np.asarray(values, dtype=float)
        if edges_a.ndim != 1 or values_a.ndim != 1 or len(edges_a) != len(values_a) + 1:
            raise InvalidParameterError("need len(edges) == len(values) + 1")
        # NaN fails each `not np.all(...)` test
        if not (edges_a[0] == 0.0 and np.all(np.diff(edges_a) > 0.0)
                and math.isfinite(edges_a[-1])):
            raise InvalidParameterError("edges must start at 0, strictly increase and be finite")
        if not (np.all((values_a >= 0.0) & (values_a <= 1.0)) and np.all(np.diff(values_a) <= 0.0)):
            raise InvalidParameterError("values must be non-increasing within [0, 1]")
        if values_a[-1] <= 0.0:
            raise InvalidParameterError(
                "trailing zero-value segments must be dropped; they would overstate h_max")
        self.edges = edges_a
        self.values = values_a
        self.h_max = float(edges_a[-1])
        self.breakpoints = tuple(float(e) for e in edges_a[1:])
        seg_mass = np.diff(edges_a) * values_a
        # mass below edges[j], and mass above edges[j] summed from the right,
        # so a small tail is never the difference of two large masses
        self._cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        self._suffix = np.append(np.cumsum(seg_mass[::-1])[::-1], 0.0)
        # _inverse's levels, ascending, with a phantom level 1 at h = 0 last,
        # and at index s, r(u) for levels[s - 1] <= u < levels[s]: the right
        # edge of the segment whose value is levels[s]
        self._levels = np.append(values_a[::-1], 1.0)
        self._level_ratios = np.append(edges_a[:0:-1], 0.0)

    def _formula(self, h: np.ndarray) -> np.ndarray:
        # side="left" puts an exact edge hit in the segment to its left.
        idx = np.searchsorted(self.edges[1:], h, side="left")
        return self.values[np.minimum(idx, len(self.values) - 1)]

    def _segment(self, t: float) -> int:
        """Index j of the segment [edges[j], edges[j+1]) holding t in [0, h_max]."""
        return min(bisect.bisect_right(self.breakpoints, t), len(self.values) - 1)

    def band_integral(self, lo: float, hi: float) -> float:
        """integral of w over [lo, hi], exact up to rounding."""
        lo = min(max(lo, 0.0), self.h_max)
        hi = min(max(hi, 0.0), self.h_max)
        if hi <= lo:
            return 0.0

        def below(t: float) -> float:
            j = self._segment(t)
            return float(self._cum[j] + self.values[j] * (t - self.edges[j]))

        return below(hi) - below(lo)

    def _tail(self, h: float) -> QuadResult:
        j = self._segment(h)
        value = float(self.values[j] * (self.edges[j + 1] - h) + self._suffix[j + 1])
        return QuadResult(value, 0.0, True, 0)

    def _level(self, u: np.ndarray) -> np.ndarray:
        # w(h) > u holds up to the right edge of the last segment whose value
        # exceeds u; the phantom level 1 > u keeps the index in range
        return np.searchsorted(self._levels, u, side="right")

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        return self._level_ratios[self._level(u)]

    # built on first use: only a synthetic pair's sampler reads it
    @functools.cached_property
    def _exp_log_level_ratios(self) -> np.ndarray:
        with np.errstate(divide="ignore"):  # a ratio of 0 has log -inf
            return np.exp(np.log(self._level_ratios))

    def exp_log_inverse(self, u: np.ndarray) -> np.ndarray:
        """exp(log r(u)) for u in (0, 1), unchecked, gathered from a table of
        the levels: the synthetic pair's dQ/dP as np.exp of its log_ratio
        gives it, bit for bit (exp(log r) can be an ulp off r)."""
        return self._exp_log_level_ratios.take(self._level(u))


class LaplaceWidth(WidthFunction):
    """Width of Laplace(0, b) against Laplace(0, 1), 0 < b < 1."""

    def __init__(self, b: float):
        if not (0.0 < b < 1.0):
            raise InvalidParameterError("LaplaceWidth needs 0 < b < 1; b = 1 is a step")
        self.b = float(b)
        self.expo = b / (1.0 - b)
        self.h_max = 1.0 / b
        self.breakpoints = (self.h_max,)
        self._series_below = _LAPLACE_SERIES_BAND / max(self.expo, 1.0)

    def _formula(self, h: np.ndarray) -> np.ndarray:
        # b h > 1 only beyond h_max or by rounding at it, where w is 0
        # either way; the clamp keeps a large exponent from overflowing
        return 1.0 - np.power(np.minimum(self.b * h, 1.0), self.expo)

    def _tail(self, h: float) -> QuadResult:
        """Closed form: with delta = 1 - b h and e = b/(1-b),

            b T(h) = delta + expm1((e+1) log1p(-delta)) / (e+1)
                   = sum_{n>=2} C(e, n-1) (-delta)^n / n.

        The closed form cancels about log10(2/(e delta)) digits as delta
        shrinks, so the series takes over once delta * max(e, 1) is small
        enough for it to converge in a dozen terms.
        """
        # within an ulp of h_max, b h can round to 1 or above, where T is 0:
        # the series at delta = 0 returns (0.0, 0.0)
        delta = max(1.0 - self.b * h, 0.0)
        e = self.expo
        if delta < self._series_below:
            term = e * delta * delta  # C(e, n-1) (-delta)^n at n = 2
            bt = 0.5 * term
            for n in range(2, _LAPLACE_SERIES_TERMS):
                term *= -delta * (e - n + 1.0) / n
                bt += term / (n + 1)
                if abs(term) <= _EPS * bt:
                    break
            scale = bt
        else:
            # (b h)^(e+1) = (1 - delta)^(e+1), which vanishes once b h < ulp/2
            power_m1 = math.expm1((e + 1.0) * math.log1p(-delta)) if delta < 1.0 else -1.0
            bt = delta + power_m1 / (e + 1.0)
            scale = delta
        # rounding: a few ulp of the largest term, plus the shift of delta by
        # half an ulp when b h is rounded, which moves b T by up to w(h) ulp/2
        return QuadResult(bt / self.b, _EPS * (4.0 * scale + min(1.0, e * delta)) / self.b, True, 0)

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        return (1.0 / self.b) * np.power(1.0 - u, 1.0 / self.expo)


def indicator_width() -> StepWidth:
    """Width 1[h <= 1] of the identity pair Q = P."""
    return StepWidth([0.0, 1.0], [1.0])


def equality_case_width(c: float) -> StepWidth:
    """Width (1/c) 1[h <= c], c >= 1: the family where D_CS = D_KL = log2 c."""
    if not c >= 1.0:  # NaN fails too
        raise InvalidParameterError("need c >= 1")
    w = indicator_width() if c == 1.0 else StepWidth([0.0, c], [1.0 / c])
    w.label = f"equality_case(c={c:g})"
    return w


def two_level_width(eps: float) -> StepWidth:
    """Three-piece width: 1 up to 1/(1+e), then eps on a span of e/((1+e) eps).

    The family whose index-entropy gap approaches log2(e+1) as eps -> 0.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParameterError("need 0 < eps < 1")
    a = 1.0 / (1.0 + math.e)
    span = math.e / ((1.0 + math.e) * eps)
    w = StepWidth([0.0, a, a + span], [1.0, eps])
    w.label = f"two_level(eps={eps:g})"
    return w


class GaussianWidth(WidthFunction):
    """Width of N(mu, sigma^2)^d against N(0, 1)^d, 0 < sigma < 1."""

    def __init__(self, mu: float, sigma: float, d: int):
        if not math.isfinite(mu):
            raise InvalidParameterError("need a finite mu")
        if not (0.0 < sigma < 1.0):
            raise InvalidParameterError("need 0 < sigma < 1")
        if not (d >= 1 and d % 1 == 0):  # NaN and inf fail too
            raise InvalidParameterError("need integer dimension d >= 1")
        if d > 256:
            raise InvalidParameterError("d > 256 is outside the supported dimensions")
        self.mu, self.sigma, self.d = float(mu), float(sigma), int(d)
        self.a, self.c, self.t0 = gaussian_log_ratio_constants(mu, sigma)
        # noncentralities of sum_i (x_i - c)^2 under P, and of the same sum
        # over sigma^2 under Q
        self.noncentrality = d * self.c**2
        self._q_noncentrality = d * (self.mu - self.c) ** 2 / self.sigma**2
        self.ln_h_max = d * self.t0
        try:
            self.h_max = math.exp(self.ln_h_max)
        except OverflowError:
            raise OverflowError(f"gaussian h_max = exp(d t0) = exp({self.ln_h_max:.6g}) "
                                "is beyond the float range") from None
        self.breakpoints = (self.h_max,)

    # the noncentral chi-square CDF and its inverse in x, each bound on first
    # use, so that a width that is never evaluated never loads scipy
    @functools.cached_property
    def _chndtr(self):
        from scipy.special import chndtr
        return chndtr

    @functools.cached_property
    def _chndtrix(self):
        from scipy.special import chndtrix
        return chndtrix

    def _chi2_argument(self, h: np.ndarray | float) -> np.ndarray | float:
        """x = (d t0 - ln h)/a, so that {r >= h} = {sum_i (x_i - c)^2 <= x}."""
        return (self.ln_h_max - np.log(h)) / self.a

    def _formula(self, h: np.ndarray) -> np.ndarray:
        # x < 0 beyond h_max, where chndtr is NaN, clamps to w = 0; the
        # smallest subnormal stands in for h = 0, whose log would be -inf
        x = self._chi2_argument(np.maximum(h, _TINY))
        return self._chndtr(np.maximum(x, 0.0), self.d, self.noncentrality)

    def _tail(self, h: float) -> QuadResult:
        """Layer cake: T(h) = Q(r >= h) - h w(h), with r = dQ/dP.

        With x = (d t0 - ln h)/a, Q(r >= h) is the Q-side noncentral
        chi-square CDF at x / sigma^2. Near h_max the two terms cancel; once
        more than 7 digits would go, T is integrated instead in v = sqrt(x),
        where t = h_max exp(-a v^2) maps [h, h_max] onto [0, sqrt(x)]:

            T(h) = 2 a h_max * integral over [0, sqrt(x)] of F(v^2) exp(-a v^2) v dv,

        F the P-side CDF. The endpoint h_max sits at v = 0, where floats
        resolve it, and the integrand is smooth in v for every d.
        """
        if h == 0.0:
            return QuadResult(1.0, 0.0, True, 0)
        # the same x as w(h) below: an error in x cancels between the two
        # terms only when both see it, and one ulp apart costs digits
        x = float(self._chi2_argument(h))
        q_mass = float(self._chndtr(max(x, 0.0) / self.sigma**2, self.d, self._q_noncentrality))
        w_h = float(self(h)[0])
        hw = h * w_h
        value = q_mass - hw
        # T moves by h w(h) per unit of a x, and a x carries a few ulp of ln h
        # and of ln h_max = d t0: near h_max this outgrows T, as a x shrinks
        x_rounding = 64.0 * _EPS * (1.0 + abs(self.ln_h_max) + abs(math.log(h))) * hw
        # a w(h) below the normal range has lost its digits, and h w(h) with it
        if value < _GAUSSIAN_CANCEL_LIMIT * q_mass or w_h < _MIN_NORMAL:
            scale = 2.0 * self.a * self.h_max

            def integrand(v: np.ndarray) -> np.ndarray:
                y = v * v
                return self._chndtr(y, self.d, self.noncentrality) * np.exp(-self.a * y) * v

            # w does not increase, so T(h) <= (h_max - h) w(h): a tolerance
            # relative to that bound is never tighter than the same share of
            # T; the floor keeps it positive where the bound underflows
            tol = max(_GAUSSIAN_QUAD_TOL * (self.h_max - h) * w_h / scale, 1e-300)
            res = adaptive(integrand, [(0.0, math.sqrt(x))], tol)
            # with w(h) below the normal range, T <= (h_max - h) w(h) is below
            # (h_max - h) _MIN_NORMAL, which the bar adds for all the integrand lost
            underflow = (self.h_max - h) * _MIN_NORMAL if w_h < _MIN_NORMAL else 0.0
            return QuadResult(scale * res.value, scale * res.error + x_rounding + underflow,
                              res.converged, res.panels)
        # the two terms also carry ulp-level errors relative to Q
        return QuadResult(value, 64.0 * _EPS * q_mass + x_rounding, True, 0)

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        # w(h) = F(x(h)) > u exactly where x(h) > F^-1(u), and x falls with h
        return np.exp(self.ln_h_max - self.a * self._chndtrix(u, self.d, self.noncentrality))


@dataclass(frozen=True)
class PowerTail:
    """Certificate w(h) <= coef * h**-exponent for all h >= h_from, exponent > 1."""

    coef: float
    exponent: float
    h_from: float

    def __post_init__(self):
        if not (self.exponent > 1.0 and self.coef > 0.0 and self.h_from > 0.0):
            raise InvalidParameterError("power tail needs coef > 0, exponent > 1, h_from > 0")


class OptimalCsWidth(WidthFunction):
    """Width maximizing D_CS at fixed D_KL: 1 up to alpha, then (h/alpha)^-p.

    alpha in (0, 1), p = 1/(1 - alpha). Closed forms (nats):
    D_KL = 1/alpha - 1 + ln(alpha), D_CS = (1 - alpha)/alpha.
    """

    def __init__(self, alpha: float):
        if not (0.0 < alpha < 1.0):
            raise InvalidParameterError("need 0 < alpha < 1")
        self.alpha = float(alpha)
        self.p = 1.0 / (1.0 - alpha)
        # p - 1, not rounded through p: T's power carries its error times ln h
        self.expo = alpha / (1.0 - alpha)
        self.h_max = math.inf
        self.breakpoints = (self.alpha,)
        # beyond alpha the width IS coef * h^-p; the 1e-12 pad keeps the
        # certificate an upper bound under float rounding
        self.tail = PowerTail(coef=self.alpha**self.p * (1.0 + 1e-12),
                              exponent=self.p, h_from=self.alpha)

    def _formula(self, h: np.ndarray) -> np.ndarray:
        # up to alpha the clamped ratio is exactly 1, and so is its power
        return np.power(np.maximum(h, self.alpha) / self.alpha, -self.p)

    def kl_bits(self) -> float:
        return (1.0 / self.alpha - 1.0 + math.log(self.alpha)) / LN2

    def dcs_bits(self) -> float:
        return (1.0 - self.alpha) / self.alpha / LN2

    def _tail(self, h: float) -> QuadResult:
        """T(h) = 1 - h up to alpha, and (1 - alpha) (h/alpha)^(1 - p) beyond."""
        if h <= self.alpha:
            return QuadResult(1.0 - h, _EPS * (1.0 - h), True, 0)
        # two powers, since h/alpha overflows for h near the float maximum;
        # an ulp of expo moves each by expo |ln| ulp
        value = (1.0 - self.alpha) * h**-self.expo * self.alpha**self.expo
        ulps = 5.0 + self.expo * (abs(math.log(h)) - math.log(self.alpha))
        return QuadResult(value, _EPS * ulps * value + _MIN_NORMAL, True, 0)

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        return self.alpha * np.power(u, -(1.0 - self.alpha))


class OptimalAcsWidth(WidthFunction):
    """Width maximizing D_ACS at fixed D_KL: w(h) = 1/(1 + (beta h)^alpha).

    alpha > 1, beta = (pi/alpha)/sin(pi/alpha). Closed forms (nats):
    D_KL = -(ln(beta) - 1 + beta cos(pi/alpha)), D_ACS = alpha - pi cot(pi/alpha).
    """

    def __init__(self, alpha: float):
        if not alpha > 1.0:
            raise InvalidParameterError("need alpha > 1")
        self.alpha = float(alpha)
        self.beta = (math.pi / alpha) / math.sin(math.pi / alpha)
        self.h_max = math.inf
        self.breakpoints = ()
        # 1/(1+y) < 1/y, but the slack is absorbed by rounding once y > 1e16
        self.tail = PowerTail(coef=self.beta**-alpha * (1.0 + 1e-12),
                              exponent=alpha, h_from=2.0 / self.beta)

    def _formula(self, h: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # (beta h)^alpha = inf gives w = 0
            return 1.0 / (1.0 + np.power(self.beta * h, self.alpha))

    def kl_bits(self) -> float:
        a = self.alpha
        return -(math.log(self.beta) - 1.0 + self.beta * math.cos(math.pi / a)) / LN2

    def dacs_bits(self) -> float:
        a = self.alpha
        return (a - math.pi / math.tan(math.pi / a)) / LN2

    # the regularized incomplete beta, bound at the first T(h) with h > 0,
    # so that T(0), the mass a SyntheticSpec checks, never loads scipy
    @functools.cached_property
    def _betainc(self):
        from scipy.special import betainc
        return betainc

    def _tail(self, h: float) -> QuadResult:
        """T(h) = I_y(1 - a, a), y = 1/(1 + (beta h)^alpha), a = 1/alpha."""
        # s = (beta t)^alpha maps T onto a beta tail over B(a, 1 - a) = alpha
        # beta, and I is the regularized incomplete beta. Each branch keeps
        # its argument <= 1/2: y = 1/(1 + z) would round to 1 for small h,
        # and the complement 1 - I_{1-y}(a, 1 - a) would cancel for large h
        if h == 0.0:
            return QuadResult(1.0, 0.0, True, 0)
        alpha, a, t = self.alpha, 1.0 / self.alpha, self.beta * h
        if t < 1.0:
            z = t**alpha
            value, scale = 1.0 - float(self._betainc(a, 1.0 - a, z / (1.0 + z))), 1.0
        else:
            # once 1/z < eps, T is the first form's leading term
            # t^(1 - alpha)/((alpha - 1) beta), relative O(1/z), taken as two
            # powers since t overflows for h near the float maximum
            zi = t**-alpha
            value = scale = (h ** (1.0 - alpha) * self.beta**-alpha / (alpha - 1.0) if zi < _EPS
                             else float(self._betainc(1.0 - a, a, zi / (1.0 + zi))))
        # rounding of t, z and the betas moves T by up to about alpha + 4 ulp
        # of scale; that of the parameter 1 - a moves y^(1 - a) by up to
        # |ln y|/2 ulp, and |ln y| <= alpha ln t + ln 2
        ulps = 9.0 + 2.0 * alpha + alpha * max(math.log(h) + math.log(self.beta), 0.0)
        return QuadResult(value, _EPS * ulps * scale + _MIN_NORMAL, True, 0)

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        return np.power(1.0 / u - 1.0, 1.0 / self.alpha) / self.beta


def width_from_discrete(q: Sequence[float], p: Sequence[float]) -> StepWidth:
    """Exact step width of a discrete pair from its sorted density ratios."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any((q > 0.0) & (p == 0.0)):
        raise InvalidParameterError("Q is not absolutely continuous w.r.t. P")
    ratios = np.zeros_like(q)
    np.divide(q, p, out=ratios, where=p > 0.0)
    order = np.argsort(ratios, kind="stable")[::-1]
    r_sorted = ratios[order]
    p_sorted = p[order]
    levels: list[float] = []
    masses: list[float] = []
    for r, pm in zip(r_sorted, p_sorted):
        if levels and r == levels[-1]:
            masses[-1] += pm
        else:
            levels.append(float(r))
            masses.append(float(pm))
    # cum[i] = P(ratio >= levels[i]); on (levels[i+1], levels[i]] the width is
    # cum[i], so ascending edges pair with the cumulative masses reversed.
    # Roundoff can push the final cumulative a few ulp above 1.
    cum = np.minimum(np.cumsum(masses), 1.0)
    positive = [(r, c) for r, c in zip(levels, cum) if r > 0.0]
    edges = [0.0] + [r for r, _ in reversed(positive)]
    values = [c for _, c in reversed(positive)]
    return StepWidth(edges, values)


def width_eval(spec: "DistributionPair") -> WidthFunction:
    """Analytic width function of a pair spec."""
    return spec.width()


def d_infinity(w: WidthFunction) -> float:
    """Renyi infinity divergence in bits: log2 of the largest ratio level."""
    return math.log2(w.h_max) if math.isfinite(w.h_max) else math.inf


def read_width_table(path: str) -> list[tuple[float, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "h,w":
            raise InvalidParameterError("width table must start with the header 'h,w'")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:  # float() ignores the whitespace around a cell
                h_str, w_str = line.split(",")
                rows.append((float(h_str), float(w_str)))
            except ValueError:
                raise InvalidParameterError(f"width table line {lineno}: expected two "
                                            f"numbers 'h,w', got {line.strip()!r}") from None
    return rows


def width_from_table(rows: Sequence[tuple[float, float]]) -> StepWidth:
    """Step width from CSV rows (h, w): h strictly increasing from 0 with w = 1,
    w non-increasing, final w = 0; right-continuous piecewise-constant reading.

    Row j defines the value on [h_j, h_{j+1}); the final row closes the
    support. Unit mass is enforced before use.
    """
    if len(rows) < 2:
        raise InvalidParameterError("width table needs at least two rows")
    h = np.asarray([r[0] for r in rows], dtype=float)
    v = np.asarray([r[1] for r in rows], dtype=float)
    if h[0] != 0.0 or v[0] != 1.0:
        raise InvalidParameterError("width table must start at h = 0 with w = 1")
    if not np.all(np.diff(h) > 0.0):  # NaN fails too
        raise InvalidParameterError("width table h column must strictly increase")
    if not np.all(np.diff(v) <= 0.0) or v[-1] != 0.0:
        raise InvalidParameterError("width table w column must be non-increasing, ending at 0")
    w = StepWidth(h, v[:-1])
    mass = w.tail_integral(0.0).value
    if abs(mass - 1.0) > 1e-9:
        raise InvalidParameterError(
            f"width table mass {mass!r} differs from 1 by more than 1e-9")
    return w

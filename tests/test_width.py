import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

import crs_toolkit
from crs_toolkit.errors import InvalidParameterError
from crs_toolkit.measures import (
    DiscreteSpec,
    GaussianSpec,
    LaplaceSpec,
    SyntheticSpec,
    discrete_spec,
    make_pair,
)
from crs_toolkit.quadrature import QuadResult
from crs_toolkit.streams import RngStream
from crs_toolkit import width as width_module
from crs_toolkit.width import (
    GaussianWidth,
    LaplaceWidth,
    OptimalAcsWidth,
    OptimalCsWidth,
    StepWidth,
    d_infinity,
    equality_case_width,
    indicator_width,
    two_level_width,
    width_eval,
    width_from_discrete,
    read_width_table,
    width_from_table,
    WidthFunction,
)
from reference_values import (
    GAUSSIAN_RATIO_INVERSE,
    GAUSSIAN_RATIO_INVERSE_MORE,
    GAUSSIAN_WIDTH,
    GAUSSIAN_WIDTH_NEAR_H_MAX,
    OPTIMAL_ACS_TAIL,
    OPTIMAL_CS_TAIL,
)

DISCRETE_EXAMPLE = discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4)


def _quad_tail(w: WidthFunction, h: float = 0.0) -> tuple[float, float]:
    """T(h) and its error estimate by scipy's QUADPACK in u = ln h: a reference
    that shares no code with the package's closed forms or its quadrature.

    Pieces end at the width's breakpoints. From h = 0 the stub below
    e^-40 is left out; w <= 1 bounds it by 5e-18. An infinite h_max is cut
    at e^700, where the power tails of the widths here leave below 1e-33.
    """
    def f(u: float) -> float:
        return float(w(math.exp(u))[0]) * math.exp(u)

    lo = math.log(h) if h > 0.0 else -40.0
    hi = min(math.log(w.h_max), 700.0)
    ends = [lo, *sorted(math.log(b) for b in w.breakpoints if lo < math.log(b) < hi), hi]
    pieces = [integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)
              for a, b in zip(ends[:-1], ends[1:])]
    return math.fsum(v for v, _ in pieces), math.fsum(e for _, e in pieces)

FAMILY_SPECS = [
    LaplaceSpec(0.5),
    LaplaceSpec(0.25),
    GaussianSpec(1.0, 0.5, 1),
    GaussianSpec(1.0, 0.5, 2),
    DISCRETE_EXAMPLE,
    SyntheticSpec(two_level_width(0.1)),
]


def test_laplace_width_is_linear_at_half():
    w = width_eval(LaplaceSpec(0.5))
    h = np.linspace(0.0, 2.0, 101)
    assert np.allclose(w(h), 1.0 - h / 2.0, atol=1e-12)
    assert w(1.0)[0] == pytest.approx(0.5, abs=1e-12)
    assert w.h_max == 2.0
    assert float(w(2.5)[0]) == 0.0


def test_laplace_width_monte_carlo_oracle():
    pair = make_pair(LaplaceSpec(0.5))
    n = 10**6
    log_r = pair.log_ratio(pair.draw(RngStream(0, 2).generator(), n))
    est = float(np.mean(log_r >= 0.0))  # the fraction of draws with ratio >= 1
    se = math.sqrt(est * (1.0 - est) / n)
    assert se == pytest.approx(0.0005, abs=2e-5)
    assert abs(est - 0.5) <= 4 * se


def test_discrete_example_width():
    w = width_eval(DISCRETE_EXAMPLE)
    assert float(w(0.0)[0]) == 1.0
    assert np.allclose(w(np.array([0.5, 1.0, 2.0])), 0.5)
    assert float(w(2.0 + 1e-12)[0]) == 0.0
    assert w.tail_integral(0.0).value == pytest.approx(1.0, abs=1e-15)
    assert w.h_max == 2.0


def test_gaussian_width_normal_interval_oracle():
    # the h-superlevel set of the d=1 ratio is an interval around the peak:
    # solve t0 - a (x - c)^2 >= ln h directly with normal CDFs
    gw = GaussianWidth(1.0, 0.5, 1)
    for h in (0.25, 1.0, 2.5):
        half = math.sqrt((gw.t0 - math.log(h)) / gw.a)
        oracle = stats.norm.cdf(gw.c + half) - stats.norm.cdf(gw.c - half)
        assert gw(h)[0] == pytest.approx(oracle, rel=1e-12)
    assert gw(1.0)[0] == pytest.approx(0.3404, abs=5e-5)


def test_gaussian_width_h_max_in_bits():
    gw = GaussianWidth(1.0, 0.5, 2)
    assert d_infinity(gw) == pytest.approx(2 * 1.359813847226612 / math.log(2.0), abs=1e-9)


def test_gaussian_width_rejects_large_dimension():
    with pytest.raises(InvalidParameterError):
        GaussianWidth(1.0, 0.5, 300)


@pytest.mark.parametrize("d", [math.nan, math.inf, 1.5, 0])
def test_gaussian_width_rejects_non_integer_dimension(d):
    # int(d) used to raise a bare ValueError (NaN) or OverflowError (inf)
    with pytest.raises(InvalidParameterError, match="integer dimension"):
        GaussianWidth(1.0, 0.5, d)


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_width_monotone_on_random_pairs(spec):
    w = width_eval(spec)
    rng = np.random.default_rng(21)
    hi = w.h_max if math.isfinite(w.h_max) else 50.0
    a = rng.uniform(0.0, hi, 1000)
    b = rng.uniform(0.0, hi, 1000)
    lo = np.minimum(a, b)
    hi_ = np.maximum(a, b)
    assert np.all(w(lo) >= w(hi_) - 1e-12)


@pytest.mark.parametrize("spec", [LaplaceSpec(0.5), LaplaceSpec(0.02), DISCRETE_EXAMPLE,
                                  SyntheticSpec(two_level_width(0.3))])
def test_width_normalization_tight(spec):
    w = width_eval(spec)
    assert _quad_tail(w)[0] == pytest.approx(1.0, abs=1e-9)
    assert w.tail_integral(0.0).value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 4, 8, 64])
def test_gaussian_width_normalization_series_route(d):
    # the Gaussian T(0) is the constant 1, so only an integral of w checks
    # that the chi-square CDF is a width of unit mass
    assert _quad_tail(GaussianWidth(1.0, 0.5, d))[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_width_analytic_vs_monte_carlo_grid(spec):
    pair = make_pair(spec)
    w = width_eval(spec)
    n = 10**5
    hi = min(w.h_max, 50.0)
    grid = np.linspace(hi / 21.0, hi * 0.999, 20)
    draws = pair.draw(RngStream(8, 3).generator(), n)
    log_r = pair.log_ratio(draws)
    for h in grid:
        target = float(w(h)[0])
        est = float(np.mean(log_r >= math.log(h)))
        sigma = math.sqrt(max(target * (1.0 - target), 1e-12) / n)
        assert abs(est - target) <= 4.0 * sigma + 1e-12


def test_equality_case_masses_exact():
    for c in (1.0, 2.0, 4.0, 10.0):
        assert equality_case_width(c).tail_integral(0.0).value == pytest.approx(1.0, abs=1e-15)


def test_d_infinity_examples():
    assert d_infinity(width_eval(LaplaceSpec(0.5))) == pytest.approx(1.0, abs=1e-12)
    assert d_infinity(width_eval(DISCRETE_EXAMPLE)) == pytest.approx(1.0, abs=1e-12)
    assert d_infinity(width_eval(LaplaceSpec(1.0))) == pytest.approx(0.0, abs=1e-12)
    assert d_infinity(OptimalCsWidth(0.5)) == math.inf


def _ids(rows):
    return [f"mu{mu:g}_s{sigma:g}_d{d}_h{h:.6g}" for mu, sigma, d, h, _, _ in rows]


@pytest.mark.parametrize("mu, sigma, d, h, w_ref, t_ref", GAUSSIAN_WIDTH, ids=_ids(GAUSSIAN_WIDTH))
def test_gaussian_width_and_tail_match_40_digit_references(mu, sigma, d, h, w_ref, t_ref):
    gw = GaussianWidth(mu, sigma, d)
    assert float(gw(h)[0]) == pytest.approx(w_ref, rel=1e-13, abs=0.0)
    res = gw.tail_integral(h)
    assert res.value == pytest.approx(t_ref, rel=1e-13, abs=0.0)
    assert abs(res.value - t_ref) <= res.error


def _x_rounding(gw, h):
    """Relative error of x = (d t0 - ln h)/a: a few ulp of ln h_max against a x.

    Near h_max, where x is small, it swamps the chi-square CDF's own error;
    w is about x^(d/2) there, so w carries d/2 times it and T one more.
    """
    x = (gw.ln_h_max - math.log(h)) / gw.a
    return 4.0 * sys.float_info.epsilon * max(1.0, abs(gw.ln_h_max)) / (gw.a * x)


@pytest.mark.parametrize("mu, sigma, d, h, w_ref, t_ref", GAUSSIAN_WIDTH_NEAR_H_MAX,
                         ids=_ids(GAUSSIAN_WIDTH_NEAR_H_MAX))
def test_gaussian_width_and_tail_near_h_max_match_40_digit_references(mu, sigma, d, h, w_ref,
                                                                      t_ref):
    gw = GaussianWidth(mu, sigma, d)
    rel = _x_rounding(gw, h)
    assert float(gw(h)[0]) == pytest.approx(w_ref, rel=1e-13 + (d / 2 + 1) * rel, abs=0.0)
    res = gw.tail_integral(h)
    assert res.value == pytest.approx(t_ref, rel=1e-12 + (d / 2 + 2) * rel, abs=0.0)
    assert abs(res.value - t_ref) <= res.error


EXTREMAL_TAILS = ([(OptimalCsWidth, *row) for row in OPTIMAL_CS_TAIL]
                  + [(OptimalAcsWidth, *row) for row in OPTIMAL_ACS_TAIL])


@pytest.mark.parametrize("cls, alpha, h, t_ref", EXTREMAL_TAILS,
                         ids=[f"{cls.__name__}_a{alpha:g}_h{h:g}"
                              for cls, alpha, h, _ in EXTREMAL_TAILS])
def test_extremal_tails_match_40_digit_references(cls, alpha, h, t_ref):
    res = cls(alpha).tail_integral(h)
    assert res.converged and res.panels == 0
    assert res.value == pytest.approx(t_ref, rel=1e-13, abs=0.0)
    assert abs(res.value - t_ref) <= res.error


def test_step_width_band_and_tail_integrals_exact():
    w = two_level_width(0.1)
    a = 1.0 / (1.0 + math.e)
    assert w.band_integral(0.0, 1.0) == pytest.approx(a + (1.0 - a) * 0.1, abs=1e-15)
    assert w.tail_integral(0.0).value == pytest.approx(1.0, abs=1e-15)
    assert w.tail_integral(w.h_max).value == 0.0


def test_step_band_integral_of_an_empty_band_is_zero():
    w = two_level_width(0.1)
    # a reversed band, and one that the clamp to [0, h_max] empties
    for lo, hi in ((0.7, 0.3), (0.5, 0.5), (w.h_max, w.h_max + 1.0), (-2.0, -1.0)):
        assert w.band_integral(lo, hi) == 0.0, (lo, hi)


CLOSED_TAIL_WIDTHS = {
    **{f"laplace_b{b:g}": LaplaceWidth(b) for b in (0.02, 0.25, 0.5, 0.75, 0.99)},
    "gaussian_mu1_s05_d1": GaussianWidth(1.0, 0.5, 1),
    "gaussian_mu0_s06_d1": GaussianWidth(0.0, 0.6, 1),
    "gaussian_mu1_s05_d2": GaussianWidth(1.0, 0.5, 2),
    "two_level_eps01": two_level_width(0.1),
    **{f"optimal_cs_a{a:g}": OptimalCsWidth(a) for a in (0.1, 0.5, 0.9)},
    **{f"optimal_acs_a{a:g}": OptimalAcsWidth(a) for a in (1.5, 3.0)},
}


@pytest.mark.parametrize("name", sorted(CLOSED_TAIL_WIDTHS))
def test_closed_form_tail_matches_quadrature(name):
    w = CLOSED_TAIL_WIDTHS[name]
    # fractions of a finite h_max; points on both sides of the kink and far
    # into the power tail of an infinite one
    hs = ([frac * w.h_max for frac in (0.1, 0.5, 0.9, 0.99)] if math.isfinite(w.h_max)
          else [0.05, 0.3, 0.7, 2.0, 1e3])
    for h in hs:
        closed = w.tail_integral(h)
        assert closed.converged and closed.panels == 0
        value, error = _quad_tail(w, h)
        assert error <= 1e-12 * value
        assert closed.value == pytest.approx(value, rel=1e-10)


def test_laplace_tail_at_tiny_h_is_closed_form():
    res = LaplaceWidth(0.5).tail_integral(1e-300)
    assert res.converged and res.panels == 0
    assert res.value == pytest.approx(1.0, rel=1e-15)


def test_gaussian_tail_falls_back_to_quadrature_near_h_max():
    # T(h) / Q(r >= h) is about 0.67 (1 - h/h_max) here, so 1e-8 below h_max
    # the layer cake cancels 8 digits and quadrature takes over
    w = GaussianWidth(1.0, 0.5, 1)
    h = (1.0 - 1e-8) * w.h_max
    res = w.tail_integral(h)
    assert res.converged and res.panels > 0
    assert 0.0 < res.value <= (w.h_max - h) * float(w(h)[0])


@pytest.mark.parametrize("d", [1, 2, 8, 64, 256])
@pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10, 1e-12])
def test_gaussian_tail_near_h_max_picks_a_tolerance_it_meets(d, delta):
    # the v-quadrature's tolerance is relative to (h_max - h) w(h), which
    # bounds T as w does not increase; at d = 64, 1e-6 below h_max, one of
    # 1e-14 T would spend all 20 000 panels and end unconverged
    w = GaussianWidth(1.0, 0.5, d)
    h = (1.0 - delta) * w.h_max
    res = w.tail_integral(h)
    assert res.converged and res.panels <= 16
    assert 0.0 <= res.value <= (w.h_max - h) * float(w(h)[0])
    if (d, delta) == (64, 1e-8):
        # w(h) = 4.03e-332 underflows while the layer cake's Q(r >= h) =
        # 2.5e-294 does not, so Q cannot stand for T; the bar holds
        # T = 7.636e-304, from a 50-digit mpmath quadrature of the v-integral
        assert abs(res.value - 7.636292083e-304) <= res.error


# run in a fresh interpreter: this test module itself imports scipy
_SCIPY_PROBE = """
import sys

from crs_toolkit.cli import main
from crs_toolkit.measures import FAMILIES, GaussianSpec, LaplaceSpec, SyntheticSpec, discrete_spec
from crs_toolkit.width import OptimalAcsWidth, OptimalCsWidth, equality_case_width, two_level_width


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


specs = [LaplaceSpec(0.5), LaplaceSpec(1.0), GaussianSpec(1.0, 0.5, 2),
         discrete_spec((0.5, 0.5), (0.25, 0.75)), SyntheticSpec(equality_case_width(4.0)),
         SyntheticSpec(two_level_width(0.2))]
assert {spec.family for spec in specs} == set(FAMILIES)
widths = [spec.width() for spec in specs] + [OptimalCsWidth(0.5), OptimalAcsWidth(2.0)]
# a synthetic pair checks its width's mass T(0), which reads no scipy
specs += [SyntheticSpec(OptimalCsWidth(0.5)), SyntheticSpec(OptimalAcsWidth(2.0))]
assert main(["grs", "entropy", "--family", "discrete",
             "--q", "0.5,0.5,0,0", "--p", "0.25,0.25,0.25,0.25"]) == 0
# a sweep sidecar reads the scipy version from package metadata, not from scipy
assert main(["experiment", "epsilon", "--grid", "0.3", "--out", sys.argv[1]]) == 0
assert not scipy_modules(), scipy_modules()[:5]
widths[2](1.0)
assert "scipy.special" in sys.modules
"""


def test_scipy_special_loads_on_first_gaussian_evaluation(tmp_path):
    src = os.path.dirname(os.path.dirname(crs_toolkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "eps.csv")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2.000000000\n"


def test_gaussian_ratio_inverse_is_finite_bounded_and_non_increasing():
    # seeded widths with finite h_max over mu in [0, 6], sigma in [0.05, 0.95]
    # and d = 1, 2, 4, ..., 256, at u from 2^-54 to 1 - 2^-53: chndtrix's x
    # is finite and non-negative, and does not fall as u grows
    rng = np.random.default_rng(20240611)
    u = np.array([2.0**-54, 1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0 - 2.0**-53])
    checked = 0
    for d in (2**k for k in range(9)):
        for mu, sigma in zip(rng.uniform(0.0, 6.0, 36), rng.uniform(0.05, 0.95, 36)):
            try:
                w = GaussianWidth(mu, sigma, d)
            except OverflowError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = w.ratio_inverse(u)
            assert np.all(np.isfinite(r)), (mu, sigma, d)
            assert np.all((r >= 0.0) & (r <= w.h_max)), (mu, sigma, d)
            assert np.all(np.diff(r) <= 0.0), (mu, sigma, d)
            checked += 1
    assert checked >= 200


def test_step_width_ratio_inverse_levels():
    w = equality_case_width(4.0)
    u = np.array([0.1, 0.2499, 0.25, 0.9])
    assert np.array_equal(w.ratio_inverse(u), np.array([4.0, 4.0, 0.0, 0.0]))
    wt = two_level_width(0.3)
    r = wt.ratio_inverse(np.array([0.5, 0.2, 0.29]))
    a = 1.0 / (1.0 + math.e)
    span = math.e / ((1.0 + math.e) * 0.3)
    assert r[0] == pytest.approx(a)
    assert r[1] == pytest.approx(a + span)
    assert r[2] == pytest.approx(a + span)


# ratio_inverse at u = 0.1, 0.25, 0.5, 0.9, as exact reprs of the values
# returned before the domain check moved into WidthFunction.ratio_inverse;
# the Gaussian row is h_max exp(-a x) at chndtrix's x
RATIO_INVERSE_PINNED = [
    (two_level_width(0.3),
     [2.7058033501366783, 2.7058033501366783, 0.2689414213699951, 0.2689414213699951]),
    (LaplaceWidth(0.05),
     [2.7017034353459857, 0.08456565170490649, 3.814697265625e-05, 1.9999999999999917e-18]),
    (GaussianWidth(1.0, 0.5, 1),
     [3.399229396107773, 1.7880370974993238, 0.2607128340986603, 0.0001366101804365427]),
    (OptimalCsWidth(0.1),
     [0.7943282347242815, 0.34822022531844965, 0.18660659830736148, 0.10994658424513493]),
    (OptimalAcsWidth(1.3),
     [1.4873735246772049, 0.6388570576972751, 0.2744020472316765, 0.05062378903192885]),
]
_RATIO_INVERSE_IDS = [type(w).__name__ for w, _ in RATIO_INVERSE_PINNED]


@pytest.mark.parametrize("u", [0.0, 1.0, -0.5, 1.5, math.nan])
@pytest.mark.parametrize("w", [w for w, _ in RATIO_INVERSE_PINNED], ids=_RATIO_INVERSE_IDS)
def test_ratio_inverse_rejects_u_outside_open_unit_interval(w, u):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=r"defined on \(0, 1\)"):
            w.ratio_inverse(u)
        # one bad point spoils the array, and a synthetic pair reads the same rule
        with pytest.raises(InvalidParameterError, match=r"defined on \(0, 1\)"):
            w.ratio_inverse(np.array([0.5, u]))
        with pytest.raises(InvalidParameterError, match=r"defined on \(0, 1\)"):
            SyntheticSpec(w).log_ratio(np.array([u, 0.5]))


@pytest.mark.parametrize("w, want", RATIO_INVERSE_PINNED, ids=_RATIO_INVERSE_IDS)
def test_ratio_inverse_valid_u_pinned(w, want):
    assert w.ratio_inverse(np.array([0.1, 0.25, 0.5, 0.9])).tolist() == want
    assert w.ratio_inverse(np.array([])).shape == (0,)


def test_gaussian_ratio_inverse_pins_match_40_digit_references():
    # chndtrix finds x = F^-1(u) to an ulp or two, and r = h_max exp(-a x)
    # carries a x times that: up to 4e-15 relative at these four u
    (w, want), = [row for row in RATIO_INVERSE_PINNED if isinstance(row[0], GaussianWidth)]
    assert [u for u, _ in GAUSSIAN_RATIO_INVERSE] == [0.1, 0.25, 0.5, 0.9]
    for pinned, (_, ref) in zip(want, GAUSSIAN_RATIO_INVERSE):
        assert pinned == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("mu, sigma, d, u, ref", GAUSSIAN_RATIO_INVERSE_MORE)
def test_gaussian_ratio_inverse_matches_40_digit_references_to_d_64(mu, sigma, d, u, ref):
    # ln r = ln h_max - a x: an ulp or two of x, and of ln h_max, moves ln r
    # by that share of |ln h_max| + |ln r|; at d = 64, r is below h_max 2^-147
    w = GaussianWidth(mu, sigma, d)
    ln_r = math.log(float(w.ratio_inverse(u)[0]))
    ln_ref = math.log(ref)
    assert abs(ln_r - ln_ref) <= 8.0 * sys.float_info.epsilon * (abs(w.ln_h_max) + abs(ln_ref))


def test_step_segment_matches_searchsorted_form():
    # _segment by bisect on the breakpoints against the np.searchsorted form
    # it replaced, at every edge, at h_max and inside random discrete widths
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        w = width_from_discrete(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        ts = [*w.edges, *(w.h_max * rng.random(20)), w.h_max,
              *(math.nextafter(e, math.inf) for e in w.edges),
              *(math.nextafter(e, 0.0) for e in w.edges)]
        for t in ts:
            old = min(int(np.searchsorted(w.edges, t, side="right")) - 1, len(w.values) - 1)
            assert w._segment(t) == old


def test_optimal_width_inverses_match_levels():
    for w in (OptimalCsWidth(0.5), OptimalAcsWidth(2.0)):
        u = np.linspace(0.05, 0.95, 19)
        r = w.ratio_inverse(u)
        assert np.allclose(w(r), u, atol=1e-10)


def test_optimal_width_tail_certificates_hold():
    for w in (OptimalCsWidth(0.3), OptimalCsWidth(0.9), OptimalAcsWidth(1.5), OptimalAcsWidth(4.0)):
        t = w.tail
        h = np.geomspace(t.h_from, t.h_from * 1e6, 200)
        assert np.all(w(h) <= t.coef * h**-t.exponent + 1e-300)


class TriangleWidth(WidthFunction):
    """A custom width, w(h) = 1 - h/2 on [0, 2], with its own __init__ that
    calls no base-class __init__."""

    def __init__(self):
        self.h_max = 2.0
        self.breakpoints = ()

    def _formula(self, h: np.ndarray) -> np.ndarray:
        return 1.0 - 0.5 * h

    def _tail(self, h: float) -> QuadResult:
        return QuadResult((2.0 - h) ** 2 / 4.0, 0.0, True, 0)


@pytest.mark.parametrize("width", [LaplaceWidth(0.5), two_level_width(0.1), OptimalCsWidth(0.5),
                                   OptimalAcsWidth(2.0), GaussianWidth(1.0, 0.5, 1),
                                   TriangleWidth()],
                         ids=["laplace_closed_form", "step_closed_form", "optimal_cs_closed_form",
                              "optimal_acs_closed_form", "gaussian_closed_form",
                              "custom_subclass"])
def test_tail_integral_rejects_nan(width):
    for h in (math.nan, -1.0, -math.inf):
        with pytest.raises(InvalidParameterError, match="h must be >= 0"):
            width.tail_integral(h)


def test_custom_width_without_base_init_has_mass():
    # the mass cache used to live in WidthFunction.__init__, so this width
    # raised AttributeError on its mass; the mass is now T(0)
    w = TriangleWidth()
    assert w.tail_integral(0.0).value == 1.0
    assert _quad_tail(w)[0] == pytest.approx(1.0, abs=1e-12)
    assert w.tail_integral(1.0).value == pytest.approx(0.25, abs=1e-12)
    assert _quad_tail(w, 1.0)[0] == pytest.approx(0.25, abs=1e-12)
    SyntheticSpec(w)  # checks T(0) against 1


class _NoTailWidth(WidthFunction):
    h_max, breakpoints = 2.0, ()

    def _formula(self, h: np.ndarray) -> np.ndarray:
        return 1.0 - 0.5 * h


def test_width_without_tail_raises_not_implemented():
    # T is part of a width's contract, as w is: there is no quadrature T
    with pytest.raises(NotImplementedError):
        _NoTailWidth().tail_integral(1.0)
    with pytest.raises(NotImplementedError):
        SyntheticSpec(_NoTailWidth())
    # the domain checks still come first
    with pytest.raises(InvalidParameterError, match="h must be >= 0"):
        _NoTailWidth().tail_integral(math.nan)
    assert _NoTailWidth().tail_integral(2.0).value == 0.0


def test_width_without_inverse_raises_not_implemented():
    # r is part of the contract of a width a synthetic pair samples, as T
    # is: no r is derived from w
    w = TriangleWidth()
    with pytest.raises(NotImplementedError):
        w.ratio_inverse(np.array([0.5]))
    with pytest.raises(NotImplementedError):
        SyntheticSpec(w).log_ratio(np.array([0.5]))
    # the domain check still comes first
    with pytest.raises(InvalidParameterError, match=r"defined on \(0, 1\)"):
        w.ratio_inverse(1.5)


def test_every_width_class_states_its_own_inverse():
    classes = {name: cls for name, cls in vars(width_module).items()
               if isinstance(cls, type) and issubclass(cls, WidthFunction)
               and cls is not WidthFunction}
    assert {"StepWidth", "LaplaceWidth", "GaussianWidth", "OptimalCsWidth",
            "OptimalAcsWidth"} <= set(classes)
    for name, cls in classes.items():
        assert "_inverse" in vars(cls), name


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_gaussian_width_rejects_non_finite_mu(mu):
    with pytest.raises(InvalidParameterError, match="finite mu"):
        GaussianWidth(mu, 0.5, 1)


def test_gaussian_h_max_overflow_stays_overflow_error():
    # a finite mu whose h_max = exp(d t0) leaves the float range
    with pytest.raises(OverflowError):
        GaussianWidth(1.45, 0.89, 250)


def test_step_width_validation():
    # NaN anywhere and an infinite last edge (h_max = total_mass = inf) used
    # to pass the np.any(...) checks
    for edges, values in (([0.0, math.nan], [math.nan]), ([0.0, 1.0, math.inf], [1.0, 0.5]),
                          ([0.0, math.nan, 2.0], [1.0, 0.5]), ([0.0, 1.0, 2.0], [1.0, math.nan])):
        with pytest.raises(InvalidParameterError):
            StepWidth(edges, values)
    for c in (math.nan, 0.5):
        with pytest.raises(InvalidParameterError, match="need c >= 1"):
            equality_case_width(c)
    with pytest.raises(InvalidParameterError):
        StepWidth([0.5, 1.0], [1.0])
    with pytest.raises(InvalidParameterError):
        StepWidth([0.0, 1.0, 0.5], [1.0, 0.5])
    with pytest.raises(InvalidParameterError):
        StepWidth([0.0, 1.0, 2.0], [0.5, 1.0])
    with pytest.raises(InvalidParameterError):
        StepWidth([0.0, 1.0, 2.0], [0.5, 0.0])


def test_width_from_discrete_merges_equal_ratios():
    w = width_from_discrete((0.5, 0.25, 0.25, 0.0), (0.25, 0.25, 0.25, 0.25))
    # ratios 2, 1, 1, 0: levels 2 (mass .25) and 1 (mass .5)
    assert np.array_equal(w.edges, np.array([0.0, 1.0, 2.0]))
    assert np.allclose(w.values, np.array([0.75, 0.25]))


def test_width_table_roundtrip():
    w = StepWidth([0.0, 0.5, 1.5], [1.0, 0.5])
    rows = [(0.0, 1.0), (0.5, 0.5), (1.5, 0.0)]
    w2 = width_from_table(rows)
    assert np.array_equal(w2.edges, w.edges)
    assert np.array_equal(w2.values, w.values)


def test_width_from_table_validation():
    with pytest.raises(InvalidParameterError):
        width_from_table([(0.0, 0.9), (1.0, 0.0)])
    with pytest.raises(InvalidParameterError):
        width_from_table([(0.0, 1.0), (1.0, 0.5)])  # does not end at zero
    with pytest.raises(InvalidParameterError):
        width_from_table([(0.0, 1.0), (0.5, 0.25), (4.0, 0.0)])  # mass != 1
    with pytest.raises(InvalidParameterError):
        width_from_table([(0.0, 1.0), (1.0, 1e-4), (1.001, 0.0)])  # mass 1.0001
    for rows in ([(0.0, 1.0), (math.nan, 0.5), (1.5, 0.0)],
                 [(0.0, 1.0), (0.5, math.nan), (1.5, 0.0)]):
        with pytest.raises(InvalidParameterError):
            width_from_table(rows)


# refusals no other test reaches, each with the rule it names
BAD_WIDTH_CALLS = {
    "step_lengths": (lambda: StepWidth([0.0, 1.0], [1.0, 0.5]), "len(edges) == len(values) + 1"),
    "laplace_b1": (lambda: LaplaceWidth(1.0), "b = 1 is a step"),
    "two_level_eps0": (lambda: two_level_width(0.0), "need 0 < eps < 1"),
    "gaussian_sigma1": (lambda: GaussianWidth(0.0, 1.0, 1), "need 0 < sigma < 1"),
    "discrete_q_not_ac": (lambda: width_from_discrete((0.5, 0.5), (1.0, 0.0)),
                          "Q is not absolutely continuous"),
    "table_one_row": (lambda: width_from_table([(0.0, 1.0)]), "at least two rows"),
}


@pytest.mark.parametrize("name", sorted(BAD_WIDTH_CALLS))
def test_width_refusals_name_their_rule(name):
    call, rule = BAD_WIDTH_CALLS[name]
    with pytest.raises(InvalidParameterError, match=re.escape(rule)):
        call()


def test_read_width_table_header_and_blank_lines(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("h,w\n0,1\n\n0.5,0.5\n1.5,0\n")
    assert read_width_table(str(path)) == [(0.0, 1.0), (0.5, 0.5), (1.5, 0.0)]
    path.write_text("w,h\n0,1\n1,0\n")
    with pytest.raises(InvalidParameterError, match="must start with the header 'h,w'"):
        read_width_table(str(path))


def test_width_rejects_negative_argument():
    with pytest.raises(InvalidParameterError):
        width_eval(LaplaceSpec(0.5))(-0.5)


def test_indicator_width_unit_mass_only():
    w = indicator_width()
    assert (w.h_max, w.tail_integral(0.0).value) == (1.0, 1.0)


DOMAIN_WIDTHS = {
    # b h_max rounds below 1 at b = 0.09, where the closed form alone leaves a
    # rounding-level T(h_max) > 0
    "laplace_b009": LaplaceWidth(0.09),
    "laplace_b025": LaplaceWidth(0.25),
    "laplace_b05": LaplaceWidth(0.5),
    "gaussian_mu1_s05_d1": GaussianWidth(1.0, 0.5, 1),
    "gaussian_mu1_s05_d2": GaussianWidth(1.0, 0.5, 2),
    "gaussian_mu0_s06_d1": GaussianWidth(0.0, 0.6, 1),
    "two_level_eps01": two_level_width(0.1),
    "discrete_example": width_eval(DISCRETE_EXAMPLE),
    "optimal_cs_a05": OptimalCsWidth(0.5),
    "optimal_acs_a3": OptimalAcsWidth(3.0),
    "custom_triangle": TriangleWidth(),
}


def _grid(w: WidthFunction, n: int = 64) -> np.ndarray:
    """n points from 0 to h_max (to 20 for an infinite h_max), both ends included."""
    return np.linspace(0.0, w.h_max if math.isfinite(w.h_max) else 20.0, n)


@pytest.mark.parametrize("name", sorted(DOMAIN_WIDTHS))
def test_width_domain_pins(name):
    w = DOMAIN_WIDTHS[name]
    assert w(0.0)[0] == 1.0
    assert w(np.array([0.5, 0.0]))[1] == 1.0
    if math.isfinite(w.h_max):
        beyond = np.array([np.nextafter(w.h_max, math.inf), 2.0 * w.h_max])
        assert np.array_equal(w(beyond), [0.0, 0.0])
        assert [float(w(h)[0]) for h in beyond] == [0.0, 0.0]
    empty = w(np.array([]))
    assert empty.shape == (0,) and empty.dtype == float


@pytest.mark.parametrize("name", sorted(DOMAIN_WIDTHS))
def test_tail_integral_is_zero_from_h_max_on(name):
    w = DOMAIN_WIDTHS[name]
    hs = [w.h_max, 2.0 * w.h_max, math.inf] if math.isfinite(w.h_max) else [math.inf]
    for h in hs:
        assert repr(w.tail_integral(h)) == repr(QuadResult(0.0, 0.0, True, 0))


@pytest.mark.parametrize("name", sorted(DOMAIN_WIDTHS))
def test_width_rejects_nan(name):
    w = DOMAIN_WIDTHS[name]
    for h in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(InvalidParameterError):
            w(h)


@pytest.mark.parametrize("name", sorted(DOMAIN_WIDTHS))
def test_one_point_calls_match_array_call(name):
    # a one-point call takes its own path, with scalar pins and no clip of
    # a value in [0, 1]; it must give the array call's bits and shapes
    w = DOMAIN_WIDTHS[name]
    h = np.append(_grid(w, 1000), [-0.0, 5e-324, 2.0 * w.h_max, 1e300])
    assert np.array_equal(w(h), [float(w(x)[0]) for x in h])
    for x in (0.0, 0.5 * min(w.h_max, 20.0), 2.0 * w.h_max):
        for arg in (x, np.float64(x), np.array([x]), np.array([[x]])):
            out = w(arg)
            assert out.dtype == float and out.shape == np.atleast_1d(arg).shape
            assert out.item() == w(np.array([x, 0.0]))[0]


@pytest.mark.parametrize("name", sorted(DOMAIN_WIDTHS))
def test_width_formulas_raise_no_warning(name):
    w = DOMAIN_WIDTHS[name]
    h = np.concatenate(([0.0, 5e-324, 1e-300], _grid(w)[1:], [1e300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = w(h)
        ones = [float(w(x)[0]) for x in h]
    assert np.array_equal(vals, ones)
    assert vals[0] == 1.0 and np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("mu, sigma, d, frac, value, panels", [
    (1.0, 0.5, 2, 0.1, 0.6450226377269445, 0),
    (1.0, 0.5, 2, 0.5, 0.13804637099549877, 0),
    (1.0, 0.5, 2, 0.9, 0.004464098035947647, 0),
    (0.0, 0.6, 1, 0.5, 0.33991931426972954, 0),
    (1.0, 0.5, 1, 1.0 - 1e-8, 6.955418679618462e-13, 1),  # the v-quadrature fallback
])
def test_gaussian_layer_cake_pinned(mu, sigma, d, frac, value, panels):
    w = GaussianWidth(mu, sigma, d)
    res = w.tail_integral(frac * w.h_max)
    assert res.converged and res.panels == panels
    assert res.value == pytest.approx(value, rel=1e-13, abs=0.0)

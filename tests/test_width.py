import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

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
from crs_toolkit.quadrature import QuadResult, width_mass_integral
from crs_toolkit.streams import RngStream
from crs_toolkit.width import (
    GaussianWidth,
    LaplaceWidth,
    OptimalAcsWidth,
    OptimalCsWidth,
    StepWidth,
    d_infinity,
    equality_case_width,
    indicator_width,
    superlevel_measures,
    two_level_width,
    width_eval,
    width_from_discrete,
    width_from_table,
    width_mc_estimate,
    WidthFunction,
    width_table,
    width_table_csv,
)
from reference_values import (
    GAUSSIAN_RATIO_INVERSE,
    GAUSSIAN_WIDTH,
    GAUSSIAN_WIDTH_NEAR_H_MAX,
)

DISCRETE_EXAMPLE = discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4)

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
    est, se = width_mc_estimate(pair, 1.0, 10**6, RngStream(0, 2))
    assert se == pytest.approx(0.0005, abs=2e-5)
    assert abs(est - 0.5) <= 4 * se


def test_discrete_example_width():
    w = width_eval(DISCRETE_EXAMPLE)
    assert float(w(0.0)[0]) == 1.0
    assert np.allclose(w(np.array([0.5, 1.0, 2.0])), 0.5)
    assert float(w(2.0 + 1e-12)[0]) == 0.0
    assert w.total_mass == pytest.approx(1.0, abs=1e-15)
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
    assert width_eval(spec).total_mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 4, 8, 64])
def test_gaussian_width_normalization_series_route(d):
    assert GaussianWidth(1.0, 0.5, d).total_mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_width_analytic_vs_monte_carlo_grid(spec):
    pair = make_pair(spec)
    w = width_eval(spec)
    n = 10**5
    hi = min(w.h_max, 50.0)
    grid = np.linspace(hi / 21.0, hi * 0.999, 20)
    draws = pair.sample_proposal(RngStream(8, 3), n)
    log_r = pair.log_ratio(draws)
    for h in grid:
        target = float(w(h)[0])
        est = float(np.mean(log_r >= math.log(h)))
        sigma = math.sqrt(max(target * (1.0 - target), 1e-12) / n)
        assert abs(est - target) <= 4.0 * sigma + 1e-12


def test_width_mc_estimate_trivial_cases():
    assert width_mc_estimate(make_pair(LaplaceSpec(1.0)), 0.5, 1000, RngStream(0, 0))[0] == 1.0
    assert width_mc_estimate(make_pair(DISCRETE_EXAMPLE), 3.0, 1000, RngStream(0, 0))[0] == 0.0
    with pytest.raises(InvalidParameterError):
        width_mc_estimate(make_pair(LaplaceSpec(1.0)), 0.5, 50, RngStream(0, 0))
    for h in (math.nan, -1.0, -math.inf):
        with pytest.raises(InvalidParameterError):
            width_mc_estimate(make_pair(LaplaceSpec(1.0)), h, 1000, RngStream(0, 0))


def test_superlevel_measures_examples():
    w = width_eval(DISCRETE_EXAMPLE)
    p_mass, q_mass = superlevel_measures(w, 1.0)
    assert p_mass == pytest.approx(0.5, abs=1e-12)
    assert q_mass == pytest.approx(1.0, abs=1e-9)
    p0, q0 = superlevel_measures(w, 0.0)
    assert p0 == 1.0 and q0 == pytest.approx(1.0, abs=1e-9)
    wl = width_eval(LaplaceSpec(0.5))
    p2, q2 = superlevel_measures(wl, 2.0)
    assert p2 == pytest.approx(0.0, abs=1e-12)
    assert q2 == pytest.approx(0.0, abs=1e-9)


def test_q_mass_monotone_in_h():
    wl = width_eval(LaplaceSpec(0.5))
    values = [superlevel_measures(wl, h)[1] for h in np.linspace(0.0, 2.0, 21)]
    assert all(a >= b - 1e-9 for a, b in zip(values[:-1], values[1:]))


def test_equality_case_masses_exact():
    for c in (1.0, 2.0, 4.0, 10.0):
        assert equality_case_width(c).total_mass == pytest.approx(1.0, abs=1e-15)


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
    # a tol relative to T, which the default absolute 1e-12 far exceeds at d = 64
    res = gw.tail_integral(h, tol=1e-12 * t_ref)
    assert res.value == pytest.approx(t_ref, rel=1e-12 + (d / 2 + 2) * rel, abs=0.0)
    assert abs(res.value - t_ref) <= res.error


def test_step_width_band_and_tail_integrals_exact():
    w = two_level_width(0.1)
    a = 1.0 / (1.0 + math.e)
    assert w.band_integral(0.0, 1.0) == pytest.approx(a + (1.0 - a) * 0.1, abs=1e-15)
    assert w.tail_integral(0.0).value == pytest.approx(1.0, abs=1e-15)
    assert w.tail_integral(w.h_max).value == 0.0


CLOSED_TAIL_WIDTHS = {
    **{f"laplace_b{b:g}": LaplaceWidth(b) for b in (0.02, 0.25, 0.5, 0.75, 0.99)},
    "gaussian_mu1_s05_d1": GaussianWidth(1.0, 0.5, 1),
    "gaussian_mu0_s06_d1": GaussianWidth(0.0, 0.6, 1),
    "gaussian_mu1_s05_d2": GaussianWidth(1.0, 0.5, 2),
    "two_level_eps01": two_level_width(0.1),
}


@pytest.mark.parametrize("name", sorted(CLOSED_TAIL_WIDTHS))
def test_closed_form_tail_matches_quadrature(name):
    w = CLOSED_TAIL_WIDTHS[name]
    for frac in (0.1, 0.5, 0.9, 0.99):
        h = frac * w.h_max
        closed = w.tail_integral(h)
        assert closed.converged and closed.panels == 0
        # 1e-12 relative is the tightest request the base quadrature meets at
        # every point here; at 1e-13 it spends its whole panel budget on
        # laplace b = 0.99 and returns unconverged
        # the base class's quadrature, not tail_integral, which would
        # dispatch back to the closed form under test
        quad = WidthFunction._tail(w, h, tol=1e-12 * closed.value)
        assert quad.converged and quad.panels > 0
        assert closed.value == pytest.approx(quad.value, rel=1e-10)


def test_laplace_tail_at_tiny_h_is_closed_form():
    res = LaplaceWidth(0.5).tail_integral(1e-300, tol=1e-14)
    assert res.converged and res.panels == 0
    assert res.value == pytest.approx(1.0, rel=1e-15)


def test_gaussian_tail_falls_back_to_quadrature_near_h_max():
    # T(h) / Q(r >= h) is about 0.67 (1 - h/h_max) here, so 1e-8 below h_max
    # the layer cake cancels 8 digits and quadrature takes over
    w = GaussianWidth(1.0, 0.5, 1)
    h = (1.0 - 1e-8) * w.h_max
    res = w.tail_integral(h, tol=1e-13 * 7e-13)
    assert res.converged and res.panels > 0
    assert 0.0 < res.value <= (w.h_max - h) * float(w(h)[0])


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
assert main(["grs", "entropy", "--family", "discrete",
             "--q", "0.5,0.5,0,0", "--p", "0.25,0.25,0.25,0.25"]) == 0
assert not scipy_modules(), scipy_modules()[:5]
widths[2](1.0)
assert "scipy.special" in sys.modules
"""


def test_scipy_special_loads_on_first_gaussian_evaluation():
    src = os.path.dirname(os.path.dirname(crs_toolkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2.000000000\n"


class _CountingGaussianWidth(GaussianWidth):
    calls = 0

    def __call__(self, h):
        self.calls += 1
        return super().__call__(h)


def _bisect_200_steps(w, u):
    lo, hi = 0.0, w.h_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(w(mid)[0]) > u:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("mu, sigma, d", [(1.0, 0.5, 1), (0.0, 0.6, 1), (1.0, 0.5, 2)])
def test_bisection_inverse_stops_early_with_the_200_step_result(mu, sigma, d):
    w = _CountingGaussianWidth(mu, sigma, d)
    u = np.concatenate(([1e-12, 1.0 - 1e-12], np.linspace(0.01, 0.99, 25)))
    got = w.ratio_inverse(u)
    # one array bisection: each width call steps every point still open
    assert w.calls <= 200
    assert got.tolist() == [_bisect_200_steps(w, ui) for ui in u]


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
# returned before the domain check moved into WidthFunction.ratio_inverse
RATIO_INVERSE_PINNED = [
    (two_level_width(0.3),
     [2.7058033501366783, 2.7058033501366783, 0.2689414213699951, 0.2689414213699951]),
    (LaplaceWidth(0.05),
     [2.7017034353459857, 0.08456565170490649, 3.814697265625e-05, 1.9999999999999917e-18]),
    (GaussianWidth(1.0, 0.5, 1),
     [3.399229396107772, 1.7880370974993238, 0.2607128340986599, 0.00013661018043654183]),
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
    # the bisection ends within float resolution of w: an error of an ulp or
    # two in w moves r by up to 8e-15 relative where w is flat (u = 0.9)
    (w, want), = [row for row in RATIO_INVERSE_PINNED if isinstance(row[0], GaussianWidth)]
    assert [u for u, _ in GAUSSIAN_RATIO_INVERSE] == [0.1, 0.25, 0.5, 0.9]
    for pinned, (_, ref) in zip(want, GAUSSIAN_RATIO_INVERSE):
        assert pinned == pytest.approx(ref, rel=1e-14, abs=0.0)


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


@pytest.mark.parametrize("width", [LaplaceWidth(0.5), two_level_width(0.1), OptimalCsWidth(0.5),
                                   GaussianWidth(1.0, 0.5, 1), TriangleWidth()],
                         ids=["laplace_closed_form", "step_closed_form", "base_quadrature",
                              "gaussian_closed_form", "custom_subclass"])
def test_tail_integral_rejects_nan(width):
    for h in (math.nan, -1.0, -math.inf):
        with pytest.raises(InvalidParameterError, match="h must be >= 0"):
            width.tail_integral(h)


def test_custom_width_without_base_init_has_mass():
    # the mass cache used to live in WidthFunction.__init__, so this width
    # raised AttributeError on total_mass
    w = TriangleWidth()
    want = width_mass_integral(w, 0.0, 2.0, 1e-10)
    assert w.total_mass == want.value == pytest.approx(1.0, abs=1e-10)
    assert vars(w)["total_mass"] == want.value  # cached on first read
    assert w.tail_integral(1.0).value == pytest.approx(0.25, abs=1e-12)


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
    csv = width_table_csv(w, n=64)
    lines = csv.strip().split("\n")
    assert lines[0] == "h,w"
    assert len(lines) == 65
    rows = [(0.0, 1.0), (0.5, 0.5), (1.5, 0.0)]
    w2 = width_from_table(rows)
    assert np.array_equal(w2.edges, w.edges)
    assert np.array_equal(w2.values, w.values)
    assert len(width_table(w, 1024)) == 1024


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


def test_width_rejects_negative_argument():
    with pytest.raises(InvalidParameterError):
        width_eval(LaplaceSpec(0.5))(-0.5)


def test_indicator_width_unit_mass_only():
    w = indicator_width()
    assert (w.h_max, w.total_mass) == (1.0, 1.0)


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

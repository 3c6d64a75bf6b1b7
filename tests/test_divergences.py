import json
import math

import numpy as np
import pytest

from crs_toolkit import divergences
from crs_toolkit.errors import InvalidParameterError, QuadratureError
from crs_toolkit.divergences import (
    LOG2_E_PLUS_1,
    PHI_BINARY_ENTROPY,
    PHI_XLOGX,
    DivergenceReport,
    PhiSpec,
    _phi_majorant,
    _quarter_steps,
    _report,
    _tail_cut,
    _w_ln_h_quad,
    alternative_divergence,
    channel_simulation_divergence,
    dcs_integral_representation_check,
    dcs_laplace_closed,
    kl_divergence,
    kl_sandwich,
    quad_phi_integral,
)
from crs_toolkit.measures import (
    GaussianSpec,
    LaplaceSpec,
    SyntheticSpec,
    discrete_spec,
)
from crs_toolkit.width import (
    GaussianWidth,
    LaplaceWidth,
    OptimalAcsWidth,
    OptimalCsWidth,
    equality_case_width,
    indicator_width,
    two_level_width,
    width_eval,
    width_from_discrete,
)

LN2 = math.log(2.0)
DISCRETE_EXAMPLE = discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4)

# extremal-family closed forms, frozen at full precision
CS_HALF_KL = 0.44269504088896344        # 1/a - 1 + ln(a) at a = 1/2, in bits
CS_HALF_DCS = 1.4426950408889634        # (1-a)/a / ln 2
ACS_TWO_KL = 0.7911989114166447         # (1 - ln(pi/2)) / ln 2
ACS_TWO_DACS = 2.8853900817779268       # 2 / ln 2

# phi(x) = x(1 - x) peaks at x = 1/2, so its sup is exactly 1/4
PHI_X_ONE_MINUS_X = PhiSpec(lambda x: x * (1.0 - x), sup_value=0.25)


def test_dcs_laplace_closed_values():
    assert dcs_laplace_closed(1.0) == pytest.approx(0.0, abs=1e-12)
    assert dcs_laplace_closed(0.5) == pytest.approx(0.5 / LN2, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        dcs_laplace_closed(0.0)


def test_dcs_quadrature_matches_closed_form_small_b():
    w = width_eval(LaplaceSpec(0.1))
    rep = channel_simulation_divergence(w)
    assert rep.method == "quadrature"
    assert rep.value_bits == pytest.approx(dcs_laplace_closed(0.1), abs=1e-6)


def test_quad_phi_examples():
    assert quad_phi_integral(indicator_width(), PHI_XLOGX).value_bits == 0.0
    rep = channel_simulation_divergence(width_eval(LaplaceSpec(0.5)))
    assert rep.value_bits == pytest.approx(0.721348, abs=1e-6)
    acs = quad_phi_integral(OptimalAcsWidth(2.0), PHI_BINARY_ENTROPY, tol=1e-7)
    assert acs.value_bits == pytest.approx(2.0 / LN2, abs=1e-6)


def test_quad_phi_reads_its_kind_from_phi():
    for w in (equality_case_width(2.0), LaplaceWidth(0.5)):
        kinds = [quad_phi_integral(w, phi).kind
                 for phi in (PHI_XLOGX, PHI_BINARY_ENTROPY, PHI_X_ONE_MINUS_X)]
        assert kinds == ["CS", "ACS", "PHI"]


def test_quad_phi_rejects_bad_tol():
    with pytest.raises(InvalidParameterError):
        quad_phi_integral(indicator_width(), PHI_XLOGX, tol=0.0)


# every route a divergence takes: closed-form KL, exact step-width sums and
# quadrature on a smooth width
DIVERGENCE_ROUTES = {
    "kl_closed_form": lambda tol: kl_divergence(LaplaceSpec(0.5), tol=tol),
    "kl_step_width": lambda tol: kl_divergence(DISCRETE_EXAMPLE, route="width_identity", tol=tol),
    "kl_smooth_width": lambda tol: kl_divergence(LaplaceSpec(0.5), route="width_identity", tol=tol),
    "cs_step_width": lambda tol: channel_simulation_divergence(width_eval(DISCRETE_EXAMPLE), tol),
    "cs_smooth_width": lambda tol: channel_simulation_divergence(LaplaceWidth(0.5), tol),
    "acs_step_width": lambda tol: alternative_divergence(width_eval(DISCRETE_EXAMPLE), tol),
    "acs_smooth_width": lambda tol: alternative_divergence(LaplaceWidth(0.5), tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("route", sorted(DIVERGENCE_ROUTES))
def test_every_route_rejects_bad_tol_in_bits(route, tol):
    # the message names the value the caller gave, in bits, not in nats
    with pytest.raises(InvalidParameterError, match=rf"^tol must be positive, got {tol!r}$"):
        DIVERGENCE_ROUTES[route](tol)


def test_custom_phi_on_step_width_closed_form():
    # phi(x) = x(1-x): integral over (0, c] of (1/c)(1 - 1/c) dh = 1 - 1/c
    for c in (2.0, 5.0):
        rep = quad_phi_integral(equality_case_width(c), PHI_X_ONE_MINUS_X)
        assert rep.method == "discrete_sum"
        assert rep.value_bits == pytest.approx((1.0 - 1.0 / c) / LN2, abs=1e-12)


def test_custom_phi_without_tail_certificate_rejected():
    with pytest.raises(QuadratureError):
        quad_phi_integral(OptimalCsWidth(0.5), PHI_X_ONE_MINUS_X)


def test_quad_phi_rejects_bare_callable():
    # a plain function carries no proven sup, so the stub has no bound
    for w in (equality_case_width(2.0), width_eval(LaplaceSpec(0.5))):
        with pytest.raises(InvalidParameterError):
            quad_phi_integral(w, lambda x: x * (1.0 - x))


def test_kl_closed_form_examples():
    assert kl_divergence(LaplaceSpec(0.5)).value_bits == pytest.approx(0.278652, abs=1e-6)
    assert kl_divergence(LaplaceSpec(1.0)).value_bits == pytest.approx(0.0, abs=1e-12)
    # (ln 2 + 0.125)/ln 2 per the standard per-dimension formula
    kl_g = kl_divergence(GaussianSpec(1.0, 0.5, 1)).value_bits
    assert kl_g == pytest.approx((LN2 + 0.125) / LN2, abs=1e-12)
    kl_d = kl_divergence(DISCRETE_EXAMPLE).value_bits
    assert kl_d == pytest.approx(1.0, abs=1e-12)


def test_kl_routes_agree():
    for spec in (LaplaceSpec(0.25), LaplaceSpec(0.5), LaplaceSpec(1.0),
                 DISCRETE_EXAMPLE,
                 discrete_spec((0.30, 0.20, 0.15, 0.10, 0.10, 0.05, 0.05, 0.05), (0.125,) * 8)):
        closed = kl_divergence(spec, route="closed_form").value_bits
        width_route = kl_divergence(spec, route="width_identity").value_bits
        assert width_route == pytest.approx(closed, abs=1e-6)


def test_kl_synthetic_has_no_closed_form():
    spec = SyntheticSpec(equality_case_width(4.0))
    with pytest.raises(InvalidParameterError):
        kl_divergence(spec, route="closed_form")
    # equality case: KL = D_CS = log2(c)
    assert kl_divergence(spec, route="width_identity").value_bits == pytest.approx(2.0, abs=1e-9)


def test_kl_unknown_route():
    with pytest.raises(InvalidParameterError):
        kl_divergence(LaplaceSpec(0.5), route="guess")


def test_kl_sandwich_examples():
    # the D_CS upper end kl + log2(kl+1) + 1 is 1, 3 and 11 bits here
    for kl_bits, cs_upper in ((0.0, 1.0), (1.0, 3.0), (7.0, 11.0)):
        assert kl_sandwich(kl_bits) == pytest.approx(cs_upper + LOG2_E_PLUS_1, abs=1e-12)
    for kl_bits in (-0.1, math.nan, -math.inf):
        with pytest.raises(InvalidParameterError):
            kl_sandwich(kl_bits)


def test_optimal_family_fixture_values():
    w = OptimalCsWidth(0.5)
    kl, dcs = w.kl_bits(), w.dcs_bits()
    assert kl == pytest.approx(CS_HALF_KL, abs=1e-12)
    assert dcs == pytest.approx(CS_HALF_DCS, abs=1e-12)
    quad = quad_phi_integral(w, PHI_XLOGX, tol=1e-8)
    assert quad.value_bits == pytest.approx(dcs, abs=1e-6)

    w2 = OptimalAcsWidth(2.0)
    kl2, dacs2 = w2.kl_bits(), w2.dacs_bits()
    assert kl2 == pytest.approx(ACS_TWO_KL, abs=1e-12)
    assert dacs2 == pytest.approx(ACS_TWO_DACS, abs=1e-12)
    quad2 = quad_phi_integral(w2, PHI_BINARY_ENTROPY, tol=1e-8)
    assert quad2.value_bits == pytest.approx(dacs2, abs=1e-6)


def test_optimal_family_degenerate_alpha():
    w = OptimalCsWidth(0.999)
    assert w.kl_bits() < 0.002 and w.dcs_bits() < 0.002
    with pytest.raises(InvalidParameterError):
        OptimalCsWidth(1.5)
    with pytest.raises(InvalidParameterError):
        OptimalAcsWidth(0.5)


def test_optimal_family_kl_consistent_with_width_identity():
    # the closed-form KL of each extremal family equals the width-route KL
    for w in (OptimalCsWidth(0.4), OptimalCsWidth(0.8), OptimalAcsWidth(1.5),
              OptimalAcsWidth(3.0)):
        kl = w.kl_bits()
        res = _w_ln_h_quad(w, 1e-9)
        assert (1.0 + res.value) / LN2 == pytest.approx(kl, abs=1e-7)


SUITE_WIDTHS = [
    width_eval(LaplaceSpec(0.5)),
    width_eval(LaplaceSpec(0.25)),
    width_eval(GaussianSpec(1.0, 0.5, 1)),
    width_eval(DISCRETE_EXAMPLE),
    equality_case_width(4.0),
    two_level_width(0.1),
]


def test_extremal_families_dominate():
    # any pair with smaller KL has smaller D_CS than the extremal family
    pair_stats = []
    for w in SUITE_WIDTHS:
        res = _w_ln_h_quad(w, 1e-9)
        kl = (1.0 + res.value) / LN2
        dcs = channel_simulation_divergence(w).value_bits
        dacs = alternative_divergence(w).value_bits
        pair_stats.append((kl, dcs, dacs))
    for w_cs in map(OptimalCsWidth, (0.3, 0.5, 0.7, 0.9, 0.999)):
        for kl, dcs, _ in pair_stats:
            if kl <= w_cs.kl_bits():
                assert dcs <= w_cs.dcs_bits() + 1e-7
    for w_acs in map(OptimalAcsWidth, (1.5, 2.0, 3.0, 4.0, 8.0)):
        for kl, _, dacs in pair_stats:
            if kl <= w_acs.kl_bits():
                assert dacs <= w_acs.dacs_bits() + 1e-7


def test_ordering_kl_cs_acs():
    for w in SUITE_WIDTHS:
        res = _w_ln_h_quad(w, 1e-9)
        kl = (1.0 + res.value) / LN2
        dcs = channel_simulation_divergence(w).value_bits
        dacs = alternative_divergence(w).value_bits
        assert kl <= dcs + 1e-8
        assert dcs <= dacs + 1e-8
        assert dcs <= kl + math.log2(kl + 1.0) + 1.0 + 1e-8


@pytest.mark.parametrize("mu, sigma, d", [(1.0, 0.5, 16), (1.0, 0.5, 64), (0.0, 0.5, 128),
                                          (1.0, 0.5, 256)])
def test_dacs_minus_dcs_lies_in_its_bracket_on_deep_gaussians(mu, sigma, d):
    # w - w^2 <= -(1 - w) ln(1 - w) <= w - w^2 / 2 and int w dh = 1 nat, so
    # D_ACS - D_CS lies in [m, (log2 e + m) / 2] for m = int w (1 - w) dh in
    # bits. At high d most of the mass sits where w < 2^-53.
    w = GaussianWidth(mu, sigma, d)
    acs, cs = alternative_divergence(w), channel_simulation_divergence(w)
    m = quad_phi_integral(w, PHI_X_ONE_MINUS_X, tol=1e-12)
    slack = acs.abs_error_estimate + cs.abs_error_estimate + m.abs_error_estimate
    gap = acs.value_bits - cs.value_bits
    assert acs.converged
    assert m.value_bits - slack <= gap <= (1.0 / LN2 + m.value_bits) / 2.0 + slack


def test_convexity_in_target_on_random_discrete_triples():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(2, 17))
        q1 = rng.dirichlet(np.ones(m))
        q2 = rng.dirichlet(np.ones(m))
        p = rng.dirichlet(np.ones(m))
        lam = float(rng.random())
        mix = lam * q1 + (1.0 - lam) * q2
        d_mix = channel_simulation_divergence(width_from_discrete(mix, p)).value_bits
        d1 = channel_simulation_divergence(width_from_discrete(q1, p)).value_bits
        d2 = channel_simulation_divergence(width_from_discrete(q2, p)).value_bits
        assert d_mix <= lam * d1 + (1.0 - lam) * d2 + 1e-9


def test_self_information_point_masses():
    rng = np.random.default_rng(7)
    for m in range(2, 17):
        p = rng.dirichlet(np.ones(m))
        x = int(rng.integers(m))
        q = np.zeros(m)
        q[x] = 1.0
        dcs = channel_simulation_divergence(width_from_discrete(q, p)).value_bits
        assert dcs == pytest.approx(-math.log2(p[x]), abs=1e-12)


def test_positivity():
    # zero exactly on identity constructions
    for spec in (LaplaceSpec(1.0), discrete_spec((0.25,) * 4, (0.25,) * 4),
                 SyntheticSpec(indicator_width())):
        assert channel_simulation_divergence(width_eval(spec)).value_bits <= 1e-12
        assert alternative_divergence(width_eval(spec)).value_bits <= 1e-12
    for w in SUITE_WIDTHS:
        assert channel_simulation_divergence(w).value_bits > 1e-3


def test_equality_case_family_collapses_the_sandwich():
    # width (1/c) 1[h <= c]: D_CS = D_KL = log2 c, exactly
    for c in (1.0, 2.0, 4.0, 10.0):
        w = equality_case_width(c)
        dcs = channel_simulation_divergence(w).value_bits
        kl = kl_divergence(SyntheticSpec(w), route="width_identity").value_bits
        assert dcs == pytest.approx(math.log2(c), abs=1e-12)
        assert kl == pytest.approx(math.log2(c), abs=1e-12)


def test_integral_representation_check():
    lhs, rhs = dcs_integral_representation_check(indicator_width())
    assert abs(lhs) <= 1e-9 and abs(rhs) <= 1e-9
    lhs, rhs = dcs_integral_representation_check(width_eval(LaplaceSpec(0.5)))
    assert lhs == pytest.approx(0.721348, abs=1e-5)
    assert abs(lhs - rhs) < 1e-5
    lhs, rhs = dcs_integral_representation_check(equality_case_width(4.0))
    assert lhs == 2.0
    assert rhs == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(InvalidParameterError):
        dcs_integral_representation_check(OptimalCsWidth(0.5))


@pytest.mark.parametrize("b", [0.02, 0.25, 0.5, 0.9, 0.95, 0.99])
def test_integral_representation_matches_the_laplace_closed_form(b):
    # r and T are closed forms on Laplace widths, so the layer-cake inner
    # integral y r(y) + T(r(y)) leaves rhs with the outer quadrature's error only
    lhs, rhs = dcs_integral_representation_check(LaplaceWidth(b))
    ref = dcs_laplace_closed(b)
    assert abs(lhs - ref) <= 1e-6 / 4.0
    assert abs(rhs - ref) <= 1e-8


@pytest.mark.parametrize("mu, sigma, d", [(0.5, 0.6, 1), (0.8, 0.45, 1)])
def test_integral_representation_sides_agree_on_gaussian_widths(mu, sigma, d):
    lhs, rhs = dcs_integral_representation_check(GaussianWidth(mu, sigma, d))
    assert abs(lhs - rhs) <= 1e-7


class _UnconvergedTailWidth(LaplaceWidth):
    def _tail(self, h):
        return super()._tail(h)._replace(converged=False)


def test_integral_representation_raises_on_an_unconverged_inner_tail():
    with pytest.raises(QuadratureError, match=r"^tail integral at h = .* did not converge$"):
        dcs_integral_representation_check(_UnconvergedTailWidth(0.5))


def test_integral_representation_raises_on_an_unconverged_outer_integral(monkeypatch):
    # a step width's D_CS is a discrete sum, so only the outer integral
    # goes through adaptive
    adaptive = divergences.adaptive
    monkeypatch.setattr(divergences, "adaptive",
                        lambda *args: adaptive(*args)._replace(converged=False))
    with pytest.raises(QuadratureError, match="outer integral .* did not converge"):
        dcs_integral_representation_check(two_level_width(0.3))


def test_report_json_schema():
    rep = channel_simulation_divergence(width_eval(LaplaceSpec(0.5)))
    blob = json.loads(json.dumps(rep.to_json()))
    assert set(blob) == {"kind", "value_bits", "abs_error_estimate", "method", "converged"}
    assert blob["converged"] is True
    assert blob["kind"] == "CS" and blob["method"] == "quadrature"
    assert blob["abs_error_estimate"] >= 0.0
    exact = channel_simulation_divergence(width_eval(DISCRETE_EXAMPLE))
    assert exact.method == "discrete_sum"
    assert exact.abs_error_estimate == 0.0


def test_report_clamps_a_negative_value_only_within_its_error_bar():
    # quadrature rounding can take a zero divergence just below 0
    rep = _report("CS", -1e-10, 2e-10, "quadrature")
    assert (rep.value_bits, rep.abs_error_estimate) == (0.0, 2e-10)
    assert _report("KL", -1e-13, 0.0, "discrete_sum").value_bits == 0.0  # 1e-12 floor
    with pytest.raises(QuadratureError, match="beyond its error bar"):
        _report("CS", -3e-10, 2e-10, "quadrature")
    with pytest.raises(InvalidParameterError, match="non-negative"):
        DivergenceReport("CS", -1e-10, 2e-10, "quadrature")


def test_gaussian_dcs_default_tolerance_known_value():
    # d = 2 value frozen from an independent fine-trapezoid oracle run
    rep = channel_simulation_divergence(width_eval(GaussianSpec(1.0, 0.5, 2)))
    assert rep.value_bits == pytest.approx(3.23723972, abs=1e-6)


# The linear scan that _tail_cut replays: walk the grid u_start, u_start +
# 0.25, ... one point at a time, each the last plus 0.25.
def _tail_cut_reference(ln_bound, u_start, budget):
    u, ln_budget = u_start, math.log(budget)
    while True:
        ln_b = ln_bound(u)
        if ln_b <= ln_budget:
            return u, math.exp(ln_b)
        if u > 690.0:
            raise QuadratureError("power tail too heavy to truncate within float range")
        u += 0.25


def test_quarter_steps_match_the_sequential_sum():
    # one sum u + n/4 rounds differently from n sums of 0.25 about one time
    # in six on these draws; each run below a power of two is exact
    rng = np.random.default_rng(45)
    for u in [0.0, 1.0, *(10.0 ** rng.uniform(-12.0, 2.84, 1500))]:
        n = int(rng.integers(1, 2800))
        want = u
        for _ in range(n):
            want += 0.25
        assert _quarter_steps(u, n) == want


def _cut_or_raise(cut, ln_bound, u_start, budget):
    try:
        return cut(ln_bound, u_start, budget)
    except QuadratureError:
        return "raises"


def test_tail_cut_replays_the_linear_scan(monkeypatch):
    # both phi majorants and the KL one, on OptimalCs tails (alpha below
    # about 0.045 is too heavy for float range at these budgets) and on
    # OptimalAcs tails; u_start is 0 or 1 for some and off the 1/4 grid for others
    monkeypatch.setattr(divergences, "_log_h_quad", lambda g, w, u_lo, stub, majorant, *a, **k: majorant)
    rng = np.random.default_rng(44)
    strata = (np.arange(40) + rng.random(40)) / 40.0
    widths = [OptimalCsWidth(0.005 + 0.99 * x) for x in strata]
    widths += [OptimalAcsWidth(1.01 + 6.99 * x) for x in rng.permutation(strata)]
    outcomes = []
    for w in widths:
        for ln_bound, u_start in (_phi_majorant(w.tail, PHI_XLOGX),
                                  _phi_majorant(w.tail, PHI_BINARY_ENTROPY),
                                  _w_ln_h_quad(w, 1e-9)(w.tail)):
            for budget in 10.0 ** rng.uniform(-15.0, -3.0, 6):
                evals = []

                def counted(u):
                    evals.append(u)
                    return ln_bound(u)

                got = _cut_or_raise(_tail_cut, counted, u_start, budget)
                assert got == _cut_or_raise(_tail_cut_reference, ln_bound, u_start, budget)
                assert len(evals) <= 25
                outcomes.append(got == "raises")
    assert 0 < sum(outcomes) < len(outcomes)

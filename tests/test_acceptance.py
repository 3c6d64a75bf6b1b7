"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts. Tolerances are pinned here, not
configurable.
"""
import math
import time

import numpy as np
import pytest
from scipy import special, stats

from crs_toolkit.divergences import (
    alternative_divergence,
    channel_simulation_divergence,
    dcs_integral_representation_check,
    dcs_laplace_closed,
    kl_divergence,
)
from crs_toolkit.experiments import bound_suite, default_suite, epsilon_family_study, laplace_sweep
from crs_toolkit.grs import GrsRecursion, grs_empirical, grs_index_distribution
from crs_toolkit.measures import (
    LaplaceSpec,
    SyntheticSpec,
    discrete_spec,
    make_pair,
)
from crs_toolkit.streams import RngStream
from crs_toolkit import width_from_discrete
from crs_toolkit.width import (
    OptimalAcsWidth,
    OptimalCsWidth,
    equality_case_width,
    indicator_width,
    width_eval,
)
from crs_toolkit.divergences import PHI_BINARY_ENTROPY, PHI_XLOGX, _w_ln_h_quad, quad_phi_integral

LN2 = math.log(2.0)
GAMMA = float(np.euler_gamma)
LOG2_E_PLUS_1 = math.log2(math.e + 1.0)

# criterion 10: the limiting gap factor reached by eps = 0.003; the oracle
# run gives gap(0.003)/log2(e+1) = 0.98946, so 0.9 has a wide margin
EPS_GAP_LIMIT_FRACTION = 0.9

# criterion 11: residual ceiling for |delta - half log2(KL+1)| at d in
# {16, 32, 64}; tightened from the initial 0.15 after an oracle run that
# observed 0.0257, 0.0273, 0.0280
EQ9_RESIDUAL_CEILING_BITS = 0.05

DISCRETE_EXAMPLE = discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4)


def _line(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def suite_report():
    return bound_suite(default_suite())


def test_criterion_01_laplace_closed_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for b in np.geomspace(0.02, 1.0, 25):
        closed = dcs_laplace_closed(float(b))
        quad = channel_simulation_divergence(width_eval(LaplaceSpec(float(b)))).value_bits
        worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - start
    _line(1, worst <= 1e-6 and elapsed <= 5.0,
          f"25-point closed-vs-quadrature worst gap {worst:.2e} bits in {elapsed:.2f}s")


def test_criterion_02_digamma_bounds():
    rows = laplace_sweep()  # default 25-point grid
    ok = True
    for r in rows:
        delta_nats = r.delta_bits * LN2
        ok &= (GAMMA - r.b - 1e-9 <= delta_nats <= GAMMA - r.b / 2.0 + 1e-9)
    _line(2, ok, "gamma - b <= delta*ln2 <= gamma - b/2 on every sweep row (1e-9 slack)")


def test_criterion_03_identity_pairs():
    ok = True
    for spec in (LaplaceSpec(1.0), discrete_spec((0.25,) * 4, (0.25,) * 4),
                 SyntheticSpec(indicator_width())):
        w = width_eval(spec)
        route = "width_identity" if spec.family == "synthetic" else "closed_form"
        kl = kl_divergence(spec, route=route).value_bits
        dcs = channel_simulation_divergence(w).value_bits
        dacs = alternative_divergence(w).value_bits
        dist = grs_index_distribution(w)
        ok &= abs(kl) <= 1e-9 and abs(dcs) <= 1e-9 and abs(dacs) <= 1e-9
        ok &= abs(dist.entropy_bits) <= 1e-9
        ok &= abs(dist.mean_index + dist.mean_tail_bound - 1.0) <= 1e-9
    _line(3, ok, "identity pairs give KL = D_CS = D_ACS = H[K] = 0 and E[K] = 1 within 1e-9")


def test_criterion_04_joint_sandwich(suite_report):
    pairs = suite_report.pairs
    families = {p.spec["family"] for p in pairs}
    chain = ["kl_le_dcs", "dcs_le_entropy", "entropy_le_dcs_plus_log2_e_plus_1",
             "chain_upper_kl_form"]
    ok = (len(pairs) >= 12 and families == {"laplace", "gaussian", "discrete", "synthetic"}
          and all(p.error is None for p in pairs)
          and all(i.passed for p in pairs for i in p.inequalities if i.name in chain))
    _line(4, ok, f"joint sandwich chain holds on {len(pairs)} pairs spanning {sorted(families)}")


def test_criterion_05_runtime_bound(suite_report):
    ok = all(i.passed for p in suite_report.pairs for i in p.inequalities
             if i.name == "runtime_ge_exp2_dinf")
    dist = grs_index_distribution(width_eval(DISCRETE_EXAMPLE), eps_stop=1e-9)
    expected = float(dist.mean_index + dist.mean_tail_bound)
    ok &= abs(expected - 2.0) <= 1e-9
    _line(5, ok, f"E[K] >= 2^D_inf on every pair; discrete example E[K] = {expected!r}")


def test_criterion_06_entropy_vs_acs_bound(suite_report):
    ok = True
    for p in suite_report.pairs:
        q = p.quantities
        ok &= q["entropy_bits"] <= q["dacs_bits"] + 1.0 + 1e-6
    _line(6, ok, "H[K] <= D_ACS + 1 + 1e-6 on every suite pair")


def test_criterion_07_optimal_family_fixtures():
    kl_cs = (1.0 / 0.5 - 1.0 + math.log(0.5)) / LN2
    dcs_cs = (1.0 - 0.5) / 0.5 / LN2
    w_cs = OptimalCsWidth(0.5)
    quad_cs = quad_phi_integral(w_cs, PHI_XLOGX, tol=1e-8).value_bits
    kl_route_cs = (1.0 + _w_ln_h_quad(w_cs, 1e-8).value) / LN2
    beta = math.pi / 2.0
    kl_acs = -(math.log(beta) - 1.0 + beta * math.cos(math.pi / 2.0)) / LN2
    dacs_acs = (2.0 - math.pi / math.tan(math.pi / 2.0)) / LN2
    w_acs = OptimalAcsWidth(2.0)
    quad_acs = quad_phi_integral(w_acs, PHI_BINARY_ENTROPY, tol=1e-8).value_bits
    kl_route_acs = (1.0 + _w_ln_h_quad(w_acs, 1e-8).value) / LN2
    ok = (abs(kl_cs - 0.4426950408889634) <= 1e-12
          and abs(dcs_cs - 1.4426950408889634) <= 1e-12
          and abs(quad_cs - dcs_cs) <= 1e-6
          and abs(kl_route_cs - kl_cs) <= 1e-6
          and abs(kl_acs - 0.7911989114166447) <= 1e-12
          and abs(dacs_acs - 2.8853900817779268) <= 1e-12
          and abs(quad_acs - dacs_acs) <= 1e-6
          and abs(kl_route_acs - kl_acs) <= 1e-6)
    _line(7, ok,
          f"CS(0.5) -> ({kl_cs:.6f}, {quad_cs:.6f}); ACS(2) -> ({kl_acs:.6f}, {quad_acs:.6f}) "
          "within 1e-6 of the extremal-family closed forms")


def test_criterion_08_divergence_properties():
    rng = np.random.default_rng(123)
    convex_ok = True
    for _ in range(200):
        m = int(rng.integers(2, 17))
        q1, q2, p = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
        lam = float(rng.random())
        d_mix = channel_simulation_divergence(width_from_discrete(lam * q1 + (1 - lam) * q2, p)).value_bits
        d1 = channel_simulation_divergence(width_from_discrete(q1, p)).value_bits
        d2 = channel_simulation_divergence(width_from_discrete(q2, p)).value_bits
        convex_ok &= d_mix <= lam * d1 + (1 - lam) * d2 + 1e-9
    self_ok = True
    for m in range(2, 17):
        p = rng.dirichlet(np.ones(m))
        x = int(rng.integers(m))
        q = np.zeros(m)
        q[x] = 1.0
        dcs = channel_simulation_divergence(width_from_discrete(q, p)).value_bits
        self_ok &= abs(dcs + math.log2(p[x])) <= 1e-12
    pos_ok = channel_simulation_divergence(indicator_width()).value_bits == 0.0
    for b in (0.25, 0.5, 0.75, 0.99):
        pos_ok &= channel_simulation_divergence(width_eval(LaplaceSpec(b))).value_bits > 0.0
    _line(8, convex_ok and self_ok and pos_ok,
          "convexity on 200 triples (1e-9), exact self-information on alphabets 2..16, positivity")


def test_criterion_09_sampler_goodness_of_fit():
    start = time.perf_counter()
    n = 10**5
    pair_d = make_pair(DISCRETE_EXAMPLE)
    w_d = width_eval(DISCRETE_EXAMPLE)
    chi_threshold = stats.chi2.ppf(0.999, 12)
    ks_threshold = special.kolmogi(1e-3) / math.sqrt(n)
    pair_l = make_pair(LaplaceSpec(0.5))
    w_l = width_eval(LaplaceSpec(0.5))
    cdf = stats.laplace(scale=0.5).cdf
    ok = True
    for seed in range(10):
        res = grs_empirical(pair_d, w_d, RngStream(seed, 0), n)
        exp_p = 0.5 ** np.arange(1, 13)
        obs = np.array([(res.indices == k).sum() for k in range(1, 13)]
                       + [(res.indices > 12).sum()], dtype=float)
        chi2 = float((((obs - np.append(exp_p, 1 - exp_p.sum()) * n) ** 2)
                      / (np.append(exp_p, 1 - exp_p.sum()) * n)).sum())
        ok &= chi2 < chi_threshold
        res_l = grs_empirical(pair_l, w_l, RngStream(seed, 1), n)
        xs = np.sort(res_l.accepted)
        F = cdf(xs)
        i = np.arange(1, n + 1)
        ks = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
        ok &= ks < ks_threshold
    # survival consistency for k <= 10 on the last seed of each family
    for res, w in ((res, w_d), (res_l, w_l)):
        rec = GrsRecursion(w)
        for k in range(1, 11):
            s_k = rec.state(k)[1]
            sigma = math.sqrt(max(s_k * (1 - s_k), 1e-12) / n)
            ok &= abs(np.mean(res.indices >= k) - s_k) <= 4 * sigma + 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 30.0
    _line(9, ok, f"chi-square + KS at n=1e5 pass for 10 fixed seeds, S_k within 4 sigma "
                 f"({elapsed:.1f}s)")


def test_criterion_10_entropy_gap_tightness():
    rows = epsilon_family_study((0.3, 0.1, 0.03, 0.01, 0.003))
    gaps = [r.gap_bits for r in rows]
    increasing = all(b > a for a, b in zip(gaps, gaps[1:]))
    bounded = all(g <= LOG2_E_PLUS_1 + 1e-6 for g in gaps)
    near_limit = gaps[-1] >= EPS_GAP_LIMIT_FRACTION * LOG2_E_PLUS_1
    _line(10, increasing and bounded and near_limit,
          f"gap strictly increasing, capped by log2(e+1), gap(0.003) = {gaps[-1]:.5f} "
          f">= {EPS_GAP_LIMIT_FRACTION} * log2(e+1)")


def test_criterion_11_gaussian_conjecture_residual():
    from crs_toolkit.experiments import gaussian_sweep
    start = time.perf_counter()
    rows = gaussian_sweep([1, 2, 4, 8, 16, 32, 64], mu=1.0, sigma=0.5)
    by_d = {r.d: r for r in rows}
    residuals = {d: abs(by_d[d].delta_bits - by_d[d].conjecture_half_log_bits)
                 for d in (16, 32, 64)}
    deltas = [r.delta_bits for r in rows]
    elapsed = time.perf_counter() - start
    ok = (all(v <= EQ9_RESIDUAL_CEILING_BITS for v in residuals.values())
          and deltas == sorted(deltas) and elapsed <= 60.0)
    _line(11, ok, f"half-log conjecture residuals {residuals} <= {EQ9_RESIDUAL_CEILING_BITS} "
                  f"bits, delta increasing in d ({elapsed:.1f}s)")


def test_criterion_12_integral_representation():
    ok = True
    for b in (0.25, 0.5):
        lhs, rhs = dcs_integral_representation_check(width_eval(LaplaceSpec(b)), tol=1e-6)
        ok &= abs(lhs - rhs) <= 1e-5
    lhs_c, rhs_c = dcs_integral_representation_check(equality_case_width(4.0), tol=1e-7)
    ok &= lhs_c == 2.0 and abs(rhs_c - 2.0) <= 1e-9
    _line(12, ok, "nested-representation D_CS agrees within 1e-5 on Laplace and is 2.0 at c=4")


def test_criterion_13_kl_route_equivalence():
    ok = True
    for spec in (LaplaceSpec(0.25), LaplaceSpec(0.5), LaplaceSpec(0.75), LaplaceSpec(1.0),
                 DISCRETE_EXAMPLE,
                 discrete_spec((0.30, 0.20, 0.15, 0.10, 0.10, 0.05, 0.05, 0.05), (0.125,) * 8)):
        closed = kl_divergence(spec, route="closed_form").value_bits
        width_route = kl_divergence(spec, route="width_identity").value_bits
        ok &= abs(closed - width_route) <= 1e-6
    _line(13, ok, "width-identity KL matches closed-form KL within 1e-6 bits")

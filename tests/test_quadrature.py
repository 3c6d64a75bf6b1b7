import decimal
import heapq
import math
from decimal import Decimal

import numpy as np
import pytest

from crs_toolkit.divergences import (
    DEFAULT_TOL_BITS,
    PHI_BINARY_ENTROPY,
    PHI_XLOGX,
    PhiSpec,
    _phi_quad,
    _w_ln_h_quad,
    alternative_divergence,
    channel_simulation_divergence,
    kl_divergence,
    quad_phi_integral,
)
from crs_toolkit.errors import InvalidParameterError, QuadratureError
from crs_toolkit import quadrature
from crs_toolkit.quadrature import (
    _BATCH,
    _ERR_SAFETY,
    _NODES,
    _W_GAUSS,
    _W_KRONROD,
    _row_dots_by_row,
    adaptive,
    gk15,
    seed_panels,
)
from crs_toolkit.measures import LaplaceSpec
from crs_toolkit.width import (
    GaussianWidth,
    LaplaceWidth,
    OptimalAcsWidth,
    OptimalCsWidth,
    PowerTail,
    WidthFunction,
)

LN2 = math.log(2.0)


class FormulaWidth(WidthFunction):
    """A custom width from a formula, with its own h_max, breakpoints and tail."""

    def __init__(self, formula, h_max, breakpoints=(), tail=None):
        self.formula, self.h_max, self.breakpoints, self.tail = formula, h_max, breakpoints, tail

    def _formula(self, h: np.ndarray) -> np.ndarray:
        return self.formula(h)


def test_gk15_polynomial_exact():
    # degree-7 polynomial: exact for both embedded rules
    f = lambda x: 7 * x**6
    (val,), (err,) = gk15(f, np.array([0.0]), np.array([2.0]))
    assert (val, err) == _gk15_panel(f, 0.0, 2.0)
    assert val == pytest.approx(2.0**7, abs=1e-10)
    assert err < 1e-8


def test_adaptive_on_no_panels_is_an_exact_zero():
    calls = []
    assert adaptive(lambda x: calls.append(x) or x, [], 1e-9) == (0.0, 0.0, True, 0)
    assert not calls


def test_adaptive_sine():
    res = adaptive(lambda x: np.sin(x), [(0.0, math.pi)], 1e-12)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_adaptive_kink_with_cut():
    f = lambda x: np.abs(x - 1.0 / 3.0)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    res = adaptive(f, seed_panels(0.0, 1.0, cuts=(1.0 / 3.0,)), 1e-13)
    assert res.value == pytest.approx(exact, abs=1e-13)


def test_adaptive_log_singularity():
    # int_0^1 ln(x) dx = -1; endpoint singular but integrable
    res = adaptive(lambda x: np.log(x), seed_panels(0.0, 1.0, max_len=0.125), 1e-10)
    assert res.value == pytest.approx(-1.0, abs=1e-8)


def test_adaptive_budget_exhaustion_flags():
    f = lambda x: np.sin(1000.0 * x)
    res = adaptive(f, [(0.0, 1.0)], 1e-14, max_panels=8)
    assert not res.converged
    assert res.error > 1e-14


def test_seed_panels_match_numpy_linspace():
    # seed_panels spaces each segment as np.linspace(a, b, k + 1) does, bit for bit
    rng = np.random.default_rng(44)
    for _ in range(2000):
        lo = float(rng.uniform(-50.0, 50.0))
        hi = lo + float(10.0 ** rng.uniform(-3.0, 2.5))
        cuts = rng.uniform(lo - 1.0, hi + 1.0, int(rng.integers(0, 5))).tolist()
        max_len = float(10.0 ** rng.uniform(-1.5, 1.0))
        pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
        want = []
        for a, b in zip(pts[:-1], pts[1:]):
            edges = np.linspace(a, b, max(1, math.ceil((b - a) / max_len)) + 1)
            want.extend(zip(edges[:-1].tolist(), edges[1:].tolist()))
        got = seed_panels(lo, hi, cuts, max_len)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_seed_panels_cover_interval():
    panels = seed_panels(0.0, 10.0, cuts=(2.5,), max_len=2.0)
    assert panels[0][0] == 0.0 and panels[-1][1] == 10.0
    for (a1, b1), (a2, b2) in zip(panels[:-1], panels[1:]):
        assert b1 == a2
    assert any(b == 2.5 for _, b in panels)


def test_phi_constants():
    x = np.array([0.0, 0.25, 0.5, 1.0])
    assert PHI_XLOGX(x)[0] == 0.0 and PHI_XLOGX(x)[-1] == 0.0
    assert PHI_XLOGX(x)[1] == pytest.approx(-0.25 * math.log(0.25))
    assert PHI_BINARY_ENTROPY(x)[2] == pytest.approx(math.log(2.0))
    # clipping: slightly out-of-range widths do not blow up
    assert PHI_XLOGX(np.array([1.0 + 1e-15]))[0] == 0.0


def _binary_entropy_nats_exact(x: float) -> float:
    """H_b(x) in nats for 0 < x < 1, from 40-digit logs of the exact x and 1 - x."""
    # a float has at most 1074 fraction digits, so 1 - x is exact at 2000
    one_minus_x = decimal.Context(prec=2000, traps=[decimal.Inexact]).subtract(1, Decimal(x))
    with decimal.localcontext(prec=40):
        return float(-(Decimal(x) * Decimal(x).ln() + one_minus_x * one_minus_x.ln()))


BINARY_ENTROPY_POINTS = [1e-300, 1e-20, 2.0**-53, 1e-12, 1e-6, 0.3, 0.5, 1.0 - 2.0**-53]


def test_binary_entropy_is_accurate_to_2_ulp():
    # (1 - x) ln(1 - x) ~ -x is read by log1p, not rounded away in 1 - x
    got = PHI_BINARY_ENTROPY(np.array(BINARY_ENTROPY_POINTS))
    for x, value in zip(BINARY_ENTROPY_POINTS, got):
        want = _binary_entropy_nats_exact(x)
        assert abs(value - want) <= 2 * math.ulp(want), x
    ends = PHI_BINARY_ENTROPY(np.array([0.0, 1.0]))
    assert list(ends) == [0.0, 0.0] and not np.signbit(ends).any()


def test_phi_of_width_indicator_is_zero():
    w = FormulaWidth(lambda h: np.where(h <= 1.0, 1.0, 0.0), 1.0)
    res = _phi_quad(w, PHI_XLOGX, 1e-12)
    assert abs(res.value) < 1e-12


def test_phi_of_width_laplace_half_closed_form():
    # w(h) = 1 - h/2 on [0, 2]: -int w ln w dh = 1/2 nats
    w = FormulaWidth(lambda h: np.clip(1.0 - h / 2.0, 0.0, 1.0), 2.0, (2.0,))
    res = _phi_quad(w, PHI_XLOGX, 1e-11)
    assert res.converged
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_infinite_h_max_requires_tail():
    formula = lambda h: 1.0 / (1.0 + h**2)
    with pytest.raises(QuadratureError):
        _phi_quad(FormulaWidth(formula, math.inf), PHI_XLOGX, 1e-9)
    # a phi without a majorant is rejected even with a tail certificate
    tail = PowerTail(coef=1.0, exponent=2.0, h_from=1.0)
    phi = PhiSpec(lambda x: x * (1 - x), sup_value=0.25)
    with pytest.raises(QuadratureError):
        _phi_quad(FormulaWidth(formula, math.inf, tail=tail), phi, 1e-9)


def test_power_tail_integral():
    # w = min(1, h^-2): int phi2(w) over tail has closed form p/(p-1)^2 from 1
    tail = PowerTail(coef=1.0, exponent=2.0, h_from=1.0)
    w = FormulaWidth(lambda h: np.maximum(1.0, h) ** -2.0, math.inf, (1.0,), tail)
    res = _phi_quad(w, PHI_XLOGX, 1e-10)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-9)  # p ln(h) h^-p integrates to 2


def test_power_tail_validation():
    with pytest.raises(InvalidParameterError):
        PowerTail(coef=1.0, exponent=1.0, h_from=1.0)
    with pytest.raises(InvalidParameterError):
        PowerTail(coef=-1.0, exponent=2.0, h_from=1.0)


def test_width_log_h_integral_matches_kl_identity():
    # laplace b = 1/2: 1 + int w ln h dh = ln 2 - 1/2 + 1... KL nats = b-1-ln b
    w = FormulaWidth(lambda h: np.clip(1.0 - h / 2.0, 0.0, 1.0), 2.0, (2.0,))
    res = _w_ln_h_quad(w, 1e-11)
    kl_nats = 0.5 - 1.0 - math.log(0.5)
    assert 1.0 + res.value == pytest.approx(kl_nats, abs=1e-9)


def test_error_estimates_are_honest():
    # sqrt profile: substituting s = sqrt(h) gives int 2s phi2(1-s) ds = 5/18
    w = FormulaWidth(lambda h: np.clip(1.0 - np.sqrt(h), 0.0, 1.0), 1.0, (1.0,))
    res = _phi_quad(w, PHI_XLOGX, 1e-10)
    exact = 5.0 / 18.0
    assert res.value == pytest.approx(exact, abs=1e-9)
    assert abs(res.value - exact) <= max(res.error, 1e-12) * 50


# Pinned outputs of the log-h drivers: values within 1e-13 relative, error
# estimates (differences of panel sums) within 1e-6 relative, flags exact.
def _assert_pinned(value, error, want_value, want_error):
    assert value == pytest.approx(want_value, rel=1e-13, abs=0.0)
    assert error == pytest.approx(want_error, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("divergence, width, value, error", [
    (channel_simulation_divergence, LaplaceWidth(0.25), 1.562919627630252, 3.8197898760619975e-10),
    (alternative_divergence, OptimalAcsWidth(1.8), 3.3960284527864553, 3.2010925855464525e-10),
    (channel_simulation_divergence, OptimalCsWidth(0.3), 3.3662884286214796, 2.4448752519634635e-10),
], ids=["cs_laplace_b025", "acs_optimal_a1.8", "cs_optimal_a0.3"])
def test_phi_driver_outputs_pinned(divergence, width, value, error):
    rep = divergence(width)
    assert rep.converged and rep.method == "quadrature"
    _assert_pinned(rep.value_bits, rep.abs_error_estimate, value, error)
    if divergence is alternative_divergence:
        assert abs(rep.value_bits - width.dacs_bits()) <= rep.abs_error_estimate


# D_ACS on power tails: w drops below 1e-8 where the u = ln h substitution
# scales the integrand by h ~ 1e13, so any rounding of H_b(w) there is noise
# that the panel splitter chases until the budget is spent
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0, 2.4, 3.0, 6.0])
def test_optimal_acs_dacs_meets_its_closed_form_in_few_panels(alpha):
    w = OptimalAcsWidth(alpha)
    rep = alternative_divergence(w)
    assert rep.converged
    assert abs(rep.value_bits - w.dacs_bits()) <= rep.abs_error_estimate + 1e-12
    assert _phi_quad(w, PHI_BINARY_ENTROPY, DEFAULT_TOL_BITS * LN2).panels <= 64


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
def test_optimal_cs_dacs_converges_in_few_panels(alpha):
    res = _phi_quad(OptimalCsWidth(alpha), PHI_BINARY_ENTROPY, DEFAULT_TOL_BITS * LN2)
    assert res.converged and res.panels <= 200


def test_log_h_driver_output_pinned():
    w = OptimalAcsWidth(3.0)
    res = _w_ln_h_quad(w, 1e-9 * LN2)
    _assert_pinned(res.value, res.error, -0.7945584207655596, 1.085160453265248e-09)
    assert res.converged and res.panels == 15


def test_too_heavy_tail_message_prefix():
    with pytest.raises(QuadratureError,
                       match=r"^power tail too heavy to truncate within float range"):
        channel_simulation_divergence(OptimalCsWidth(0.03))


def test_empty_log_range_returns_stub_bound():
    # h_max below the stub end e^u_lo: nothing to integrate, only the stub bound
    res = _w_ln_h_quad(FormulaWidth(np.ones_like, 1e-12), 1e-9)
    assert res.value == 0.0 and res.panels == 0 and res.converged
    assert res.error >= 1e-12 * (1.0 + math.log(1e12))


BAD_TOL_CALLS = {
    # the log-h integrals check tol at their bits-level entries
    "phi": lambda tol: quad_phi_integral(LaplaceWidth(0.5), PHI_XLOGX, tol),
    "log_h": lambda tol: kl_divergence(LaplaceSpec(0.5), "width_identity", tol),
}


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("name", sorted(BAD_TOL_CALLS))
def test_bad_tol_rejected(name, tol):
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        BAD_TOL_CALLS[name](tol)


def test_divergence_rejects_nan_tol():
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        channel_simulation_divergence(LaplaceWidth(0.5), math.nan)


# One GK15 panel per call of f, as gk15 computed it before it took arrays.
def _gk15_panel(f, a, b):
    half = 0.5 * (b - a)
    y = np.asarray(f(0.5 * (a + b) + half * _NODES), dtype=float)
    ik = half * float(_W_KRONROD @ y)
    ig = half * float(_W_GAUSS @ y[1::2])
    return ik, _ERR_SAFETY * abs(ik - ig)


# The one-panel greedy that adaptive() replays: evaluate one panel per call,
# pop the worst, bisect it, and re-sum every error with fsum after each split.
def _greedy_reference(f, panels, tol, max_panels=20000):
    store, heap, uid = {}, [], 0
    for a, b in panels:
        v, e = _gk15_panel(f, a, b)
        store[uid] = (a, b, v, e)
        heapq.heappush(heap, (-e, uid))
        uid += 1
    total_err = math.fsum(r[3] for r in store.values())
    while total_err > tol and len(store) < max_panels:
        _, k = heapq.heappop(heap)
        a, b, v, e = store.pop(k)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            store[k] = (a, b, v, e)
            break
        for lo, hi in ((a, mid), (mid, b)):
            v2, e2 = _gk15_panel(f, lo, hi)
            store[uid] = (lo, hi, v2, e2)
            heapq.heappush(heap, (-e2, uid))
            uid += 1
        total_err = math.fsum(r[3] for r in store.values())
    ordered = sorted(store.values())
    value = math.fsum(r[2] for r in ordered)
    error = math.fsum(r[3] for r in ordered)
    return value, error, error <= tol, len(store)


def _laplace_cs_case():
    # the D_CS integrand of _phi_quad in u = ln h, b = 1/4
    w, tol = LaplaceWidth(0.25), 1e-9 * LN2
    u_lo = math.log(tol / (8.0 * PHI_XLOGX.sup_value))
    f = lambda u: PHI_XLOGX(w(np.exp(u))) * np.exp(u)
    return f, seed_panels(u_lo, math.log(w.h_max), max_len=4.0), tol / 2.0


_ULP1 = math.ulp(1.0)
REPLAY_CASES = {
    "smooth": (lambda x: np.sin(x), [(0.0, math.pi)], 1e-12, 20000),
    "kink_cut": (lambda x: np.abs(x - 1.0 / 3.0), seed_panels(0.0, 1.0, cuts=(1.0 / 3.0,)),
                 1e-13, 20000),
    "inv_sqrt_endpoint": (lambda x: 1.0 / np.sqrt(x), seed_panels(0.0, 1.0, max_len=0.125),
                          1e-10, 20000),
    "oscillation_8": (lambda x: np.sin(1000.0 * x), [(0.0, 1.0)], 1e-14, 8),
    "oscillation_50": (lambda x: np.sin(1000.0 * x), [(0.0, 1.0)], 1e-14, 50),
    "oscillation_500": (lambda x: np.sin(1000.0 * x), [(0.0, 1.0)], 1e-14, 500),
    # panels a few ulp wide: refinement stops when a midpoint rounds to an end
    "float_resolution": (lambda x: np.exp(1e15 * (x - 1.0)),
                         [(1.0, 1.0 + 8 * _ULP1), (1.0 + 8 * _ULP1, 1.0 + 16 * _ULP1)],
                         1e-300, 20000),
    "laplace_cs": (*_laplace_cs_case(), 20000),
    # a budget of 12 panels leaves the end chain less room than its depth
    "laplace_cs_max12": (*_laplace_cs_case(), 12),
    # end chains: one at the left end of a seed, and one on a seeded panel
    "sqrt_left_end": (np.sqrt, [(0.0, 1.0)], 1e-13, 20000),
    "quarter_power_seeded": (lambda x: x ** 0.25, seed_panels(0.0, 2.0, max_len=0.5), 1e-12, 20000),
}

# calls of f at most where adaptive() splits an end chain in one call; one
# call per split of the end panel took 14, 7, 25 and 27
CHAIN_MAX_CALLS = {"laplace_cs": 5, "laplace_cs_max12": 3, "sqrt_left_end": 7,
                   "quarter_power_seeded": 7}


@pytest.mark.parametrize("name", sorted(REPLAY_CASES))
def test_adaptive_replays_one_panel_greedy(name):
    f, panels, tol, max_panels = REPLAY_CASES[name]
    seen = []

    def counted(x):
        seen.append(x.size)
        return f(x)

    res = adaptive(counted, panels, tol, max_panels)
    want = _greedy_reference(f, panels, tol, max_panels)
    assert (res.value, res.error, res.converged, res.panels) == want
    if name == "float_resolution":
        assert not res.converged and res.panels < max_panels
    if name.startswith("oscillation"):
        assert not res.converged and res.panels == max_panels
    if res.converged:
        # nothing evaluated ahead was left unused: each split costs two panels
        assert sum(seen) == 15 * (2 * res.panels - len(panels))
    if name in CHAIN_MAX_CALLS:
        assert len(seen) <= CHAIN_MAX_CALLS[name]
        # a chain may overshoot by the rest of its call, never by more
        assert sum(seen) // 15 - (2 * res.panels - len(panels)) <= _BATCH - 2


@pytest.mark.parametrize("width", [LaplaceWidth(0.25), GaussianWidth(1.0, 0.5, 2)],
                         ids=["laplace", "gaussian_d2"])
@pytest.mark.parametrize("divergence", [channel_simulation_divergence, alternative_divergence],
                         ids=["cs", "acs"])
def test_smooth_width_divergences_take_few_integrand_calls(monkeypatch, divergence, width):
    # w vanishes at h_max, and the greedy splits the end panel 11-18 times in
    # a row; its end chain is split ahead in one call
    calls = []

    def counted(f, a, b):
        calls.append(a.size)
        return gk15(f, a, b)

    monkeypatch.setattr(quadrature, "gk15", counted)
    assert divergence(width).converged
    assert len(calls) <= 5


# tol at the greedy's own error sum after k panels, and one ulp below it: the
# running total must hand the decision to fsum on both sides. In the kink
# case one split drops the sum from 2e4 to 3e-9, below the rounding that the
# running total kept from before.
BOUNDARY_CASES = {
    "inv_sqrt_endpoint": (*REPLAY_CASES["inv_sqrt_endpoint"][:2], 40),
    "cancelling_kink": (lambda x: np.where(x < 1.0, 1e6 * np.abs(x - 0.5), np.sin(x)),
                        [(0.0, 1.0), (1.0, 2.0)], 3),
}


@pytest.mark.parametrize("below", [False, True], ids=["at", "one_ulp_below"])
@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_adaptive_stops_where_greedy_does_at_an_exact_error_sum(name, below):
    f, panels, k = BOUNDARY_CASES[name]
    tol = _greedy_reference(f, panels, 1e-300, max_panels=k)[1]
    if below:
        tol = math.nextafter(tol, 0.0)
    res = adaptive(f, panels, tol, max_panels=50)
    assert (res.value, res.error, res.converged, res.panels) == _greedy_reference(
        f, panels, tol, max_panels=50)


def test_gk15_arrays_match_scalar_calls():
    rng = np.random.default_rng(3)
    a = rng.uniform(-3.0, 3.0, 40)
    b = a + rng.uniform(1e-6, 2.0, 40)
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + np.sqrt(np.abs(x))
    values, errors = gk15(f, a, b)
    scalar = [_gk15_panel(f, float(lo), float(hi)) for lo, hi in zip(a, b)]
    assert values.tolist() == [v for v, _ in scalar]
    assert errors.tolist() == [e for _, e in scalar]


@pytest.mark.skipif(not hasattr(np, "vecdot"), reason="np.vecdot needs numpy >= 2.0")
def test_row_dots_by_row_matches_vecdot():
    # numpy < 2.0 has only the loop; it must round as np.vecdot does, on the
    # contiguous Kronrod rows and on the strided Gauss columns alike
    rng = np.random.default_rng(21)
    for _ in range(500):
        n = int(rng.integers(0, 17))
        y = rng.standard_normal((n, 15)) * 10.0 ** rng.integers(-30, 30, (n, 1))
        for rows, w in ((y, _W_KRONROD), (y[:, 1::2], _W_GAUSS)):
            assert _row_dots_by_row(rows, w).tobytes() == np.vecdot(rows, w).tobytes()


def test_gk15_arrays_match_scalar_calls_by_row(monkeypatch):
    # the GK15 path of numpy < 2.0: batched panels equal one-panel calls
    monkeypatch.setattr(quadrature, "_row_dots", _row_dots_by_row)
    rng = np.random.default_rng(4)
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + np.sqrt(np.abs(x))
    for n in (1, 2, 16, 40):
        a = rng.uniform(-3.0, 3.0, n)
        b = a + rng.uniform(1e-6, 2.0, n)
        values, errors = gk15(f, a, b)
        scalar = [_gk15_panel(f, float(lo), float(hi)) for lo, hi in zip(a, b)]
        assert list(zip(values.tolist(), errors.tolist())) == scalar


@pytest.mark.parametrize("call", [
    lambda: adaptive(np.sin, [(0.0, math.nan)], 1e-9),
    lambda: adaptive(np.sin, [(0.0, 1.0), (-math.inf, 0.0)], 1e-9),
], ids=["adaptive_nan", "adaptive_inf"])
def test_non_finite_panel_ends_rejected(call):
    with pytest.raises(InvalidParameterError, match="finite"):
        call()

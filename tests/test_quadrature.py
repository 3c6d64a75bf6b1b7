import math

import numpy as np
import pytest

from crs_toolkit.divergences import alternative_divergence, channel_simulation_divergence
from crs_toolkit.errors import InvalidParameterError, QuadratureError
from crs_toolkit.quadrature import (
    PHI_BINARY_ENTROPY,
    PHI_XLOGX,
    PowerTail,
    adaptive,
    gk15,
    integrate_interval,
    phi_of_width_integral,
    seed_panels,
    width_log_h_integral,
    width_mass_integral,
    wrap_phi,
)
from crs_toolkit.width import (
    GaussianWidth,
    LaplaceWidth,
    OptimalAcsWidth,
    OptimalCsWidth,
    WidthFunction,
)

LN2 = math.log(2.0)


def test_gk15_polynomial_exact():
    # degree-7 polynomial: exact for both embedded rules
    val, err = gk15(lambda x: 7 * x**6, 0.0, 2.0)
    assert val == pytest.approx(2.0**7, abs=1e-10)
    assert err < 1e-8


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
    res = integrate_interval(lambda x: np.log(x), 0.0, 1.0, 1e-10)
    assert res.value == pytest.approx(-1.0, abs=1e-8)


def test_adaptive_budget_exhaustion_flags():
    f = lambda x: np.sin(1000.0 * x)
    res = adaptive(f, [(0.0, 1.0)], 1e-14, max_panels=8)
    assert not res.converged
    assert res.error > 1e-14


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


def test_wrap_phi_validates():
    with pytest.raises(InvalidParameterError):
        wrap_phi(lambda x: x)  # phi(1) != 0
    with pytest.raises(InvalidParameterError):
        wrap_phi(lambda x: -x * (1 - x))
    spec = wrap_phi(lambda x: x * (1 - x))
    assert spec.sup_value >= 0.25


def test_phi_of_width_indicator_is_zero():
    w = lambda h: np.where(h <= 1.0, 1.0, 0.0)
    res = phi_of_width_integral(w, 1.0, PHI_XLOGX, 1e-12)
    assert abs(res.value) < 1e-12


def test_phi_of_width_laplace_half_closed_form():
    # w(h) = 1 - h/2 on [0, 2]: -int w ln w dh = 1/2 nats
    w = lambda h: np.clip(1.0 - h / 2.0, 0.0, 1.0)
    res = phi_of_width_integral(w, 2.0, PHI_XLOGX, 1e-11, breakpoints=(2.0,))
    assert res.converged
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_infinite_h_max_requires_tail():
    w = lambda h: 1.0 / (1.0 + h**2)
    with pytest.raises(QuadratureError):
        phi_of_width_integral(w, math.inf, PHI_XLOGX, 1e-9)
    # wrapped phi has no majorant: rejected even with a tail certificate
    tail = PowerTail(coef=1.0, exponent=2.0, h_from=1.0)
    with pytest.raises(QuadratureError):
        phi_of_width_integral(w, math.inf, wrap_phi(lambda x: x * (1 - x)), 1e-9, tail=tail)


def test_power_tail_integral():
    # w = min(1, h^-2): int phi2(w) over tail has closed form p/(p-1)^2 from 1
    w = lambda h: np.minimum(1.0, h**-2.0)
    tail = PowerTail(coef=1.0, exponent=2.0, h_from=1.0)
    res = phi_of_width_integral(w, math.inf, PHI_XLOGX, 1e-10, breakpoints=(1.0,), tail=tail)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-9)  # p ln(h) h^-p integrates to 2


def test_power_tail_validation():
    with pytest.raises(InvalidParameterError):
        PowerTail(coef=1.0, exponent=1.0, h_from=1.0)
    with pytest.raises(InvalidParameterError):
        PowerTail(coef=-1.0, exponent=2.0, h_from=1.0)


def test_width_mass_integral_triangle():
    w = lambda h: np.clip(1.0 - h / 2.0, 0.0, 1.0)
    res = width_mass_integral(w, 0.0, 2.0, 1e-11)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    res_tail = width_mass_integral(w, 1.0, 2.0, 1e-11)
    assert res_tail.value == pytest.approx(0.25, abs=1e-10)


def test_width_log_h_integral_matches_kl_identity():
    # laplace b = 1/2: 1 + int w ln h dh = ln 2 - 1/2 + 1... KL nats = b-1-ln b
    w = lambda h: np.clip(1.0 - h / 2.0, 0.0, 1.0)
    res = width_log_h_integral(w, 2.0, 1e-11, breakpoints=(2.0,))
    kl_nats = 0.5 - 1.0 - math.log(0.5)
    assert 1.0 + res.value == pytest.approx(kl_nats, abs=1e-9)


def test_error_estimates_are_honest():
    # sqrt profile: substituting s = sqrt(h) gives int 2s phi2(1-s) ds = 5/18
    w = lambda h: np.clip(1.0 - np.sqrt(h), 0.0, 1.0)
    res = phi_of_width_integral(w, 1.0, PHI_XLOGX, 1e-10, breakpoints=(1.0,))
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
    (alternative_divergence, OptimalAcsWidth(1.8), 3.3960283998810286, 7.303716349181394e-10),
    (channel_simulation_divergence, OptimalCsWidth(0.3), 3.3662884286214796, 2.4448752519634635e-10),
], ids=["cs_laplace_b025", "acs_optimal_a1.8", "cs_optimal_a0.3"])
def test_phi_driver_outputs_pinned(divergence, width, value, error):
    rep = divergence(width)
    assert rep.converged and rep.method == "quadrature"
    _assert_pinned(rep.value_bits, rep.abs_error_estimate, value, error)


def test_log_h_driver_output_pinned():
    w = OptimalAcsWidth(3.0)
    res = width_log_h_integral(w, math.inf, 1e-9 * LN2, (), w.tail)
    _assert_pinned(res.value, res.error, -0.7945584207655596, 1.085160453265248e-09)
    assert res.converged and res.panels == 15


def test_mass_driver_outputs_pinned():
    res = WidthFunction.tail_integral(OptimalCsWidth(0.5), 2.0, tol=1e-11)
    _assert_pinned(res.value, res.error, 0.12499999999894666, 2.550242976433319e-12)
    assert res.converged and res.panels == 7
    w = GaussianWidth(1.0, 0.5, 2)
    res = width_mass_integral(w, 0.0, w.h_max, 1e-10, w.breakpoints, w.tail)
    _assert_pinned(res.value, res.error, 0.9999999999876242, 1.4535842199272467e-11)
    assert res.converged and res.panels == 8


def test_too_heavy_tail_message_prefix():
    with pytest.raises(QuadratureError,
                       match=r"^power tail too heavy to truncate within float range"):
        channel_simulation_divergence(OptimalCsWidth(0.03))


def test_empty_log_range_returns_stub_bound():
    # h_max below the stub end e^u_lo: nothing to integrate, only the stub bound
    res = width_log_h_integral(lambda h: np.ones_like(h), 1e-12, 1e-9)
    assert res.value == 0.0 and res.panels == 0 and res.converged
    assert res.error >= 1e-12 * (1.0 + math.log(1e12))

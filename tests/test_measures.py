import math

import numpy as np
import pytest

from crs_toolkit.errors import InvalidParameterError
from crs_toolkit.measures import (
    GaussianSpec,
    LaplaceSpec,
    SyntheticSpec,
    discrete_spec,
    make_pair,
)
from crs_toolkit.streams import RngStream
from crs_toolkit.width import d_infinity, equality_case_width, two_level_width, width_eval

LN2 = math.log(2.0)

DISCRETE_EXAMPLE = discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25))


def test_make_pair_d_inf_examples():
    assert d_infinity(make_pair(LaplaceSpec(0.5)).width()) == pytest.approx(1.0, abs=1e-12)
    assert d_infinity(make_pair(LaplaceSpec(1.0)).width()) == pytest.approx(0.0, abs=1e-12)
    assert d_infinity(make_pair(DISCRETE_EXAMPLE).width()) == pytest.approx(1.0, abs=1e-12)


def test_log_ratio_examples():
    pair = make_pair(LaplaceSpec(0.5))
    assert pair.log_ratio(0.0)[0] == pytest.approx(math.log(2.0), abs=1e-12)
    identity = make_pair(LaplaceSpec(1.0))
    assert np.allclose(identity.log_ratio(np.array([-3.0, 0.0, 7.0])), 0.0)


def test_gaussian_log_ratio_peak_against_density_oracle():
    # direct densities: q = N(1, 1/4), p = N(0, 1)
    mu, sigma = 1.0, 0.5
    pair = make_pair(GaussianSpec(mu, sigma, 1))
    x = np.linspace(-3.0, 4.0, 400001)
    direct = (-math.log(sigma) - (x - mu) ** 2 / (2 * sigma**2) + x**2 / 2)
    peak = x[np.argmax(direct)]
    assert peak == pytest.approx(4.0 / 3.0, abs=1e-4)
    assert pair.log_ratio(np.array([4.0 / 3.0]))[0] == pytest.approx(direct.max(), abs=1e-8)
    assert pair.log_ratio(np.array([4.0 / 3.0]))[0] == pytest.approx(1.35981, abs=1e-5)
    assert np.allclose(pair.log_ratio(x), direct, atol=1e-10)


def test_gaussian_log_ratio_sums_over_dimensions():
    pair = make_pair(GaussianSpec(1.0, 0.5, 3))
    one = make_pair(GaussianSpec(1.0, 0.5, 1))
    pts = np.array([[0.1, -0.4, 2.0], [1.0, 1.0, 1.0]])
    expected = one.log_ratio(pts.ravel()).reshape(pts.shape).sum(axis=1)
    assert np.allclose(pair.log_ratio(pts), expected, atol=1e-12)


def test_d_inf_bounds_log_ratio():
    # no evaluation may exceed d_inf (in nats, with tiny slack)
    stream = RngStream(7, 0)
    for spec in (LaplaceSpec(0.3), GaussianSpec(1.0, 0.5, 2), DISCRETE_EXAMPLE,
                 SyntheticSpec(two_level_width(0.1))):
        pair = make_pair(spec)
        draws = pair.sample_proposal(stream, 10_000)
        assert float(np.max(pair.log_ratio(draws))) <= d_infinity(pair.width()) * LN2 + 1e-9


def test_invalid_specs_rejected():
    with pytest.raises(InvalidParameterError):
        LaplaceSpec(0.0)
    with pytest.raises(InvalidParameterError):
        LaplaceSpec(1.5)
    with pytest.raises(InvalidParameterError):
        GaussianSpec(0.0, 1.0, 1)
    with pytest.raises(InvalidParameterError):
        GaussianSpec(0.0, 0.5, 0)
    with pytest.raises(InvalidParameterError):
        discrete_spec((0.5, 0.5), (1.0,))
    with pytest.raises(InvalidParameterError):
        discrete_spec((0.6, 0.5), (0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        discrete_spec((0.5, 0.5), (1.0, 0.0))  # Q not << P
    # NaN passed np.any(q < 0.0), and the NaN sum passed the sum check
    for q, p in (((math.nan, 1.0), (0.5, 0.5)), ((0.5, 0.5), (math.nan, 1.0))):
        with pytest.raises(InvalidParameterError, match="non-negative"):
            discrete_spec(q, p)
    # int(d) raised a bare ValueError for NaN and OverflowError for inf
    for d in (math.nan, math.inf, 1.5):
        with pytest.raises(InvalidParameterError, match="positive integer"):
            GaussianSpec(1.0, 0.5, d)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_gaussian_spec_rejects_non_finite_mu(mu):
    with pytest.raises(InvalidParameterError, match="mu must be finite"):
        GaussianSpec(mu, 0.5, 1)


def test_discrete_point_outside_support():
    pair = make_pair(discrete_spec((0.5, 0.5, 0.0), (0.5, 0.25, 0.25)))
    with pytest.raises(InvalidParameterError):
        pair.log_ratio(np.array([3]))
    pair2 = make_pair(discrete_spec((1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(InvalidParameterError):
        pair2.log_ratio(np.array([1]))


@pytest.mark.parametrize("point,message", [
    (-1, "index outside the alphabet"),
    (3, "index outside the alphabet"),
    (1.5, "integer indices"),
    (2, "support of P"),
])
def test_discrete_log_ratio_rejects_points(point, message):
    pair = make_pair(discrete_spec((0.5, 0.5, 0.0), (0.5, 0.5, 0.0)))
    with pytest.raises(InvalidParameterError, match=message):
        pair.log_ratio(np.array([0, point]))
    assert np.array_equal(pair.log_ratio(np.array([1.0, 0.0])), [0.0, 0.0])


class _StubGenerator:
    """A generator whose uniforms are the given values, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u[:size].copy()


def test_synthetic_draw_of_zero_is_a_valid_point():
    # np.random.Generator.random can return 0.0
    pair = make_pair(SyntheticSpec(equality_case_width(4.0)))
    x = pair.draw(_StubGenerator(np.zeros(3)), 3)
    assert np.all((x > 0.0) & (x < 1.0))
    assert np.array_equal(pair.log_ratio(x), np.full(3, math.log(4.0)))


def test_sampling_is_keyed_and_deterministic():
    pair = make_pair(LaplaceSpec(0.5))
    a = pair.sample_proposal(RngStream(11, 3), 64)
    b = pair.sample_proposal(RngStream(11, 3), 64)
    c = pair.sample_proposal(RngStream(11, 4), 64)
    d = pair.sample_proposal(RngStream(12, 3), 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_discrete_uniform_frequencies():
    pair = make_pair(discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4))
    n = 10**5
    draws = pair.sample_proposal(RngStream(0, 1), n)
    sigma = math.sqrt(0.25 * 0.75 / n)
    for sym in range(4):
        assert abs(float(np.mean(draws == sym)) - 0.25) <= 4 * sigma


def test_gaussian_sample_mean():
    n = 10**5
    pair = make_pair(GaussianSpec(1.0, 0.5, 2))
    draws = pair.sample_proposal(RngStream(1, 2), n)
    assert draws.shape == (n, 2)
    for j in range(2):
        assert abs(float(draws[:, j].mean())) <= 4.0 / math.sqrt(n)


def test_synthetic_samples_in_unit_interval():
    pair = make_pair(SyntheticSpec(equality_case_width(4.0)))
    x = pair.sample_proposal(RngStream(2, 0), 1000)
    assert np.all((x > 0.0) & (x < 1.0))


@pytest.mark.parametrize("spec,h", [
    (LaplaceSpec(0.5), 1.0),
    (LaplaceSpec(0.25), 2.0),
    (GaussianSpec(1.0, 0.5, 1), 1.0),
    (GaussianSpec(1.0, 0.5, 2), 0.5),
    (DISCRETE_EXAMPLE, 1.5),
    (SyntheticSpec(two_level_width(0.3)), 0.5),
])
def test_mc_superlevel_matches_analytic_width(spec, h):
    pair = make_pair(spec)
    w = width_eval(spec)
    n = 10**5
    draws = pair.sample_proposal(RngStream(3, 5), n)
    est = float(np.mean(pair.log_ratio(draws) >= math.log(h)))
    target = float(w(h)[0])
    sigma = math.sqrt(max(target * (1 - target), 1e-12) / n)
    assert abs(est - target) <= 4 * sigma + 1e-12


@pytest.mark.parametrize("spec", [
    LaplaceSpec(0.5),
    LaplaceSpec(1.0),
    GaussianSpec(1.0, 0.5, 1),
    GaussianSpec(0.5, 0.7, 2),
    DISCRETE_EXAMPLE,
    SyntheticSpec(equality_case_width(2.0)),
])
def test_ratio_normalization_monte_carlo(spec):
    pair = make_pair(spec)
    n = 10**5
    draws = pair.sample_proposal(RngStream(4, 9), n)
    r = np.exp(pair.log_ratio(draws))
    est = float(r.mean())
    stderr = float(r.std(ddof=1)) / math.sqrt(n)
    assert abs(est - 1.0) <= 3 * stderr + 1e-12


def test_synthetic_width_matches_mc_at_random_levels():
    for w in (equality_case_width(4.0), two_level_width(0.1)):
        pair = make_pair(SyntheticSpec(w))
        n = 10**5
        draws = pair.sample_proposal(RngStream(5, 13), n)
        ratios = np.exp(pair.log_ratio(draws))
        rng = np.random.default_rng(17)
        for h in rng.uniform(0.0, w.h_max, 10):
            target = float(w(h)[0])
            est = float(np.mean(ratios >= h))
            sigma = math.sqrt(max(target * (1 - target), 1e-12) / n)
            assert abs(est - target) <= 4 * sigma + 1e-12


def test_synthetic_rejects_non_unit_mass():
    from crs_toolkit.width import StepWidth
    with pytest.raises(InvalidParameterError):
        SyntheticSpec(StepWidth([0.0, 1.0], [0.5]))


def test_stream_child_offsets():
    with pytest.raises(InvalidParameterError):
        RngStream(-1, 0)

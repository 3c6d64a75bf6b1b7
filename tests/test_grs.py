import hashlib
import itertools
import json
import math
import tracemalloc
from decimal import Decimal
from operator import itemgetter

import numpy as np
import pytest
from scipy import special, stats

from crs_toolkit import grs
from crs_toolkit.errors import InvalidParameterError, QuadratureError, StepBudgetError
from crs_toolkit.experiments import default_suite
from crs_toolkit.grs import (
    GrsRecursion,
    default_eps_stop,
    grs_empirical,
    grs_index_distribution,
    grs_sample,
)
from crs_toolkit.measures import (
    GaussianSpec,
    LaplaceSpec,
    SyntheticSpec,
    discrete_spec,
    make_pair,
)
from crs_toolkit.quadrature import QuadResult
from crs_toolkit.streams import RngStream
from crs_toolkit.width import (
    GaussianWidth,
    LaplaceWidth,
    OptimalCsWidth,
    StepWidth,
    WidthFunction,
    equality_case_width,
    indicator_width,
    two_level_width,
    width_eval,
    width_from_discrete,
    width_from_table,
)

from exact_laws import exact_law
from reference_values import LAPLACE_HALF_ENTROPY

LN2 = math.log(2.0)
DISCRETE_EXAMPLE = discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4)


def test_discrete_recursion_is_geometric():
    dist = grs_index_distribution(width_eval(DISCRETE_EXAMPLE), eps_stop=1e-9)
    n = dist.truncation_index
    expected = 0.5 ** np.arange(1, n + 1)
    assert np.max(np.abs(dist.p - expected)) < 1e-15
    assert dist.entropy_bits == pytest.approx(2.0, abs=1e-7)
    assert dist.entropy_bits + dist.entropy_tail_bound_bits >= 2.0 - 1e-12
    assert dist.mean_index + dist.mean_tail_bound == pytest.approx(2.0, abs=1e-12)
    assert dist.tail_mass + float(np.sum(dist.p)) == pytest.approx(1.0, abs=1e-12)


def test_identity_pair_recursion():
    dist = grs_index_distribution(indicator_width())
    assert dist.truncation_index == 1
    assert dist.p[0] == 1.0
    assert dist.entropy_bits == 0.0
    assert dist.mean_index == 1.0
    assert dist.tail_mass == 0.0
    assert dist.mean_tail_bound == 0.0


def test_equality_case_c2_matches_discrete_example():
    a = grs_index_distribution(width_eval(DISCRETE_EXAMPLE), eps_stop=1e-9)
    b = grs_index_distribution(equality_case_width(2.0), eps_stop=1e-9)
    n = min(a.truncation_index, b.truncation_index)
    assert np.allclose(a.p[:n], b.p[:n], atol=1e-15)
    assert a.entropy_bits == pytest.approx(b.entropy_bits, abs=1e-12)


def test_blocked_and_scalar_paths_agree():
    # reference: the scalar map, one tail integral per step, run here
    for w in (two_level_width(0.1),
              width_from_discrete((0.4, 0.3, 0.15, 0.1, 0.05), (0.1, 0.2, 0.2, 0.25, 0.25)),
              equality_case_width(2.0**6)):
        dist = grs_index_distribution(w)
        n = dist.truncation_index
        L, S = [0.0], [1.0]
        for _ in range(n + 1):
            L.append(L[-1] + S[-1])
            S.append(w.tail_integral(L[-1]).value)
        L, S = np.array(L), np.array(S)
        assert np.max(np.abs(dist.p - (S[:n] - S[1:n + 1]))) < 1e-12
        assert dist.tail_mass == pytest.approx(S[n], abs=1e-12)
        assert dist.mean_index == pytest.approx(np.sum(S[:n]), rel=1e-12)
        assert dist.mean_tail_bound == pytest.approx(w.h_max - L[n], abs=1e-12 * w.h_max)
        # the samplers' lazily read orbit is the same orbit
        rec = GrsRecursion(w)
        rec_L, rec_S = np.array([rec.state(k) for k in range(1, n + 3)]).T
        assert np.max(np.abs(rec_S - S)) < 1e-12
        assert np.max(np.abs(rec_L - L)) < 1e-12 * w.h_max


# Index laws of the six smooth default-suite pairs at their suite eps_stop,
# as the earlier recursion computed them with one band quadrature and a
# multiplicative survival update per step: (truncation index, H[K] in bits)
SMOOTH_SUITE_LAWS = {
    "laplace_b075": (29808, 0.751975622041185),
    "laplace_b05": (63233, 1.5338801352076703),
    "laplace_b025": (154890, 2.6914686085839663),
    "gaussian_mu1_s05_d1": (9901, 2.916249714963698),
    "gaussian_mu0_s06_d1": (3459, 1.3907750968379031),
    "gaussian_mu1_s05_d2": (23076, 4.58749742704518),
}
# the max-entropy tail bounds those dense laws reported, run to S <= eps_stop
SMOOTH_SUITE_DENSE_TAIL_BOUNDS = {
    "laplace_b075": 4.620113071266388e-08,
    "laplace_b05": 4.728833964599097e-08,
    "laplace_b025": 4.858090774881734e-08,
    "gaussian_mu1_s05_d1": 4.3607341869272447e-08,
    "gaussian_mu0_s06_d1": 4.20797843028996e-08,
    "gaussian_mu1_s05_d2": 3.587575452574899e-05,
}
# the same laws as they stop now, behind the continuum entropy enclosure
SMOOTH_SUITE_REPRS = {
    "laplace_b075": "IndexDistribution(truncation_index=3930, tail_mass=5.737666578342765e-08, "
                    "entropy_bits=0.7519756453427959, entropy_tail_bound_bits=4.225443862784168e-08, "
                    "mean_index=1.3331074855075917, mean_tail_bound=0.0002258478257357588)",
    "laplace_b05": "IndexDistribution(truncation_index=6449, tail_mass=9.58642418882252e-08, "
                   "entropy_bits=1.5338801582038408, entropy_tail_bound_bits=4.295387488615488e-08, "
                   "mean_index=1.9993807609770373, mean_tail_bound=0.0006192390229571298)",
    "laplace_b025": "IndexDistribution(truncation_index=11634, tail_mass=1.7659533334522815e-07, "
                    "entropy_bits=2.6914686303422513, entropy_tail_bound_bits=4.383546882145999e-08, "
                    "mean_index=3.9979414074626667, mean_tail_bound=0.0020585925373066694)",
    "gaussian_mu1_s05_d1": "IndexDistribution(truncation_index=3158, tail_mass=3.038307307395155e-08, "
                           "entropy_bits=2.916249733908285, "
                           "entropy_tail_bound_bits=4.132258184654484e-08, "
                           "mean_index=3.8954197653421883, mean_tail_bound=4.8316767168987695e-05)",
    "gaussian_mu0_s06_d1": "IndexDistribution(truncation_index=1445, tail_mass=1.3507528527981205e-08, "
                           "entropy_bits=1.3907751141766913, "
                           "entropy_tail_bound_bits=4.0144262537563414e-08, "
                           "mean_index=1.6666568178646943, mean_tail_bound=9.84880197907323e-06)",
    "gaussian_mu1_s05_d2": "IndexDistribution(truncation_index=3181, tail_mass=4.994908849387421e-05, "
                           "entropy_bits=4.58751600168292, "
                           "entropy_tail_bound_bits=3.198716596153166e-05, "
                           "mean_index=15.011007969671786, mean_tail_bound=0.1636636090609418)",
}


def counted_tail_integrals(w):
    """Make w count its tail_integral calls into the list returned."""
    calls, tail_integral = [], w.tail_integral

    def counted(h, *args, **kwargs):
        calls.append(h)
        return tail_integral(h, *args, **kwargs)

    w.tail_integral = counted
    return calls


@pytest.mark.parametrize("name", sorted(SMOOTH_SUITE_LAWS))
def test_smooth_suite_index_laws_pinned(name):
    entry = next(e for e in default_suite() if e.name == name)
    w = width_eval(entry.spec)
    dist = grs_index_distribution(w, eps_stop=entry.eps_stop)
    assert repr(dist) == SMOOTH_SUITE_REPRS[name]
    # the enclosure and the dense law's interval both hold H[K], so they
    # overlap, and the enclosure is no wider than the dense bound
    _, dense_bits = SMOOTH_SUITE_LAWS[name]
    dense_bound = SMOOTH_SUITE_DENSE_TAIL_BOUNDS[name]
    assert dist.entropy_bits <= dense_bits + dense_bound
    assert dense_bits <= dist.entropy_bits + dist.entropy_tail_bound_bits
    assert dist.entropy_tail_bound_bits <= dense_bound
    # the head stays exact: p, the tail mass and the telescoped mean
    assert dist.p.size == dist.truncation_index
    assert math.fsum(dist.p) + dist.tail_mass == pytest.approx(1.0, abs=1e-14)
    assert dist.mean_index + dist.mean_tail_bound == pytest.approx(w.h_max, rel=1e-12)


def test_smooth_suite_laws_take_few_tail_integrals():
    # the dense laws took 284 367 steps, one tail integral each
    total = 0
    for entry in default_suite():
        if entry.name in SMOOTH_SUITE_LAWS:
            w = width_eval(entry.spec)
            calls = counted_tail_integrals(w)
            dist = grs_index_distribution(w, eps_stop=entry.eps_stop)
            assert dist.truncation_index < SMOOTH_SUITE_LAWS[entry.name][0] / 2
            total += len(calls)
    assert total <= 95_000


def test_deep_gaussian_d2_law_stops_early():
    # the dense law at 1e-9: 733 776 steps, H[K] 4.587532973408886 and a
    # max-entropy tail bound of 5.082525294534859e-08 bits
    dense_bits, dense_bound = 4.587532973408886, 5.082525294534859e-08
    dist = grs_index_distribution(width_eval(GaussianSpec(1.0, 0.5, 2)), eps_stop=1e-9)
    assert dist.truncation_index <= 245_000
    assert dist.entropy_tail_bound_bits <= dense_bound
    assert dist.entropy_bits <= dense_bits + dense_bound
    assert dense_bits <= dist.entropy_bits + dist.entropy_tail_bound_bits


@pytest.mark.parametrize("w, eps_stop", [(LaplaceWidth(0.01), 1e-9), (GaussianWidth(1.0, 0.5, 4), 1e-6)],
                         ids=["laplace_b001", "gaussian_d4"])
def test_deep_smooth_laws_finish_behind_the_enclosure(w, eps_stop):
    # run densely, both laws exhaust the 10^6-step cap above eps_stop; the
    # enclosure at 100 eps_stop, from another N, must overlap theirs
    dist = grs_index_distribution(w, eps_stop=eps_stop)
    coarse = grs_index_distribution(w, eps_stop=100.0 * eps_stop)
    assert dist.truncation_index < 2 * 10**5 and dist.tail_mass > eps_stop
    assert dist.entropy_tail_bound_bits < coarse.entropy_tail_bound_bits
    assert dist.entropy_bits <= coarse.entropy_bits + coarse.entropy_tail_bound_bits
    assert coarse.entropy_bits <= dist.entropy_bits + dist.entropy_tail_bound_bits


def dense_law_bits(w, eps_stop):
    """(head sum, max-entropy bound) of the orbit run until S <= eps_stop."""
    rec, k = GrsRecursion(w), 1
    while rec.state(k)[1] > eps_stop:
        k += 1
    S = np.array(rec.S[:k])
    p = S[:-1] - S[1:]
    m = max(w.h_max - rec.L[k - 1], S[-1])
    bound = S[-1] * (math.log2(m) - 2.0 * math.log2(S[-1]) + math.log2(math.e))
    return float(-np.dot(p, np.log2(p))), bound


@pytest.mark.parametrize("spec", [LaplaceSpec(0.75), GaussianSpec(0.0, 0.6, 1)])
def test_enclosure_holds_the_deeper_dense_law(spec):
    w = width_eval(spec)
    dist = grs_index_distribution(w, eps_stop=1e-7)
    dense_bits, dense_bound = dense_law_bits(w, 1e-10)
    assert dist.tail_mass > 1e-7  # the law stopped early, behind its enclosure
    assert dist.entropy_bits <= dense_bits + dense_bound
    assert dense_bits <= dist.entropy_bits + dist.entropy_tail_bound_bits


def test_law_without_a_certified_tail_runs_densely(monkeypatch):
    # with every tail integral of the enclosure reported unconverged, and
    # so raising, no enclosure certifies, so each try is dropped and the
    # law runs to eps_stop, as the dense law
    w = width_eval(LaplaceSpec(0.75))
    enclosing, tail, enclosure = [False], w._tail, grs._entropy_enclosure

    def flagged_enclosure(*args):
        enclosing[0] = True
        try:
            return enclosure(*args)
        finally:
            enclosing[0] = False

    w._tail = lambda h: tail(h)._replace(converged=not enclosing[0])
    monkeypatch.setattr(grs, "_entropy_enclosure", flagged_enclosure)
    dist = grs_index_distribution(w, eps_stop=1e-6)
    dense_bits, dense_bound = dense_law_bits(w, 1e-6)
    assert dist.tail_mass <= 1e-6 < dist.tail_mass + dist.p[-1]
    assert dist.entropy_bits == pytest.approx(dense_bits, abs=1e-15)
    # the max-entropy bound, its upper end padded for the law's float sums
    padded = dense_bound + (dense_bits + dense_bound) * grs._ROUNDING_PAD
    assert dist.entropy_tail_bound_bits == padded


class _UnconvergedLaplace(LaplaceWidth):
    def _tail(self, h):
        return super()._tail(h)._replace(converged=False)


def test_unconverged_tail_raises_in_every_reader():
    # T that did not converge certifies no survival mass: the orbit that
    # samplers and laws read raises rather than running on it
    w = _UnconvergedLaplace(0.5)
    with pytest.raises(QuadratureError, match=r"^tail integral at h = 0\.25 did not converge$"):
        w.tail_integral(0.25)
    assert w.tail_integral(w.h_max).value == 0.0  # T = 0 from h_max on needs no _tail
    with pytest.raises(QuadratureError, match="did not converge"):
        grs_index_distribution(w)
    # this run reaches step 4 with a certified tail, so it reads T
    assert grs_sample(make_pair(LaplaceSpec(0.5)), LaplaceWidth(0.5), RngStream(0, 0))[1] == 4
    with pytest.raises(QuadratureError, match="did not converge"):
        grs_sample(make_pair(LaplaceSpec(0.5)), w, RngStream(0, 0))


@pytest.mark.parametrize("eps_stop", [1e-9, 1e-6])
def test_laplace_half_law_holds_its_reference_entropy(eps_stop):
    _, ref_lo, ref_hi = LAPLACE_HALF_ENTROPY
    dist = grs_index_distribution(width_eval(LaplaceSpec(0.5)), eps_stop=eps_stop)
    assert ref_hi - ref_lo < 3e-10
    assert dist.entropy_bits <= ref_lo
    assert ref_hi <= dist.entropy_bits + dist.entropy_tail_bound_bits


@pytest.mark.parametrize("w", [width_eval(LaplaceSpec(0.5)), width_eval(GaussianSpec(1.0, 0.5, 2))],
                         ids=["laplace", "gaussian"])
def test_cut_panels_near_h_max_stay_finite(w):
    # from orbit points ever nearer h_max, where T and p sink below the
    # rounding of L, the cut keeps every panel bound and the enclosure finite
    for offset in (1e-3, 1e-6, 1e-9, 1e-12, 1e-14):
        L_prev, L = w.h_max * (1.0 - 2.0 * offset), w.h_max * (1.0 - offset)
        S_prev = w.tail_integral(L_prev).value
        first = grs._node(w, L, L_prev, S_prev)
        nodes = grs._cut_nodes(w, first, 0.0)
        assert all(node.L < w.h_max and node.t_lo > 0.0 for node in nodes[1:])
        for a, b in zip(nodes, nodes[1:]):
            assert all(math.isfinite(v) and v >= 0.0 for v in grs._panel(a, b))
        tail = grs._entropy_enclosure(w, L_prev, L, 1e-9, 10**4)
        assert tail is None or all(math.isfinite(v) and v >= 0.0 for v in tail)


class _TriangleWidth(WidthFunction):
    """w(h) = 1 - h/2 on [0, 2], with the exact tail (2 - h)^2 / 4; resolved
    only where 2 - h is a power of two if dyadic, else with a bar as wide as T."""

    def __init__(self, dyadic: bool = False):
        self.h_max, self.breakpoints, self.dyadic = 2.0, (), dyadic

    def _formula(self, h: np.ndarray) -> np.ndarray:
        return 1.0 - 0.5 * h

    def _tail(self, h: float) -> QuadResult:
        t = (2.0 - h) ** 2 / 4.0
        return QuadResult(t, t if self.dyadic and math.frexp(2.0 - h)[0] != 0.5 else 0.0, True, 0)


@pytest.mark.parametrize("L", [1.0, 1.4])
def test_cut_nodes_stop_where_the_offset_halving_leaves_float_resolution(L):
    # T stays resolved up to the last float below h_max, so only the float
    # spacing there stops the halving: from L = 1 the next X rounds to h_max,
    # from L = 1.4 two offsets in a row round to the same X
    w = _TriangleWidth()
    first = grs._node(w, L, 0.0, 1.0)
    nodes = grs._cut_nodes(w, first, 0.0)
    ends = [node.L for node in nodes]
    assert ends == sorted(set(ends)) and ends[-1] == math.nextafter(2.0, 0.0)
    assert all(node.t_lo > 0.0 for node in nodes)


def test_enclosure_stops_splitting_a_panel_whose_midpoint_is_unresolved():
    # the cut nodes sit at dyadic offsets, where T is resolved, but the
    # widest panel's midpoint is not one: the first split ends the splitting,
    # with the enclosure too wide and the split budget unspent
    w = _TriangleWidth(dyadic=True)
    reads = []
    tail_integral = w.tail_integral
    w.tail_integral = lambda h: reads.append(h) or tail_integral(h)
    assert grs._entropy_enclosure(w, 0.0, 1.0, 1e-9, 10**4) is None
    assert len(reads) < 100


@pytest.mark.parametrize("w", [two_level_width(0.1), width_eval(LaplaceSpec(0.5))],
                         ids=["step", "smooth"])
def test_orbit_steps_are_1_based(w):
    for k in (0, -1):
        with pytest.raises(InvalidParameterError, match="1-based"):
            GrsRecursion(w).state(k)


# Index laws of the eight step-width default-suite pairs at their suite
# eps_stop, as the earlier separate blocked recursion for step widths
# computed them: (truncation index, H[K] in bits, tail mass, E[K] head).
# H and E[K] of the c = 4 law, p_k = (1/4)(3/4)^(k-1) for k <= 73, are the
# closed-form block sums, nearer than the earlier values to the 40-digit
# sums 3.245112472422580530... and 3.999999996969374878...
STEP_SUITE_LAWS = {
    "laplace_identity": (1, 0.0, 0.0, 1.0),
    "discrete_half_pair": (30, 1.9999999701976776, 9.313225746154793e-10, 1.9999999981373549),
    "discrete_eight": (143, 1.802218392342072, 8.764749682378554e-10, 2.399999992988198),
    "discrete_point_mass": (73, 3.2451124724225804, 7.576562804644603e-10, 3.999999996969375),
    "equality_width_c2": (30, 1.9999999701976776, 9.313225746154793e-10, 1.9999999981373549),
    "equality_width_c4": (73, 3.2451124724225804, 7.576562804644603e-10, 3.999999996969375),
    "two_level_eps03": (58, 2.502911152117016, 7.579464069903691e-10, 2.70580334761019),
    "two_level_eps01": (194, 4.012533584887664, 9.705077525625231e-10, 7.579527197964966),
}


def holds_exact_entropy(dist, truth: Decimal) -> bool:
    """Whether the exact H[K] lies in [entropy_bits, entropy_bits + tail
    bound]. A step width's tail is geometric, which attains the max-entropy
    bound, so the truth sits at the upper end, which the law pads for the
    rounding of its float sums."""
    lo = Decimal(dist.entropy_bits)
    return lo <= truth <= lo + Decimal(dist.entropy_tail_bound_bits)


@pytest.mark.parametrize("name", sorted(STEP_SUITE_LAWS))
def test_step_suite_index_laws_pinned(name):
    entry = next(e for e in default_suite() if e.name == name)
    w = width_eval(entry.spec)
    dist = grs_index_distribution(w, eps_stop=entry.eps_stop)
    assert (dist.truncation_index, dist.entropy_bits, dist.tail_mass,
            dist.mean_index) == STEP_SUITE_LAWS[name]
    # and each holds the exact law, summed to infinity (exact_laws.py)
    truth, mean = exact_law(w)
    assert holds_exact_entropy(dist, truth)
    assert dist.mean_index + dist.mean_tail_bound == pytest.approx(float(mean), rel=1e-15, abs=0.0)


# sha256 of json.dumps(dist.to_json()) for each default-suite law at its
# suite eps_stop, made at commit 825de5f (numpy 2.4.6, scipy 1.17.1) with
# hashlib.sha256(json.dumps(grs_index_distribution(width_eval(entry.spec),
# eps_stop=entry.eps_stop).to_json()).encode()).hexdigest(), the step-width
# entries again once their entropy interval was padded for rounding; they
# pin p, which no other test pins bit for bit
SUITE_LAW_JSON_SHA256 = {
    "discrete_eight": "da8afafc966aa1ca7f962ddef5eae0b2dde5b78adf199dc92d57251092fa832d",
    "discrete_half_pair": "ba942366aea012cef001589f8cc6595b5a71ef36dadb949039318ba53bff7b08",
    "discrete_point_mass": "9249bdfad3846de1833a79e7eefdf1cf51894f66e33b98c4f492562f86ed9828",
    "equality_width_c2": "ba942366aea012cef001589f8cc6595b5a71ef36dadb949039318ba53bff7b08",
    "equality_width_c4": "9249bdfad3846de1833a79e7eefdf1cf51894f66e33b98c4f492562f86ed9828",
    "gaussian_mu0_s06_d1": "ef0aff428d8bdb58d5f282ce307f9a42f8d61f2f0eb4dd853aa8193ba1204c73",
    "gaussian_mu1_s05_d1": "1b418c69fd2009718f891edc5d622f36c9db49edcec238724137e021c192803c",
    "gaussian_mu1_s05_d2": "645ed9a9232de650ca0d31ffe7a6d5dddaf561fe1f1ad9c01611d838d954dd82",
    "laplace_b025": "c9c6312fef58fd9b62c1aff74a60489e183a904dd7b005ff4c1671d9d6c6b4f9",
    "laplace_b05": "5987a35a7387ee19bac9ec4eccbc2e8e9e447fd503509963489c7df26c57cdb7",
    "laplace_b075": "f42b804d8cb516d5ef6d56b6d23cffc54c425ad1e5daea93addb276c84185cc8",
    "laplace_identity": "87250b33f0a81bf357c1befe319db454d3dfab38b04ed93a48898226b3cb4a22",
    "two_level_eps01": "d02b00e755ba543eac3e248ba46dfd1ef773c03c38883f58d1ea2f8360fc2259",
    "two_level_eps03": "da5f0df7cd92b2f337c301bffd7737530db3f1aae770796136910dcddd6270af",
}


@pytest.mark.parametrize("entry", default_suite(), ids=lambda e: e.name)
def test_suite_law_json_pinned(entry):
    dist = grs_index_distribution(width_eval(entry.spec), eps_stop=entry.eps_stop)
    digest = hashlib.sha256(json.dumps(dist.to_json()).encode()).hexdigest()
    assert digest == SUITE_LAW_JSON_SHA256[entry.name]


def test_default_eps_stop_by_width_kind():
    assert default_eps_stop(two_level_width(0.1)) == 1e-12
    assert default_eps_stop(width_eval(LaplaceSpec(0.5))) == 1e-9


def test_laplace_recursion_mean_equals_h_max():
    # telescoping L: the certified mean interval pins E[K] at h_max = 1/b
    dist = grs_index_distribution(width_eval(LaplaceSpec(0.5)), eps_stop=1e-7)
    assert dist.mean_index + dist.mean_tail_bound == pytest.approx(2.0, abs=1e-10)
    assert dist.entropy_bits == pytest.approx(1.5338801, abs=1e-4)


def test_gaussian_recursion_thm_bounds():
    from crs_toolkit.divergences import alternative_divergence, channel_simulation_divergence
    w = width_eval(GaussianSpec(1.0, 0.5, 1))
    dist = grs_index_distribution(w, eps_stop=1e-9)
    dcs = channel_simulation_divergence(w).value_bits
    dacs = alternative_divergence(w).value_bits
    ent_hi = dist.entropy_bits + dist.entropy_tail_bound_bits
    assert dcs <= ent_hi + 1e-9
    assert dist.entropy_bits <= dcs + math.log2(math.e + 1.0) + 1e-9
    assert dist.entropy_bits <= dacs + 1.0 + 1e-9
    assert dist.mean_index + dist.mean_tail_bound == pytest.approx(w.h_max, abs=1e-9)


def test_stability_under_eps_refinement():
    for w in (width_eval(DISCRETE_EXAMPLE), two_level_width(0.1),
              width_eval(GaussianSpec(1.0, 0.5, 1))):
        coarse = grs_index_distribution(w, eps_stop=1e-9)
        fine = grs_index_distribution(w, eps_stop=1e-10)
        assert abs(fine.entropy_bits - coarse.entropy_bits) <= coarse.entropy_tail_bound_bits


def test_entropy_tail_bound_covers_true_tail():
    # geometric case in closed form: H_true = 2 bits exactly
    for eps in (1e-6, 1e-9, 1e-12):
        dist = grs_index_distribution(width_eval(DISCRETE_EXAMPLE), eps_stop=eps)
        missing = 2.0 - dist.entropy_bits
        assert 0.0 <= missing <= dist.entropy_tail_bound_bits


def test_step_cap_raises(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(grs, "DEFAULT_STEP_CAP", 100)
        with pytest.raises(StepBudgetError):
            grs_index_distribution(two_level_width(0.001), eps_stop=1e-9)
    with pytest.raises(InvalidParameterError):
        grs_index_distribution(OptimalCsWidth(0.5))  # infinite h_max
    with pytest.raises(InvalidParameterError):
        grs_index_distribution(indicator_width(), eps_stop=2.0)


def test_step_cap_inside_geometric_block_reports_survival(monkeypatch):
    # the cap falls inside the first geometric block, where S = (1 - 1/c)^cap
    c, cap = 2.0**17, 10**5
    monkeypatch.setattr(grs, "DEFAULT_STEP_CAP", cap)
    with pytest.raises(StepBudgetError, match=f"still {(1 - 1 / c) ** cap:.3e} after {cap} steps"):
        grs_index_distribution(equality_case_width(c), eps_stop=1e-9)


def test_step_cap_inside_geometric_block_fails_before_building_it():
    # the law needs about 2.2e7 steps; the first block would hold the cap's 1e6
    tracemalloc.start()
    try:
        with pytest.raises(StepBudgetError, match="after 1000000 steps"):
            grs_index_distribution(equality_case_width(2.0**20), eps_stop=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("w, survival", [
    (LaplaceWidth(0.01), "1.162e-02"),
    (GaussianWidth(1.0, 0.5, 2), "4.572e-04"),
], ids=["laplace_b001", "gaussian_d2"])
def test_smooth_law_step_cap_reports_survival(monkeypatch, w, survival):
    # S_1001, the survival after the cap's 1000 steps
    msg = f"survival mass still {survival} after 1000 steps; raise eps_stop"
    monkeypatch.setattr(grs, "DEFAULT_STEP_CAP", 1000)
    with pytest.raises(StepBudgetError, match=f"^{msg}$"):
        grs_index_distribution(w, eps_stop=1e-9)


def two_level_at_bits(bits):
    """The two-level width whose h_max is 2**bits."""
    return two_level_width(math.e / ((1.0 + math.e) * (2.0**bits - 1.0 / (1.0 + math.e))))


# 40-digit sums over the exact orbit of each width (mpmath, from its float
# edges and values) at eps_stop 1e-12: (truncation index, H[K], E[K] head),
# then the tail mass and mean tail bound as the dense law computed them
DEEP_STEP_LAWS = {
    "equality_c2^13": (equality_case_width(2.0**13), 226340,
                       14.44260698213422847627779078571271269448,
                       8191.999999991808490825220307150757309555,
                       9.999400848119715e-13, 8.191818778868765e-09),
    "two_level_13_bits": (two_level_at_bits(13), 306091,
                          11.72783371957840798091711324658926079718,
                          8191.999999988795655128105131296138826124,
                          9.999147161880944e-13, 1.120315573643893e-08),
}


@pytest.mark.parametrize("name", sorted(DEEP_STEP_LAWS))
def test_deep_step_laws_match_40_digit_sums(name):
    w, n, entropy_bits, mean_index, tail_mass, mean_tail_bound = DEEP_STEP_LAWS[name]
    dist = grs_index_distribution(w, eps_stop=1e-12)
    assert dist.truncation_index == n
    assert abs(dist.entropy_bits - entropy_bits) <= 1e-12
    assert abs(dist.mean_index - mean_index) <= 1e-15 * mean_index
    assert (dist.tail_mass, dist.mean_tail_bound) == (tail_mass, mean_tail_bound)


def step_law_corpus():
    rng = np.random.default_rng(20261018)
    for c_bits in range(1, 15):
        yield f"equality_c2^{c_bits}", equality_case_width(2.0**c_bits)
    for bits in range(1, 14):
        yield f"two_level_{bits}_bits", two_level_at_bits(bits)
    for size in range(2, 13):
        # half of q on one atom whose ratio sets D_inf; the rest from Dirichlet
        bits = float(rng.uniform(1.0, 13.0))
        p_top = 0.5 * 2.0**-bits
        q = np.append(0.5 * rng.dirichlet(np.ones(size - 1)), 0.5)
        p = np.append((1.0 - p_top) * rng.dirichlet(np.ones(size - 1)), p_top)
        yield f"discrete_{size}", width_from_discrete(tuple(q), tuple(p))


def orbit_survivals(rec, n):
    """S_1, ..., S_n of a step width's orbit, read piece by piece through
    each piece's end state, as state(k) reads them."""
    rec.state(n)
    for piece, first in zip(rec._pieces, rec._firsts):
        steps = range(min(piece[1], n + 1 - first))
        yield from map(itemgetter(1), map(piece[0].end, itertools.repeat(piece), steps))


def test_step_width_laws_match_the_lazily_read_orbit():
    # the law and the samplers' orbit read a block's end through one
    # definition, the law at the block's last step and the orbit at each
    # step, so both end the law's last block at the same bits
    for name, w in step_law_corpus():
        for eps_stop in (1e-6, 1e-9, 1e-12):
            dist = grs_index_distribution(w, eps_stop=eps_stop)
            n = dist.truncation_index
            rec = GrsRecursion(w)
            (_, S_n), (L_next, S_next) = rec.state(n), rec.state(n + 1)
            assert S_n > eps_stop >= S_next, name
            assert dist.tail_mass == S_next, name
            assert dist.mean_tail_bound == max(w.h_max - L_next, 0.0), name
            pos = dist.p[dist.p > 0.0]
            assert abs(dist.entropy_bits - math.fsum(-pos * np.log2(pos))) <= 1e-14, name
            mean_index = math.fsum(orbit_survivals(rec, n))
            assert abs(dist.mean_index - mean_index) <= 1e-15 * mean_index, name


def test_block_orbit_moves_when_its_ratio_rounds_to_one():
    # the second segment's block has v = 1e-17, so r = 1 - v rounds to 1 and
    # 1 - r^i must come from expm1, or L stops at L_2
    rec = GrsRecursion(StepWidth([0.0, 0.5, 0.5 + 0.5 / 1e-17], [1.0, 1e-17]))
    L, S = np.array([rec.state(k) for k in range(1, 21)]).T
    assert (L[1], S[1]) == (1.0, 0.5)
    for k in range(1, 19):
        assert L[k + 1] == pytest.approx(L[k] + S[k], rel=1e-15, abs=0.0), k


def test_step_law_corpus_holds_its_exact_entropy():
    # the exact law, summed to infinity in decimal (exact_laws.py), against
    # every truncation of the same width
    for name, w in step_law_corpus():
        truth, mean = exact_law(w)
        for eps_stop in (1e-6, 1e-9, 1e-12):
            dist = grs_index_distribution(w, eps_stop=eps_stop)
            assert holds_exact_entropy(dist, truth), (name, eps_stop)
            total = dist.mean_index + dist.mean_tail_bound
            assert total == pytest.approx(float(mean), rel=1e-15, abs=0.0), (name, eps_stop)


def test_step_width_law_stores_no_per_step_arrays():
    w = two_level_at_bits(13)
    tracemalloc.start()
    try:
        dist = grs_index_distribution(w, eps_stop=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.truncation_index > 3 * 10**5
    assert peak < 64 * 2**10


def test_lazy_orbit_builds_blocks_in_pieces(monkeypatch):
    # the block runs on past 1e6 steps, to its segment's end: every read,
    # shallow, step by step as a sampler reads, or deep, comes from the one
    # piece built at the first read past step 1, with no budget error
    w = equality_case_width(2.0**20)
    built = []
    next_piece = grs._next_piece
    monkeypatch.setattr(grs, "_next_piece", lambda *a: built.append(a) or next_piece(*a))
    rec = GrsRecursion(w)
    assert rec.state(1) == (0.0, 1.0) and not built
    L, S = rec.state(100)
    assert S == pytest.approx((1.0 - 2.0**-20) ** 99, rel=1e-14)
    assert L == pytest.approx(2.0**20 * (1.0 - S), rel=1e-12)
    for k in range(101, 5001):
        S = rec.state(k)[1]
        assert S == pytest.approx((1.0 - 2.0**-20) ** (k - 1), rel=1e-12), k
    L, S = rec.state(10**5)
    assert S == pytest.approx((1.0 - 2.0**-20) ** (10**5 - 1), rel=1e-12)
    assert len(built) == len(rec._pieces) == 1
    assert not hasattr(rec, "L") and not hasattr(rec, "S")


def test_sampler_identity_pair_accepts_first():
    pair = make_pair(LaplaceSpec(1.0))
    w = width_eval(LaplaceSpec(1.0))
    for seed in range(5):
        _, k = grs_sample(pair, w, RngStream(seed, 0))
        assert k == 1


def test_sampler_discrete_support_and_first_step():
    pair = make_pair(DISCRETE_EXAMPLE)
    w = width_eval(DISCRETE_EXAMPLE)
    res = grs_empirical(pair, w, RngStream(0, 4), 20_000)
    accepted = res.accepted.astype(int)
    assert set(np.unique(accepted)) <= {0, 1}
    p1 = np.mean(res.indices >= 1) - np.mean(res.indices >= 2)
    assert abs(p1 - 0.5) <= 4 * math.sqrt(0.25 / 20_000)


def test_sampler_deterministic_given_stream():
    pair = make_pair(LaplaceSpec(0.5))
    w = width_eval(LaplaceSpec(0.5))
    x1, k1 = grs_sample(pair, w, RngStream(123, 7))
    x2, k2 = grs_sample(pair, w, RngStream(123, 7))
    assert (x1, k1) == (x2, k2)
    res1 = grs_empirical(pair, w, RngStream(9, 0), 2000)
    res2 = grs_empirical(pair, w, RngStream(9, 0), 2000)
    assert np.array_equal(res1.indices, res2.indices)
    assert np.array_equal(res1.accepted, res2.accepted)


# sha256 of json.dumps([indices, accepted, runs]) for grs_empirical(pair, w,
# RngStream(seed, 0), 2000) and runs = [grs_sample(pair, w, RngStream(seed,
# j)) for j in 1..20], made with numpy 2.4.6 before the sampler read dQ/dP
# through draw_ratio: the tables must not move a single draw
SAMPLER_OUTPUT_SHA256 = {
    "discrete_p0": (60, discrete_spec((0.45, 0.0, 0.3, 0.0, 0.25), (0.15, 0.0, 0.35, 0.2, 0.3)),
                    "6bbfa40b5ec1a9d37cd39abfeab9431b09b21c0ef267a5836eed6aa599fa8d9f"),
    "two_level": (61, SyntheticSpec(two_level_width(0.13)),
                  "df74069d8de181ebdfe97d9a19794839a3a9aab0d533f0a40425ff711354a005"),
    "equality": (62, SyntheticSpec(equality_case_width(3.0)),
                 "1422ccd2d57befe51960e22dc36c4aae575d5563d62b249a2bfb158f738f2783"),
    "width_table": (63, SyntheticSpec(width_from_table(
        [(0.0, 1.0), (0.5, 0.6), (1.0, 0.25), (1.4, 0.1), (2.4, 0.0)])),
        "7477ceb90222b91896b6e914d3ae300277c2dcaa52c55e50ec5b479b5b5f661c"),
}


@pytest.mark.parametrize("name", SAMPLER_OUTPUT_SHA256)
def test_sampler_outputs_pinned(name):
    seed, pair, digest = SAMPLER_OUTPUT_SHA256[name]
    w = pair.width()
    res = grs_empirical(pair, w, RngStream(seed, 0), 2000)
    runs = [grs_sample(pair, w, RngStream(seed, j)) for j in range(1, 21)]
    blob = json.dumps([res.indices.tolist(), res.accepted.tolist(), runs])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _index_chi2_pvalue(indices: np.ndarray, w) -> float:
    """Chi-square p-value of observed indices against the exact index law;
    steps expected fewer than 5 times are pooled into one tail cell."""
    law = grs_index_distribution(w, eps_stop=1e-9)
    n = indices.size
    head = int(np.argmax(n * law.p < 5.0)) or law.p.size
    expected = n * np.append(law.p[:head], 1.0 - law.p[:head].sum())
    observed = np.bincount(np.minimum(indices, head + 1), minlength=head + 2)[1:]
    return float(stats.chisquare(observed, expected).pvalue)


@pytest.mark.parametrize("spec", [DISCRETE_EXAMPLE, SyntheticSpec(two_level_width(0.25))],
                         ids=["discrete_example", "two_level"])
def test_sample_index_law_matches_recursion(spec):
    pair, w = make_pair(spec), width_eval(spec)
    ks = np.array([grs_sample(pair, w, RngStream(31, j))[1] for j in range(4000)])
    assert _index_chi2_pvalue(ks, w) > 1e-3


def test_sample_points_follow_target():
    spec = LaplaceSpec(0.5)
    pair, w = make_pair(spec), width_eval(spec)
    n = 4000
    xs = np.sort([grs_sample(pair, w, RngStream(32, j))[0] for j in range(n)])
    F = stats.laplace(scale=0.5).cdf(xs)
    i = np.arange(1, n + 1)
    ks = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
    assert ks < special.kolmogi(1e-3) / math.sqrt(n)


class _TailCount:
    """Counts a width's _tail calls: one per smooth orbit step past step 1."""

    calls = 0

    def _tail(self, h):
        self.calls += 1
        return super()._tail(h)


class _CountedLaplace(_TailCount, LaplaceWidth):
    pass


class _CountedGaussian(_TailCount, GaussianWidth):
    pass


class _CountedOptimalCs(_TailCount, OptimalCsWidth):
    pass


def test_sample_step_cap_reads_the_orbit_no_further(monkeypatch):
    # about 5% of runs pass step 50 here (S_51 = 0.049)
    pair = make_pair(SyntheticSpec(OptimalCsWidth(0.5)))
    w = _CountedOptimalCs(0.5)
    raised = 0
    monkeypatch.setattr(grs, "DEFAULT_STEP_CAP", 50)
    for j in range(200):
        before = w.calls
        try:
            grs_sample(pair, w, RngStream(33, j))
        except StepBudgetError:
            raised += 1
        assert w.calls - before <= 49  # reading S_50 takes 49 tail integrals
    assert raised > 0


class _DrawLog:
    """A pair that logs the size of each of its draws."""

    def __init__(self, pair):
        self.pair, self.sizes = pair, []

    def draw_ratio(self, gen, n):
        self.sizes.append(n)
        return self.pair.draw_ratio(gen, n)


def test_step_cap_does_not_change_runs_within_it(monkeypatch):
    # the cap stops a run; one that accepts within it makes the draws it
    # makes under the default cap, also in a block that reaches past the cap
    spec = LaplaceSpec(0.05)
    pair, w = make_pair(spec), width_eval(spec)
    deep = 0
    for j in range(100):
        free, capped = _DrawLog(pair), _DrawLog(pair)
        x, k = grs_sample(free, w, RngStream(33, j))
        if k <= 50:
            deep += k > 24  # the third block, 32 steps from 25, passes 50
            with monkeypatch.context() as m:
                m.setattr(grs, "DEFAULT_STEP_CAP", 50)
                assert grs_sample(capped, w, RngStream(33, j)) == (x, k)
            assert capped.sizes == free.sizes
    assert deep > 5
    w = OptimalCsWidth(0.5)
    pair = make_pair(SyntheticSpec(w))
    res = grs_empirical(pair, w, RngStream(36, 0), 1000)
    monkeypatch.setattr(grs, "DEFAULT_STEP_CAP", int(res.indices.max()))
    capped = grs_empirical(pair, w, RngStream(36, 0), 1000)
    assert np.array_equal(capped.indices, res.indices)
    assert np.array_equal(capped.accepted, res.accepted)


@pytest.mark.parametrize("spec, w", [(LaplaceSpec(0.5), _CountedLaplace(0.5)),
                                     (GaussianSpec(1.0, 0.5, 2), _CountedGaussian(1.0, 0.5, 2))],
                         ids=["laplace", "gaussian_d2"])
def test_samplers_read_the_orbit_to_the_deepest_index(spec, w):
    # on a smooth width each step past the orbit read costs a tail integral:
    # reading (L_k, S_k) takes k - 1 of them
    pair = make_pair(spec)
    for j in range(20):
        before = w.calls
        _, k = grs_sample(pair, w, RngStream(34, j))
        assert w.calls - before == k - 1
    before = w.calls
    res = grs_empirical(pair, w, RngStream(35, 0), 1000)
    assert w.calls - before == res.indices.max() - 1


def test_synthetic_first_step_acceptance():
    # extremal width, alpha = 1/2: P[K = 1] = 1/2 + int_(1/2)^1 (2h)^-2 dh = 3/4
    w = OptimalCsWidth(0.5)
    rec = GrsRecursion(w)
    rec.state(2)
    assert rec.S[0] - rec.S[1] == pytest.approx(0.75, abs=1e-12)
    pair = make_pair(SyntheticSpec(w))
    n = 5000
    u = pair.draw(RngStream(3, 1).generator(), n)
    beta1 = np.minimum(np.exp(pair.log_ratio(u)), 1.0)
    assert abs(float(beta1.mean()) - 0.75) <= 4 * float(beta1.std(ddof=1)) / math.sqrt(n)


def test_empirical_chi_square_against_recursion():
    pair = make_pair(DISCRETE_EXAMPLE)
    w = width_eval(DISCRETE_EXAMPLE)
    n = 10**5
    res = grs_empirical(pair, w, RngStream(0, 6), n)
    exp_p = 0.5 ** np.arange(1, 13)
    observed = np.array([(res.indices == k).sum() for k in range(1, 13)]
                        + [(res.indices > 12).sum()], dtype=float)
    expected = np.append(exp_p, 1.0 - exp_p.sum()) * n
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.999, 12)


def test_empirical_ks_against_target():
    pair = make_pair(LaplaceSpec(0.5))
    w = width_eval(LaplaceSpec(0.5))
    n = 10**4
    res = grs_empirical(pair, w, RngStream(1, 6), n)
    xs = np.sort(res.accepted)
    F = stats.laplace(scale=0.5).cdf(xs)
    i = np.arange(1, n + 1)
    ks = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
    assert ks < special.kolmogi(1e-3) / math.sqrt(n)


def test_empirical_survival_matches_recursion():
    pair = make_pair(LaplaceSpec(0.5))
    w = width_eval(LaplaceSpec(0.5))
    n = 10**4
    res = grs_empirical(pair, w, RngStream(2, 6), n)
    rec = GrsRecursion(w)
    rec.state(10)
    for k in range(1, 11):
        s_k = rec.S[k - 1]
        sigma = math.sqrt(max(s_k * (1.0 - s_k), 1e-12) / n)
        assert abs(np.mean(res.indices >= k) - s_k) <= 4 * sigma + 1e-12


def test_empirical_histogram_and_validation():
    pair = make_pair(LaplaceSpec(1.0))
    w = width_eval(LaplaceSpec(1.0))
    res = grs_empirical(pair, w, RngStream(0, 0), 1000)
    assert res.histogram == {1: 1000}
    with pytest.raises(InvalidParameterError):
        grs_empirical(pair, w, RngStream(0, 0), 999)


def test_empirical_step_cap(monkeypatch):
    w = OptimalCsWidth(0.5)
    pair = make_pair(SyntheticSpec(w))
    monkeypatch.setattr(grs, "DEFAULT_STEP_CAP", 50)
    with pytest.raises(StepBudgetError):
        grs_empirical(pair, w, RngStream(0, 1), 1000)


def test_empirical_step_cap_stops_the_lockstep_round(monkeypatch):
    # 1000 replicas take one step a round; the cap stops the round at step 2
    w = OptimalCsWidth(0.5)
    msg = "^245 of 1000 replicas still active after 1 steps$"
    monkeypatch.setattr(grs, "DEFAULT_STEP_CAP", 1)
    with pytest.raises(StepBudgetError, match=msg):
        grs_empirical(SyntheticSpec(w), w, RngStream(1, 0), 1000)


def test_empirical_count_must_be_an_integer():
    # a float n is refused by name, not by numpy's bare TypeError
    pair, w = make_pair(LaplaceSpec(1.0)), width_eval(LaplaceSpec(1.0))
    with pytest.raises(InvalidParameterError, match="n must be an integer, got 1500.0"):
        grs_empirical(pair, w, RngStream(0, 0), 1500.0)
    assert grs_empirical(pair, w, RngStream(0, 0), np.int64(1000)).histogram == {1: 1000}


def test_index_distribution_json_schema():
    dist = grs_index_distribution(width_eval(DISCRETE_EXAMPLE), eps_stop=1e-6)
    blob = json.loads(json.dumps(dist.to_json()))
    assert set(blob) == {"p", "tail_mass", "entropy_bits", "entropy_tail_bound_bits",
                         "mean_index", "mean_tail_bound"}
    assert blob["p"] == [float(v) for v in dist.p]


def test_gaussian_vector_sampling_accepts():
    spec = GaussianSpec(1.0, 0.5, 2)
    pair = make_pair(spec)
    w = width_eval(spec)
    x, k = grs_sample(pair, w, RngStream(4, 2))
    assert isinstance(x, np.ndarray) and x.shape == (2,)
    assert k >= 1
    res = grs_empirical(pair, w, RngStream(4, 3), 1000)
    assert res.accepted.shape == (1000, 2)

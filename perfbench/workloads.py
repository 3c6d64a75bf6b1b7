"""Seeded workloads of the benchmark: inputs, the timed op, and its checks.

Each workload turns (seed, seconds) into a fixed list of slots, built
before any op runs. A slot is one op, timed alone; an op may be listed in
several slots, and then its latency is the median of theirs. The slot count
depends on the requested seconds through fixed per-workload constants, never
on measured time, so every commit sees the same slots for the same
arguments. Slots run one at a time (closed loop, one process, serial) and
each output is checked against an independent reference after the timer
stops.

Parameters that drive an op's cost are stratified (one draw per stratum,
strata shuffled), so two seeds cover the same parameter ranges with
different points; that keeps the medians and tails of a run steady across
seeds.

An op fails when it raises, reports converged=False, fails an inequality,
or fails its check. Known failures at the commit that defined the benchmark
are classified by `known_failure`; they count in `failed` like any other
failure, but only an unclassified failure makes a run incorrect.
"""
from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import dataclass, field

import numpy as np

import crs_toolkit as ct
from crs_toolkit.experiments import spec_descriptor

LN2 = math.log(2.0)
GAMMA = float(np.euler_gamma)
TWO_LEVEL_A = 1.0 / (1.0 + math.e)

# A check that compares with a closed form allows the reported error bar
# plus this floor: an absolute 1e-12 bits and 64 ulp of the reference.
FLOOR_ABS = 1e-12
FLOOR_ULPS = 64 * 2.0**-52
# Significance of each goodness-of-fit test. A run makes a few thousand
# tests, so 1e-9 keeps a chance failure on a fresh seed out of reach.
GOF_ALPHA = 1e-9
REPR_TOL = 1e-6
# exp() of a larger argument overflows a float
LN_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass
class Op:
    """One timed call: `kind` selects the call, `inputs` describes it in JSON."""

    kind: str
    inputs: dict
    obj: object = field(default=None, repr=False)
    repeats: int = 1  # back-to-back calls per slot, timed together; the slot's latency is their mean


@dataclass
class Outcome:
    """What a check concluded about one op's output."""

    ok: bool
    reason: str | None = None
    digest: object = None  # compared between the untraced and traced pass
    samples: int = 0       # accepted GRS replicas the op produced
    bar_miss: bool = False
    gap: float = 0.0       # |value - reference| of a failed comparison


def strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each of n equal strata, in shuffled order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(i + rng.random()) / n for i in order]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def dirichlet(rng: random.Random, n: int) -> list[float]:
    g = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
    s = math.fsum(g)
    return [x / s for x in g]


def discrete_pair(rng: random.Random, dinf_bits: float, size: int) -> dict:
    """Descriptor of a discrete pair whose D_inf is exactly dinf_bits (>= 0.6).

    Half of q sits on one atom with ratio 2**dinf_bits; the rest of q and
    p come from Dirichlet draws, and every other atom has a ratio of at most
    1 / (1 - p_top), below 2**dinf_bits.
    """
    top = rng.randrange(size)
    rest_q = [0.5 * v for v in dirichlet(rng, size - 1)]
    rest_g = [0.5 * v for v in dirichlet(rng, size - 1)]
    p_top = 0.5 * 2.0**-dinf_bits
    rest_p = [(1.0 - p_top) * (a + b) for a, b in zip(rest_q, rest_g)]
    q = rest_q[:top] + [0.5] + rest_q[top:]
    p = rest_p[:top] + [p_top] + rest_p[top:]
    return {"family": "discrete", "q": q, "p": p}


def two_level_eps(dinf_bits: float) -> float:
    """eps of the two-level width whose h_max is 2**dinf_bits."""
    return math.e / ((1.0 + math.e) * (2.0**dinf_bits - TWO_LEVEL_A))


def spec_from(desc: dict):
    """Pair spec from a descriptor in the `crs-toolkit verify --suite` format."""
    fam = desc["family"]
    if fam == "laplace":
        return ct.LaplaceSpec(desc["b"])
    if fam == "gaussian":
        return ct.GaussianSpec(desc["mu"], desc["sigma"], desc["d"])
    if fam == "discrete":
        return ct.discrete_spec(desc["q"], desc["p"])
    if desc["width"] == "equality":
        return ct.SyntheticSpec(ct.equality_case_width(desc["c"]))
    return ct.SyntheticSpec(ct.two_level_width(desc["eps"]))


# ---- independent references (closed forms, computed outside the timer) ----

def _special():
    """scipy.special, imported on first use so that it stays out of setup_s."""
    from scipy import special
    return special


def kl_closed_bits(desc: dict) -> float:
    fam = desc["family"]
    if fam == "laplace":
        b = desc["b"]
        return (b - 1.0 - math.log(b)) / LN2
    if fam == "gaussian":
        mu, s, d = desc["mu"], desc["sigma"], desc["d"]
        return d * (-math.log(s) + (s * s + mu * mu - 1.0) / 2.0) / LN2
    if fam == "discrete":
        return math.fsum(q * math.log(q / p) for q, p in zip(desc["q"], desc["p"]) if q > 0.0) / LN2
    if desc["width"] == "equality":
        return math.log2(desc["c"])
    # two-level: dQ/dP is h_max on (0, eps) and a on [eps, 1)
    eps = desc["eps"]
    h_max = TWO_LEVEL_A + math.e / ((1.0 + math.e) * eps)
    return (eps * h_max * math.log(h_max) + (1.0 - eps) * TWO_LEVEL_A * math.log(TWO_LEVEL_A)) / LN2


def dcs_laplace_bits(b: float) -> float:
    return (b + float(_special().digamma(1.0 / b)) + GAMMA - 1.0) / LN2


def gaussian_peak_log_ratio(mu: float, sigma: float) -> float:
    """Peak of ln(q/p) per dimension for N(mu, sigma^2) against N(0, 1), sigma < 1."""
    return -math.log(sigma) + mu * mu / (2.0 * (1.0 - sigma * sigma))


def optimal_cs_bits(alpha: float) -> tuple[float, float]:
    """(KL, D_CS) of the D_CS-extremal width, bits."""
    return (1.0 / alpha - 1.0 + math.log(alpha)) / LN2, (1.0 - alpha) / alpha / LN2


def optimal_acs_bits(alpha: float) -> tuple[float, float]:
    """(KL, D_ACS) of the D_ACS-extremal width, bits."""
    beta = (math.pi / alpha) / math.sin(math.pi / alpha)
    kl = -(math.log(beta) - 1.0 + beta * math.cos(math.pi / alpha)) / LN2
    return kl, (alpha - math.pi / math.tan(math.pi / alpha)) / LN2


def within_bar(value: float, ref: float, bar: float) -> bool:
    return abs(value - ref) <= bar + FLOOR_ABS + FLOOR_ULPS * abs(ref)


# ---- goodness of fit ----

def pooled_chi2_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square p-value after merging neighbouring cells until each expects >= 5."""
    cells_o, cells_e, acc_o, acc_e = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            cells_o.append(acc_o)
            cells_e.append(acc_e)
            acc_o = acc_e = 0.0
    if cells_e:
        cells_o[-1] += acc_o
        cells_e[-1] += acc_e
    if len(cells_e) < 2:
        return 1.0
    o, e = np.asarray(cells_o), np.asarray(cells_e)
    stat = float(np.sum((o - e) ** 2 / e))
    return float(_special().gammaincc(0.5 * (len(e) - 1), 0.5 * stat))


def ks_pvalue(points: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov p-value (Stephens' small-sample correction)."""
    x = np.sort(np.asarray(points, dtype=float))
    n = x.size
    f = cdf(x)
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    root = math.sqrt(n)
    return float(_special().kolmogorov((root + 0.12 + 0.11 / root) * d))


def q_cdf(desc: dict, coord: int = 0):
    """Closed-form CDF of the target Q (one coordinate for gaussian pairs)."""
    fam = desc["family"]
    if fam == "laplace":
        b = desc["b"]
        return lambda x: np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0) / b),
                                  1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / b))
    if fam == "gaussian":
        mu, s = desc["mu"], desc["sigma"]
        ndtr = _special().ndtr
        return lambda x: ndtr((x - mu) / s)
    if desc["width"] == "equality":
        c = desc["c"]
        return lambda x: np.clip(c * x, 0.0, 1.0)
    eps = desc["eps"]
    h_max = TWO_LEVEL_A + math.e / ((1.0 + math.e) * eps)
    return lambda x: np.where(x < eps, h_max * x, eps * h_max + TWO_LEVEL_A * (x - eps))


# ---- workloads ----

class Verify:
    """An op is one pair through `bound_suite([entry])`.

    The ops are the 14 pairs of `default_suite()` plus seeded discrete
    pairs, equality widths and two-level widths at fixed D_inf levels from 1
    to 20 bits, each level jittered by up to 0.25 bits. No level sits where
    the step cap (10^6 steps) is crossed (about 14.5 to 15.6 bits, by kind),
    so every seed fails the same pairs: the levels of 16.5 bits and up. It
    runs about 17 s on a 2-vCPU x86 host at the defining commit, whatever
    `seconds` asks for.

    The six smooth default pairs other than the identity take 0.2 to 7 s a
    call and run once. Every other op takes from 0.1 to 10 ms a call, and the
    median op is among them. Each of those runs in ROUNDS slots of REPEATS
    back-to-back calls. A round runs every such op once, in a fresh seeded
    order. The one-shot pairs sit between rounds, evenly spaced, so each
    cheap op's slots are spread over the whole run and its median slot
    does not depend on how fast the host was in one short stretch.
    """

    name = "verify"
    # Levels every 0.5 bits up to 10 keep most pairs sub-millisecond, so the
    # median falls inside that cluster rather than on its edge.
    DINF_LEVELS = (*(1.0 + 0.5 * i for i in range(19)), 11.5, 13.0, 16.5, 18.0, 20.0)
    DEEP_BITS = 15.0  # only seeded pairs go deeper, and only those may exhaust the step cap
    ROUNDS = 16
    REPEATS = 3
    SMOKE_FIXED = ("laplace_identity", "gaussian_mu0_s06_d1", "discrete_eight", "two_level_eps03")
    EXPECT_NONZERO = ("grs.steps", "grs.block_steps", "grs.band_calls", "grs.state_calls",
                      "grs.step_budget_errors", "width.calls", "quadrature.gk15_calls",
                      "quadrature.adaptive_calls", "divergences.calls", "experiments.pairs")
    EXPECT_ZERO = ("measures.draw_points", "measures.log_ratio_points", "streams.generators")

    def build(self, seed: int, seconds: float, smoke: bool = False) -> list[Op]:
        rng = random.Random(f"verify:{seed}")
        fixed = ct.default_suite()
        if smoke:
            fixed = [e for e in fixed if e.name in self.SMOKE_FIXED]
        once, cheap = [], []
        for e in fixed:
            desc = _descriptor(e.spec)
            deep = desc["family"] in ("laplace", "gaussian") and kl_closed_bits(desc) > 0.0
            op = Op("pair", {"suite": "default", "name": e.name, "spec": desc}, e)
            if deep:
                once.append(op)
            else:
                op.repeats = self.REPEATS
                cheap.append(op)
        levels = (2.5, 18.0) if smoke else self.DINF_LEVELS
        sizes = [2 + int(11 * u) for u in strata(rng, len(levels))]  # atoms, 2..12
        for level, size in zip(levels, sizes):
            t = level + rng.uniform(-0.25, 0.25)
            for desc in (discrete_pair(rng, t, size),
                         {"family": "synthetic", "width": "equality", "c": 2.0**t},
                         {"family": "synthetic", "width": "two_level", "eps": two_level_eps(t)}):
                entry = ct.SuiteEntry(f"seeded_{len(once) + len(cheap)}", spec_from(desc))
                cheap.append(Op("pair", {"name": entry.name, "spec": desc, "d_inf_bits": t},
                                entry, self.REPEATS))
        rng.shuffle(once)
        rounds = 2 if smoke else self.ROUNDS
        slots = []
        for r in range(rounds):
            slots.extend(rng.sample(cheap, len(cheap)))
            slots.extend(once[r * len(once) // rounds:(r + 1) * len(once) // rounds])
        return slots

    def warmup(self) -> list[Op]:
        descs = ({"family": "laplace", "b": 0.9}, {"family": "gaussian", "mu": 0.1, "sigma": 0.95, "d": 1},
                 discrete_pair(random.Random(0), 3.0, 4))
        return [Op("pair", {"spec": d}, ct.SuiteEntry("warmup", spec_from(d))) for d in descs]

    def run(self, op: Op):
        return ct.bound_suite([op.obj])

    def check(self, op: Op, out) -> Outcome:
        rep = out.pairs[0]
        digest = rep.to_json()
        if rep.error is not None:
            return Outcome(False, f"error: {rep.error}", digest)
        failed = [i.name for i in rep.inequalities if not i.passed]
        if failed:
            return Outcome(False, "inequality failed: " + ",".join(failed), digest)
        desc = op.inputs["spec"]
        got = rep.quantities
        ref = kl_closed_bits(desc)
        if not within_bar(got["kl_bits"], ref, 1e-9):
            return Outcome(False, f"kl_bits {got['kl_bits']!r} vs closed form {ref!r}", digest)
        if desc["family"] == "laplace":
            ref = dcs_laplace_bits(desc["b"])
            if not within_bar(got["dcs_bits"], ref, ct.divergences.DEFAULT_TOL_BITS):
                return Outcome(False, f"dcs_bits {got['dcs_bits']!r} vs digamma form {ref!r}", digest)
        return Outcome(True, digest=digest)

    def known_failure(self, op: Op, outcome: Outcome) -> str | None:
        deep = op.inputs.get("d_inf_bits", 0.0) >= self.DEEP_BITS
        if deep and re.match(r"error: .*(after \d+ steps|step cap)", outcome.reason):
            return "verify.deep_dinf_step_budget"
        return None


class Divergence:
    """An op is one D_CS, D_ACS or KL-by-width-identity query on a smooth width.

    A round holds one query of each bulk kind; integral-representation
    checks (a few per cent of ops, most of the time) are spread evenly
    through the rounds. Every query has a closed form to check against.
    """

    name = "divergence"
    BULK = (("laplace", "cs"), ("laplace", "kl"), ("gaussian", "kl"), ("optimal_cs", "cs"),
            ("optimal_cs", "kl"), ("optimal_acs", "acs"), ("optimal_acs", "kl"))
    ROUNDS_PER_SECOND = 42.0
    REPR_PER_SECOND = 1.4
    EXPECT_NONZERO = ("quadrature.adaptive_calls", "quadrature.gk15_calls", "quadrature.panels",
                      "width.calls", "divergences.calls")
    EXPECT_ZERO = ("grs.steps", "grs.block_steps", "grs.state_calls", "grs.band_calls",
                   "measures.draw_points", "measures.log_ratio_points", "streams.generators",
                   "experiments.pairs")

    def build(self, seed: int, seconds: float, smoke: bool = False) -> list[Op]:
        rng = random.Random(f"divergence:{seed}")
        rounds = 2 if smoke else max(1, round(seconds * self.ROUNDS_PER_SECOND))
        n_repr = 2 if smoke else max(1, round(seconds * self.REPR_PER_SECOND))
        bulk = {kind: self._params(rng, kind[0], rounds) for kind in self.BULK}
        reprs = self._repr_params(rng, n_repr)
        ops = []
        every = max(1, rounds // n_repr)
        for r in range(rounds):
            for kind in self.BULK:
                ops.append(self._op(kind[1], bulk[kind][r]))
            if r % every == every - 1 and reprs:
                ops.append(self._op("repr", reprs.pop()))
        ops.extend(self._op("repr", d) for d in reprs)
        # a few Gaussian KL queries where d * t0 > 709: GaussianWidth overflows computing h_max
        edge = max(1, rounds // 100)
        for k, (um, us, ud) in enumerate(zip(strata(rng, edge), strata(rng, edge), strata(rng, edge))):
            desc = {"family": "gaussian", "mu": 1.4 + 0.1 * um, "sigma": 0.88 + 0.02 * us,
                    "d": 240 + int(16 * ud)}
            ops.insert((k + 1) * len(ops) // (edge + 1), self._op("kl", desc))
        return ops

    @staticmethod
    def _params(rng: random.Random, family: str, n: int) -> list[dict]:
        if family == "laplace":
            return [{"family": "laplace", "b": log_uniform(u, 0.02, 0.999)} for u in strata(rng, n)]
        if family == "gaussian":
            return [{"family": "gaussian", "mu": um, "sigma": 0.3 + 0.5 * us,
                     "d": max(1, round(log_uniform(ud, 1.0, 256.0)))}
                    for um, us, ud in zip(strata(rng, n), strata(rng, n), strata(rng, n))]
        if family == "optimal_cs":
            return [{"family": "optimal_cs", "alpha": 0.01 + 0.98 * u} for u in strata(rng, n)]
        return [{"family": "optimal_acs", "alpha": 1.8 + 4.2 * u} for u in strata(rng, n)]

    @staticmethod
    def _repr_params(rng: random.Random, n: int) -> list[dict]:
        n_gauss = n // 7
        out = [{"family": "laplace", "b": log_uniform(u, 0.02, 0.999)} for u in strata(rng, n - n_gauss)]
        out += [{"family": "gaussian", "mu": 0.8 * um, "sigma": 0.45 + 0.35 * us, "d": 1 + (i % 2)}
                for i, (um, us) in enumerate(zip(strata(rng, n_gauss), strata(rng, n_gauss)))]
        rng.shuffle(out)
        return out

    @staticmethod
    def _op(query: str, desc: dict) -> Op:
        fam = desc["family"]
        if fam.startswith("optimal"):
            w = (ct.OptimalCsWidth if fam == "optimal_cs" else ct.OptimalAcsWidth)(desc["alpha"])
            spec = ct.SyntheticSpec(w)
        else:  # a KL query builds its width from the spec inside the call
            spec = spec_from(desc)
            w = None if query == "kl" else ct.width_eval(spec)
        return Op(query, {"query": query, "width": desc}, (w, spec))

    def warmup(self) -> list[Op]:
        descs = ({"family": "laplace", "b": 0.5}, {"family": "gaussian", "mu": 1.0, "sigma": 0.5, "d": 8},
                 {"family": "optimal_cs", "alpha": 0.5}, {"family": "optimal_acs", "alpha": 3.0})
        ops = [self._op(q, d) for d, q in zip(descs, ("cs", "kl", "cs", "acs"))]
        return ops + [self._op("kl", descs[2]), self._op("repr", {"family": "laplace", "b": 0.4})]

    def run(self, op: Op):
        w, spec = op.obj
        if op.kind == "cs":
            return ct.channel_simulation_divergence(w)
        if op.kind == "acs":
            return ct.alternative_divergence(w)
        if op.kind == "kl":
            return ct.kl_divergence(spec, route="width_identity")
        return ct.dcs_integral_representation_check(w, REPR_TOL)

    def check(self, op: Op, out) -> Outcome:
        desc = op.inputs["width"]
        if op.kind == "repr":
            lhs, rhs = out
            if not abs(lhs - rhs) <= REPR_TOL + FLOOR_ABS:
                return Outcome(False, f"representation sides differ by {abs(lhs - rhs):.3e} > tol {REPR_TOL}",
                               out, gap=abs(lhs - rhs))
            return Outcome(True, digest=out)
        digest = (out.value_bits, out.abs_error_estimate)
        if not out.converged:
            return Outcome(False, "converged=False", digest)
        fam = desc["family"]
        if op.kind == "kl":
            if fam == "optimal_cs":
                ref = optimal_cs_bits(desc["alpha"])[0]
            elif fam == "optimal_acs":
                ref = optimal_acs_bits(desc["alpha"])[0]
            else:
                ref = kl_closed_bits(desc)
        elif fam == "laplace":
            ref = dcs_laplace_bits(desc["b"])
        elif fam == "optimal_cs":
            ref = optimal_cs_bits(desc["alpha"])[1]
        else:
            ref = optimal_acs_bits(desc["alpha"])[1]
        if not within_bar(out.value_bits, ref, out.abs_error_estimate):
            return Outcome(False, f"error {abs(out.value_bits - ref):.3e} exceeds bar "
                                  f"{out.abs_error_estimate:.3e}", digest, bar_miss=True,
                           gap=abs(out.value_bits - ref))
        return Outcome(True, digest=digest)

    def known_failure(self, op: Op, outcome: Outcome) -> str | None:
        """Class of a failure known at the defining commit, only inside the
        region where it was found and only up to the size it was found at."""
        desc, reason = op.inputs["width"], outcome.reason
        fam = desc["family"]
        if (op.kind == "acs" and fam == "optimal_acs" and desc["alpha"] < 2.4
                and outcome.bar_miss and outcome.gap <= 1e-6):
            return "divergence.optimal_acs_bar_miss"
        if op.kind == "repr" and reason.startswith("representation sides differ"):
            # grows like 1e-7 / (1 - b) for Laplace; at most 4e-6 for d = 1 Gaussians
            if ((fam == "laplace" and desc["b"] >= 0.9 and outcome.gap <= 1e-3)
                    or (fam == "gaussian" and desc["d"] == 1 and outcome.gap <= 1e-5)):
                return "divergence.representation_tol_miss"
        if (fam == "gaussian" and reason.startswith("raised OverflowError")
                and desc["d"] * gaussian_peak_log_ratio(desc["mu"], desc["sigma"]) > LN_FLOAT_MAX):
            return "divergence.gaussian_h_max_overflow"
        if (fam == "optimal_cs" and desc["alpha"] < 0.05
                and reason.startswith("raised QuadratureError: power tail too heavy")):
            return "divergence.optimal_cs_tail_beyond_float_range"
        return None


class Sample:
    """An op is one `grs_empirical` batch or one block of `grs_sample` runs.

    The seeded pool holds Laplace and Gaussian (d <= 2) pairs with D_inf at
    most 1.5 bits, and discrete and synthetic pairs with D_inf from 1 to 3
    bits. A round runs one batch on every pair whose index law has a light
    tail and one `grs_sample` block per family, rotating through the pool.
    A batch costs about its deepest replica's index times a recursion step,
    and P[K > k] falls only like k^-2 for Laplace and d = 2 Gaussian pairs
    (k^-3 for d = 1), so batches on those two would let one rare deep
    replica dominate a run; they get blocks only. Stream keys come from the
    seed and the op's position.
    """

    name = "sample"
    PER_FAMILY = 8
    # (mu, sigma) levels, jittered per seed, for d = 1 and d = 2. The d = 2
    # blocks are the slowest ops and set op_tail_ms, so their cost-driving
    # parameters stay near fixed levels instead of being drawn afresh.
    GAUSSIAN_LEVELS = ((0.0, 0.85), (0.1, 0.8), (0.2, 0.75), (0.3, 0.7))
    ROUNDS_PER_SECOND = 3.5
    BLOCK_RUNS = 80
    EXPECT_NONZERO = ("measures.draw_points", "measures.log_ratio_points", "streams.generators",
                      "grs.steps", "grs.state_calls", "width.calls")
    EXPECT_ZERO = ("experiments.pairs", "divergences.calls", "grs.block_steps", "grs.step_budget_errors")

    def __init__(self):
        self._laws: dict[int, ct.IndexDistribution] = {}

    def pool(self, rng: random.Random) -> list[dict]:
        k = self.PER_FAMILY
        descs = [{"family": "laplace", "b": 0.55 + 0.4 * u} for u in strata(rng, k)]
        descs += [{"family": "gaussian", "mu": max(0.0, mu + rng.uniform(-0.02, 0.02)),
                   "sigma": sigma + rng.uniform(-0.01, 0.01), "d": d}
                  for d in (1, 2) for mu, sigma in self.GAUSSIAN_LEVELS]
        descs += [discrete_pair(rng, 1.0 + 2.0 * u, rng.randint(2, 8)) for u in strata(rng, k)]
        descs += [{"family": "synthetic", "width": "equality", "c": 2.0 ** (0.5 + 2.5 * u)}
                  for u in strata(rng, (k + 1) // 2)]
        descs += [{"family": "synthetic", "width": "two_level", "eps": two_level_eps(1.0 + 2.0 * u)}
                  for u in strata(rng, k // 2)]
        return descs

    @staticmethod
    def batched(desc: dict) -> bool:
        return desc["family"] in ("discrete", "synthetic") or (desc["family"] == "gaussian" and desc["d"] == 1)

    def build(self, seed: int, seconds: float, smoke: bool = False) -> list[Op]:
        rng = random.Random(f"sample:{seed}")
        key = seed % 2**64
        pairs = []
        for desc in self.pool(rng):
            spec = spec_from(desc)
            pairs.append((desc, ct.make_pair(spec), ct.width_eval(spec)))
        rounds = 1 if smoke else max(1, round(seconds * self.ROUNDS_PER_SECOND))
        sizes = {i: strata(rng, rounds) for i in range(len(pairs))}
        runs = 5 if smoke else self.BLOCK_RUNS
        ops = []
        for r in range(rounds):
            for i, (desc, pair, w) in enumerate(pairs):
                if self.batched(desc):
                    n = 1000 if smoke else round(2000 + 18000 * sizes[i][r])
                    base = 1000 * len(ops)  # stream ids from base up belong to this op
                    ops.append(Op("empirical", {"pair": desc, "pool_index": i, "n": n,
                                                "stream_key": [key, base]},
                                  (pair, w, ct.RngStream(key, base))))
            for family in range(4):  # one block per family, rotating through the pool
                i = (r + family * self.PER_FAMILY) % len(pairs)
                desc, pair, w = pairs[i]
                base = 1000 * len(ops)
                ops.append(Op("sample_block", {"pair": desc, "pool_index": i, "runs": runs,
                                               "stream_keys": [key, base, base + runs - 1]},
                              (pair, w, [ct.RngStream(key, base + j) for j in range(runs)])))
        return ops

    def warmup(self) -> list[Op]:
        rng = random.Random("sample:warmup")
        ops = []
        for desc in ({"family": "laplace", "b": 0.6}, {"family": "gaussian", "mu": 0.5, "sigma": 0.7, "d": 2},
                     discrete_pair(rng, 2.0, 4)):
            spec = spec_from(desc)
            pair, w = ct.make_pair(spec), ct.width_eval(spec)
            ops.append(Op("empirical", {"pair": desc, "n": 2000}, (pair, w, ct.RngStream(2**63, 0))))
            ops.append(Op("sample_block", {"pair": desc, "runs": 5},
                          (pair, w, [ct.RngStream(2**63, j + 1) for j in range(5)])))
        return ops

    def run(self, op: Op):
        pair, w, stream = op.obj
        if op.kind == "empirical":
            return ct.grs_empirical(pair, w, stream, op.inputs["n"])
        return [ct.grs_sample(pair, w, s) for s in stream]

    def law(self, op: Op) -> ct.IndexDistribution:
        """Exact index law to survival 1e-4, enough for n <= 20000 at 5 per cell."""
        i = op.inputs["pool_index"]
        if i not in self._laws:
            self._laws[i] = ct.grs_index_distribution(op.obj[1], eps_stop=1e-4)
        return self._laws[i]

    def check(self, op: Op, out) -> Outcome:
        if op.kind == "empirical":
            indices, points = out.indices, out.accepted
        else:
            indices = np.array([k for _, k in out])
            points = np.array([x for x, _ in out])
        digest = (int(indices.sum()), float(np.sum(points)))
        law = self.law(op)
        n = indices.size
        t = law.p.size
        counts = np.bincount(np.minimum(indices, t + 1), minlength=t + 2)[1:]
        expected = n * np.append(law.p, law.tail_mass)
        p_index = pooled_chi2_pvalue(counts.astype(float), expected)
        if p_index < GOF_ALPHA:
            return Outcome(False, f"index histogram chi2 p={p_index:.2e}", digest, n)
        desc = op.inputs["pair"]
        if desc["family"] == "discrete":
            q = np.asarray(desc["q"])
            obs = np.bincount(points.astype(np.int64), minlength=q.size).astype(float)
            p_point = pooled_chi2_pvalue(obs, n * q)
        elif desc["family"] == "gaussian" and desc["d"] == 2:
            p_point = min(ks_pvalue(points[:, j], q_cdf(desc)) for j in range(2))
        else:
            p_point = ks_pvalue(points, q_cdf(desc))
        if p_point < GOF_ALPHA:
            return Outcome(False, f"accepted points against Q p={p_point:.2e}", digest, n)
        return Outcome(True, digest=digest, samples=n)

    def known_failure(self, op: Op, outcome: Outcome) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (Verify(), Divergence(), Sample())}


def _descriptor(spec) -> dict:
    """Descriptor of a default-suite spec in the verify file format."""
    desc = spec_descriptor(spec)
    if desc["family"] != "synthetic":
        return desc
    if desc["width"].startswith("equality_case"):
        return {"family": "synthetic", "width": "equality", "c": float(spec.w.edges[-1])}
    return {"family": "synthetic", "width": "two_level", "eps": float(spec.w.values[1])}

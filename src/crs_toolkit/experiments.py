"""Experiment sweeps, the bound-verification suite, and their file formats.

Three sweeps (CSV) and one verification report (JSON):

  laplace, gaussian, epsilon: one CSV row per grid value. The columns are
      the fields of LaplaceRow, GaussianRow and EpsilonRow, in order;
      STUDIES maps each study name to its sweep, row class and tolerances.
  bounds:   JSON list of {name, spec, quantities, inequalities: [{name, lhs, rhs, margin, pass}]}

Every row re-validates its own identities (delta recomputation, digamma-band
membership, bound-chain membership) before it is emitted; a violated row
aborts the sweep. Rows are computed and emitted in grid order.
"""
from __future__ import annotations

import json
import math
import platform
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .divergences import (
    DEFAULT_TOL_BITS,
    LOG2_E_PLUS_1,
    alternative_divergence,
    channel_simulation_divergence,
    dcs_laplace_closed,
    kl_divergence,
    kl_sandwich,
)
from .errors import CrsToolkitError, InvalidParameterError, SweepValidationError
from .grs import grs_index_distribution
from .measures import (
    FAMILIES,
    DistributionPair,
    GaussianSpec,
    LaplaceSpec,
    SyntheticSpec,
    discrete_spec,
    json_number,
)
from .width import d_infinity, equality_case_width, two_level_width

LN2 = math.log(2.0)
GAMMA = float(np.euler_gamma)

DEFAULT_B_GRID = tuple(np.geomspace(0.02, 1.0, 25).tolist())
DEFAULT_D_GRID = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_EPS_GRID = (0.3, 0.1, 0.03, 0.01, 0.003)

SWEEP_EPS_STOP = 1e-6  # survival cutoff for sweep entropy columns
SUITE_EPS_STOP = 1e-9  # default cutoff inside the verification suite

_NOT_CSV = {"csv": False}  # field metadata: a row field that is no CSV column


def _in_entropy_band(gap_bits: float, low_slack: float, high_slack: float) -> bool:
    """0 <= H[K] - D_CS <= log2(e+1), each end widened by its own slack."""
    return -low_slack <= gap_bits <= LOG2_E_PLUS_1 + high_slack


class _SweepRow:
    """A sweep row: its CSV columns are its fields, in order, less _NOT_CSV ones."""

    @classmethod
    def header(cls) -> str:
        return ",".join(f.name for f in fields(cls) if f.metadata.get("csv", True))

    def csv(self) -> str:
        return ",".join(format(float(getattr(self, c)), ".9g") for c in self.header().split(","))


@dataclass(frozen=True)
class LaplaceRow(_SweepRow):
    b: float
    neg_ln_b: float
    kl_bits: float
    dcs_bits: float
    delta_bits: float
    lower_digamma_nats: float
    upper_digamma_nats: float
    entropy_bits: float
    entropy_tail_bound_bits: float = field(default=0.0, metadata=_NOT_CSV)

    def validate(self):
        if self.delta_bits != self.dcs_bits - self.kl_bits:
            raise SweepValidationError(f"delta identity violated at b={self.b}")
        delta_nats = self.delta_bits * LN2
        if not (self.lower_digamma_nats - 1e-9 <= delta_nats
                <= self.upper_digamma_nats + 1e-9):
            raise SweepValidationError(f"digamma band violated at b={self.b}")
        slack = self.entropy_tail_bound_bits + 1e-9
        chain_tail = kl_sandwich(self.kl_bits)
        ok = (self.kl_bits <= self.dcs_bits + 1e-12
              and _in_entropy_band(self.entropy_bits - self.dcs_bits, slack, slack)
              and self.dcs_bits + LOG2_E_PLUS_1 <= chain_tail + 1e-12)
        if not ok:
            raise SweepValidationError(f"bound chain violated at b={self.b}")


@dataclass(frozen=True)
class GaussianRow(_SweepRow):
    d: int
    kl_bits: float
    dcs_bits: float
    delta_bits: float
    conjecture_half_log_bits: float

    def validate(self):
        if self.delta_bits != self.dcs_bits - self.kl_bits:
            raise SweepValidationError(f"delta identity violated at d={self.d}")
        if self.kl_bits > self.dcs_bits + 1e-9:
            raise SweepValidationError(f"KL exceeds D_CS at d={self.d}")


@dataclass(frozen=True)
class EpsilonRow(_SweepRow):
    eps: float
    dcs_bits: float
    entropy_bits: float
    gap_bits: float
    entropy_tail_bound_bits: float = field(default=0.0, metadata=_NOT_CSV)

    def validate(self):
        if self.gap_bits != self.entropy_bits - self.dcs_bits:
            raise SweepValidationError(f"gap identity violated at eps={self.eps}")
        if not _in_entropy_band(self.gap_bits, self.entropy_tail_bound_bits + 1e-12, 1e-6):
            raise SweepValidationError(f"entropy gap outside [0, log2(e+1)] at eps={self.eps}")


def laplace_sweep(b_grid: Sequence[float] | None = None) -> list[LaplaceRow]:
    """Closed-form D_CS, KL, their gap with its digamma band, and the exact
    sampler entropy, per scale b; rows ordered by -ln b."""
    grid = DEFAULT_B_GRID if b_grid is None else tuple(float(b) for b in b_grid)
    if any(not (0.0 < b <= 1.0) for b in grid):
        raise InvalidParameterError("laplace grid scales must lie in (0, 1]")

    def one(b: float) -> LaplaceRow:
        kl = kl_divergence(LaplaceSpec(b)).value_bits
        dcs = dcs_laplace_closed(b)
        dist = grs_index_distribution(LaplaceSpec(b).width(), eps_stop=SWEEP_EPS_STOP)
        row = LaplaceRow(
            b=b,
            neg_ln_b=-math.log(b) + 0.0,
            kl_bits=kl,
            dcs_bits=dcs,
            delta_bits=dcs - kl,
            lower_digamma_nats=GAMMA - b,
            upper_digamma_nats=GAMMA - b / 2.0,
            entropy_bits=dist.entropy_bits,
            entropy_tail_bound_bits=dist.entropy_tail_bound_bits,
        )
        row.validate()
        return row

    return [one(b) for b in sorted(grid, key=lambda b: -math.log(b))]


def gaussian_sweep(
    d_grid: Sequence[int] | None = None,
    mu: float = 1.0,
    sigma: float = 0.5,
) -> list[GaussianRow]:
    """KL (closed form), D_CS (quadrature over the noncentral chi-square
    width), their gap, and the half-log conjecture column, per dimension."""
    grid = DEFAULT_D_GRID if d_grid is None else d_grid

    def one(d: int) -> GaussianRow:
        spec = GaussianSpec(mu, sigma, d)  # rejects a d that is not an integer
        kl = kl_divergence(spec).value_bits
        dcs = channel_simulation_divergence(spec.width()).value_bits
        row = GaussianRow(
            d=spec.d,
            kl_bits=kl,
            dcs_bits=dcs,
            delta_bits=dcs - kl,
            conjecture_half_log_bits=0.5 * math.log2(kl + 1.0),
        )
        row.validate()
        return row

    return [one(x) for x in grid]


def epsilon_family_study(eps_grid: Sequence[float] | None = None) -> list[EpsilonRow]:
    """Exact entropy gap H[K] - D_CS of the two-level tightness family."""
    grid = DEFAULT_EPS_GRID if eps_grid is None else tuple(float(e) for e in eps_grid)
    if any(e2 >= e1 for e1, e2 in zip(grid, grid[1:])):
        raise InvalidParameterError("eps values must strictly decrease")

    def one(eps: float) -> EpsilonRow:
        w = two_level_width(eps)
        dcs = channel_simulation_divergence(w).value_bits
        dist = grs_index_distribution(w, eps_stop=SUITE_EPS_STOP)
        row = EpsilonRow(
            eps=eps,
            dcs_bits=dcs,
            entropy_bits=dist.entropy_bits,
            gap_bits=dist.entropy_bits - dcs,
            entropy_tail_bound_bits=dist.entropy_tail_bound_bits,
        )
        row.validate()
        return row

    return [one(x) for x in grid]


@dataclass(frozen=True)
class SuiteEntry:
    """One verification job: a pair spec plus its recursion cutoff."""

    name: str
    spec: DistributionPair
    eps_stop: float = SUITE_EPS_STOP


class Inequality(NamedTuple):
    name: str
    lhs: float
    rhs: float
    slack: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.slack

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": float(self.lhs), "rhs": float(self.rhs),
                "margin": float(self.margin), "pass": bool(self.passed)}


@dataclass(frozen=True)
class PairBoundReport:
    name: str
    spec: dict
    quantities: dict
    inequalities: list[Inequality]
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(i.passed for i in self.inequalities)

    def to_json(self) -> dict:
        out = {"name": self.name, "spec": self.spec, "quantities": self.quantities,
               "inequalities": [i.to_json() for i in self.inequalities]}
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class BoundSuiteReport:
    pairs: list[PairBoundReport]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.pairs)

    def to_json(self) -> list:
        return [p.to_json() for p in self.pairs]


def spec_descriptor(spec: DistributionPair) -> dict:
    """spec.descriptor(); kept only while perfbench/workloads.py imports it (ROADMAP item 12)."""
    return spec.descriptor()


def _verify_pair(entry: SuiteEntry) -> PairBoundReport:
    spec = entry.spec
    try:
        w = spec.width()
        kl_rep = kl_divergence(spec, route=spec.kl_route)
        dcs_rep = channel_simulation_divergence(w)
        dacs_rep = alternative_divergence(w)
        dist = grs_index_distribution(w, eps_stop=entry.eps_stop)
        dinf = d_infinity(w)
        kl, dcs, dacs = kl_rep.value_bits, dcs_rep.value_bits, dacs_rep.value_bits
        ent = dist.entropy_bits
        ent_slack = dist.entropy_tail_bound_bits
        mean_total = dist.mean_index + dist.mean_tail_bound
        quantities = {
            "kl_bits": float(kl),
            "dcs_bits": float(dcs),
            "dacs_bits": float(dacs),
            "entropy_bits": float(ent),
            "entropy_tail_bound_bits": float(ent_slack),
            "mean_index": float(dist.mean_index),
            "mean_tail_bound": float(dist.mean_tail_bound),
            "d_inf_bits": float(dinf),
            "eps_stop": float(entry.eps_stop),
        }
        quad = kl_rep.abs_error_estimate + dcs_rep.abs_error_estimate
        ineqs = [
            Inequality("kl_le_dcs", kl, dcs, quad + 1e-12),
            Inequality("dcs_le_entropy", dcs, ent,
                       dcs_rep.abs_error_estimate + ent_slack + 1e-12),
            Inequality("entropy_le_dcs_plus_log2_e_plus_1", ent, dcs + LOG2_E_PLUS_1,
                       dcs_rep.abs_error_estimate + ent_slack + 1e-12),
            Inequality("chain_upper_kl_form", dcs + LOG2_E_PLUS_1,
                       kl_sandwich(kl), quad + 1e-12),
            Inequality("runtime_ge_exp2_dinf", 2.0**dinf, mean_total, 1e-9),
            Inequality("dcs_le_dacs", dcs, dacs,
                       dcs_rep.abs_error_estimate + dacs_rep.abs_error_estimate + 1e-12),
            Inequality("entropy_le_dacs_plus_1", ent, dacs + 1.0,
                       dacs_rep.abs_error_estimate + ent_slack + 1e-6),
        ]
        return PairBoundReport(entry.name, spec.descriptor(), quantities, ineqs)
    except (CrsToolkitError, OverflowError) as exc:  # OverflowError: h_max beyond floats
        return PairBoundReport(entry.name, spec.descriptor(), {}, [], error=str(exc))


def default_suite() -> list[SuiteEntry]:
    """Verification pairs spanning all four families, all with finite D_inf.

    The d = 2 gaussian keeps eps_stop 1e-6. Its survival mass decays
    quadratically, so at 1e-9 its law still needs about 32 000 steps behind
    the entropy enclosure (734 000 run densely to 1e-9), about ten times
    those at 1e-6, for a tail bound far below the chain slack anyway.
    """
    eight_q = (0.30, 0.20, 0.15, 0.10, 0.10, 0.05, 0.05, 0.05)
    eight_p = (0.125,) * 8
    return [
        SuiteEntry("laplace_identity", LaplaceSpec(1.0)),
        SuiteEntry("laplace_b075", LaplaceSpec(0.75)),
        SuiteEntry("laplace_b05", LaplaceSpec(0.5)),
        SuiteEntry("laplace_b025", LaplaceSpec(0.25)),
        SuiteEntry("gaussian_mu1_s05_d1", GaussianSpec(1.0, 0.5, 1)),
        SuiteEntry("gaussian_mu0_s06_d1", GaussianSpec(0.0, 0.6, 1)),
        SuiteEntry("gaussian_mu1_s05_d2", GaussianSpec(1.0, 0.5, 2), eps_stop=1e-6),
        SuiteEntry("discrete_half_pair", discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4)),
        SuiteEntry("discrete_eight", discrete_spec(eight_q, eight_p)),
        SuiteEntry("discrete_point_mass", discrete_spec((1.0, 0.0, 0.0, 0.0), (0.25,) * 4)),
        SuiteEntry("equality_width_c2", SyntheticSpec(equality_case_width(2.0))),
        SuiteEntry("equality_width_c4", SyntheticSpec(equality_case_width(4.0))),
        SuiteEntry("two_level_eps03", SyntheticSpec(two_level_width(0.3))),
        SuiteEntry("two_level_eps01", SyntheticSpec(two_level_width(0.1))),
    ]


def bound_suite(entries: Sequence[SuiteEntry] | None = None) -> BoundSuiteReport:
    """Verify the full bound chain on every pair; failures are per-pair."""
    if entries is None:
        entries = default_suite()
    return BoundSuiteReport([_verify_pair(e) for e in entries])


def parse_spec_json(obj: dict) -> DistributionPair:
    """Pair spec from its JSON descriptor (the verify file format)."""
    if not isinstance(obj, dict):
        raise InvalidParameterError(f"suite entry {obj!r} is not a JSON object")
    # str(): a JSON list or object given as the tag is unhashable
    family = FAMILIES.get(str(obj.get("family")))
    if family is None:
        raise InvalidParameterError(f"unknown family {obj.get('family')!r} in suite file")
    try:
        return family.from_json(obj)
    except KeyError as exc:
        raise InvalidParameterError(f"{family.family} entry needs the key {exc.args[0]!r}") from None


def load_suite_file(path: str) -> list[SuiteEntry]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"suite file line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, list):
        raise InvalidParameterError("suite file must be a JSON list of pair specs")
    entries = []
    for i, obj in enumerate(data):
        spec = parse_spec_json(obj)
        eps = json_number(obj, "eps_stop") if "eps_stop" in obj else SUITE_EPS_STOP
        if not 0.0 < eps < 1.0:
            raise InvalidParameterError(f"'eps_stop' must lie in (0, 1), got {eps!r}")
        entries.append(SuiteEntry(obj.get("name", f"pair_{i}"), spec, eps))
    return entries


STUDIES = {  # name: (sweep, row class, tolerances its sidecar records)
    "laplace": (laplace_sweep, LaplaceRow, {"eps_stop": SWEEP_EPS_STOP}),
    "gaussian": (gaussian_sweep, GaussianRow, {"dcs_tol_bits": DEFAULT_TOL_BITS}),
    "epsilon": (epsilon_family_study, EpsilonRow, {"eps_stop": SUITE_EPS_STOP}),
}


def write_sweep(path: str | None, study: str, rows: Sequence, params: dict) -> None:
    """Write a study's rows as CSV to path, or to stdout when path is None.
    A file gets a .meta.json sidecar: versions, grid, tolerances and params."""
    _, row, tolerances = STUDIES[study]
    text = "\n".join([row.header()] + [r.csv() for r in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    from importlib.metadata import version  # a 20 ms import that only a sidecar needs

    grid = [getattr(r, fields(row)[0].name) for r in rows]  # each row's first column
    meta = {"tool": "crs-toolkit", "version": __version__, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "sweep": study,
            "grid": grid, "tolerances": {**tolerances, **params}}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

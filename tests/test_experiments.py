import json
import math
import platform
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy

from crs_toolkit.errors import InvalidParameterError, SweepValidationError
from crs_toolkit.experiments import (
    DEFAULT_EPS_GRID,
    EpsilonRow,
    GaussianRow,
    LaplaceRow,
    SuiteEntry,
    bound_suite,
    default_suite,
    epsilon_family_study,
    gaussian_sweep,
    laplace_sweep,
    load_suite_file,
    parse_spec_json,
    spec_descriptor,
    write_sweep,
)
from crs_toolkit.measures import LaplaceSpec, SyntheticSpec, discrete_spec
from crs_toolkit.width import OptimalCsWidth, equality_case_width

LN2 = math.log(2.0)
GAMMA = float(np.euler_gamma)
LOG2_E1 = math.log2(math.e + 1.0)


def test_laplace_sweep_rows():
    rows = laplace_sweep([1.0, 0.5, 0.1])
    assert [r.b for r in rows] == [1.0, 0.5, 0.1]  # sorted by -ln b
    r1, r05, r01 = rows
    assert r1.delta_bits == 0.0
    assert r1.lower_digamma_nats <= 0.0 <= r1.upper_digamma_nats
    # delta * ln2 = 1 - ln 2 at b = 1/2, inside [gamma - 1/2, gamma - 1/4]
    assert r05.delta_bits * LN2 == pytest.approx(1.0 - LN2, abs=1e-9)
    assert GAMMA - 0.5 <= r05.delta_bits * LN2 <= GAMMA - 0.25
    assert GAMMA - 0.1 - 1e-9 <= r01.delta_bits * LN2 <= GAMMA - 0.05 + 1e-9
    for r in rows:
        assert r.delta_bits == r.dcs_bits - r.kl_bits


def test_laplace_sweep_rejects_bad_grid():
    with pytest.raises(InvalidParameterError):
        laplace_sweep([0.0, 0.5])


def test_laplace_row_validation_catches_bad_delta():
    row = LaplaceRow(b=0.5, neg_ln_b=math.log(2.0), kl_bits=0.3, dcs_bits=0.7,
                     delta_bits=0.1, lower_digamma_nats=GAMMA - 0.5,
                     upper_digamma_nats=GAMMA - 0.25, entropy_bits=1.0)
    with pytest.raises(SweepValidationError):
        row.validate()


def test_gaussian_sweep_rows():
    rows = gaussian_sweep([1, 2, 4])
    assert [r.d for r in rows] == [1, 2, 4]
    deltas = [r.delta_bits for r in rows]
    assert deltas == sorted(deltas)
    for r in rows:
        assert r.conjecture_half_log_bits == pytest.approx(
            0.5 * math.log2(r.kl_bits + 1.0), abs=1e-12)
    assert rows[0].kl_bits == pytest.approx((LN2 + 0.125) / LN2, abs=1e-9)


def test_gaussian_sweep_rejects_non_integer_dimension():
    # d used to be truncated to int(1.7) = 1
    with pytest.raises(InvalidParameterError, match="got 1.7"):
        gaussian_sweep([1.7])
    assert [r.d for r in gaussian_sweep([1.0])] == [1]


def test_gaussian_sweep_near_identity_sigma():
    rows = gaussian_sweep([1], mu=0.0, sigma=1.0 - 1e-12)
    assert abs(rows[0].delta_bits) < 1e-6
    assert abs(rows[0].kl_bits) < 1e-6


def test_epsilon_study_default_grid():
    rows = epsilon_family_study()
    assert tuple(r.eps for r in rows) == DEFAULT_EPS_GRID
    gaps = [r.gap_bits for r in rows]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert all(g <= LOG2_E1 + 1e-6 for g in gaps)
    # two-valued width: D_CS = -(e/(1+e)) log2 eps
    for r in rows:
        expect = -(math.e / (1.0 + math.e)) * math.log2(r.eps)
        assert r.dcs_bits == pytest.approx(expect, abs=1e-9)


def test_epsilon_study_requires_decreasing_grid():
    with pytest.raises(InvalidParameterError):
        epsilon_family_study([0.1, 0.3])


def test_csv_headers_and_formatting(tmp_path, capsys):
    rows = epsilon_family_study([0.3, 0.1])
    write_sweep(None, "epsilon", rows, {})
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0] == "eps,dcs_bits,entropy_bits,gap_bits"
    assert len(lines) == 3
    assert LaplaceRow.header().startswith("b,neg_ln_b,kl_bits,dcs_bits,delta_bits,")
    assert GaussianRow.header() == "d,kl_bits,dcs_bits,delta_bits,conjecture_half_log_bits"
    out = tmp_path / "eps.csv"
    write_sweep(str(out), "epsilon", rows, {})
    assert out.read_text() == text
    meta = json.loads((tmp_path / "eps.csv.meta.json").read_text())
    assert meta["tool"] == "crs-toolkit"
    assert meta["sweep"] == "epsilon"
    assert meta["grid"] == [0.3, 0.1]
    assert "version" in meta and "tolerances" in meta
    assert (meta["python"], meta["numpy"], meta["scipy"]) == (
        platform.python_version(), np.__version__, scipy.__version__)


@pytest.mark.parametrize("row_class", [LaplaceRow, GaussianRow, EpsilonRow])
def test_row_header_names_the_columns_its_csv_prints(row_class):
    row = row_class(*range(1, len(fields(row_class)) + 1))  # a distinct value per field
    names, cells = row.header().split(","), row.csv().split(",")
    assert len(cells) == len(names)
    assert [float(c) for c in cells] == [getattr(row, name) for name in names]
    assert set(names) == {f.name for f in fields(row)} - {"entropy_tail_bound_bits"}


def test_default_suite_shape():
    entries = default_suite()
    assert len(entries) >= 12
    families = {e.spec.family for e in entries}
    assert families == {"laplace", "gaussian", "discrete", "synthetic"}
    assert all(math.isfinite(make_dinf(e)) for e in entries)


def make_dinf(entry):
    from crs_toolkit.width import d_infinity, width_eval
    return d_infinity(width_eval(entry.spec))


def test_bound_suite_subset_passes():
    entries = [
        SuiteEntry("laplace_half", LaplaceSpec(0.5)),
        SuiteEntry("discrete_example", discrete_spec((0.5, 0.5, 0.0, 0.0), (0.25,) * 4)),
        SuiteEntry("equality4", SyntheticSpec(equality_case_width(4.0))),
    ]
    report = bound_suite(entries)
    assert report.passed
    by_name = {p.name: p for p in report.pairs}
    q = by_name["discrete_example"].quantities
    assert q["kl_bits"] == pytest.approx(1.0, abs=1e-9)
    assert q["dcs_bits"] == pytest.approx(1.0, abs=1e-9)
    assert q["entropy_bits"] == pytest.approx(2.0, abs=1e-7)
    assert q["mean_index"] + q["mean_tail_bound"] == pytest.approx(2.0, abs=1e-9)
    assert q["d_inf_bits"] == pytest.approx(1.0, abs=1e-12)
    names = [i.name for i in by_name["laplace_half"].inequalities]
    assert names == ["kl_le_dcs", "dcs_le_entropy", "entropy_le_dcs_plus_log2_e_plus_1",
                     "chain_upper_kl_form", "runtime_ge_exp2_dinf", "dcs_le_dacs",
                     "entropy_le_dacs_plus_1"]
    eq4 = by_name["equality4"].quantities
    assert eq4["kl_bits"] == pytest.approx(2.0, abs=1e-9)
    assert eq4["dcs_bits"] == pytest.approx(2.0, abs=1e-9)


def test_bound_suite_isolates_failures():
    entries = [
        SuiteEntry("bad", SyntheticSpec(OptimalCsWidth(0.5))),  # infinite h_max
        SuiteEntry("good", LaplaceSpec(0.75)),
    ]
    report = bound_suite(entries)
    assert not report.passed
    assert report.pairs[0].error is not None
    assert report.pairs[1].passed
    blob = report.to_json()
    assert "error" in blob[0] and "error" not in blob[1]


def test_bound_report_json_schema():
    report = bound_suite([SuiteEntry("one", LaplaceSpec(0.5))])
    blob = json.loads(json.dumps(report.to_json()))
    assert isinstance(blob, list)
    entry = blob[0]
    assert set(entry) == {"name", "spec", "quantities", "inequalities"}
    assert entry["name"] == "one"
    ineq = entry["inequalities"][0]
    assert set(ineq) == {"name", "lhs", "rhs", "margin", "pass"}
    assert ineq["margin"] == pytest.approx(ineq["rhs"] - ineq["lhs"], abs=1e-15)


def test_spec_descriptor_and_parse_roundtrip(tmp_path):
    specs = [
        {"family": "laplace", "b": 0.5},
        {"family": "gaussian", "mu": 1.0, "sigma": 0.5, "d": 2},
        {"family": "discrete", "q": [0.5, 0.5], "p": [0.25, 0.75]},
        {"family": "synthetic", "width": "equality", "c": 4.0},
        {"family": "synthetic", "width": "two_level", "eps": 0.1},
    ]
    for obj in specs:
        spec = parse_spec_json(obj)
        assert spec.family == obj["family"]
    for obj in [*specs[:3], {"family": "laplace", "b": 1.0}]:
        assert spec_descriptor(parse_spec_json(obj)) == obj
    table = tmp_path / "w.csv"
    table.write_text("h,w\n0,1\n0.5,0.5\n1.5,0\n")
    spec = parse_spec_json({"family": "synthetic", "width": "table", "path": str(table)})
    assert spec.family == "synthetic" and spec.w.h_max == 1.5
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"name": "lp", "family": "laplace", "b": 0.5,
                                 "eps_stop": 1e-6}]))
    entries = load_suite_file(str(path))
    assert entries[0].name == "lp" and entries[0].eps_stop == 1e-6
    with pytest.raises(InvalidParameterError):
        parse_spec_json({"family": "nope"})
    with pytest.raises(InvalidParameterError):
        parse_spec_json({"family": "synthetic", "width": "mystery"})


# the b = 1 row of `experiment laplace`, which validates
_LAPLACE_B1 = LaplaceRow(b=1.0, neg_ln_b=0.0, kl_bits=0.0, dcs_bits=0.0, delta_bits=0.0,
                         lower_digamma_nats=GAMMA - 1.0, upper_digamma_nats=GAMMA - 0.5,
                         entropy_bits=0.0)


@pytest.mark.parametrize("row, broken", [
    (replace(_LAPLACE_B1, lower_digamma_nats=0.1), "digamma band violated at b=1.0"),
    (replace(_LAPLACE_B1, entropy_bits=5.0), "bound chain violated at b=1.0"),
    (GaussianRow(d=1, kl_bits=0.3, dcs_bits=0.7, delta_bits=0.5, conjecture_half_log_bits=0.2),
     "delta identity violated at d=1"),
    (GaussianRow(d=2, kl_bits=0.7, dcs_bits=0.3, delta_bits=0.3 - 0.7,
                 conjecture_half_log_bits=0.4), "KL exceeds D_CS at d=2"),
    (EpsilonRow(eps=0.1, dcs_bits=1.0, entropy_bits=2.0, gap_bits=0.5),
     "gap identity violated at eps=0.1"),
], ids=["laplace_digamma", "laplace_chain", "gaussian_delta", "gaussian_kl", "epsilon_gap"])
def test_sweep_row_validate_names_the_broken_check(row, broken):
    _LAPLACE_B1.validate()
    with pytest.raises(SweepValidationError, match=f"^{broken}$"):
        row.validate()


def test_epsilon_row_self_validation():
    with pytest.raises(SweepValidationError):
        EpsilonRow(eps=0.1, dcs_bits=1.0, entropy_bits=5.0, gap_bits=4.0).validate()


def test_epsilon_row_checks_dcs_le_entropy():
    with pytest.raises(SweepValidationError, match="outside"):
        EpsilonRow(eps=0.1, dcs_bits=5.0, entropy_bits=1.0, gap_bits=-4.0).validate()
    # a gap below 0 is forgiven by the truncated law's tail bound, and only by it
    ent = 1.0 - 2e-9
    EpsilonRow(eps=0.1, dcs_bits=1.0, entropy_bits=ent, gap_bits=ent - 1.0,
               entropy_tail_bound_bits=3e-9).validate()
    with pytest.raises(SweepValidationError, match="outside"):
        EpsilonRow(eps=0.1, dcs_bits=1.0, entropy_bits=ent, gap_bits=ent - 1.0,
                   entropy_tail_bound_bits=1e-9).validate()

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crs_toolkit import __version__, cli
from crs_toolkit.width import GaussianWidth


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_divergence_cs(capsys):
    code, out, _ = run_cli(capsys, "divergence", "--family", "laplace", "--b", "0.5",
                           "--kind", "cs")
    assert code == 0
    assert out == "0.721347520\n"


def test_golden_grs_entropy_discrete(capsys):
    code, out, _ = run_cli(capsys, "grs", "entropy", "--family", "discrete",
                           "--q", "0.5,0.5,0,0", "--p", "0.25,0.25,0.25,0.25")
    assert code == 0
    assert out == "2.000000000\n"


def test_golden_divergence_kl_gaussian(capsys):
    code, out, _ = run_cli(capsys, "divergence", "--family", "gaussian", "--mu", "1",
                           "--sigma", "0.5", "--d", "1", "--kind", "kl")
    assert code == 0
    assert out == "1.180336880\n"


def test_divergence_acs_and_json(capsys):
    code, out, _ = run_cli(capsys, "divergence", "--family", "discrete",
                           "--q", "0.5,0.5,0,0", "--p", "0.25,0.25,0.25,0.25",
                           "--kind", "acs", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "ACS"
    assert blob["value_bits"] == pytest.approx(2.0, abs=1e-12)
    assert set(blob) == {"kind", "value_bits", "abs_error_estimate", "method", "converged"}
    assert blob["converged"] is True


def test_divergence_json_flags_an_unconverged_result(capsys):
    # a tolerance below float resolution spends the panel budget and fails
    code, out, err = run_cli(capsys, "divergence", "--family", "laplace", "--b", "0.5",
                             "--kind", "acs", "--tol", "1e-18", "--format", "json")
    assert code == 0 and err.startswith("warning: error estimate")
    assert json.loads(out)["converged"] is False


def test_parameter_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "divergence", "--family", "laplace", "--b", "2",
                           "--kind", "cs")
    assert code == 2
    assert "error" in err
    # a NaN probability printed 1.000000000 (exit 0) or ran the recursion out
    # of steps (exit 1); a fractional dimension was truncated to an integer
    for argv in (("divergence", "--family", "discrete", "--q", "nan,1", "--p", "0.5,0.5",
                  "--kind", "kl"),
                 ("grs", "entropy", "--family", "discrete", "--q", "0.5,0.5", "--p", "nan,1"),
                 ("experiment", "gaussian", "--grid", "1.5,2.9")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, err = run_cli(capsys, "divergence", "--family", "discrete", "--q", "0.5,x",
                             "--p", "0.5,0.5", "--kind", "kl")
    assert (code, out, err) == (2, "", "error: bad numeric list '0.5,x'\n")


def test_missing_flags_exit_2(capsys):
    code, _, err = run_cli(capsys, "divergence", "--family", "laplace", "--kind", "cs")
    assert code == 2 and "--b" in err
    code, _, err = run_cli(capsys, "divergence", "--family", "gaussian", "--mu", "1",
                           "--kind", "cs")
    assert code == 2 and "--sigma" in err
    code, _, err = run_cli(capsys, "divergence", "--family", "synthetic", "--kind", "kl")
    assert code == 2 and "--width-table" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["divergence", "--family", "laplace", "--b", "0.5"])  # no --kind
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_grs_mean_and_json(capsys):
    code, out, _ = run_cli(capsys, "grs", "mean", "--family", "discrete",
                           "--q", "0.5,0.5,0,0", "--p", "0.25,0.25,0.25,0.25")
    assert code == 0
    mean = float(out)
    assert mean == pytest.approx(2.0, abs=1e-9)
    code, out, _ = run_cli(capsys, "grs", "entropy", "--family", "laplace", "--b", "0.5",
                           "--eps-stop", "1e-6", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"p", "tail_mass", "entropy_bits", "entropy_tail_bound_bits",
                         "mean_index", "mean_tail_bound"}


def test_grs_mean_prints_expected_index(capsys):
    # E[K] = h_max; the head sum alone read 1.999380761 and 3.895419765
    code, out, _ = run_cli(capsys, "grs", "mean", "--family", "laplace", "--b", "0.5")
    assert (code, out) == (0, "2.000000000\n")
    code, out, _ = run_cli(capsys, "grs", "mean", "--family", "gaussian", "--mu", "1",
                           "--sigma", "0.5", "--d", "1")
    assert (code, out) == (0, f"{GaussianWidth(1.0, 0.5, 1).h_max:.9f}\n")


@pytest.mark.parametrize("argv", [
    ("grs", "entropy", "--family", "laplace", "--b", "0.5", "--seed", "3"),
    ("grs", "entropy", "--family", "laplace", "--b", "0.5", "--runs", "10"),
    ("grs", "mean", "--family", "laplace", "--b", "0.5", "--seed", "3"),
    ("grs", "mean", "--family", "laplace", "--b", "0.5", "--runs", "10"),
    ("grs", "sample", "--family", "laplace", "--b", "0.5", "--eps-stop", "1e-6"),
    ("grs", "sample", "--family", "laplace", "--b", "0.5", "--runs", "10"),
    ("grs", "empirical", "--family", "laplace", "--b", "0.5", "--eps-stop", "1e-6"),
    ("experiment", "epsilon", "--seed", "3"),
], ids=["entropy_seed", "entropy_runs", "mean_seed", "mean_runs", "sample_eps_stop",
        "sample_runs", "empirical_eps_stop", "experiment_seed"])
def test_unread_flags_exit_2(argv):
    # each subcommand takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


def test_grs_sample_deterministic(capsys):
    args = ("grs", "sample", "--family", "laplace", "--b", "0.5", "--seed", "42")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    x_txt, k_txt = out1.split()
    assert int(k_txt) >= 1
    float(x_txt)


FOUR_ATOM_PAIR = ("--family", "discrete", "--q", "0.5,0.5,0,0", "--p", "0.25,0.25,0.25,0.25")
GAUSSIAN_D2_PAIR = ("--family", "gaussian", "--mu", "1", "--sigma", "0.5", "--d", "2")


@pytest.mark.parametrize("pair, plain, blob", [
    (FOUR_ATOM_PAIR, "0 2\n", '{"x": 0, "k": 2}\n'),
    (GAUSSIAN_D2_PAIR, "1.012293702,0.753696779 1\n",
     '{"x": [1.0122937017490639, 0.7536967787531172], "k": 1}\n'),
], ids=["integer_point", "vector_point"])
def test_grs_sample_output_bytes(capsys, pair, plain, blob):
    for fmt, want in (("plain", plain), ("json", blob)):
        code, out, _ = run_cli(capsys, "grs", "sample", *pair, "--seed", "3", "--format", fmt)
        assert (code, out) == (0, want)


def test_computation_error_exits_1(capsys):
    # a CrsToolkitError that is not a parameter error: the recursion's step
    # cap. ROADMAP item 1 (exact step-width laws) will let this law finish;
    # this test then needs another computation that cannot be completed
    code, out, err = run_cli(capsys, "grs", "entropy", "--family", "discrete",
                             "--q", "0.999999,0.000001", "--p", "0.000001,0.999999")
    assert (code, out) == (1, "")
    assert err == "error: survival mass still 3.679e-01 after 1000000 steps; raise eps_stop\n"


# a finite mu whose h_max = exp(d t0) leaves the float range
OVERFLOW_PAIR = ("--family", "gaussian", "--mu", "1.45", "--sigma", "0.89", "--d", "250")
OVERFLOW_ERROR = "gaussian h_max = exp(d t0) = exp(1293.26) is beyond the float range"


def test_h_max_overflow_is_a_parameter_error(capsys):
    # an OverflowError printed a traceback and exited 1
    for argv in (("divergence", "--kind", "cs", *OVERFLOW_PAIR), ("grs", "sample", *OVERFLOW_PAIR)):
        assert run_cli(capsys, *argv) == (2, "", f"error: {OVERFLOW_ERROR}\n")


def test_verify_records_an_h_max_overflow_as_its_pair_error(tmp_path, capsys):
    # the overflow used to end the whole suite; now only its own pair fails
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"family": "gaussian", "mu": 1.45, "sigma": 0.89, "d": 250},
        {"family": "laplace", "b": 0.5},
    ]))
    code, out, err = run_cli(capsys, "verify", "--suite", str(suite))
    overflow, laplace = json.loads(out)
    assert (code, err) == (1, "")
    assert overflow["error"] == OVERFLOW_ERROR and overflow["inequalities"] == []
    assert "error" not in laplace and len(laplace["inequalities"]) == 7
    assert all(i["pass"] for i in laplace["inequalities"])


def test_verify_report_names_each_pair(tmp_path, capsys):
    # the report carried no name, so a pair of many was known only by its spec
    table = tmp_path / "w.csv"
    table.write_text("h,w\n0,1\n0.5,0.5\n1.5,0\n")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"name": "big", "family": "laplace", "b": 0.25},
        {"name": "tab", "family": "synthetic", "width": "table", "path": str(table)},
        {"family": "laplace", "b": 0.5},
    ]))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(suite))
    report = json.loads(out)
    assert code == 0
    assert [entry["name"] for entry in report] == ["big", "tab", "pair_2"]
    assert all(next(iter(entry)) == "name" for entry in report)


def test_grs_empirical_output(capsys):
    code, out, _ = run_cli(capsys, "grs", "empirical", "--family", "discrete",
                           "--q", "0.5,0.5,0,0", "--p", "0.25,0.25,0.25,0.25",
                           "--runs", "2000", "--seed", "1")
    assert code == 0
    counts = {}
    for line in out.strip().split("\n"):
        k, c = line.split()
        counts[int(k)] = int(c)
    assert sum(counts.values()) == 2000
    assert counts[1] > 800  # about half accept at the first step
    code, out, _ = run_cli(capsys, "grs", "empirical", *FOUR_ATOM_PAIR,
                           "--runs", "2000", "--seed", "1", "--format", "json")
    assert code == 0
    assert out == ('{"n": 2000, "histogram": {"1": 1023, "2": 515, "3": 212, "4": 126, '
                   '"5": 55, "6": 32, "7": 22, "8": 7, "9": 6, "12": 1, "13": 1}}\n')
    assert json.loads(out)["histogram"] == {str(k): c for k, c in sorted(counts.items())}


def check_sweep_bytes(capsys, tmp_path, argv, csv_text, sidecar):
    """The sweep's CSV on stdout and through --out, and its sidecar, byte for byte."""
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, csv_text)
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_text() == csv_text
    meta = (tmp_path / "sweep.csv.meta.json").read_text()
    versions = ('  "numpy": ', '  "python": ', '  "scipy": ')
    sidecar = {**sidecar, "tool": "crs-toolkit", "version": __version__}
    assert "".join(line for line in meta.splitlines(keepends=True)
                   if not line.startswith(versions)) == json.dumps(
        sidecar, indent=2, sort_keys=True) + "\n"


def test_experiment_epsilon_stdout(tmp_path, capsys):
    check_sweep_bytes(capsys, tmp_path, ("experiment", "epsilon", "--grid", "0.3,0.1"),
                      "eps,dcs_bits,entropy_bits,gap_bits\n"
                      "0.3,1.2698236,2.50291115,1.23308755\n"
                      "0.1,2.42852403,4.01253358,1.58400955\n",
                      {"grid": [0.3, 0.1], "sweep": "epsilon", "tolerances": {"eps_stop": 1e-9}})
    check_sweep_bytes(capsys, tmp_path, ("experiment", "epsilon", "--grid", ""),
                      "eps,dcs_bits,entropy_bits,gap_bits\n",
                      {"grid": [], "sweep": "epsilon", "tolerances": {"eps_stop": 1e-9}})


def test_experiment_gaussian_file_and_sidecar(tmp_path, capsys):
    check_sweep_bytes(capsys, tmp_path, ("experiment", "gaussian", "--grid", "1,2"),
                      "d,kl_bits,dcs_bits,delta_bits,conjecture_half_log_bits\n"
                      "1,1.18033688,1.73438206,0.55404518,0.56227553\n"
                      "2,2.36067376,3.23723974,0.876565984,0.874375249\n",
                      {"grid": [1, 2], "sweep": "gaussian", "tolerances": {
                          "dcs_tol_bits": 1e-9, "mu": 1.0, "sigma": 0.5}})
    check_sweep_bytes(capsys, tmp_path, ("experiment", "gaussian", "--grid", "1,2",
                                         "--mu", "0.5", "--sigma", "0.7"),
                      "d,kl_bits,dcs_bits,delta_bits,conjecture_half_log_bits\n"
                      "1,0.327022818,0.719363632,0.392340815,0.204096589\n"
                      "2,0.654045635,1.28576431,0.631718671,0.362999519\n",
                      {"grid": [1, 2], "sweep": "gaussian", "tolerances": {
                          "dcs_tol_bits": 1e-9, "mu": 0.5, "sigma": 0.7}})


@pytest.mark.parametrize("kind", ["kl", "cs", "acs"])
def test_bad_tol_exits_2_for_every_kind(capsys, kind):
    # the closed-form KL reads no tol, but refuses a bad one like the others
    code, out, err = run_cli(capsys, "divergence", "--family", "laplace", "--b", "0.5",
                             "--kind", kind, "--tol", "-1")
    assert (code, out) == (2, "")
    assert err == "error: tol must be positive, got -1.0\n"


def test_unconverged_divergence_warns(capsys):
    # a tol below float resolution: the value prints, with a warning beside it
    code, out, err = run_cli(capsys, "divergence", "--family", "laplace", "--b", "0.5",
                             "--kind", "acs", "--tol", "1e-18")
    assert (code, out) == (0, "1.442695041\n")
    assert err.startswith("warning: error estimate ") and err.endswith(
        " bits exceeds the requested tolerance\n")


def test_experiment_laplace_small_grid(tmp_path, capsys):
    check_sweep_bytes(capsys, tmp_path, ("experiment", "laplace", "--grid", "1,0.5"),
                      "b,neg_ln_b,kl_bits,dcs_bits,delta_bits,lower_digamma_nats,"
                      "upper_digamma_nats,entropy_bits\n"
                      "1,0,0,0,0,-0.422784335,0.0772156649,0\n"
                      "0.5,0.693147181,0.27865248,0.72134752,0.442695041,0.0772156649,"
                      "0.327215665,1.53386311\n",
                      {"grid": [1.0, 0.5], "sweep": "laplace", "tolerances": {"eps_stop": 1e-6}})


def test_width_table_synthetic_pipeline(tmp_path, capsys):
    table = tmp_path / "w.csv"
    table.write_text("h,w\n0,1\n0.5,0.5\n1.5,0\n")
    code, out, _ = run_cli(capsys, "divergence", "--family", "synthetic",
                           "--width-table", str(table), "--kind", "cs")
    assert code == 0
    assert out == "0.500000000\n"
    code, out, _ = run_cli(capsys, "grs", "entropy", "--family", "synthetic",
                           "--width-table", str(table))
    assert code == 0
    # recursion: q1 = 3/4, then geometric with ratio 1/2 inside the flat
    ent = float(out)
    assert ent > 0.0
    bad = tmp_path / "bad.csv"
    bad.write_text("h,w\n0,1\n0.5,0.7\n1.5,0\n")
    code, _, err = run_cli(capsys, "divergence", "--family", "synthetic",
                           "--width-table", str(bad), "--kind", "cs")
    assert code == 2
    code, _, err = run_cli(capsys, "divergence", "--family", "synthetic",
                           "--width-table", str(tmp_path / "missing.csv"), "--kind", "cs")
    assert code == 2
    # a cell that is not a number and a row of three cells name their line
    for text in ("h,w\n0,1\n0.5,x\n1.5,0\n", "h,w\n0,1\n0.5,0.5,0\n1.5,0\n"):
        bad.write_text(text)
        for argv in (("divergence", "--kind", "cs"), ("grs", "entropy")):
            code, out, err = run_cli(capsys, *argv, "--family", "synthetic",
                                     "--width-table", str(bad))
            assert (code, out) == (2, "") and "width table line 3" in err
    bad.write_bytes(b"h,w\n0,1\n0.5,\xff\n1.5,0\n")  # not UTF-8
    for path in (bad, tmp_path):
        code, out, err = run_cli(capsys, "divergence", "--family", "synthetic",
                                 "--width-table", str(path), "--kind", "cs")
        assert (code, out) == (2, "") and err.startswith("error: ")


def test_verify_custom_suite_file(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"name": "lp", "family": "laplace", "b": 0.5},
        {"name": "eq", "family": "synthetic", "width": "equality", "c": 2.0},
    ]))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(suite))
    assert code == 0
    report = json.loads(out)
    assert len(report) == 2
    assert all(i["pass"] for entry in report for i in entry["inequalities"])
    # a file that is not JSON names its line; a directory or no file exits 2
    suite.write_text('[{"family": "laplace", "b": 0.5},\n{"family": }]\n')
    code, out, err = run_cli(capsys, "verify", "--suite", str(suite))
    assert (code, out) == (2, "") and "suite file line 2" in err
    suite.write_text('{"family": "laplace", "b": 0.5}\n')
    code, out, err = run_cli(capsys, "verify", "--suite", str(suite))
    assert (code, out, err) == (2, "", "error: suite file must be a JSON list of pair specs\n")
    for path in (tmp_path, tmp_path / "missing.json"):
        code, out, err = run_cli(capsys, "verify", "--suite", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("entry,named", [
    ({"family": "laplace"}, "'b'"),
    (3, "entry 3"),
    ({"family": "gaussian", "mu": 1.0, "sigma": 0.5, "d": 2.5}, "got 2.5"),
    ({"family": "laplace", "b": "x"}, "'b'"),
    ({"family": "synthetic", "width": "equality", "c": "x"}, "'c'"),
    ({"family": "laplace", "b": 0.5, "eps_stop": "x"}, "'eps_stop'"),
    ({"family": "laplace", "b": 0.5, "eps_stop": None}, "'eps_stop'"),
    ({"family": "laplace", "b": 0.5, "eps_stop": 2}, "'eps_stop'"),
    ({"family": "synthetic", "width": "equality", "c": float("nan")}, "c >= 1"),
    ({"family": "gaussian", "mu": 1.0, "sigma": 0.5, "d": float("nan")}, "got nan"),
    ({"family": "gaussian", "mu": 1.0, "sigma": 0.5, "d": float("inf")}, "got inf"),
])
def test_verify_malformed_suite_entry_exits_2(tmp_path, capsys, entry, named):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([entry]))
    code, out, err = run_cli(capsys, "verify", "--suite", str(suite))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


# sha256 of `verify --suite default` stdout (numpy 2.4.6, scipy 1.17.1):
# the report's bytes, every digit of it
VERIFY_DEFAULT_SHA256 = "337425e29c6438e34e72a9e079ccdf35def33b43a4eb40ef80b4395f1a1abf47"


def test_verify_default_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "default")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DEFAULT_SHA256
    report = json.loads(out)
    assert len(report) >= 12
    assert {entry["spec"]["family"] for entry in report} == {
        "laplace", "gaussian", "discrete", "synthetic"}
    assert all(i["pass"] for entry in report for i in entry["inequalities"])


def test_verify_exit_1_on_failure(tmp_path, capsys, monkeypatch):
    from crs_toolkit.experiments import BoundSuiteReport, Inequality, PairBoundReport
    fake = BoundSuiteReport([PairBoundReport(
        "fake", {"family": "laplace", "b": 0.5}, {},
        [Inequality("kl_le_dcs", 1.0, 0.5, 0.0)])])
    monkeypatch.setattr(cli, "bound_suite", lambda entries=None: fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "default")
    assert code == 1
    assert json.loads(out)[0]["inequalities"][0]["pass"] is False


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_closed_stdout_ends_quietly():
    # a reader that stops early, as `| head -c 50` does: the CLI printed
    # "error: [Errno 32] Broken pipe" and exited 2, as for a bad parameter.
    # The law's JSON is about 850 KB, far more than a pipe holds, so the
    # CLI is still writing when the reader closes
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "crs_toolkit.cli", "grs", "entropy", "--family", "laplace",
         "--b", "0.05", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
    assert head.startswith(b'{"p": [0.188575078')

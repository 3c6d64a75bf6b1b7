"""Command-line front end.

    crs-toolkit divergence --family {laplace|gaussian|discrete|synthetic}
                 [--b B] [--mu M --sigma S --d D] [--q CSV --p CSV]
                 [--width-table PATH] --kind {kl|cs|acs} [--tol T]
    crs-toolkit grs {entropy|mean} <pair flags> [--eps-stop E]
    crs-toolkit grs sample <pair flags> [--seed N]
    crs-toolkit grs empirical <pair flags> [--seed N] [--runs N]
    crs-toolkit experiment {laplace|gaussian|epsilon} [--grid CSV] [--out PATH]
    crs-toolkit verify --suite {default|PATH}

Exit status: 0 on success, 1 when a verified bound fails or a computation
cannot be completed, 2 on usage, parameter or input-file errors. Scalars
carry nine digits after the decimal point; all values are bits unless a
column name says nats. Identical argv and seed give byte-identical output.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from . import __version__
from .divergences import (
    DEFAULT_TOL_BITS,
    alternative_divergence,
    channel_simulation_divergence,
    kl_divergence,
)
from .errors import CrsToolkitError, InvalidParameterError
from .experiments import STUDIES, bound_suite, load_suite_file, write_sweep
from .grs import grs_empirical, grs_index_distribution, grs_sample
from .measures import FAMILIES, DistributionPair
from .streams import RngStream
from .width import width_eval


def _num(x: float) -> str:
    return f"{x:.9f}"


def _add_pair_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--b", type=float, help="laplace scale in (0, 1]")
    p.add_argument("--mu", type=float, help="gaussian mean")
    p.add_argument("--sigma", type=float, help="gaussian scale in (0, 1)")
    p.add_argument("--d", type=int, help="gaussian dimension")
    p.add_argument("--q", type=str, help="target probabilities, comma separated")
    p.add_argument("--p", type=str, help="proposal probabilities, comma separated")
    p.add_argument("--width-table", type=str, help="CSV width table (h,w) for synthetic")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise InvalidParameterError(f"bad numeric list {text!r}") from exc


def _pair_spec(args) -> DistributionPair:
    """Pair spec from the pair flags, read as a suite-file descriptor."""
    flags = {"b": args.b, "mu": args.mu, "sigma": args.sigma, "d": args.d,
             "q": None if args.q is None else _csv_floats(args.q),
             "p": None if args.p is None else _csv_floats(args.p), "path": args.width_table}
    # a table is the only synthetic width the CLI reads; other families ignore "width"
    desc = {"family": args.family, "width": "table"}
    desc.update((key, value) for key, value in flags.items() if value is not None)
    try:
        return FAMILIES[args.family].from_json(desc)
    except KeyError as exc:
        flag = "--width-table" if exc.args[0] == "path" else f"--{exc.args[0]}"
        raise InvalidParameterError(f"{args.family} needs {flag}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="crs-toolkit", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"crs-toolkit {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    div = sub.add_parser("divergence", help="compute KL, CS or ACS divergence of a pair")
    _add_pair_flags(div)
    div.add_argument("--kind", required=True, choices=["kl", "cs", "acs"])
    div.add_argument("--tol", type=float, default=DEFAULT_TOL_BITS,
                     help="quadrature tolerance in bits (default 1e-9)")
    div.add_argument("--format", choices=["plain", "json"], default="plain")

    grs = sub.add_parser("grs", help="greedy rejection sampling runs and index law")
    grs_sub = grs.add_subparsers(dest="action", required=True)
    for action in ("entropy", "mean", "sample", "empirical"):
        ap = grs_sub.add_parser(action)
        _add_pair_flags(ap)
        if action in ("entropy", "mean"):
            ap.add_argument("--eps-stop", type=float, default=None,
                            help="survival cutoff of the exact recursion")
        else:
            ap.add_argument("--seed", type=int, default=0)
        if action == "empirical":
            ap.add_argument("--runs", type=int, default=1000, help="replicas")
        ap.add_argument("--format", choices=["plain", "json"], default="plain")

    exp = sub.add_parser("experiment", help="parameter sweeps emitting CSV")
    exp_sub = exp.add_subparsers(dest="study", required=True)
    for study, (sweep, _, _) in STUDIES.items():
        ep = exp_sub.add_parser(study)
        ep.add_argument("--grid", type=str, default=None, help="comma-separated grid values")
        ep.add_argument("--out", type=str, default=None, help="CSV output path (stdout if absent)")
        for param in _sweep_params(sweep):
            ep.add_argument(f"--{param.name}", type=float, default=param.default)

    ver = sub.add_parser("verify", help="run the bound-verification suite")
    ver.add_argument("--suite", type=str, default="default",
                     help="'default' or a path to a JSON list of pair specs")
    return top


def _run_divergence(args) -> int:
    spec = _pair_spec(args)
    if args.kind == "kl":
        report = kl_divergence(spec, route=spec.kl_route, tol=args.tol)
    else:
        fn = channel_simulation_divergence if args.kind == "cs" else alternative_divergence
        report = fn(width_eval(spec), args.tol)
    if not report.converged:
        print(f"warning: error estimate {report.abs_error_estimate:.3e} bits "
              "exceeds the requested tolerance", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(_num(report.value_bits))
    return 0


def _run_grs(args) -> int:
    spec = _pair_spec(args)
    w = width_eval(spec)
    if args.action in ("entropy", "mean"):
        dist = grs_index_distribution(w, eps_stop=args.eps_stop)
        if args.format == "json":
            print(json.dumps(dist.to_json()))
        else:
            # E[K]: the head sum plus the mean of the steps beyond it
            value = (dist.entropy_bits if args.action == "entropy"
                     else dist.mean_index + dist.mean_tail_bound)
            print(_num(value))
        return 0
    stream = RngStream(args.seed, 0)
    if args.action == "sample":
        x, k = grs_sample(spec, w, stream)
        if args.format == "json":
            xval = x.tolist() if isinstance(x, np.ndarray) else x
            print(json.dumps({"x": xval, "k": k}))
        else:
            if isinstance(x, np.ndarray):
                xtxt = ",".join(_num(v) for v in x)
            elif isinstance(x, int):
                xtxt = str(x)
            else:
                xtxt = _num(x)
            print(f"{xtxt} {k}")
        return 0
    result = grs_empirical(spec, w, stream, args.runs)
    hist = result.histogram
    if args.format == "json":
        print(json.dumps({"n": args.runs, "histogram": {str(k): v for k, v in sorted(hist.items())}}))
    else:
        for k in sorted(hist):
            print(f"{k} {hist[k]}")
    return 0


def _sweep_params(sweep) -> list[inspect.Parameter]:
    """A sweep's keyword parameters after its grid: each is a float flag."""
    return list(inspect.signature(sweep).parameters.values())[1:]


def _run_experiment(args) -> int:
    sweep = STUDIES[args.study][0]
    params = {p.name: getattr(args, p.name) for p in _sweep_params(sweep)}
    grid = _csv_floats(args.grid) if args.grid is not None else None
    write_sweep(args.out, args.study, sweep(grid, **params), params)
    return 0


def _run_verify(args) -> int:
    entries = None if args.suite == "default" else load_suite_file(args.suite)
    report = bound_suite(entries)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "divergence":
            return _run_divergence(args)
        if args.command == "grs":
            return _run_grs(args)
        if args.command == "experiment":
            return _run_experiment(args)
        return _run_verify(args)
    # OverflowError: parameters whose width has h_max beyond the float range
    except (InvalidParameterError, OSError, UnicodeDecodeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrsToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

Subcommands: forward, invert, cosh-forward, cosh-invert, verify, cond-sweep,
null-experiment. Exit codes are a stable contract:

    0  success
    2  non-convergence (or verify-suite failure); reports are still written
    3  input error (unreadable/malformed CSV, non-finite value, wrong grid,
       fewer than 8 or more than MAX_DEGREE + 1 rows, values on which the
       transform overflows) or an output file (--output, --plot, --json)
       that cannot be written
    4  parameter error (bad mu/eta, missing mean value, bad sizes, or a
       malformed command line: unknown flag or choice, unparsable number,
       empty --output, --plot or --json path)
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from functools import lru_cache

import numpy as np

from .cosh import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SolveReport,
    WeightParam,
    _check_stopping,
    condition_estimate,
    cosh_forward,
    cosh_invert_direct,
    cosh_invert_mean_constrained,
    cosh_invert_neumann,
    null_experiment,
)
from .errors import FhtChebError, InputError, InvalidSizeError, ParameterError
from .fht import evaluate, fht_forward_d, fht_inverse_d
from .grids import GridFn, GridKind, cgl_nodes, weight_w
from .report import read_csv, uniform_grid, write_csv, write_json_report, write_svg

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT = 3
EXIT_PARAMETER = 4


def _weight_param(args, required: bool) -> WeightParam | None:
    if args.mu is not None and args.eta is not None:
        raise ParameterError("give exactly one of --mu / --eta, not both")
    if args.mu is not None:
        return WeightParam.cosh_real(args.mu)
    if args.eta is not None:
        return WeightParam.cos_imaginary(args.eta)
    if required:
        raise ParameterError("one of --mu / --eta is required")
    return None


def _load_grid_fn(args, kind: GridKind):
    if args.input_path is None:
        raise InputError("--input is required for this command")
    data = read_csv(args.input_path)  # refuses more than MAX_DEGREE + 1 rows
    n = data.x.shape[0]
    if n < 8:
        raise InputError(f"{args.input_path}: need at least 8 rows, got {n}")
    grid = cgl_nodes(kind, n)
    if np.max(np.abs(data.x - grid.nodes)) > 1e-8:
        raise InputError(f"{args.input_path}: x column does not match the "
                         f"{kind.value}-node grid of size {n}")
    return GridFn(grid, data.value), data


def _uniform(out: GridFn, weighted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """out on the uniform display grid; if weighted, out * w evaluated and divided by w."""
    xs = uniform_grid(out.grid.n)
    if weighted:
        return xs, evaluate(GridFn(out.grid, out.values * out.grid.weights), xs) / weight_w(xs)
    return xs, evaluate(out, xs)


class _Clock:
    """The start of one command, and the milliseconds each of its stages took."""

    def __init__(self):
        self.t0, self.ms = time.monotonic(), {}

    def run(self, stage: str, fn, *args, **kwargs):
        t = time.monotonic()
        out = fn(*args, **kwargs)
        self.ms[stage] = (time.monotonic() - t) * 1000.0
        return out


def _emit(args, clock, in_fn: GridFn, out: GridFn, data, uniform_pair, solve_report):
    # The reference column gives the expected *output* on the output grid, which
    # has the input's N.
    reference = data.reference
    max_error = None if reference is None else float(np.max(np.abs(out.values - reference)))
    report = {
        "command": args.command,
        "n": out.grid.n,
        "mu_or_eta": args.mu if args.mu is not None else args.eta,
        "max_error": max_error,
        "input_from_cache": data.from_cache,
        "wall_time_ms": (time.monotonic() - clock.t0) * 1000.0,
    }
    for f in dataclasses.fields(solve_report):  # a shallow copy; the exit code says converged
        if f.name != "converged":
            report["solver_form" if f.name == "form" else f.name] = getattr(solve_report, f.name)
    t = time.monotonic()
    if args.output_path:
        write_csv(args.output_path, out.grid.nodes, out.values, reference)
        write_csv("{}_uniform{}".format(*os.path.splitext(args.output_path)), *uniform_pair)
    if args.plot_path:
        series = [
            ("input", in_fn.grid.nodes, in_fn.values),
            ("output", out.grid.nodes, out.values),
        ]
        if max_error is not None:
            series.append(("error", out.grid.nodes, out.values - reference))
        write_svg(args.plot_path, series, title=args.command)
    report["stage_ms"] = dict(clock.ms, write=(time.monotonic() - t) * 1000.0)
    write_json_report(args.json_path, report)


# ---------------------------------------------------------------------------
# commands

def _transform(args, kind: GridKind, compute, weighted: bool = False) -> int:
    """Read on kind-nodes, compute(input) -> (output, SolveReport), resample, report."""
    clock = _Clock()
    in_fn, data = clock.run("read", _load_grid_fn, args, kind)
    try:
        with np.errstate(over="raise"):
            out, rep = clock.run("compute", compute, in_fn)
    except FloatingPointError as exc:
        raise InputError(f"{args.input_path}: the transform overflows float64 ({exc})") from None
    uniform = clock.run("resample", _uniform, out, weighted)
    _emit(args, clock, in_fn, out, data, uniform, rep)
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


def cmd_forward(args) -> int:
    return _transform(args, GridKind.TNODES, lambda f: (fht_forward_d(f), SolveReport()))


def cmd_invert(args) -> int:
    return _transform(args, GridKind.SNODES, lambda F: (fht_inverse_d(F), SolveReport()))


def cmd_cosh_forward(args) -> int:
    p = _weight_param(args, required=True)
    return _transform(args, GridKind.TNODES, lambda f: (cosh_forward(f, p), SolveReport()))


def cmd_cosh_invert(args) -> int:
    p = _weight_param(args, required=True)
    if args.method == "mean_constrained" and args.mean_fbar is None:
        raise ParameterError("--mean-fbar is required for method mean_constrained")
    if args.method != "direct":  # before the input is read
        _check_stopping(args.tol, args.max_iter, args.mean_fbar or 0.0)
    if args.method == "direct":
        return _transform(args, GridKind.SNODES, lambda F: cosh_invert_direct(F, p))
    if args.method == "neumann":
        return _transform(args, GridKind.SNODES, lambda F: cosh_invert_neumann(
            F, p, tol=args.tol, max_iter=args.max_iter))
    return _transform(args, GridKind.UNODES, lambda F: cosh_invert_mean_constrained(
        F, p, args.mean_fbar, args.tol, args.max_iter), weighted=True)


def cmd_verify(args) -> int:
    from .verify import SIZES, run_suite  # only this command pays for importing the suite

    t0 = time.monotonic()
    p = _weight_param(args, required=False)
    results = run_suite(weight=p)
    summary = {
        "command": args.command,
        "n": list(SIZES),
        "mu_or_eta": args.mu if args.mu is not None else args.eta,
        "checks": {r.name: {"passed": r.passed, "detail": r.detail} for r in results},
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "wall_time_ms": (time.monotonic() - t0) * 1000.0,
    }
    write_json_report(args.json_path, summary)
    for r in results:
        print(("PASS" if r.passed else "FAIL"), r.name, r.detail, file=sys.stderr)
    return EXIT_OK if summary["failed"] == 0 else EXIT_NOT_CONVERGED


def _parse_list(text: str | None, convert, flag: str) -> tuple:
    """Comma-separated values of a list option; () when it is not given."""
    if not text:
        return ()
    try:
        return tuple(convert(v) for v in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad {flag}: {exc}") from exc


def cmd_cond_sweep(args) -> int:
    mu_list = _parse_list(args.mu_list, float, "--mu-list")
    if not mu_list:
        raise ParameterError("--mu-list is required")
    if args.n < 8:
        raise ParameterError(f"--n must be at least 8, got {args.n}")
    cgl_nodes(GridKind.TNODES, args.n)  # refuses N above MAX_DEGREE + 1 before any N x N SVD
    params = [WeightParam.cosh_real(mu) for mu in mu_list]  # every mu, before any estimate
    ests = [condition_estimate(p, args.n) for p in params]
    write_csv(args.output_path, [p.value for p in params], [e.measured for e in ests],
              [e.bound for e in ests], header="mu,measured,bound")
    return EXIT_OK


def cmd_null_experiment(args) -> int:
    sizes = _parse_list(args.sizes, int, "--sizes") or (64, 128, 256, 512)
    if args.mu is None:
        raise ParameterError("--mu is required")
    rows = null_experiment(WeightParam.cosh_real(args.mu), sizes)
    write_csv(args.output_path, [r.n for r in rows], [r.norm_d for r in rows],
              [r.norm_m for r in rows], header="n,norm_d,norm_m")
    return EXIT_OK


_COMMANDS = {
    "forward": cmd_forward,
    "invert": cmd_invert,
    "cosh-forward": cmd_cosh_forward,
    "cosh-invert": cmd_cosh_invert,
    "verify": cmd_verify,
    "cond-sweep": cmd_cond_sweep,
    "null-experiment": cmd_null_experiment,
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ParameterError (exit 4)."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def _path(text: str) -> str:
    """An output path; an empty one is a malformed command line (exit 4)."""
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    return text


def _add_common(sp, weighted=False, io=False):
    sp.add_argument("--json", dest="json_path", type=_path,
                    help="write the JSON report here instead of stdout")
    if weighted:
        sp.add_argument("--mu", type=float)
        sp.add_argument("--eta", type=float)
    if io:
        sp.add_argument("--input", dest="input_path")
        sp.add_argument("--output", dest="output_path", type=_path)
        sp.add_argument("--plot", dest="plot_path", type=_path)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fhtcheb",
        description="Finite Hilbert transform on (-1,1): spectral forward, "
        "inverse, and cosh/cos-weighted inversion.",
    )
    # read by every report, also of commands that take no weight
    ap.set_defaults(mu=None, eta=None)
    sub = ap.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("forward"), io=True)
    _add_common(sub.add_parser("invert"), io=True)
    _add_common(sub.add_parser("cosh-forward"), weighted=True, io=True)
    ci = sub.add_parser("cosh-invert")
    _add_common(ci, weighted=True, io=True)
    ci.add_argument("--method", choices=("direct", "neumann", "mean_constrained"),
                    default="direct")
    ci.add_argument("--mean-fbar", type=float)
    ci.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ci.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    _add_common(sub.add_parser("verify"), weighted=True)
    cs = sub.add_parser("cond-sweep")
    cs.add_argument("--n", type=int, default=256)
    cs.add_argument("--mu-list", help="comma-separated mu values")
    cs.add_argument("--output", dest="output_path", type=_path)
    ne = sub.add_parser("null-experiment")
    ne.add_argument("--mu", type=float)
    ne.add_argument("--sizes", help="comma-separated grid sizes")
    ne.add_argument("--output", dest="output_path", type=_path)
    return ap


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ParameterError, InvalidSizeError) as exc:  # cgl_nodes' sizes: --n, --sizes
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except FhtChebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

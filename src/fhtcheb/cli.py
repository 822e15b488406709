"""Batch command-line front end.

Subcommands: forward, invert, cosh-forward, cosh-invert, verify, cond-sweep,
null-experiment. Exit codes are a stable contract:

    0  success
    2  non-convergence (or verify-suite failure); reports are still written
    3  input error (unreadable/malformed CSV, non-finite value, wrong grid,
       fewer than 8 or more than MAX_DEGREE + 1 rows)
    4  parameter error (bad mu/eta, missing mean value, bad sizes, or a
       malformed command line: unknown flag or choice, unparsable number)
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache

import numpy as np

from .cosh import (
    WeightParam,
    _check_stopping,
    condition_estimate,
    cosh_forward,
    cosh_invert_direct,
    cosh_invert_mean_constrained,
    cosh_invert_neumann,
    null_experiment,
)
from .errors import FhtChebError, InputError, ParameterError
from .fht import (
    coeffs_from_sgrid,
    coeffs_from_tgrid,
    fht_forward_d,
    fht_inverse_d,
)
from .grids import (
    MAX_DEGREE,
    GridFn,
    GridKind,
    ResampleMode,
    cgl_nodes,
    resample,
    weight_w,
)
from .report import read_csv, uniform_grid, write_csv, write_json_report, write_svg
from .verify import SIZES, run_suite

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
    data = read_csv(args.input_path)
    n = data.x.shape[0]
    if n < 8:
        raise InputError(f"{args.input_path}: need at least 8 rows, got {n}")
    # the uniform display grid resamples a degree N-1 series
    if n > MAX_DEGREE + 1:
        raise InputError(f"{args.input_path}: at most {MAX_DEGREE + 1} rows, got {n}")
    grid = cgl_nodes(kind, n)
    if np.max(np.abs(data.x - grid.nodes)) > 1e-8:
        raise InputError(
            f"{args.input_path}: x column does not match the "
            f"{kind.value}-node grid of size {n}"
        )
    return GridFn(grid, data.value), data.reference


def _uniform_from_tgrid(out: GridFn) -> tuple[np.ndarray, np.ndarray]:
    xs = uniform_grid(out.grid.n)
    a = coeffs_from_tgrid(out)
    return xs, resample(a, xs, ResampleMode.WU_SERIES)


def _uniform_from_sgrid_tseries(out: GridFn) -> tuple[np.ndarray, np.ndarray]:
    xs = uniform_grid(out.grid.n)
    return xs, resample(coeffs_from_sgrid(out), xs, ResampleMode.T_SERIES)


def _uniform_from_sgrid_general(out: GridFn) -> tuple[np.ndarray, np.ndarray]:
    """General S-grid function: interpolate f*w as a T-series, divide by w."""
    xs = uniform_grid(out.grid.n)
    fw = coeffs_from_sgrid(GridFn(out.grid, out.values * out.grid.weights))
    return xs, resample(fw, xs, ResampleMode.T_SERIES) / weight_w(xs)


def _uniform_path(path: str) -> str:
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path + "_uniform"
    return f"{stem}_uniform.{ext}"


def _emit(args, in_fn: GridFn, out: GridFn, reference, uniform_pair, report):
    max_error = None
    if reference is not None:
        # reference column gives the expected *output* on the output grid
        if reference.shape[0] == out.grid.n:
            max_error = float(np.max(np.abs(out.values - reference)))
    report["max_error"] = max_error
    if args.output_path:
        ref_out = reference if (reference is not None
                                and reference.shape[0] == out.grid.n) else None
        write_csv(args.output_path, out.grid.nodes, out.values, ref_out)
        xs, vals = uniform_pair
        write_csv(_uniform_path(args.output_path), xs, vals)
    if args.plot_path:
        series = [
            ("input", in_fn.grid.nodes, in_fn.values),
            ("output", out.grid.nodes, out.values),
        ]
        if max_error is not None:
            series.append(("error", out.grid.nodes, out.values - reference))
        write_svg(args.plot_path, series, title=args.command)
    write_json_report(args.json_path, report)


def _base_report(args, n: int, t0: float, solve_report=None) -> dict:
    rep = {
        "command": args.command,
        "n": n,
        "mu_or_eta": args.mu if args.mu is not None else args.eta,
        "iterations": 0,
        "residual_history": [],
        "measured_ratio": None,
        "bound_ratio": None,
        "coercive_const": None,
        "final_defect": None,
        "max_error": None,
        "wall_time_ms": (time.monotonic() - t0) * 1000.0,
    }
    if solve_report is not None:
        rep.update(
            iterations=solve_report.iterations,
            residual_history=list(solve_report.residual_history),
            measured_ratio=solve_report.measured_ratio,
            bound_ratio=solve_report.bound_ratio,
            coercive_const=solve_report.coercive_const,
            final_defect=solve_report.final_defect,
        )
    return rep


# ---------------------------------------------------------------------------
# commands

def cmd_forward(args) -> int:
    t0 = time.monotonic()
    f, ref = _load_grid_fn(args, GridKind.TNODES)
    F = fht_forward_d(f)
    _emit(args, f, F, ref, _uniform_from_sgrid_tseries(F), _base_report(args, f.grid.n, t0))
    return EXIT_OK


def cmd_invert(args) -> int:
    t0 = time.monotonic()
    F, ref = _load_grid_fn(args, GridKind.SNODES)
    f = fht_inverse_d(F)
    _emit(args, F, f, ref, _uniform_from_tgrid(f), _base_report(args, F.grid.n, t0))
    return EXIT_OK


def cmd_cosh_forward(args) -> int:
    t0 = time.monotonic()
    p = _weight_param(args, required=True)
    f, ref = _load_grid_fn(args, GridKind.TNODES)
    F = cosh_forward(f, p)
    _emit(args, f, F, ref, _uniform_from_sgrid_tseries(F), _base_report(args, f.grid.n, t0))
    return EXIT_OK


def cmd_cosh_invert(args) -> int:
    t0 = time.monotonic()
    p = _weight_param(args, required=True)
    if args.method == "mean_constrained" and args.mean_fbar is None:
        raise ParameterError("--mean-fbar is required for method mean_constrained")
    if args.method != "direct":  # before the input is read
        _check_stopping(args.tol, args.max_iter, args.mean_fbar or 0.0)
    if args.method == "mean_constrained":
        F, ref = _load_grid_fn(args, GridKind.UNODES)
        f, rep = cosh_invert_mean_constrained(F, p, args.mean_fbar, args.tol, args.max_iter)
        uniform = _uniform_from_sgrid_general(f)
    else:
        F, ref = _load_grid_fn(args, GridKind.SNODES)
        if args.method == "direct":
            f, rep = cosh_invert_direct(F, p)
        else:
            f, rep = cosh_invert_neumann(F, p, tol=args.tol, max_iter=args.max_iter)
        uniform = _uniform_from_tgrid(f)
    _emit(args, F, f, ref, uniform, _base_report(args, F.grid.n, t0, rep))
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


def cmd_verify(args) -> int:
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


def _write_table(path: str | None, header: str, rows) -> None:
    """A numeric CSV table at 17 significant digits, to path or stdout."""
    lines = [header] + [",".join("%.17g" % v for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_cond_sweep(args) -> int:
    mu_list = _parse_list(args.mu_list, float, "--mu-list")
    if not mu_list:
        raise ParameterError("--mu-list is required")
    if not 8 <= args.n <= MAX_DEGREE + 1:  # the estimate is a dense N x N SVD
        raise ParameterError(f"--n must lie in [8, {MAX_DEGREE + 1}], got {args.n}")
    # every mu is checked before the first estimate
    params = [WeightParam.cosh_real(mu) for mu in mu_list]
    rows = []
    for p in params:
        est = condition_estimate(p, args.n)
        rows.append((p.value, est.measured, est.bound))
    _write_table(args.output_path, "mu,measured,bound", rows)
    return EXIT_OK


def cmd_null_experiment(args) -> int:
    sizes = _parse_list(args.sizes, int, "--sizes") or (64, 128, 256, 512)
    # null-experiment resamples a degree N-1 series, so N <= MAX_DEGREE + 1
    bad = [n for n in sizes if not 2 <= n <= MAX_DEGREE + 1]
    if bad:
        raise ParameterError(f"--sizes must lie in [2, {MAX_DEGREE + 1}], got {bad[0]}")
    if args.mu is None:
        raise ParameterError("--mu is required")
    rows = null_experiment(WeightParam.cosh_real(args.mu), sizes)
    _write_table(args.output_path, "n,norm_d,norm_m",
                 [(r.n, r.norm_d, r.norm_m) for r in rows])
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


def _add_common(sp, weighted=False, io=False):
    sp.add_argument("--json", dest="json_path",
                    help="write the JSON report here instead of stdout")
    if weighted:
        sp.add_argument("--mu", type=float)
        sp.add_argument("--eta", type=float)
    if io:
        sp.add_argument("--input", dest="input_path")
        sp.add_argument("--output", dest="output_path")
        sp.add_argument("--plot", dest="plot_path")


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
    ci.add_argument("--tol", type=float, default=1e-10)
    ci.add_argument("--max-iter", type=int, default=10000)
    _add_common(sub.add_parser("verify"), weighted=True)
    cs = sub.add_parser("cond-sweep")
    cs.add_argument("--n", type=int, default=256)
    cs.add_argument("--mu-list", help="comma-separated mu values")
    cs.add_argument("--output", dest="output_path")
    ne = sub.add_parser("null-experiment")
    ne.add_argument("--mu", type=float)
    ne.add_argument("--sizes", help="comma-separated grid sizes")
    ne.add_argument("--output", dest="output_path")
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
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except FhtChebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

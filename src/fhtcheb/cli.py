"""Batch command-line front end.

Subcommands: forward, invert, cosh-forward, cosh-invert, verify, cond-sweep,
null-experiment. Exit codes are a stable contract:

    0  success
    2  non-convergence (or verify-suite failure); reports are still written
    3  input error (unreadable/malformed CSV, non-finite value, wrong grid,
       fewer than 8 or more than MAX_DEGREE + 1 rows)
    4  parameter error (bad mu/eta, missing mean value, bad sizes)
"""

from __future__ import annotations

import argparse
import enum
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cosh import (
    WeightParam,
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
from .verify import run_suite

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT = 3
EXIT_PARAMETER = 4


class Method(enum.Enum):
    DIRECT = "direct"
    NEUMANN = "neumann"
    MEAN_CONSTRAINED = "mean_constrained"


@dataclass
class RunConfig:
    command: str
    n: int = 256
    mu: float | None = None
    eta: float | None = None
    tol: float = 1e-10
    max_iter: int = 10000
    input_path: str | None = None
    output_path: str | None = None
    plot_path: str | None = None
    json_path: str | None = None
    method: Method = Method.DIRECT
    mean_fbar: float | None = None
    mu_list: tuple[float, ...] = ()
    sizes: tuple[int, ...] = ()


def _weight_param(cfg: RunConfig, required: bool) -> WeightParam | None:
    if cfg.mu is not None and cfg.eta is not None:
        raise ParameterError("give exactly one of --mu / --eta, not both")
    if cfg.mu is not None:
        return WeightParam.cosh_real(cfg.mu)
    if cfg.eta is not None:
        return WeightParam.cos_imaginary(cfg.eta)
    if required:
        raise ParameterError("one of --mu / --eta is required")
    return None


def _load_grid_fn(cfg: RunConfig, kind: GridKind):
    if cfg.input_path is None:
        raise InputError("--input is required for this command")
    data = read_csv(cfg.input_path)
    n = data.x.shape[0]
    if n < 8:
        raise InputError(f"{cfg.input_path}: need at least 8 rows, got {n}")
    # the uniform display grid resamples a degree N-1 series
    if n > MAX_DEGREE + 1:
        raise InputError(f"{cfg.input_path}: at most {MAX_DEGREE + 1} rows, got {n}")
    grid = cgl_nodes(kind, n)
    if np.max(np.abs(data.x - grid.nodes)) > 1e-8:
        raise InputError(
            f"{cfg.input_path}: x column does not match the "
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


def _emit(cfg: RunConfig, in_fn: GridFn, out: GridFn, reference, uniform_pair, report):
    max_error = None
    if reference is not None:
        # reference column gives the expected *output* on the output grid
        if reference.shape[0] == out.grid.n:
            max_error = float(np.max(np.abs(out.values - reference)))
    report["max_error"] = max_error
    if cfg.output_path:
        ref_out = reference if (reference is not None
                                and reference.shape[0] == out.grid.n) else None
        write_csv(cfg.output_path, out.grid.nodes, out.values, ref_out)
        xs, vals = uniform_pair
        write_csv(_uniform_path(cfg.output_path), xs, vals)
    if cfg.plot_path:
        series = [
            ("input", in_fn.grid.nodes, in_fn.values),
            ("output", out.grid.nodes, out.values),
        ]
        if max_error is not None:
            series.append(("error", out.grid.nodes, out.values - reference))
        write_svg(cfg.plot_path, series, title=cfg.command)
    write_json_report(cfg.json_path, report)


def _base_report(cfg: RunConfig, n: int, t0: float, solve_report=None) -> dict:
    rep = {
        "command": cfg.command,
        "n": n,
        "mu_or_eta": cfg.mu if cfg.mu is not None else cfg.eta,
        "iterations": 0,
        "residual_history": [],
        "measured_ratio": None,
        "bound_ratio": None,
        "coercive_const": None,
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
        )
    return rep


# ---------------------------------------------------------------------------
# commands

def cmd_forward(cfg: RunConfig) -> int:
    t0 = time.monotonic()
    f, ref = _load_grid_fn(cfg, GridKind.TNODES)
    F = fht_forward_d(f)
    _emit(cfg, f, F, ref, _uniform_from_sgrid_tseries(F), _base_report(cfg, f.grid.n, t0))
    return EXIT_OK


def cmd_invert(cfg: RunConfig) -> int:
    t0 = time.monotonic()
    F, ref = _load_grid_fn(cfg, GridKind.SNODES)
    f = fht_inverse_d(F)
    _emit(cfg, F, f, ref, _uniform_from_tgrid(f), _base_report(cfg, F.grid.n, t0))
    return EXIT_OK


def cmd_cosh_forward(cfg: RunConfig) -> int:
    t0 = time.monotonic()
    p = _weight_param(cfg, required=True)
    f, ref = _load_grid_fn(cfg, GridKind.TNODES)
    F = cosh_forward(f, p)
    _emit(cfg, f, F, ref, _uniform_from_sgrid_tseries(F), _base_report(cfg, f.grid.n, t0))
    return EXIT_OK


def cmd_cosh_invert(cfg: RunConfig) -> int:
    t0 = time.monotonic()
    p = _weight_param(cfg, required=True)
    if cfg.method is Method.MEAN_CONSTRAINED:
        if cfg.mean_fbar is None:
            raise ParameterError("--mean-fbar is required for method mean_constrained")
        F, ref = _load_grid_fn(cfg, GridKind.UNODES)
        f, rep = cosh_invert_mean_constrained(
            F, p, cfg.mean_fbar, tol=cfg.tol, max_iter=cfg.max_iter
        )
        uniform = _uniform_from_sgrid_general(f)
    else:
        F, ref = _load_grid_fn(cfg, GridKind.SNODES)
        if cfg.method is Method.DIRECT:
            f, rep = cosh_invert_direct(F, p)
        else:
            f, rep = cosh_invert_neumann(F, p, tol=cfg.tol, max_iter=cfg.max_iter)
        uniform = _uniform_from_tgrid(f)
    _emit(cfg, F, f, ref, uniform, _base_report(cfg, F.grid.n, t0, rep))
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.monotonic()
    p = _weight_param(cfg, required=False)
    results = run_suite(sizes=(64, 256), weight=p)
    summary = {
        "command": cfg.command,
        "n": [64, 256],
        "mu_or_eta": cfg.mu if cfg.mu is not None else cfg.eta,
        "checks": {r.name: {"passed": r.passed, "detail": r.detail} for r in results},
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "wall_time_ms": (time.monotonic() - t0) * 1000.0,
    }
    write_json_report(cfg.json_path, summary)
    for r in results:
        print(("PASS" if r.passed else "FAIL"), r.name, r.detail, file=sys.stderr)
    return EXIT_OK if summary["failed"] == 0 else EXIT_NOT_CONVERGED


def cmd_cond_sweep(cfg: RunConfig) -> int:
    if not cfg.mu_list:
        raise ParameterError("--mu-list is required")
    rows = []
    for mu in cfg.mu_list:
        est = condition_estimate(WeightParam.cosh_real(mu), cfg.n)
        rows.append((mu, est.measured, est.bound))
    lines = ["mu,measured,bound"]
    lines += [f"{m:.17g},{a:.17g},{b:.17g}" for m, a, b in rows]
    text = "\n".join(lines) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_null_experiment(cfg: RunConfig) -> int:
    if cfg.mu is None:
        raise ParameterError("--mu is required")
    sizes = cfg.sizes or (64, 128, 256, 512)
    rows = null_experiment(WeightParam.cosh_real(cfg.mu), sizes)
    lines = ["n,norm_d,norm_m"]
    lines += [f"{r.n},{r.norm_d:.17g},{r.norm_m:.17g}" for r in rows]
    text = "\n".join(lines) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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


def _add_common(sp, weighted=False, io=False, iterative=False):
    sp.add_argument("--json", dest="json_path", default=None,
                    help="write the JSON report here instead of stdout")
    if weighted:
        sp.add_argument("--mu", type=float, default=None)
        sp.add_argument("--eta", type=float, default=None)
    if io:
        sp.add_argument("--input", dest="input_path", default=None)
        sp.add_argument("--output", dest="output_path", default=None)
        sp.add_argument("--plot", dest="plot_path", default=None)
    if iterative:
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--max-iter", type=int, default=10000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fhtcheb",
        description="Finite Hilbert transform on (-1,1): spectral forward, "
        "inverse, and cosh/cos-weighted inversion.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("forward"), io=True)
    _add_common(sub.add_parser("invert"), io=True)
    _add_common(sub.add_parser("cosh-forward"), weighted=True, io=True)
    ci = sub.add_parser("cosh-invert")
    _add_common(ci, weighted=True, io=True, iterative=True)
    ci.add_argument("--method", choices=[m.value for m in Method], default="direct")
    ci.add_argument("--mean-fbar", type=float, default=None)
    _add_common(sub.add_parser("verify"), weighted=True)
    cs = sub.add_parser("cond-sweep")
    _add_common(cs)
    cs.add_argument("--n", type=int, default=256)
    cs.add_argument("--mu-list", default=None,
                    help="comma-separated mu values")
    cs.add_argument("--output", dest="output_path", default=None)
    ne = sub.add_parser("null-experiment")
    _add_common(ne, weighted=True)
    ne.add_argument("--sizes", default=None, help="comma-separated grid sizes")
    ne.add_argument("--output", dest="output_path", default=None)
    return ap


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("n", "mu", "eta", "tol", "max_iter", "input_path",
                 "output_path", "plot_path", "json_path", "mean_fbar"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "method", None):
        cfg.method = Method(args.method)
    if getattr(args, "mu_list", None):
        try:
            cfg.mu_list = tuple(float(v) for v in args.mu_list.split(","))
        except ValueError as exc:
            raise ParameterError(f"bad --mu-list: {exc}") from exc
    if getattr(args, "sizes", None):
        try:
            cfg.sizes = tuple(int(v) for v in args.sizes.split(","))
        except ValueError as exc:
            raise ParameterError(f"bad --sizes: {exc}") from exc
        # null-experiment resamples a degree N-1 series, so N <= MAX_DEGREE + 1
        bad = [n for n in cfg.sizes if not 2 <= n <= MAX_DEGREE + 1]
        if bad:
            raise ParameterError(
                f"--sizes must lie in [2, {MAX_DEGREE + 1}], got {bad[0]}"
            )
    if cfg.n < 8:
        raise ParameterError(f"--n must be >= 8, got {cfg.n}")
    return cfg


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
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

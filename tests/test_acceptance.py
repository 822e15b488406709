"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Each test prints its verdict line (bypassing capture so it always appears in
the run log) and then asserts, so a failure is visible both ways. Criteria
02, 03, 06, 07, 08, 10 and 11 run the named checks of ``fhtcheb.verify``
(the suite behind ``fhtcheb verify``), so each property is coded once.
"""

import sys
import time

import numpy as np

from fhtcheb import (
    GridFn,
    GridKind,
    ResampleMode,
    WeightParam,
    cgl_nodes,
    coeffs_from_sgrid,
    coeffs_from_tgrid,
    condition_estimate,
    cosh_forward,
    cosh_invert_direct,
    cosh_invert_mean_constrained,
    cosh_pv_forward,
    norm,
    pair,
    resample,
    weight_w,
)
from fhtcheb.cli import main
from fhtcheb.fht import sgrid_to_unodes
from fhtcheb.report import read_csv, write_csv
from fhtcheb.verify import (
    check_coerciveness,
    check_contraction,
    check_degeneration,
    check_direct_neumann_agreement,
    check_forward_d_pair,
    check_kernel_equivalence,
    check_oracle_agreement,
    check_plancherel_suite,
    run_suite,
)


from conftest import record_verdict


def _verdict(num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    record_verdict(line)
    assert ok, line


def _verdict_checks(num, *results):
    """The verdict of one or more verify checks, under their names and details."""
    _verdict(num, ", ".join(r.name for r in results), all(r.passed for r in results),
             "; ".join(r.detail for r in results))


def _rel_lm_error_tgrid(got: GridFn, exact_fn) -> float:
    """Relative L_m^2 error of a T-grid result against a closed form."""
    n = got.grid.n
    ug = cgl_nodes(GridKind.UNODES, n)
    got_u = resample(coeffs_from_tgrid(got), ug.nodes, ResampleMode.WU_SERIES)
    want_u = exact_fn(ug.nodes)
    return (norm(GridFn(ug, got_u - want_u))
            / norm(GridFn(ug, want_u)))


def test_criterion_01_condition_bound():
    t0 = time.monotonic()
    est = condition_estimate(WeightParam.cosh_real(4.0), 256)
    dt = time.monotonic() - t0
    ok = (round(est.bound, 1) == 1490.5
          and est.measured <= est.bound * (1.0 + 1e-6)
          and dt < 10.0)
    _verdict(1, "condition bound mu=4 N=256", ok,
             f"bound={est.bound:.1f} measured={est.measured:.1f} time={dt:.2f}s")


def test_criterion_02_degeneration_mu0():
    _verdict_checks(2, check_degeneration(256))


def test_criterion_03_analytic_pair_forward():
    _verdict_checks(3, check_forward_d_pair(64), check_forward_d_pair(256))


def test_criterion_04_shifted_pair_inversion(tmp_path):
    n = 256
    pr = pair("shifted")
    sg = cgl_nodes(GridKind.SNODES, n)
    tg = cgl_nodes(GridKind.TNODES, n)
    fin = tmp_path / "F.csv"
    write_csv(fin, sg.nodes, pr.F(sg.nodes), pr.f(tg.nodes))
    fout = tmp_path / "f.csv"
    plot = tmp_path / "f.svg"
    rc = main(["invert", "--input", str(fin), "--output", str(fout),
               "--plot", str(plot), "--json", str(tmp_path / "r.json")])
    got = read_csv(fout)
    rel = _rel_lm_error_tgrid(GridFn(tg, got.value), pr.f)
    # pointwise error is largest near the kinks at -0.9 and 0.7
    err = np.abs(got.value - pr.f(tg.nodes))
    near = np.minimum(np.abs(tg.nodes + 0.9), np.abs(tg.nodes - 0.7)) < 0.1
    concentrated = float(np.max(err[near])) > float(np.max(err[~near]))
    ok = (rc == 0 and rel < 1e-2 and concentrated
          and fout.exists() and plot.exists())
    _verdict(4, "shifted-pair inversion + error artifacts", ok,
             f"rel Lm error {rel:.2e}, kink-concentrated={concentrated}")


def test_criterion_05_downsample_protocol():
    pr = pair("shifted")
    p = WeightParam.cosh_real(3.0)
    tg512 = cgl_nodes(GridKind.TNODES, 512)
    F512 = cosh_forward(GridFn(tg512, pr.f(tg512.nodes)), p)
    sg256 = cgl_nodes(GridKind.SNODES, 256)
    F256 = resample(coeffs_from_sgrid(F512), sg256.nodes, ResampleMode.T_SERIES)
    got, _ = cosh_invert_direct(GridFn(sg256, F256), p)
    rel = _rel_lm_error_tgrid(got, pr.f)
    _verdict(5, "N=512 forward, downsample, invert at N=256", rel < 1e-2,
             f"rel Lm recovery error {rel:.2e}")


def test_criterion_06_plancherel_suite():
    _verdict_checks(6, check_plancherel_suite(256))


def test_criterion_07_coerciveness():
    _verdict_checks(7, check_coerciveness())


def test_criterion_08_contraction_rates():
    _verdict_checks(8, check_contraction(), check_direct_neumann_agreement())


def test_criterion_09_mean_constrained_vs_oracle():
    n = 128
    p = WeightParam.cosh_real(0.5)
    ug = cgl_nodes(GridKind.UNODES, n)

    def fex(t):
        return 2.0 * np.asarray(t) * weight_w(t)  # w U_1

    F_mu = np.array([cosh_pv_forward(fex, float(u), p, 65536) for u in ug.nodes])
    gx, gw = np.polynomial.legendre.leggauss(200)
    fbar = 0.5 * float(np.sum(gw * p.scale(gx) * fex(gx)))
    got, rep = cosh_invert_mean_constrained(GridFn(ug, F_mu), p, fbar, tol=1e-12)
    got_u = sgrid_to_unodes(got)
    want_u = fex(ug.nodes)
    rel = (norm(GridFn(ug, got_u - want_u))
           / norm(GridFn(ug, want_u)))
    ok = rep.converged and rel < 1e-6
    _verdict(9, "mean-constrained solver vs PV oracle data", ok,
             f"rel Lm error {rel:.2e}, iters {rep.iterations}")


def test_criterion_10_oracle_cross_check():
    _verdict_checks(10, check_oracle_agreement(256))


def test_criterion_11_kernel_form_equivalence():
    _verdict_checks(11, check_kernel_equivalence())


def test_criterion_12_null_experiment_and_verify(tmp_path):
    out = tmp_path / "null.csv"
    rc = main(["null-experiment", "--mu", "3", "--sizes", "64,128,256,512",
               "--output", str(out)])
    lines = out.read_text().splitlines()
    table_ok = rc == 0 and lines[0] == "n,norm_d,norm_m" and len(lines) == 5
    t0 = time.monotonic()
    results = run_suite(weight=WeightParam.cosh_real(4.0))
    dt = time.monotonic() - t0
    suite_ok = all(r.passed for r in results) and dt < 60.0
    _verdict(12, "null experiment table + verify suite", table_ok and suite_ok,
             f"{len(lines) - 1} rows; {len(results)} checks in {dt:.1f}s")

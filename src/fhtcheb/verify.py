"""Named property suite behind the CLI ``verify`` command.

Every check is a pure function returning a CheckResult; run_suite executes
them at SIZES and collects pass/fail plus a numeric detail (usually the
measured defect and its tolerance). Tolerances mirror the module-level
invariants. The acceptance gate (tests/test_acceptance.py) calls these checks
directly, so each property is coded here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cosh import (
    WeightParam,
    condition_estimate,
    cosh_forward,
    cosh_invert_direct,
    cosh_invert_mean_constrained,
    cosh_invert_neumann,
    kernel,
    null_experiment,
    system_matrix,
)
from .fht import (
    evaluate,
    fht_forward_d,
    fht_forward_m,
    fht_inverse_d,
    fht_inverse_m,
    m_analysis_sgrid,
    plancherel_check,
    range_defect,
    sgrid_to_unodes,
)
from .grids import (
    Basis,
    GridFn,
    GridKind,
    ResampleMode,
    cgl_nodes,
    cheb_eval,
    inner_product,
    norm,
    resample,
    weight_w,
)
from .oracle import cosh_pv_forward, pair, pv_fht
from .transforms import _c3t_apply, _s1_apply


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, measured: float, tol: float) -> CheckResult:
    return CheckResult(name, bool(measured <= tol), f"measured={measured:.3e} tol={tol:.1e}")


# ---------------------------------------------------------------------------
# cheb_core checks

def check_grid_formulas(n: int) -> CheckResult:
    sg, tg, ug = (cgl_nodes(k, n) for k in (GridKind.SNODES, GridKind.TNODES, GridKind.UNODES))
    err = max(
        float(np.max(np.abs(sg.nodes - np.cos((np.arange(n) + 0.5) * np.pi / n)))),
        float(np.max(np.abs(tg.nodes - np.cos(np.arange(n) * np.pi / n)))),
        float(np.max(np.abs(ug.nodes - np.cos(np.arange(1, n + 1) * np.pi / (n + 1))))),
        abs(tg.nodes[0] - 1.0),
    )
    return _result(f"grid_formulas_n{n}", err, 0.0)


def check_quadrature(basis: Basis, n: int) -> CheckResult:
    """Gauss exactness on products of degree <= 8: T-basis on S-nodes in Ld2,
    U-basis on U-nodes in Lm2."""
    first = basis is Basis.FIRST_T
    grid = cgl_nodes(GridKind.SNODES if first else GridKind.UNODES, n)
    fns = [GridFn(grid, cheb_eval(basis, k, grid.nodes)) for k in range(9)]
    worst = 0.0
    for i, fi in enumerate(fns):
        for j, fj in enumerate(fns):
            want = (1.0 if first and i == 0 else 0.5) if i == j else 0.0
            worst = max(worst, abs(inner_product(fi, fj) - want))
    return _result(f"quadrature_exact_{'T' if first else 'U'}_n{n}", worst, 1e-13)


def check_cheb_trig() -> CheckResult:
    worst = 0.0
    for theta in (0.1, 0.7, 2.5):
        x = math.cos(theta)
        for k in range(65):
            worst = max(worst, abs(cheb_eval(Basis.FIRST_T, k, x) - math.cos(k * theta)))
            worst = max(
                worst,
                abs(cheb_eval(Basis.SECOND_U, k, x) * math.sin(theta)
                    - math.sin((k + 1) * theta)),
            )
    return _result("cheb_trig_identities", worst, 1e-12)


# ---------------------------------------------------------------------------
# trig_transforms checks

def check_c3_orthogonality(n: int) -> CheckResult:
    c3 = _c3t_apply(np.eye(n))  # row i is C3^T e_i, so the rows stack to C3
    err = float(np.max(np.abs(c3.T @ c3 - np.eye(n))))
    return _result(f"c3_orthogonality_n{n}", err, 1e-12)


def check_s1_diagonal(n: int) -> CheckResult:
    s1 = _s1_apply(np.eye(n))  # row i is S1 e_i; S1 is symmetric, so the rows stack to S1
    d = np.eye(n)
    d[0, 0] = 0.0
    err = float(np.max(np.abs(s1.T @ s1 - d)))
    return _result(f"s1_diagonal_n{n}", err, 1e-12)


def check_m_analysis_roundtrip(n: int) -> CheckResult:
    rng = np.random.default_rng(7)
    d = rng.standard_normal(n)
    d[-1] = 0.0  # T_N vanishes at every S-node; that coefficient is invisible
    sg = cgl_nodes(GridKind.SNODES, n)
    f = resample(np.concatenate(([0.0], d)), sg.nodes, ResampleMode.T_SERIES)
    _, got = m_analysis_sgrid(GridFn(sg, f / sg.weights))
    return _result(f"m_analysis_roundtrip_n{n}", float(np.max(np.abs(got - d))), 1e-10)


# ---------------------------------------------------------------------------
# fht_spectral checks

def check_d_roundtrip(n: int) -> CheckResult:
    rng = np.random.default_rng(11)
    tg = cgl_nodes(GridKind.TNODES, n)
    f = rng.standard_normal(n)
    f[0] = 0.0
    back = fht_inverse_d(fht_forward_d(GridFn(tg, f)))
    return _result(f"d_roundtrip_n{n}", float(np.max(np.abs(back.values - f))), 1e-12)


def check_forward_d_pair(n: int) -> CheckResult:
    tg = cgl_nodes(GridKind.TNODES, n)
    F = fht_forward_d(GridFn(tg, tg.weights))
    err = float(np.max(np.abs(F.values - F.grid.nodes)))
    return _result(f"forward_d_unit_circle_n{n}", err, 1e-12)


def check_isometry_m(n: int) -> CheckResult:
    sg = cgl_nodes(GridKind.SNODES, n)
    worst = 0.0
    for k in (0, 1, 5, min(30, n - 2)):
        f = GridFn(sg, cheb_eval(Basis.FIRST_T, k + 1, sg.nodes) / sg.weights)
        F = fht_forward_m(f)
        worst = max(worst, abs(norm(F) ** 2 - 0.5))
    return _result(f"isometry_m_n{n}", worst, 1e-10)


def check_plancherel_suite(n: int) -> CheckResult:
    tg = cgl_nodes(GridKind.TNODES, n)
    sg = cgl_nodes(GridKind.SNODES, n)
    worst = 0.0
    for k in range(31):
        f = GridFn(tg, tg.weights * cheb_eval(Basis.SECOND_U, k, tg.nodes))
        worst = max(worst, plancherel_check(f).defect)
    u0 = cheb_eval(Basis.SECOND_U, 0, sg.nodes)
    u2 = cheb_eval(Basis.SECOND_U, 2, sg.nodes)
    for vals in (sg.weights * u0, sg.weights * (u0 + u2)):
        worst = max(worst, plancherel_check(GridFn(sg, vals)).defect)
    # zero-mean case: w U_1 integrates to zero by parity, so lhs = ||f||^2
    f_odd = GridFn(sg, sg.weights * cheb_eval(Basis.SECOND_U, 1, sg.nodes))
    rep = plancherel_check(f_odd)
    ug = cgl_nodes(GridKind.UNODES, n)
    full = norm(GridFn(ug, sgrid_to_unodes(f_odd))) ** 2
    worst = max(worst, rep.defect, abs(rep.lhs - full))
    return _result(f"plancherel_suite_n{n}", worst, 1e-10)


def check_lemma2_inequality(n: int) -> CheckResult:
    """||F||_Lm^2 <= ||f||_Lm^2 for real f; the right side is ||f w||_Ld^2,
    which the S-node rule integrates exactly, so any samples qualify."""
    rng = np.random.default_rng(3)
    sg = cgl_nodes(GridKind.SNODES, n)
    worst = 0.0
    for _ in range(5):
        f = GridFn(sg, rng.standard_normal(n))
        lhs = norm(fht_forward_m(f)) ** 2
        full = norm(GridFn(sg, f.values * sg.weights)) ** 2
        worst = max(worst, lhs - full)
    return _result(f"lemma2_inequality_n{n}", max(worst, 0.0), 1e-10)


def check_range_defect(n: int) -> CheckResult:
    rng = np.random.default_rng(5)
    tg = cgl_nodes(GridKind.TNODES, n)
    f = rng.standard_normal(n)
    f[0] = 0.0
    F = fht_forward_d(GridFn(tg, f))
    return _result(f"range_defect_n{n}", abs(range_defect(F)), 1e-12)


def check_oracle_agreement(n: int = 256) -> CheckResult:
    pr = pair("shifted")
    tg = cgl_nodes(GridKind.TNODES, n)
    f = GridFn(tg, pr.f(tg.nodes))
    F = fht_forward_d(f)
    worst = 0.0
    for s in (-0.5, 0.0, 0.3, 0.85):
        orc = pv_fht(partial(evaluate, f), s, 8192)
        worst = max(worst, abs(orc - evaluate(F, s)))
    return _result(f"oracle_agreement_n{n}", worst, 1e-5)


# ---------------------------------------------------------------------------
# cosh_solver checks

def check_degeneration(n: int) -> CheckResult:
    rng = np.random.default_rng(13)
    tg = cgl_nodes(GridKind.TNODES, n)
    f = rng.standard_normal(n)
    p0 = WeightParam.cosh_real(0.0)
    fwd_a = cosh_forward(GridFn(tg, f), p0).values
    fwd_b = fht_forward_d(GridFn(tg, f)).values
    sg = cgl_nodes(GridKind.SNODES, n)
    F = rng.standard_normal(n)
    inv_a, _ = cosh_invert_direct(GridFn(sg, F), p0)
    inv_b = fht_inverse_d(GridFn(sg, F))
    err = max(float(np.max(np.abs(fwd_a - fwd_b))),
              float(np.max(np.abs(inv_a.values - inv_b.values))))
    return _result(f"degeneration_mu0_n{n}", err, 1e-14)


def check_coerciveness(n: int = 128) -> CheckResult:
    tg = cgl_nodes(GridKind.TNODES, n)
    sg = cgl_nodes(GridKind.SNODES, n)
    worst = (-math.inf, 0.0, 0.0, 0.0)  # (bound - ratio, ratio, bound, mu)
    for mu in (0.5, 1.0, 2.0):
        p = WeightParam.cosh_real(mu)
        for k in range(n - 1):
            f = GridFn(tg, tg.weights * cheb_eval(Basis.SECOND_U, k, tg.nodes))
            ratio = norm(cosh_forward(f, p)) / norm(GridFn(sg, evaluate(f, sg.nodes)))
            worst = max(worst, (p.coercive_const - ratio, ratio, p.coercive_const, mu))
    gap, ratio, bound, mu = worst
    return CheckResult("coerciveness_mu_0.5_1_2", gap <= 1e-8,
                       f"ratio={ratio:.6f} >= bound={bound:.6f} - 1e-8 (mu={mu:g}, nearest)")


def _iteration_params() -> list[WeightParam]:
    """The weights at which the Neumann iteration is checked."""
    return ([WeightParam.cosh_real(m) for m in (0.5, 1.0)]
            + [WeightParam.cos_imaginary(e) for e in (0.3, 0.5)])


def check_contraction(n: int = 128) -> CheckResult:
    tg = cgl_nodes(GridKind.TNODES, n)
    f = tg.weights * (1.0 + 0.3 * tg.nodes)
    worst = (-math.inf, 0.0, 0.0, "")  # (ratio - bound, ratio, bound, weight)
    for p in _iteration_params():
        F = cosh_forward(GridFn(tg, f), p)
        _, rep = cosh_invert_neumann(F, p, tol=1e-12)
        bound = p.contraction + 0.02
        worst = max(worst, (rep.measured_ratio - bound, rep.measured_ratio, bound,
                            f"{p.flavor.value} {p.value:g}"))
    excess, ratio, bound, weight = worst
    return CheckResult("contraction_ratios", excess <= 0.0,
                       f"ratio={ratio:.4f} <= bound={bound:.4f} ({weight}, nearest)")


def check_direct_neumann_agreement(n: int = 128) -> CheckResult:
    tg = cgl_nodes(GridKind.TNODES, n)
    t = tg.nodes
    worst = 0.0
    for f in (tg.weights * (1.0 + 0.3 * t),
              tg.weights * (1.0 - 0.4 * t + 0.2 * (2 * t ** 2 - 1))):
        for p in _iteration_params():
            F = cosh_forward(GridFn(tg, f), p)
            fd, _ = cosh_invert_direct(F, p)
            fn, _ = cosh_invert_neumann(F, p, tol=1e-12)
            diff = fd.values - fn.values
            worst = max(worst, float(np.sqrt(np.sum(diff[1:] ** 2) / n)))
    return _result("direct_neumann_agreement", worst, 1e-8)


def check_condition(p: WeightParam, n: int = 256) -> CheckResult:
    est, limit = condition_estimate(p, n), 1.0 / (n * math.ulp(1.0))
    rounded = min(est.measured, est.bound) >= limit  # sigma_min <= N eps sigma_max: SVD rounding
    return CheckResult(f"condition_bound_{p.flavor.value}_{p.value:g}_n{n}",
                       est.measured <= est.bound * (1.0 + 1e-6) or rounded,
                       f"measured={est.measured:.4e} bound={est.bound:.4e}"
                       + (" (sigma_min at the SVD's rounding)" if rounded else ""))


def check_kernel_parity(n: int = 64) -> CheckResult:
    """Both kernels are even: they are transforms of the odd slope function."""
    p = WeightParam.cosh_real(1.0)
    nodes = cgl_nodes(GridKind.SNODES, n).nodes
    worst = 0.0
    for kind in ("Kd", "Km"):
        vals = kernel(kind, p, n, nodes)
        worst = max(worst, float(np.max(np.abs(vals - vals[::-1]))))
    return _result("kernel_even_parity", worst, 1e-10)


def check_kernel_oracle() -> CheckResult:
    # Reference: theta-substituted PV quadrature of tanh(s)/((s-t) pi w(s))
    # at t = 0.3, mu = 1, frozen after a doubled-resolution confirmation.
    ref = 0.8463690558
    (got,) = kernel("Kd", WeightParam.cosh_real(1.0), 128, [0.3])
    return _result("kernel_Kd_oracle_t0.3", abs(got - ref), 1e-6)


# Kernel-form equivalence: N = 32, mu = 1, and a midpoint rule of _MQ points.
_MQ = 20001


def _kernel_quadrature(kind: str, p: WeightParam, n: int, t: np.ndarray, u: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """sum_q (K(t) - K(u_q)) / (t - u_q) weights_q at every t, K = kernel(kind, p, n, .)."""
    kt, ku = kernel(kind, p, n, t), kernel(kind, p, n, u)
    return ((kt[:, None] - ku) / (t[:, None] - u)) @ weights


def _kd_equivalence(p: WeightParam) -> float:
    """Max-norm gap between the composite operator M and its kernel form (d).

    At t = 1 the kernel is finite and w(1) = 0 leaves only the diagonal term.
    M carries the weight's product_sign; the kernel is that of the slope.
    """
    n = 32
    tg = cgl_nodes(GridKind.TNODES, n)
    fv = tg.weights * (1.0 + 0.5 * tg.nodes - 0.3 * (2 * tg.nodes ** 2 - 1))
    lhs = (np.eye(n) - system_matrix(p, n)) @ fv

    uq = -1.0 + (np.arange(_MQ) + 0.5) * (2.0 / _MQ)
    weights = p.slope(uq) * evaluate(GridFn(tg, fv), uq) * (2.0 / _MQ / np.pi)
    rhs = p.product_sign * (p.slope(tg.nodes) ** 2 * fv
                            + tg.weights * _kernel_quadrature("Kd", p, n, tg.nodes, uq, weights))
    return float(np.max(np.abs(lhs - rhs)))


def _km_equivalence(p: WeightParam) -> float:
    """Max-norm gap for the multiplication flavor, theta-substituted quadrature."""
    n = 32
    sg = cgl_nodes(GridKind.SNODES, n)
    ug = cgl_nodes(GridKind.UNODES, n)
    fS = (sg.nodes + 0.4 * cheb_eval(Basis.FIRST_T, 3, sg.nodes)) / sg.weights
    inner = fht_forward_m(GridFn(sg, p.slope(sg.nodes) * fS))
    lhs = fht_inverse_m(GridFn(ug, p.slope(ug.nodes) * inner.values)).values

    uq = np.cos((np.arange(_MQ) + 0.5) * (np.pi / _MQ))
    weights = p.slope(uq) * evaluate(GridFn(sg, fS * sg.weights), uq) / _MQ  # f w at uq
    rhs = p.slope(sg.nodes) ** 2 * fS \
        - _kernel_quadrature("Km", p, n, sg.nodes, uq, weights) / sg.weights
    return float(np.max(np.abs(lhs - rhs)))


def check_kernel_equivalence() -> CheckResult:
    err = max(equivalence(p) for equivalence in (_kd_equivalence, _km_equivalence)
              for p in (WeightParam.cosh_real(1.0), WeightParam.cos_imaginary(0.5)))
    return _result("kernel_form_equivalence_n32", err, 1e-3)


def check_mean_constrained(n: int = 128) -> CheckResult:
    p = WeightParam.cosh_real(0.5)
    tg, ug, sg = (cgl_nodes(k, n) for k in (GridKind.TNODES, GridKind.UNODES, GridKind.SNODES))

    def fex(t):
        return 2.0 * t * weight_w(t)

    F = cosh_forward(GridFn(tg, fex(tg.nodes)), p)
    Fu = evaluate(F, ug.nodes)
    gx, gw = np.polynomial.legendre.leggauss(200)
    fbar = 0.5 * float(np.sum(gw * p.scale(gx) * fex(gx)))
    got, rep = cosh_invert_mean_constrained(GridFn(ug, Fu), p, fbar, tol=1e-12)
    want = fex(sg.nodes)
    rel = float(np.linalg.norm(got.values - want) / np.linalg.norm(want))
    return CheckResult("mean_constrained_roundtrip", rep.converged and rel <= 1e-6,
                       f"measured={rel:.3e} tol=1.0e-06 iters={rep.iterations}")


def check_mean_constrained_nonzero_mean(n: int = 64) -> CheckResult:
    """f = w(1 + 0.3t) at mu = 0 from exact F = u + 0.3(u^2 - 1/2) and fbar = pi/4, at rounding."""
    sg, ug = cgl_nodes(GridKind.SNODES, n), cgl_nodes(GridKind.UNODES, n)
    F = GridFn(ug, ug.nodes + 0.3 * (ug.nodes ** 2 - 0.5))
    got = cosh_invert_mean_constrained(F, WeightParam.cosh_real(0.0), math.pi / 4)[0].values
    return _result("mean_constrained_nonzero_mean",
                   float(np.max(np.abs(got - sg.weights * (1.0 + 0.3 * sg.nodes)))), 1e-12)


# Both flavors, each at a small and a large parameter.
_ORACLE_WEIGHTS = (WeightParam.cosh_real(0.5), WeightParam.cosh_real(3.0),
                  WeightParam.cos_imaginary(0.3), WeightParam.cos_imaginary(0.7))


def _oracle_gaps(p: WeightParam, n: int = 64) -> dict[str, float]:
    """Max gap of each weighted operator to PV-oracle data, on the nodes |x| < 0.9.

    The data are cosh_pv_forward of f = w(1 + 0.3 t) (8192 points), whose
    midpoint rule loses digits near +-1. f has a nonzero mean fbar, so the
    mean-constrained solver's correction term counts too.
    """
    def f(t):
        return weight_w(t) * (1.0 + 0.3 * np.asarray(t))

    def oracle(grid) -> GridFn:
        return GridFn(grid, np.array([cosh_pv_forward(f, float(x), p, 8192) for x in grid.nodes]))

    def gap(got: GridFn, want: np.ndarray) -> float:
        return float(np.max(np.abs(got.values - want)[np.abs(got.grid.nodes) < 0.9]))

    tg, sg, ug = (cgl_nodes(k, n) for k in (GridKind.TNODES, GridKind.SNODES, GridKind.UNODES))
    F = oracle(sg)
    th = (np.arange(64) + 0.5) * (np.pi / 64)  # fbar = (1/2) int cosh(mu t) f(t) dt at t = cos th
    fbar = np.pi / 128 * float(np.sum(p.scale(np.cos(th)) * np.sin(th) * f(np.cos(th))))
    return {
        "forward": gap(cosh_forward(GridFn(tg, f(tg.nodes)), p), F.values),
        "direct": gap(cosh_invert_direct(F, p)[0], f(tg.nodes)),
        "neumann": gap(cosh_invert_neumann(F, p, tol=1e-13)[0], f(tg.nodes)),
        "mean_constrained": gap(cosh_invert_mean_constrained(oracle(ug), p, fbar, tol=1e-13)[0],
                                f(sg.nodes)),
    }


def check_weighted_oracle() -> CheckResult:
    worst = max(max(_oracle_gaps(p).values()) for p in _ORACLE_WEIGHTS)
    return _result("weighted_operators_oracle_n64", worst, 1e-4)


def check_cos_flavor_roundtrip(n: int = 128) -> CheckResult:
    p = WeightParam.cos_imaginary(0.5)
    tg = cgl_nodes(GridKind.TNODES, n)
    f = tg.weights * cheb_eval(Basis.SECOND_U, 2, tg.nodes)
    F = cosh_forward(GridFn(tg, f), p)
    got, _ = cosh_invert_direct(F, p)
    err = float(np.max(np.abs(got.values[1:] - f[1:])))
    return _result("cos_flavor_roundtrip", err, 1e-8)


def check_null_experiment() -> CheckResult:
    rows = null_experiment(WeightParam.cosh_real(3.0), [64, 128])
    ok = len(rows) == 2 and rows[0].n < rows[1].n and all(
        math.isfinite(r.norm_d) and math.isfinite(r.norm_m) for r in rows)
    return CheckResult("null_experiment_runs", ok, f"rows={len(rows)}")


# ---------------------------------------------------------------------------

SIZES = (64, 256)

# checks run at each of SIZES, then the checks run once; the order is stable
_PER_SIZE_CHECKS = (
    check_grid_formulas,
    partial(check_quadrature, Basis.FIRST_T),
    partial(check_quadrature, Basis.SECOND_U),
    check_c3_orthogonality,
    check_s1_diagonal,
    check_m_analysis_roundtrip,
    check_d_roundtrip,
    check_forward_d_pair,
    check_isometry_m,
    check_plancherel_suite,
    check_lemma2_inequality,
    check_range_defect,
    check_degeneration,
)
_ONCE_CHECKS = (
    check_cheb_trig,
    check_oracle_agreement,
    check_coerciveness,
    check_contraction,
    check_direct_neumann_agreement,
    check_kernel_parity,
    check_kernel_oracle,
    check_kernel_equivalence,
    check_mean_constrained,
    check_mean_constrained_nonzero_mean,
    check_cos_flavor_roundtrip,
    check_weighted_oracle,
    check_null_experiment,
)


def run_suite(weight: WeightParam | None = None) -> list[CheckResult]:
    """Run every named check at SIZES, plus the condition bound at weight."""
    results = [check(n) for n in SIZES for check in _PER_SIZE_CHECKS]
    results += [check() for check in _ONCE_CHECKS]
    if weight is not None:
        results.append(check_condition(weight))
    return results

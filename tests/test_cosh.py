import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fhtcheb import (
    Basis,
    GridFn,
    GridKind,
    ParameterError,
    ResampleMode,
    Space,
    WeightParam,
    cgl_nodes,
    cheb_eval,
    coeffs_from_sgrid,
    condition_estimate,
    cosh_forward,
    cosh_invert_direct,
    cosh_invert_mean_constrained,
    cosh_invert_neumann,
    fht_forward_d,
    fht_inverse_d,
    kernel,
    norm,
    null_experiment,
    resample,
    weight_w,
)
import fhtcheb.cosh
from fhtcheb.cosh import _plan


class TestWeightParam:
    def test_eta_range(self):
        with pytest.raises(ParameterError):
            WeightParam.cos_imaginary(math.pi / 4)
        WeightParam.cos_imaginary(0.78)  # just inside

    def test_cosh_overflow_rejected(self):
        WeightParam.cosh_real(19.0)  # tanh^2(19) < 1 in float64; it rounds to 1 from ~19.06
        for mu in (711.0, -800.0):
            with pytest.raises(ParameterError):
                WeightParam.cosh_real(mu)

    def test_contraction(self):
        assert WeightParam.cosh_real(0.5).contraction == pytest.approx(math.tanh(0.5) ** 2)
        assert WeightParam.cos_imaginary(0.3).contraction == pytest.approx(math.tan(0.3) ** 2)
        assert WeightParam.cosh_real(-2.0).contraction < 1.0

    def test_scale_slope(self):
        p = WeightParam.cos_imaginary(0.4)
        assert p.scale(0.5) == pytest.approx(math.cos(0.2))
        assert p.slope(0.5) == pytest.approx(math.tan(0.2))


class TestCoshForward:
    def test_mu_zero_degenerates(self):
        n = 64
        rng = np.random.default_rng(0)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = GridFn(tg, rng.standard_normal(n))
        a = cosh_forward(f, WeightParam.cosh_real(0.0)).values
        b = fht_forward_d(f).values
        assert np.max(np.abs(a - b)) <= 1e-14

    def test_zero_input(self):
        tg = cgl_nodes(GridKind.TNODES, 32)
        F = cosh_forward(GridFn(tg, np.zeros(32)), WeightParam.cosh_real(2.0))
        assert np.all(F.values == 0.0)

    def test_matches_oracle_at_points(self):
        from fhtcheb import cosh_pv_forward

        n = 256
        p = WeightParam.cosh_real(0.5)
        tg = cgl_nodes(GridKind.TNODES, n)
        F = cosh_forward(GridFn(tg, tg.weights), p)
        coeffs = coeffs_from_sgrid(F)
        for s in (0.0, 0.25):
            orc = cosh_pv_forward(weight_w, s, p, 8192)
            spe = resample(coeffs, s, ResampleMode.T_SERIES)
            assert abs(orc - spe) < 1e-6

    def test_frozen_oracle_value(self):
        # cosh_pv_forward(w, 0.25, mu=0.5, m_points=8192), confirmed by a
        # doubled-resolution run (0.26589161 at m=16384, 0.26589162 at 32768).
        from fhtcheb import cosh_pv_forward

        p = WeightParam.cosh_real(0.5)
        got = cosh_pv_forward(weight_w, 0.25, p, 8192)
        assert got == pytest.approx(0.2658915778251403, abs=1e-12)


def _fresh_solves(F, p, count=3):
    """count direct solves of F at a key with no plan yet: the first by LU,
    the second and later by the reused (inverted) plan."""
    _plan.cache_clear()
    return [cosh_invert_direct(F, p) for _ in range(count)]


def _assert_reuse_matches_lu(solves):
    first = solves[0][0].values
    for got, _ in solves[1:]:
        assert np.max(np.abs(got.values - first)) <= 1e-12


class TestDirect:
    def test_mu_zero_degenerates(self):
        n = 64
        rng = np.random.default_rng(1)
        sg = cgl_nodes(GridKind.SNODES, n)
        F = GridFn(sg, rng.standard_normal(n))
        b = fht_inverse_d(F)
        for a, _ in _fresh_solves(F, WeightParam.cosh_real(0.0)):
            assert np.max(np.abs(a.values - b.values)) <= 1e-14

    def test_roundtrip_mu3(self):
        n = 256
        p = WeightParam.cosh_real(3.0)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * (1.0 + 0.3 * tg.nodes)
        F = cosh_forward(GridFn(tg, f), p)
        solves = _fresh_solves(F, p)
        for got, rep in solves:
            assert np.max(np.abs(got.values[1:] - f[1:])) < 1e-8
            assert rep.converged
            assert rep.final_defect < 1e-10
        _assert_reuse_matches_lu(solves)

    def test_roundtrip_cos_flavor(self):
        n = 256
        p = WeightParam.cos_imaginary(0.5)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * cheb_eval(Basis.SECOND_U, 2, tg.nodes)
        F = cosh_forward(GridFn(tg, f), p)
        solves = _fresh_solves(F, p)
        for got, rep in solves:
            assert np.max(np.abs(got.values[1:] - f[1:])) < 1e-8
            assert rep.final_defect < 1e-10
        _assert_reuse_matches_lu(solves)

    def test_node0_zeroed(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        for got, _ in _fresh_solves(GridFn(sg, np.ones(n)), WeightParam.cosh_real(1.0)):
            assert got.values[0] == 0.0

    def test_reuse_as_accurate_as_lu_at_large_mu(self):
        # cond <= (1+c)/(1-c) ~ 4.4e6 at mu = 8: the reused inverse plus one
        # refinement step must recover f no worse than the LU solve does.
        n = 256
        p = WeightParam.cosh_real(8.0)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * (1.0 + 0.3 * tg.nodes)
        F = cosh_forward(GridFn(tg, f), p)
        errs = [np.max(np.abs(got.values[1:] - f[1:])) for got, _ in _fresh_solves(F, p)]
        assert errs[0] < 1e-7
        assert max(errs[1:]) <= errs[0]

    def test_accuracy_at_large_mu(self):
        # With HD exact to rounding the LU solve at mu = 8 recovers f to
        # 6.2e-10; with HD as the product of C3 and S1 it was 9.6e-9.
        n = 256
        p = WeightParam.cosh_real(8.0)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * (1.0 + 0.3 * tg.nodes)
        F = cosh_forward(GridFn(tg, f), p)
        got, _ = cosh_invert_direct(F, p)
        assert np.max(np.abs(got.values[1:] - f[1:])) < 2e-9

    def test_plan_cache_bounded(self):
        n = 32
        sg = cgl_nodes(GridKind.SNODES, n)
        F = GridFn(sg, np.ones(n))
        _plan.cache_clear()
        maxsize = _plan.cache_info().maxsize
        for k in range(2 * maxsize + 1):
            cosh_invert_direct(F, WeightParam.cosh_real(0.1 * (k + 1)))
            assert _plan.cache_info().currsize <= maxsize
        assert _plan.cache_info().currsize == maxsize

    def test_concurrent_solves_share_plan(self):
        # Threads racing through the first (LU) and second (inverting) solve
        # of one key must never invert the stored matrix twice.
        n = 64
        p = WeightParam.cosh_real(2.0)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * (1.0 - 0.4 * tg.nodes)
        F = cosh_forward(GridFn(tg, f), p)
        want = _fresh_solves(F, p, count=1)[0][0].values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _plan.cache_clear()
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(cosh_invert_direct, F, p) for _ in range(24)]
                    results = [fut.result(timeout=60) for fut in futures]
                for got, _ in results:
                    assert np.max(np.abs(got.values - want)) <= 1e-12
        finally:
            sys.setswitchinterval(interval)


class TestNeumann:
    def test_mu_zero_one_iteration(self):
        n = 64
        rng = np.random.default_rng(2)
        sg = cgl_nodes(GridKind.SNODES, n)
        F = GridFn(sg, rng.standard_normal(n))
        got, rep = cosh_invert_neumann(F, WeightParam.cosh_real(0.0), tol=1e-12)
        assert rep.iterations == 1
        b = fht_inverse_d(F)
        np.testing.assert_allclose(got.values, b.values, atol=1e-13)

    @pytest.mark.parametrize("mu", [0.5, 1.0])
    def test_contraction_ratio(self, mu):
        n = 128
        p = WeightParam.cosh_real(mu)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * (1.0 - 0.2 * tg.nodes)
        F = cosh_forward(GridFn(tg, f), p)
        _, rep = cosh_invert_neumann(F, p, tol=1e-12)
        assert rep.converged
        assert rep.measured_ratio <= p.contraction + 0.02

    @pytest.mark.parametrize("eta", [0.3, 0.5])
    def test_contraction_ratio_cos(self, eta):
        n = 128
        p = WeightParam.cos_imaginary(eta)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * (1.0 - 0.2 * tg.nodes)
        F = cosh_forward(GridFn(tg, f), p)
        _, rep = cosh_invert_neumann(F, p, tol=1e-12)
        assert rep.measured_ratio <= p.contraction + 0.02

    def test_agrees_with_direct(self):
        n = 128
        p = WeightParam.cosh_real(1.0)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = tg.weights * (1.0 + tg.nodes ** 2)
        F = cosh_forward(GridFn(tg, f), p)
        fd, _ = cosh_invert_direct(F, p)
        fn, _ = cosh_invert_neumann(F, p, tol=1e-12)
        diff = fd.values - fn.values
        assert float(np.sqrt(np.sum(diff[1:] ** 2) / n)) < 1e-8

    def test_max_iter_reports_nonconverged(self):
        n = 64
        p = WeightParam.cosh_real(2.0)
        tg = cgl_nodes(GridKind.TNODES, n)
        F = cosh_forward(GridFn(tg, tg.weights), p)
        _, rep = cosh_invert_neumann(F, p, tol=1e-15, max_iter=2)
        assert not rep.converged
        assert rep.iterations == 2


def test_iteration_counts_pinned():
    # The counts the two-stage C3 / S1 form of both steps gives at tol = 1e-10;
    # a change in the step operator or the step norm moves them.
    n = 256
    p = WeightParam.cosh_real(2.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    ug = cgl_nodes(GridKind.UNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes - 0.2 * tg.nodes ** 3)), p)
    _, rep_neu = cosh_invert_neumann(F, p)
    f_odd = 2.0 * tg.nodes * tg.weights * (1.0 - 0.5 * tg.nodes ** 2)  # fbar = 0
    F_odd = cosh_forward(GridFn(tg, f_odd), p)
    Fu = resample(coeffs_from_sgrid(F_odd), ug.nodes, ResampleMode.T_SERIES)
    _, rep_mc = cosh_invert_mean_constrained(GridFn(ug, Fu), p, 0.0)
    assert (rep_neu.iterations, rep_mc.iterations) == (239, 233)
    assert rep_neu.converged and rep_mc.converged


def _pinned_inputs(n=256, mu=2.0):
    """The inputs of test_iteration_counts_pinned: F on S-nodes, F of an odd f on U-nodes."""
    p = WeightParam.cosh_real(mu)
    tg = cgl_nodes(GridKind.TNODES, n)
    ug = cgl_nodes(GridKind.UNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes - 0.2 * tg.nodes ** 3)), p)
    f_odd = 2.0 * tg.nodes * tg.weights * (1.0 - 0.5 * tg.nodes ** 2)  # fbar = 0
    F_odd = cosh_forward(GridFn(tg, f_odd), p)
    Fu = resample(coeffs_from_sgrid(F_odd), ug.nodes, ResampleMode.T_SERIES)
    return p, F, GridFn(ug, Fu)


def test_final_defect_is_unsplit_residual(monkeypatch):
    # final_defect is ||x - f0 - K x|| through the unsplit operator, about
    # tanh^2(mu) times the last step, so a wrong parity block shows there.
    p, F, Fu = _pinned_inputs()
    for _, rep in (cosh_invert_neumann(F, p), cosh_invert_mean_constrained(Fu, p, 0.0)):
        assert rep.converged
        assert 0.0 < rep.final_defect < rep.residual_history[-1]

    blocks = fhtcheb.cosh._chain_blocks

    def flipped(kind, n):
        left, right = blocks(kind, n)
        return left, right * np.array([1.0, -1.0])[:, None, None]  # B_oe in the odd chain

    monkeypatch.setattr(fhtcheb.cosh, "_chain_blocks", flipped)
    for _, rep in (cosh_invert_neumann(F, p), cosh_invert_mean_constrained(Fu, p, 0.0)):
        assert rep.converged  # the split iteration still contracts, to a wrong x
        assert rep.final_defect > 1e6 * rep.residual_history[-1]


def _seeded_f(nodes, seed, odd=False):
    """A seeded sine series sum a_k sin(k theta) at x = cos(theta); odd in x for even k only."""
    a = np.random.default_rng(seed).standard_normal(24) / 2.0 ** np.arange(24)
    a[0] = 0.0
    if odd:
        a[1::2] = 0.0
    return np.sin(np.outer(np.arccos(nodes), np.arange(24))) @ a


@pytest.mark.parametrize("n", [63, 255])
def test_iterative_solvers_at_odd_n(n):
    # For odd N the centre node moves from the T-grid to the S-grid.
    p = WeightParam.cosh_real(1.5)
    tg, sg, ug = (cgl_nodes(k, n) for k in (GridKind.TNODES, GridKind.SNODES, GridKind.UNODES))
    f = _seeded_f(tg.nodes, n)
    F = cosh_forward(GridFn(tg, f), p)
    fn, rep = cosh_invert_neumann(F, p, tol=1e-12)
    assert rep.converged and 0.0 < rep.final_defect < rep.residual_history[-1]
    np.testing.assert_allclose(fn.values[1:], f[1:], rtol=0, atol=1e-8)
    fd, _ = cosh_invert_direct(F, p)
    assert float(np.sqrt(np.sum((fd.values - fn.values)[1:] ** 2) / n)) < 1e-8

    F_odd = cosh_forward(GridFn(tg, _seeded_f(tg.nodes, n, odd=True)), p)  # fbar = 0
    Fu = resample(coeffs_from_sgrid(F_odd), ug.nodes, ResampleMode.T_SERIES)
    fm, rep = cosh_invert_mean_constrained(GridFn(ug, Fu), p, 0.0, tol=1e-12)
    assert rep.converged and 0.0 < rep.final_defect < rep.residual_history[-1]
    want = _seeded_f(sg.nodes, n, odd=True)
    assert np.linalg.norm(fm.values - want) / np.linalg.norm(want) < 1e-6


@pytest.mark.parametrize("tol, max_iter, mean_fbar", [
    (math.nan, 10, 0.0), (math.inf, 10, 0.0), (0.0, 10, 0.0), (-1e-10, 10, 0.0),
    (1e-10, 0, 0.0), (1e-10, -3, 0.0), (1e-10, 10, math.nan), (1e-10, 10, -math.inf),
])
def test_stopping_arguments_rejected(tol, max_iter, mean_fbar):
    n = 32
    p = WeightParam.cosh_real(1.0)
    ug = cgl_nodes(GridKind.UNODES, n)
    F_u = GridFn(ug, ug.nodes)
    with pytest.raises(ParameterError):
        cosh_invert_mean_constrained(F_u, p, mean_fbar, tol=tol, max_iter=max_iter)
    if math.isfinite(mean_fbar):
        # the arguments are checked first, before the grid kind
        with pytest.raises(ParameterError, match="tol"):
            cosh_invert_neumann(F_u, p, tol=tol, max_iter=max_iter)


def test_one_plan_serves_every_operator():
    n = 64
    p = WeightParam.cosh_real(1.0)
    tg, sg, ug = (cgl_nodes(k, n) for k in (GridKind.TNODES, GridKind.SNODES, GridKind.UNODES))
    _plan.cache_clear()
    F = cosh_forward(GridFn(tg, tg.weights), p)
    cosh_invert_neumann(F, p)
    cosh_invert_mean_constrained(GridFn(ug, ug.nodes), p, 0.0)
    for kind in ("Kd", "Km"):
        kernel(kind, p, tg)
    plan = _plan(p, n)
    assert plan.matrix is None  # so the first direct solve goes by LU
    cosh_invert_direct(F, p)
    assert plan.matrix is not None and not plan.inverted
    cosh_invert_direct(F, p)
    assert plan.inverted
    assert _plan.cache_info().currsize == 1
    diagonals = {"d_s": p.slope(sg.nodes), "d_t": p.slope(tg.nodes), "d_u": p.slope(ug.nodes),
                 "cosh_s": p.scale(sg.nodes), "cosh_t": p.scale(tg.nodes),
                 "cosh_u": p.scale(ug.nodes)}
    for name, want in diagonals.items():
        got = getattr(plan, name)
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0


class TestMeanConstrained:
    def test_mu_zero_single_iteration(self):
        n = 64
        p = WeightParam.cosh_real(0.0)
        sg = cgl_nodes(GridKind.SNODES, n)
        ug = cgl_nodes(GridKind.UNODES, n)
        tg = cgl_nodes(GridKind.TNODES, n)
        f = 2.0 * tg.nodes * tg.weights  # w U_1, odd so fbar = 0
        F = cosh_forward(GridFn(tg, f), p)
        Fu = resample(coeffs_from_sgrid(F), ug.nodes, ResampleMode.T_SERIES)
        got, rep = cosh_invert_mean_constrained(GridFn(ug, Fu), p, 0.0, tol=1e-10)
        assert rep.iterations == 1
        np.testing.assert_allclose(got.values, 2.0 * sg.nodes * sg.weights, atol=1e-8)

    def test_nonzero_mean_algebraic_accuracy(self):
        # f = w has fbar != 0; the mean-correction term carries log / sqrt
        # singular components whose grid analysis converges algebraically,
        # so the tolerance here is looser than the spectral cases.
        from fhtcheb.fht import sgrid_to_unodes

        n = 128
        p = WeightParam.cosh_real(0.5)
        tg = cgl_nodes(GridKind.TNODES, n)
        ug = cgl_nodes(GridKind.UNODES, n)
        F = cosh_forward(GridFn(tg, tg.weights), p)
        Fu = resample(coeffs_from_sgrid(F), ug.nodes, ResampleMode.T_SERIES)
        gx, gw = np.polynomial.legendre.leggauss(400)
        fbar = 0.5 * float(np.sum(gw * p.scale(gx) * np.sqrt(1.0 - gx ** 2)))
        got, rep = cosh_invert_mean_constrained(GridFn(ug, Fu), p, fbar, tol=1e-12)
        assert rep.converged
        got_u = sgrid_to_unodes(got)
        rel = (norm(GridFn(ug, got_u - ug.weights), Space.LM2)
               / norm(GridFn(ug, ug.weights), Space.LM2))
        assert rel < 1e-3

    def test_roundtrip_mu_half(self):
        n = 128
        p = WeightParam.cosh_real(0.5)
        tg = cgl_nodes(GridKind.TNODES, n)
        ug = cgl_nodes(GridKind.UNODES, n)
        sg = cgl_nodes(GridKind.SNODES, n)

        def fex(t):
            return 2.0 * t * weight_w(t)

        F = cosh_forward(GridFn(tg, fex(tg.nodes)), p)
        Fu = resample(coeffs_from_sgrid(F), ug.nodes, ResampleMode.T_SERIES)
        gx, gw = np.polynomial.legendre.leggauss(200)
        fbar = 0.5 * float(np.sum(gw * p.scale(gx) * fex(gx)))
        got, rep = cosh_invert_mean_constrained(GridFn(ug, Fu), p, fbar, tol=1e-12)
        assert rep.converged
        assert rep.measured_ratio <= p.contraction + 0.02
        rel = np.linalg.norm(got.values - fex(sg.nodes)) / np.linalg.norm(fex(sg.nodes))
        assert rel < 1e-6

    def test_wrong_grid(self):
        from fhtcheb import GridKind as GK

        sg = cgl_nodes(GK.SNODES, 32)
        with pytest.raises(ParameterError):
            cosh_invert_mean_constrained(GridFn(sg, np.zeros(32)),
                                         WeightParam.cosh_real(0.5), 0.0)


class TestKernel:
    def test_mu_zero_vanishes(self):
        p = WeightParam.cosh_real(0.0)
        for kind in ("Kd", "Km"):
            k = kernel(kind, p, cgl_nodes(GridKind.SNODES, 32))
            assert np.max(np.abs(k.values)) < 1e-14

    def test_kd_matches_frozen_oracle(self):
        # theta-substituted PV quadrature of tanh(s)/((s-t) pi w(s)) at
        # t = 0.3, mu = 1; frozen after doubled-resolution confirmation.
        p = WeightParam.cosh_real(1.0)
        k = kernel("Kd", p, cgl_nodes(GridKind.TNODES, 128))
        got = resample(k.series, 0.3, ResampleMode.WU_SERIES) / weight_w(0.3)
        assert got == pytest.approx(0.8463690558, abs=1e-6)

    def test_even_parity(self):
        # The kernels are transforms of the odd slope function, hence even.
        p = WeightParam.cosh_real(1.0)
        for kind in ("Kd", "Km"):
            k = kernel(kind, p, cgl_nodes(GridKind.SNODES, 64))
            assert np.max(np.abs(k.values - k.values[::-1])) < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            kernel("Kx", WeightParam.cosh_real(1.0), cgl_nodes(GridKind.SNODES, 16))


class TestCondition:
    def test_mu_zero_identity(self):
        est = condition_estimate(WeightParam.cosh_real(0.0), 64)
        assert est.measured == pytest.approx(1.0)
        assert est.bound == pytest.approx(1.0)

    def test_mu4_bound(self):
        est = condition_estimate(WeightParam.cosh_real(4.0), 256)
        assert round(est.bound, 1) == 1490.5
        assert est.measured <= est.bound * (1.0 + 1e-6)

    def test_verify_detail_reports_measured_and_bound(self):
        from fhtcheb.verify import check_condition

        p = WeightParam.cosh_real(3.0)
        est = condition_estimate(p, 64)
        res = check_condition(p, 64)
        assert res.passed
        assert f"{est.measured:.4e}" in res.detail and f"{est.bound:.4e}" in res.detail

    def test_mu3_bound_value(self):
        est = condition_estimate(WeightParam.cosh_real(3.0), 256)
        c = math.tanh(3.0) ** 2
        assert est.bound == pytest.approx((1 + c) / (1 - c))
        assert round(est.bound, 1) == 201.7
        assert est.measured <= est.bound


class TestNullExperiment:
    def test_runs_and_schema(self):
        rows = null_experiment(WeightParam.cosh_real(3.0), [128, 64])
        assert [r.n for r in rows] == [64, 128]
        for r in rows:
            assert math.isfinite(r.norm_d) and math.isfinite(r.norm_m)

    def test_mu_zero_rejected(self):
        with pytest.raises(ParameterError):
            null_experiment(WeightParam.cosh_real(0.0), [64])

    def test_cos_flavor_rejected(self):
        with pytest.raises(ParameterError):
            null_experiment(WeightParam.cos_imaginary(0.3), [64])


class TestCoerciveness:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_lower_bound(self, mu):
        from fhtcheb import Space, coeffs_from_tgrid

        n = 128
        p = WeightParam.cosh_real(mu)
        tg = cgl_nodes(GridKind.TNODES, n)
        sg = cgl_nodes(GridKind.SNODES, n)
        floor = 1.0 - math.tanh(mu) ** 2
        worst = math.inf
        for k in range(n - 1):
            f = GridFn(tg, tg.weights * cheb_eval(Basis.SECOND_U, k, tg.nodes))
            num = norm(cosh_forward(f, p), Space.LD2)
            den = norm(GridFn(sg, resample(coeffs_from_tgrid(f), sg.nodes,
                                           ResampleMode.WU_SERIES)), Space.LD2)
            worst = min(worst, num / den)
        assert worst >= floor - 1e-8

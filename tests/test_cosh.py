import dataclasses
import functools
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fhtcheb import (
    MAX_DEGREE,
    Basis,
    DomainError,
    GridFn,
    GridKind,
    GridMismatchError,
    InvalidSizeError,
    ParameterError,
    ResampleMode,
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
    fht_inverse_m,
    kernel,
    norm,
    null_experiment,
    resample,
    weight_w,
)
import fhtcheb.cosh
from fhtcheb import verify
from fhtcheb.cosh import (
    _BLOCK_STEPS,
    _RANK,
    SolveReport,
    _block_powers,
    _contract,
    _fold,
    _iterate,
    _plan,
    _pv_quadrature,
    _unfold,
    mean_correction,
)
from fhtcheb.fht import _u_analysis, evaluate
from fhtcheb.transforms import TransformKind, _hd_apply, build


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
    """count direct solves of F at a key with no plan yet: the first builds
    the key's direct state, the later ones reuse it."""
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
        # cond <= (1+c)/(1-c) ~ 4.4e6 at mu = 8: a solve that reuses the
        # stored direct state must recover f no worse than the first solve does.
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
        # Threads racing through the first solve of one key, which builds
        # and stores its direct state, must all see one complete state.
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


def test_direct_solve_independent_of_history():
    # Three solves at a fresh key must give the same values, each as close
    # to f as LU on the full system matrix. A stored full inverse (used from
    # the second solve on) erred 8.0e-3 against LU's 5.9e-5 at mu = 14,
    # N = 256, and an inverse of the halves at every mu erred 2.3 against
    # 4.5e-2 at mu = 17, N = 512.
    for n, mu in itertools.product((64, 255, 256, 512), (8.0, 12.0, 14.0, 15.0, 17.0, 18.0)):
        tg, sg = cgl_nodes(GridKind.TNODES, n), cgl_nodes(GridKind.SNODES, n)
        f = tg.weights * (1.0 + 0.3 * tg.nodes)
        p = WeightParam.cosh_real(mu)
        F = cosh_forward(GridFn(tg, f), p)
        b = fht_inverse_d(GridFn(sg, F.values / p.scale(sg.nodes))).values
        lu = np.linalg.solve(fhtcheb.cosh.system_matrix(p, n), b) / p.scale(tg.nodes)
        lu_err = np.max(np.abs(lu[1:] - f[1:]))
        solves = [got.values for got, _ in _fresh_solves(F, p)]
        for got in solves[1:]:
            np.testing.assert_array_equal(got, solves[0])
        err = np.max(np.abs(solves[0][1:] - f[1:]))
        assert err <= max(2.0 * lu_err, 1e-12), (n, mu, err, lu_err)


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


def _fixed_point(kind, n, d1, d2, f0, tol, max_iter):
    """The textbook loop x <- b + L (R x) on _chain_blocks, in _fold's coordinates."""
    left, right = fhtcheb.cosh._chain_blocks(kind, n)
    left = left * (_fold(d2)[1, :left.shape[2]] * math.sqrt(0.5))
    right = right * (_fold(d1)[1] * math.sqrt(0.5))
    b = x = _fold(f0)[..., None]
    history = []
    for _ in range(max_iter):
        nxt = b + left @ (right @ x)
        history.append(float(np.linalg.norm(nxt - x)) / math.sqrt(n))
        x = nxt
        if history[-1] < tol:
            break
    return _unfold(x[..., 0], f0.shape[0]), history


def _kernel_args(kind, n, p, seed=0):
    """_iterate's diagonals as the two solvers pass them, and a seeded f0."""
    plan = _plan(p, n)
    d1, d2 = (plan.d_t[1:], plan.d_s) if kind is TransformKind.HD else (plan.d_s, plan.d_u)
    return d1, d2, np.random.default_rng(seed).standard_normal(d1.shape[0])


# The reference's nxt - x cancels in the tail, so histories are compared
# absolutely. _POWER_CROSSOVER = 0 forces the powered form, inf the one-step
# form; the default puts mu = 0.5 on the one-step side and mu >= 2 on the
# powered side at every N here, and eta = 0.5 on the powered side at N <= 64.
@pytest.mark.parametrize("crossover", [None, 0.0, math.inf])
@pytest.mark.parametrize("p", [WeightParam.cosh_real(mu) for mu in (0.0, 0.5, 2.0, 3.0)]
                         + [WeightParam.cos_imaginary(0.5)], ids=str)
@pytest.mark.parametrize("n", [63, 64, 256])
@pytest.mark.parametrize("kind", [TransformKind.HD, TransformKind.HM])
def test_iterate_matches_fixed_point(kind, n, p, crossover, monkeypatch):
    if crossover is not None:
        monkeypatch.setattr(fhtcheb.cosh, "_POWER_CROSSOVER", crossover)
    d1, d2, f0 = _kernel_args(kind, n, p)
    x, history, _ = _iterate(kind, n, d1, d2, f0, 1e-10, 10000)
    x_ref, history_ref = _fixed_point(kind, n, d1, d2, f0, 1e-10, 10000)
    assert len(history) == len(history_ref)
    gap = np.max(np.abs(np.array(history) - np.array(history_ref)))
    assert gap <= 1e-12 * np.linalg.norm(f0) / math.sqrt(n)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


# N = 64 and 256 give HD's d1 (T-nodes 1..N-1) an odd length, so D1 ends in a
# zero centre pad; N = 63 and 255 do so for HM's d1 (S-nodes).
@pytest.mark.parametrize("p", [WeightParam.cosh_real(mu) for mu in (1.0, 3.0, -2.0)]
                         + [WeightParam.cos_imaginary(0.5)], ids=str)
@pytest.mark.parametrize("n", [63, 64, 255, 256])
@pytest.mark.parametrize("kind", [TransformKind.HD, TransformKind.HM])
def test_block_powers_match_direct_squaring(kind, n, p, monkeypatch):
    # Both chains' powers come from X = K_odd^(q-1) M: K_odd^q = X D1 and
    # K_even^q = X^T D1. The reference scales L and R by D2 and D1, forms
    # K = L R per chain and takes its powers by numpy's repeated squaring.
    d1, d2, f0 = _kernel_args(kind, n, p)
    left, right = fhtcheb.cosh._chain_blocks(kind, n)
    dg1 = _fold(d1)[1, :, None] * math.sqrt(0.5)
    dg2 = _fold(d2)[1, :left.shape[2], None] * math.sqrt(0.5)
    k1 = (left * dg2[:, 0]) @ (right * dg1[:, 0])
    b = _fold(f0)[..., None]
    padded = d1.shape[0] % 2 == 1
    assert padded == ((n % 2 == 0) == (kind is TransformKind.HD))
    assert (dg1[-1, 0] == 0.0) == padded
    for q in (1, 2, 4, 8, 16):
        monkeypatch.setattr(fhtcheb.cosh, "_BLOCK_STEPS", q)
        v, k = _block_powers(left, right, dg1, dg2, k1 @ b)
        powers = [np.linalg.matrix_power(k1, j) for j in range(1, q + 1)]
        for chain in (0, 1):
            want = powers[-1][chain]
            assert np.max(np.abs(k[chain] - want)) <= 1e-13 * np.max(np.abs(want))
            want_v = np.concatenate([kj[chain] @ b[chain] for kj in powers], axis=1)
            assert np.max(np.abs(v[chain] - want_v)) <= 1e-13 * np.max(np.abs(want_v))
        if padded:  # the even chain's pad row is a row of its own; its column is 0
            row = powers[-1][0, -1]
            assert np.max(np.abs(row)) > 0.0
            assert np.max(np.abs(k[0, -1] - row)) <= 1e-13 * np.max(np.abs(row))
            assert not k[0, :, -1].any() and not k[1, :, -1].any()


def test_iterate_stops_inside_a_block():
    # About 1000 steps, one more than a whole number of blocks: the powered form
    # stops at the first column of a block. The reference's steps nxt - x reach
    # 0 once K^k f0 drops below the rounding of x (after about 600 steps), so
    # only the sums are compared.
    n, p = 64, WeightParam.cosh_real(2.0)
    stop = _BLOCK_STEPS * (1000 // _BLOCK_STEPS) + 1
    for kind in (TransformKind.HD, TransformKind.HM):
        d1, d2, f0 = _kernel_args(kind, n, p)
        x, history, _ = _iterate(kind, n, d1, d2, f0, 1e-300, stop)
        x_ref, _ = _fixed_point(kind, n, d1, d2, f0, 1e-300, stop)
        assert len(history) == stop
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    tg = cgl_nodes(GridKind.TNODES, n)
    _, rep = cosh_invert_neumann(cosh_forward(GridFn(tg, tg.weights), p), p, tol=1e-300,
                                 max_iter=stop)
    assert rep.iterations == stop and rep.converged is False


def test_iterate_forms_agree_below_rounding(monkeypatch):
    # tol = 1e-300 is far below the rounding of x, where a step taken as the
    # difference of two sums would read 0. Both forms measure K^k f0 itself:
    # max_iter = 60 keeps the predicted count at or below 0.5 m = 64 (one-step
    # form) and 70 lifts it above (powered form), and both run to max_iter.
    n, p = 256, WeightParam.cosh_real(0.5)
    tg = cgl_nodes(GridKind.TNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * np.exp(tg.nodes)), p)
    _, short = cosh_invert_neumann(F, p, tol=1e-300, max_iter=60)
    _, long = cosh_invert_neumann(F, p, tol=1e-300, max_iter=70)
    assert (short.iterations, short.converged, long.iterations, long.converged) \
        == (60, False, 70, False)
    np.testing.assert_allclose(short.residual_history, long.residual_history[:60], rtol=1e-9)
    # With max_iter = 1000 both forced forms run until the squared step length
    # underflows to 0, at steps near 1e-162.
    for kind in (TransformKind.HD, TransformKind.HM):
        d1, d2, f0 = _kernel_args(kind, n, p)
        runs = []
        for crossover in (0.0, math.inf):
            monkeypatch.setattr(fhtcheb.cosh, "_POWER_CROSSOVER", crossover)
            runs.append(_iterate(kind, n, d1, d2, f0, 1e-300, 1000))
        (x, history, _), (x_one, history_one, _) = runs
        assert len(history) == len(history_one) < 1000 and history[-1] < 1e-300
        np.testing.assert_allclose(history, history_one, rtol=1e-9)
        assert np.linalg.norm(x - x_one) <= 1e-12 * np.linalg.norm(x_one)


def test_tol_below_the_predicted_ratio():
    # tol / |K f0| underflows to 0 once |K f0| >= 2; the solve still predicts
    # its count and runs until the squared length of K^k f0 underflows to 0.
    n, p = 64, WeightParam.cosh_real(0.5)
    tg = cgl_nodes(GridKind.TNODES, n)
    f = 1e4 * tg.weights * np.exp(tg.nodes)
    got, rep = cosh_invert_neumann(cosh_forward(GridFn(tg, f), p), p, tol=5e-324)
    assert rep.residual_history[0] >= 2.0
    assert rep.converged and rep.residual_history[-1] == 0.0
    np.testing.assert_allclose(got.values[1:], f[1:], rtol=0, atol=1e-8 * np.max(np.abs(f)))


def test_iterate_where_tanh_rounds_to_one():
    # np.tanh(19 t) is exactly 1 at the outer nodes, so the bound c on ||K|| is 1
    # and predicts no step count. Both iterations run to max_iter in either form:
    # 20 steps at N = 98 stay one-step, 100 at N = 256 are powered.
    p = WeightParam.cosh_real(19.0)
    for n, max_iter in ((98, 20), (256, 100)):
        sg, ug = cgl_nodes(GridKind.SNODES, n), cgl_nodes(GridKind.UNODES, n)
        for _, rep in (cosh_invert_neumann(GridFn(sg, sg.nodes), p, max_iter=max_iter),
                       cosh_invert_mean_constrained(GridFn(ug, ug.nodes), p, 0.0,
                                                    max_iter=max_iter)):
            assert rep.iterations == max_iter and not rep.converged
            assert np.all(np.isfinite(rep.residual_history))


@pytest.mark.parametrize("kind", [TransformKind.HD, TransformKind.HM])
def test_iterate_independent_of_pass_size(kind, monkeypatch):
    # _PASS_BYTES = 1 makes every pass one block of _BLOCK_STEPS steps; the default
    # fits the whole solve (about 290 steps at mu = 2, N = 256) in one pass.
    n, p = 256, WeightParam.cosh_real(2.0)
    d1, d2, f0 = _kernel_args(kind, n, p)
    x, history, form = _iterate(kind, n, d1, d2, f0, 1e-10, 10000)
    monkeypatch.setattr(fhtcheb.cosh, "_PASS_BYTES", 1)
    x_one, history_one, form_one = _iterate(kind, n, d1, d2, f0, 1e-10, 10000)
    assert form == form_one == "powered"
    assert len(history) == len(history_one) > 8
    np.testing.assert_allclose(history, history_one, rtol=1e-12)
    np.testing.assert_allclose(x, x_one, rtol=1e-12, atol=1e-12 * np.max(np.abs(x)))


# With one-block passes, step B + 1 opens the second pass and step 2 B + 5
# lies inside the third (B = _BLOCK_STEPS); with the default budget both lie
# inside the first pass.
@pytest.mark.parametrize("budget", [1, None])
@pytest.mark.parametrize("stop, max_iter", [(_BLOCK_STEPS + 1, 1000),
                                            (2 * _BLOCK_STEPS + 5, 1000),
                                            (2 * _BLOCK_STEPS + 5, 2 * _BLOCK_STEPS + 5)],
                         ids=["tol-first-column", "tol-inside", "max-iter-inside"])
@pytest.mark.parametrize("kind", [TransformKind.HD, TransformKind.HM])
def test_iterate_stops_inside_a_pass(kind, stop, max_iter, budget, monkeypatch):
    n, p = 64, WeightParam.cosh_real(2.0)
    d1, d2, f0 = _kernel_args(kind, n, p)
    monkeypatch.setattr(fhtcheb.cosh, "_POWER_CROSSOVER", math.inf)
    _, steps, _ = _iterate(kind, n, d1, d2, f0, 1e-300, stop)
    assert all(a > b for a, b in zip(steps, steps[1:]))  # |K v| <= c |v|
    # a tol between steps stop - 1 and stop, or below every step for max_iter
    tol = math.sqrt(steps[-2] * steps[-1]) if max_iter > stop else 1e-300
    x_ref, history_ref, form_ref = _iterate(kind, n, d1, d2, f0, tol, max_iter)
    monkeypatch.setattr(fhtcheb.cosh, "_POWER_CROSSOVER", 0.0)
    if budget is not None:
        monkeypatch.setattr(fhtcheb.cosh, "_PASS_BYTES", budget)
    x, history, form = _iterate(kind, n, d1, d2, f0, tol, max_iter)
    assert (form_ref, form) == ("one-step", "powered")
    assert len(history) == len(history_ref) == stop
    np.testing.assert_allclose(history, history_ref, rtol=1e-12)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_iterate_runs_to_max_iter_where_the_bound_is_one():
    # At mu = 19, N = 64 the bound c is 1 (for HM it is 1 - 1.1e-16) and
    # predicts no count: the pass buffer is sized by max_iter and the budget.
    n, p = 64, WeightParam.cosh_real(19.0)
    for kind in (TransformKind.HD, TransformKind.HM):
        d1, d2, f0 = _kernel_args(kind, n, p)
        _, history, form = _iterate(kind, n, d1, d2, f0, 1e-10, 5000)
        assert form == "powered" and len(history) == 5000
        assert np.all(np.isfinite(history)) and history[-1] >= 1e-10


@pytest.mark.parametrize("solver, mu, n, form", [
    (cosh_invert_neumann, 0.5, 256, "one-step"),
    (cosh_invert_neumann, 3.0, 256, "powered"),
    (cosh_invert_direct, 3.0, 64, "woodbury"),
    (cosh_invert_direct, 14.0, 64, "lu"),
])
def test_report_names_the_solver_form(solver, mu, n, form):
    p = WeightParam.cosh_real(mu)
    tg = cgl_nodes(GridKind.TNODES, n)
    _, rep = solver(cosh_forward(GridFn(tg, tg.weights), p), p)
    assert rep.form == form


def test_neumann_longest_run_pinned():
    # c = tanh^2(4) = 0.9987: the longest solve any test runs, and the one where
    # rounding in the sum of 11 328 powers K^k f0 would grow most.
    n, p = 64, WeightParam.cosh_real(4.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    f = tg.weights * np.exp(tg.nodes)
    got, rep = cosh_invert_neumann(cosh_forward(GridFn(tg, f), p), p, max_iter=20000)
    assert rep.iterations == 11328 and rep.converged
    assert np.max(np.abs(got.values[1:] - f[1:])) <= 2e-8
    assert 0.0 < rep.final_defect < rep.residual_history[-1]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [WeightParam.cosh_real(3.0), WeightParam.cos_imaginary(0.7)],
                         ids=lambda p: f"{p.flavor.value}{p.value:g}")
@pytest.mark.parametrize("max_iter", [1, 10000])  # the one-step and the powered form
def test_overflowing_first_step_raises(p, max_iter):
    # |K f0|^2 overflows for 1e155 data, and with ||K|| < 1 no later step is longer; at
    # 1e153 the first step is finite and both solves run (the CLI's exit 3 and exit 0/2).
    n = 64
    sg, ug = cgl_nodes(GridKind.SNODES, n), cgl_nodes(GridKind.UNODES, n)
    for value, fails in ((1e155, True), (1e153, False)):
        solves = [lambda: cosh_invert_neumann(GridFn(sg, np.full(n, value)), p, max_iter=max_iter),
                  lambda: cosh_invert_mean_constrained(GridFn(ug, np.full(n, value)), p, 0.0,
                                                       max_iter=max_iter)]
        for solve in solves:
            if fails:
                with pytest.raises(DomainError, match="overflows"):
                    solve()
            else:
                got, rep = solve()
                assert np.all(np.isfinite(got.values)) and math.isfinite(rep.residual_history[0])


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


_SYSTEM_WEIGHTS = [WeightParam.cosh_real(0.5), WeightParam.cosh_real(3.0),
                   WeightParam.cosh_real(14.0), WeightParam.cos_imaginary(0.5)]


def _dense_system_matrix(p, n):
    """I - HD^T D_s HD D_t from the dense HD, the slope product's sign on D_s."""
    hd = build(TransformKind.HD, n)
    d_s, d_t = (p.slope(cgl_nodes(k, n).nodes) for k in (GridKind.SNODES, GridKind.TNODES))
    return np.eye(n) - hd.T @ (p.product_sign * d_s[:, None] * hd * d_t[None, :])


@pytest.mark.parametrize("n", [8, 9, 64, 255])
@pytest.mark.parametrize("p", _SYSTEM_WEIGHTS)
def test_system_matrix_is_built_in_place_to_the_same_bits(n, p):
    want = _dense_system_matrix(p, n)
    got = fhtcheb.cosh.system_matrix(p, n)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [257, 1025])
@pytest.mark.parametrize("p", _SYSTEM_WEIGHTS)
def test_system_matrix_in_panels_matches_the_dense_formula(n, p):
    # Past one panel the block products may round differently from one
    # dense product (1.1e-16 at most measured), never by more.
    got = fhtcheb.cosh.system_matrix(p, n)
    assert np.max(np.abs(got - _dense_system_matrix(p, n))) <= 1e-15


def test_cold_direct_solve_peaks_under_two_system_matrices():
    # The first solve at a key builds its state with no dense HD and no
    # folded copy of the system matrix; with both it peaked at 3.02 N^2 float64.
    n = 1024
    p = WeightParam.cosh_real(3.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes)), p)
    _plan.cache_clear()
    build.cache_clear()
    tracemalloc.start()
    try:
        cosh_invert_direct(F, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8, peak / (8 * n * n)


@pytest.mark.parametrize("n, p", [(300, WeightParam.cosh_real(3.0)),
                                  (600, WeightParam.cos_imaginary(0.5))])
def test_cold_direct_solve_reads_no_dense_hd(monkeypatch, n, p):
    # The first solve at a key builds its Woodbury factor from HD's generator
    # alone, as close to f as LU on the full system matrix (the bound of
    # test_direct_solve_independent_of_history).
    tg, sg = cgl_nodes(GridKind.TNODES, n), cgl_nodes(GridKind.SNODES, n)
    f = tg.weights * (1.0 + 0.3 * tg.nodes)
    F = cosh_forward(GridFn(tg, f), p)
    b = fht_inverse_d(GridFn(sg, F.values / p.scale(sg.nodes))).values
    lu = np.linalg.solve(fhtcheb.cosh.system_matrix(p, n), b) / p.scale(tg.nodes)
    lu_err = np.max(np.abs(lu[1:] - f[1:]))

    def refuse(kind, n):
        raise AssertionError(f"{kind} built at n = {n}")

    monkeypatch.setattr("fhtcheb.cosh.build", refuse)
    _plan.cache_clear()
    got, rep = cosh_invert_direct(F, p)
    assert rep.form == "woodbury"
    assert np.max(np.abs(got.values[1:] - f[1:])) <= max(2.0 * lu_err, 1e-12)


def _direct_and_lu_errors(p, n):
    """Max errors on nodes 1..N-1 of a cold direct solve and of LU on the full
    system matrix, for f = w(1 + 0.3t), and the solve's report."""
    tg, sg = cgl_nodes(GridKind.TNODES, n), cgl_nodes(GridKind.SNODES, n)
    f = tg.weights * (1.0 + 0.3 * tg.nodes)
    F = cosh_forward(GridFn(tg, f), p)
    b = fht_inverse_d(GridFn(sg, F.values / p.scale(sg.nodes))).values
    lu = np.linalg.solve(fhtcheb.cosh.system_matrix(p, n), b) / p.scale(tg.nodes)
    _plan.cache_clear()
    got, rep = cosh_invert_direct(F, p)
    return np.max(np.abs(got.values[1:] - f[1:])), np.max(np.abs(lu[1:] - f[1:])), rep


@pytest.mark.parametrize("n", [64, 257, 1024, 2048])
@pytest.mark.parametrize("p", [WeightParam.cosh_real(mu) for mu in (0.0, 1.0, 8.0, 10.5)]
                         + [WeightParam.cos_imaginary(eta) for eta in (0.3, 0.78)],
                         ids=lambda p: f"{p.flavor.value}{p.value:g}")
def test_woodbury_solve_as_accurate_as_lu(p, n):
    # Below _INVERSE_LIMIT the direct solve is a Woodbury solve of diag(g) + Q B
    # and one refinement step; the worst ratio to LU's error here is 1.33
    # (mu = 10.5, N = 257).
    err, lu_err, rep = _direct_and_lu_errors(p, n)
    assert rep.form == "woodbury"
    assert err <= max(2.0 * lu_err, 1e-12), (err, lu_err)


def test_direct_state_is_diagonal_plus_low_rank():
    # Below _INVERSE_LIMIT a key keeps g^-1, g^-1 Q and M, 49 N values (the
    # inverse halves were N^2 / 2); above it, the parity halves for LU.
    n, p = 2048, WeightParam.cosh_real(3.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    _plan.cache_clear()
    _, rep = cosh_invert_direct(cosh_forward(GridFn(tg, tg.weights), p), p)
    assert rep.form == "woodbury"
    assert sum(a.size for a in _plan(p, n).direct) <= 64 * n
    n, p = 64, WeightParam.cosh_real(14.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    _, rep = cosh_invert_direct(cosh_forward(GridFn(tg, tg.weights), p), p)
    assert rep.form == "lu"
    assert [a.shape for a in _plan(p, n).direct] == [(2, n // 2, n // 2)]


def test_woodbury_falls_back_to_lu_where_the_probes_miss(monkeypatch):
    # Probes that see nothing of E leave ||E - Q B|| far above 1e-12 ||A||:
    # the key takes the LU halves, and the solve is as accurate as LU.
    monkeypatch.setattr("fhtcheb.cosh._probes", lambda n: np.zeros((n, _RANK)))
    err, lu_err, rep = _direct_and_lu_errors(WeightParam.cosh_real(3.0), 256)
    assert rep.form == "lu"
    assert err <= max(2.0 * lu_err, 1e-12), (err, lu_err)


# One set of oracle data and solves per weight, shared by its four cells.
_oracle_gaps = functools.lru_cache(maxsize=None)(verify._oracle_gaps)


@pytest.mark.parametrize("op", ["forward", "direct", "neumann", "mean_constrained"])
@pytest.mark.parametrize("p", verify._ORACLE_WEIGHTS, ids=lambda p: f"{p.flavor.value}{p.value:g}")
def test_operators_match_the_oracle(p, op):
    # Both flavors compute the paper's transform; the cos flavor's kernel is
    # cos(eta(s - t)) / (s - t). With the slope product's sign lost, the cos
    # cells missed the oracle by 2.1e-2 (forward, eta = 0.3) to 1.3.
    assert _oracle_gaps(p)[op] <= 1e-4


def test_warm_d_flavor_ops_read_no_dense_hd(monkeypatch):
    # Warm, every d-flavor op applies HD by FFT; only the Neumann chain
    # blocks are built from the dense table.
    n = 256
    p = WeightParam.cosh_real(3.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    f = GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes))
    F = cosh_forward(f, p)
    want = [cosh_invert_direct(F, p)[0].values, cosh_invert_neumann(F, p)[0].values]

    def refuse(kind, n):
        raise AssertionError(f"{kind} built at n = {n}")

    monkeypatch.setattr("fhtcheb.fht.build", refuse)
    monkeypatch.setattr("fhtcheb.cosh.build", refuse)
    back = fht_inverse_d(fht_forward_d(f))
    np.testing.assert_allclose(back.values[1:], f.values[1:], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(cosh_forward(f, p).values, F.values)
    got = [cosh_invert_direct(F, p)[0].values, cosh_invert_neumann(F, p)[0].values]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 255, 256, 257, 300, 1000, 1025, 2048, 2049])
@pytest.mark.parametrize("p", [WeightParam.cosh_real(0.0), WeightParam.cosh_real(3.0),
                               WeightParam.cos_imaginary(0.7)],
                         ids=lambda p: f"{p.flavor.value}{p.value:g}")
def test_contraction_kernel_is_two_hd_products_bit_for_bit(n, p):
    # FFT lengths 2N where 2N is 5-smooth and >= 3N-1 elsewhere (255, 257, 1025, 2049)
    plan = _plan(p, n)
    v = np.random.default_rng(n).standard_normal((3, n))
    for x in (v[0], v):
        got = _contract(plan, x)
        want = _hd_apply(plan.d_s * _hd_apply(plan.d_t * x), transposed=True)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _general_report(p, history, tol, defect, form):
    """_report's arithmetic for any history, array work included."""
    steps = np.asarray(history)
    before, after = steps[:-1], steps[1:]
    ratio = (float(np.max(after[before > 0.0] / before[before > 0.0], initial=0.0))
             if np.all(np.isfinite(steps)) else math.inf)
    return SolveReport(len(history), history, ratio, p.contraction, p.coercive_const, defect,
                       not history or history[-1] < tol, form)


@pytest.mark.parametrize("p", [WeightParam.cosh_real(3.0), WeightParam.cosh_real(14.0),
                               WeightParam.cos_imaginary(0.7)],
                         ids=lambda p: f"{p.flavor.value}{p.value:g}")
def test_solve_reports_match_the_general_report(p):
    # a direct solve ("woodbury" or "lu") takes no steps; its report skips the array work
    n = 64
    tg = cgl_nodes(GridKind.TNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes)), p)
    for solver, tol in ((cosh_invert_direct, 0.0), (cosh_invert_neumann, 1e-10)):
        _, rep = solver(F, p)
        want = _general_report(p, rep.residual_history, tol, rep.final_defect, rep.form)
        assert dataclasses.asdict(rep) == dataclasses.asdict(want)
        assert type(rep.measured_ratio) is float


def test_one_plan_serves_every_operator():
    n = 64
    p = WeightParam.cosh_real(1.0)
    tg, sg, ug = (cgl_nodes(k, n) for k in (GridKind.TNODES, GridKind.SNODES, GridKind.UNODES))
    _plan.cache_clear()
    F = cosh_forward(GridFn(tg, tg.weights), p)
    cosh_invert_neumann(F, p)
    cosh_invert_mean_constrained(GridFn(ug, ug.nodes), p, 0.0)
    for kind in ("Kd", "Km"):
        kernel(kind, p, n, tg.nodes)
    plan = _plan(p, n)
    assert plan.direct is None  # no direct state before the first direct solve
    shapes = [(n,), (n, _RANK), (_RANK, n)]  # g^-1, g^-1 Q and M of the Woodbury factor
    cosh_invert_direct(F, p)
    assert [a.shape for a in plan.direct] == shapes
    cosh_invert_direct(F, p)
    assert [a.shape for a in plan.direct] == shapes
    assert _plan.cache_info().currsize == 1
    diagonals = {"d_s": p.slope(sg.nodes), "d_t": p.slope(tg.nodes), "d_u": p.slope(ug.nodes),
                 "cosh_s": p.scale(sg.nodes), "cosh_t": p.scale(tg.nodes),
                 "cosh_u": p.scale(ug.nodes)}
    diagonals["d_s_sym"] = np.concatenate((diagonals["d_s"][::-1], diagonals["d_s"]))
    assert plan.d_s_sym[n:].ctypes.data == plan.d_s.ctypes.data  # d_s is a view, not a copy
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
        rel = (norm(GridFn(ug, got_u - ug.weights))
               / norm(GridFn(ug, ug.weights)))
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
        with pytest.raises(GridMismatchError):
            cosh_invert_mean_constrained(GridFn(sg, np.zeros(32)),
                                         WeightParam.cosh_real(0.5), 0.0)


_KERNEL_WEIGHTS = [WeightParam.cosh_real(mu) for mu in (0.5, 1.0, 3.0, -2.0)] \
    + [WeightParam.cos_imaginary(0.5)]
_KERNEL_SIZES = [16, 32, 63, 64, 255]


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_pv_quadrature_cache_bounded_and_read_only():
    p = WeightParam.cosh_real(2.0)
    _pv_quadrature.cache_clear()
    maxsize = _pv_quadrature.cache_info().maxsize
    for n in range(8, 9 + 2 * maxsize):
        mean_correction(p, cgl_nodes(GridKind.UNODES, n).nodes)
        assert _pv_quadrature.cache_info().currsize <= maxsize
    assert _pv_quadrature.cache_info().currsize == maxsize
    a = _pv_quadrature(cgl_nodes(GridKind.UNODES, 8).nodes.tobytes())
    assert a.shape == (8, 256)
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


# From N = 1024 on, U-nodes come within 1.7e-7 of a Gauss-Legendre node.
@pytest.mark.parametrize("n", [8, 255, 256, 1024, 2049])
def test_mean_correction_matches_uncached_quadrature(n):
    t, w = np.polynomial.legendre.leggauss(256)
    x = cgl_nodes(GridKind.UNODES, n).nodes
    log = np.log((1.0 + x) / (1.0 - x)) / np.pi
    for p in [WeightParam.cosh_real(mu) for mu in (0.5, 2.0, 4.0, -3.0)] \
            + [WeightParam.cos_imaginary(0.7)]:
        gx = p.slope(x)
        reg = ((p.slope(t) - gx[:, None]) / (x[:, None] - t)) @ w
        want = p.product_sign * gx * (reg / np.pi + gx * log) - log
        got = mean_correction(p, x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestKernel:
    @pytest.mark.parametrize("n", _KERNEL_SIZES)
    @pytest.mark.parametrize("p", _KERNEL_WEIGHTS, ids=str)
    def test_kd_times_w_is_inverse_d_of_slope(self, p, n):
        # HD^T maps the slope's T_k on S-nodes to w U_{k-1}, the terms of w K_d.
        sg = cgl_nodes(GridKind.SNODES, n)
        x = np.linspace(-1.0, 1.0, 41)[1:-1]
        want = evaluate(fht_inverse_d(GridFn(sg, p.slope(sg.nodes))), x)
        assert _relative_gap(kernel("Kd", p, n, x) * weight_w(x), want) <= 1e-12

    @pytest.mark.parametrize("n", _KERNEL_SIZES)
    @pytest.mark.parametrize("p", _KERNEL_WEIGHTS, ids=str)
    def test_km_is_w_times_inverse_m_of_slope(self, p, n):
        # The m-flavor inverse maps the slope's U_k on U-nodes to T_{k+1} / w.
        sg, ug = cgl_nodes(GridKind.SNODES, n), cgl_nodes(GridKind.UNODES, n)
        want = sg.weights * fht_inverse_m(GridFn(ug, p.slope(ug.nodes))).values
        assert _relative_gap(kernel("Km", p, n, sg.nodes), want) <= 1e-12

    @pytest.mark.parametrize("n", _KERNEL_SIZES)
    @pytest.mark.parametrize("p", _KERNEL_WEIGHTS, ids=str)
    def test_kd_finite_and_even_at_the_ends(self, p, n):
        lo, hi = kernel("Kd", p, n, [-1.0, 1.0])
        assert math.isfinite(lo) and math.isfinite(hi)
        assert abs(lo - hi) <= 1e-12 * abs(hi)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double for the reference")
    @pytest.mark.parametrize("n", [64, 1024, MAX_DEGREE + 1])
    @pytest.mark.parametrize("p", _KERNEL_WEIGHTS, ids=str)
    def test_km_against_trig_reference(self, p, n):
        # Km = sum a_k T_k(t) = sum a_k cos(k theta), with a = (0, d_0, d_1, ...)
        ug = cgl_nodes(GridKind.UNODES, n)
        a = np.concatenate(([0.0], _u_analysis(GridFn(ug, p.slope(ug.nodes)))))
        x = np.concatenate(([-1.0, 1.0], np.random.default_rng(n).uniform(-1.0, 1.0, 200)))
        angles = np.outer(np.arccos(x.astype(np.longdouble)), np.arange(n + 1))
        err = np.abs(kernel("Km", p, n, x) - np.cos(angles) @ a.astype(np.longdouble))
        assert float(err.max()) < 1e-14 * np.abs(a).sum()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double for the reference")
    @pytest.mark.parametrize("n", [64, 1024, MAX_DEGREE + 1])
    @pytest.mark.parametrize("p", _KERNEL_WEIGHTS, ids=str)
    def test_kd_against_trig_reference(self, p, n):
        # Kd = sum_{k>=1} c_k U_{k-1}(t) = sum c_k sin(k theta) / sin(theta),
        # with the limits U_{k-1}(+-1) = (+-1)^(k-1) k
        sg = cgl_nodes(GridKind.SNODES, n)
        c = coeffs_from_sgrid(GridFn(sg, p.slope(sg.nodes)))
        x = np.random.default_rng(n).uniform(-1.0, 1.0, 200)
        theta = np.arccos(x.astype(np.longdouble))
        k = np.arange(n)
        want = np.concatenate([[(-1.0) ** (k - 1) * k @ c, k @ c],
                               np.sin(np.outer(theta, k)) @ c.astype(np.longdouble)
                               / np.sin(theta)])
        err = np.abs(kernel("Kd", p, n, np.concatenate(([-1.0, 1.0], x))) - want)
        assert float(err.max()) < 1e-14 * np.abs(c).sum()

    @pytest.mark.parametrize("kind", ["Kd", "Km"])
    def test_largest_size_matches_a_smaller_one(self, kind):
        # The slope is analytic, so both interpolants have converged at N = 255.
        p = WeightParam.cosh_real(1.0)
        x = np.linspace(-1.0, 1.0, 9)
        got = kernel(kind, p, MAX_DEGREE + 1, x)
        assert _relative_gap(got, kernel(kind, p, 255, x)) <= 1e-12

    @pytest.mark.parametrize("kind", ["Kd", "Km"])
    # NaN lies nowhere on [-1, 1]; +-1 itself is accepted (the two tests above)
    @pytest.mark.parametrize("x", [1.0 + 1e-12, -1.5, [0.0, 2.0],
                                   np.nan, 1.0 + 2.0 ** -52, [0.5, np.nan]])
    def test_outside_the_interval_raises(self, kind, x):
        with pytest.raises(DomainError):
            kernel(kind, WeightParam.cosh_real(1.0), 32, x)

    def test_mu_zero_vanishes(self):
        p = WeightParam.cosh_real(0.0)
        for kind in ("Kd", "Km"):
            k = kernel(kind, p, 32, cgl_nodes(GridKind.SNODES, 32).nodes)
            assert np.max(np.abs(k)) < 1e-14

    def test_kd_matches_frozen_oracle(self):
        # theta-substituted PV quadrature of tanh(s)/((s-t) pi w(s)) at
        # t = 0.3, mu = 1; frozen after doubled-resolution confirmation.
        p = WeightParam.cosh_real(1.0)
        (got,) = kernel("Kd", p, 128, [0.3])
        assert got == pytest.approx(0.8463690558, abs=1e-6)

    def test_even_parity(self):
        # The kernels are transforms of the odd slope function, hence even.
        p = WeightParam.cosh_real(1.0)
        for kind in ("Kd", "Km"):
            k = kernel(kind, p, 64, cgl_nodes(GridKind.SNODES, 64).nodes)
            assert np.max(np.abs(k - k[::-1])) < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            kernel("Kx", WeightParam.cosh_real(1.0), 16, cgl_nodes(GridKind.SNODES, 16).nodes)


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

    def test_every_size_checked_before_the_first_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cosh_forward called")

        monkeypatch.setattr("fhtcheb.cosh.cosh_forward", refuse)
        with pytest.raises(InvalidSizeError, match="got 5000"):
            null_experiment(WeightParam.cosh_real(3.0), [64, 5000])

    def test_mu_zero_rejected(self):
        with pytest.raises(ParameterError):
            null_experiment(WeightParam.cosh_real(0.0), [64])

    def test_cos_flavor_rejected(self):
        with pytest.raises(ParameterError):
            null_experiment(WeightParam.cos_imaginary(0.3), [64])


class TestCoerciveness:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_lower_bound(self, mu):
        from fhtcheb import coeffs_from_tgrid

        n = 128
        p = WeightParam.cosh_real(mu)
        tg = cgl_nodes(GridKind.TNODES, n)
        sg = cgl_nodes(GridKind.SNODES, n)
        floor = 1.0 - math.tanh(mu) ** 2
        worst = math.inf
        for k in range(n - 1):
            f = GridFn(tg, tg.weights * cheb_eval(Basis.SECOND_U, k, tg.nodes))
            num = norm(cosh_forward(f, p))
            den = norm(GridFn(sg, resample(coeffs_from_tgrid(f), sg.nodes,
                                           ResampleMode.WU_SERIES)))
            worst = min(worst, num / den)
        assert worst >= floor - 1e-8

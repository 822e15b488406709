import dataclasses
import functools
import inspect
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
from fhtcheb.cli import build_parser
from fhtcheb.cosh import (
    _BLOCK_STEPS,
    _RANK,
    SolveReport,
    _block_powers,
    _fold,
    _iterate,
    _plan,
    _unfold,
)
from fhtcheb.fht import _u_analysis, evaluate
from fhtcheb.grids import _power_series
from fhtcheb.transforms import TransformKind, _hd_apply, _hd_contract, build


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


def test_unfold_inverts_fold():
    # _unfold is _fold in the layout [even part, odd part reversed]: bit for bit
    # the pair formula a_i, a_{n-1-i} = (x0_i +- x1_i) / sqrt(2), centre a_h = x0_h.
    # The round trip rounds twice, so it returns a to a few ulps, not to the bit.
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        a, h = rng.standard_normal(n), n // 2
        x = _fold(a)
        want = np.empty(n)
        want[:h] = (x[0, :h] + x[1, :h]) * math.sqrt(0.5)
        want[::-1][:h] = (x[0, :h] - x[1, :h]) * math.sqrt(0.5)
        want[h:n - h] = x[0, h:]
        got = _unfold(x, n)
        assert np.array_equal(got, want), n
        assert np.max(np.abs(got - a)) <= 2 * np.finfo(float).eps * np.max(np.abs(a))


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
    # A pass holds at most B = _BLOCK_STEPS blocks of B steps: B^2 = 256 steps by
    # default, so the solve (293 steps at mu = 2, N = 256) takes two passes; with
    # B = 2 a pass is 4 steps and the solve takes 74.
    n, p = 256, WeightParam.cosh_real(2.0)
    d1, d2, f0 = _kernel_args(kind, n, p)
    x, history, form = _iterate(kind, n, d1, d2, f0, 1e-10, 10000)
    monkeypatch.setattr(fhtcheb.cosh, "_BLOCK_STEPS", 2)
    x_small, history_small, form_small = _iterate(kind, n, d1, d2, f0, 1e-10, 10000)
    assert form == form_small == "powered"
    assert len(history) == len(history_small) > _BLOCK_STEPS ** 2
    np.testing.assert_allclose(history, history_small, rtol=1e-12)
    np.testing.assert_allclose(x, x_small, rtol=1e-12, atol=1e-12 * np.max(np.abs(x)))


# A pass holds at most B = _BLOCK_STEPS blocks of B steps, B^2 steps: 256 by
# default, 4 with B = 2. Step B^2 + 1 opens the second pass, and step
# 2 B^2 + B + 2 lies inside the third, in its second block.
@pytest.mark.parametrize("block_steps", [2, _BLOCK_STEPS])
@pytest.mark.parametrize("where, at_max_iter", [((1, 0, 1), False), ((2, 1, 2), False),
                                                ((2, 1, 2), True)],
                         ids=["tol-first-column", "tol-inside", "max-iter-inside"])
@pytest.mark.parametrize("kind", [TransformKind.HD, TransformKind.HM])
def test_iterate_stops_inside_a_pass(kind, where, at_max_iter, block_steps, monkeypatch):
    passes, blocks, column = where  # whole passes and blocks before the stop, then its column
    stop = (passes * block_steps + blocks) * block_steps + column
    max_iter = stop if at_max_iter else 1000
    n, p = 64, WeightParam.cosh_real(2.0)
    d1, d2, f0 = _kernel_args(kind, n, p)
    monkeypatch.setattr(fhtcheb.cosh, "_POWER_CROSSOVER", math.inf)
    _, steps, _ = _iterate(kind, n, d1, d2, f0, 1e-300, stop)
    assert all(a > b for a, b in zip(steps, steps[1:]))  # |K v| <= c |v|
    # a tol between steps stop - 1 and stop, or below every step for max_iter
    tol = math.sqrt(steps[-2] * steps[-1]) if max_iter > stop else 1e-300
    x_ref, history_ref, form_ref = _iterate(kind, n, d1, d2, f0, tol, max_iter)
    monkeypatch.setattr(fhtcheb.cosh, "_POWER_CROSSOVER", 0.0)
    monkeypatch.setattr(fhtcheb.cosh, "_BLOCK_STEPS", block_steps)
    x, history, form = _iterate(kind, n, d1, d2, f0, tol, max_iter)
    assert (form_ref, form) == ("one-step", "powered")
    assert len(history) == len(history_ref) == stop
    np.testing.assert_allclose(history, history_ref, rtol=1e-12)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_iterate_runs_to_max_iter_where_the_bound_is_one():
    # At mu = 19, N = 64 the bound c is 1 (for HM it is 1 - 1.1e-16) and
    # predicts no count: the pass buffer is sized by max_iter and _BLOCK_STEPS.
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
    # Past one panel the 256-column products may round differently from one
    # dense product (1.1e-16 at most measured), never by more.
    got = fhtcheb.cosh.system_matrix(p, n)
    assert np.max(np.abs(got - _dense_system_matrix(p, n))) <= 1e-15


@pytest.mark.parametrize("n", [8, 9, 255, 257, 1025])
@pytest.mark.parametrize("p", _SYSTEM_WEIGHTS)
def test_system_matrix_columns_have_the_full_matrix_bits(n, p):
    # A column range runs the full matrix's own products (whole panels of its
    # columns, each one matrix product), so any range, aligned to the panels
    # or not, down to one column, has the full matrix's bits.
    full = fhtcheb.cosh.system_matrix(p, n)
    ranges = [slice(0, 256), slice(256, 512), slice(1, n - 1), slice(n // 3, n // 3 + 300),
              slice(0, 1), slice(n // 2, n // 2 + 1), slice(n - 1, n), slice(-3, None)]
    for cols in (c for c in ranges if len(range(n)[c])):
        got = fhtcheb.cosh.system_matrix(p, n, cols)
        assert np.array_equal(got, full[:, cols]), cols
        assert np.array_equal(np.signbit(got), np.signbit(full[:, cols])), cols


@pytest.mark.parametrize("cols", [slice(0, 8, 2), slice(5, 5), slice(9, 3), slice(None, None, -1)])
def test_system_matrix_refuses_a_column_set_that_is_not_a_range(cols):
    with pytest.raises(ParameterError, match="column range"):
        fhtcheb.cosh.system_matrix(WeightParam.cosh_real(1.0), 8, cols)


_SKETCH_WEIGHTS = ([WeightParam.cosh_real(mu) for mu in (0.3, 3.0, 10.5)]
                   + [WeightParam.cos_imaginary(0.7)])


def _weight_id(p):
    return f"{p.flavor.value}{p.value:g}"


@pytest.mark.parametrize("n", [8, 64, 257, 1025, 2048])
@pytest.mark.parametrize("p", _SKETCH_WEIGHTS, ids=_weight_id)
def test_woodbury_sketch_matches_the_dense_product(monkeypatch, n, p):
    # The range finder's sketch E Omega, E = A - diag(g), comes from FFT products
    # with K = I - A, not from A; it matches the dense product to rounding (at
    # most 0.84 eps sqrt(N) measured, for entries of Omega in [-1, 1)). Omega
    # holds reflected probes on nodes 1..N-1: (P + JP) / 2 of r columns of
    # _probes and (P - JP) / 2 of r more. One QR call takes both parities'
    # sketches, stacked in _fold's coordinates: the even part of E Omega_e, the
    # odd part of E Omega_o.
    sketches = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: sketches.append(a.copy()) or qr(a))
    fhtcheb.cosh._woodbury(p, n)
    g = np.append(1.0, p.scale(cgl_nodes(GridKind.TNODES, n).nodes[1:]) ** -2.0)
    r = min(_RANK // 2, n // 2)
    probes = fhtcheb.cosh._probes(n)[:, :2 * r]
    omega = np.zeros((n, 2 * r))
    omega[1:, :r] = (probes[1:, :r] + probes[:0:-1, :r]) / 2.0
    omega[1:, r:] = (probes[1:, r:] - probes[:0:-1, r:]) / 2.0
    want = _fold(((fhtcheb.cosh.system_matrix(p, n) - np.diag(g)) @ omega)[1:])
    assert len(sketches) == 1 and sketches[0].shape == (2, n // 2, r)
    got = sketches[0]
    assert np.max(np.abs(got[0] - want[0, :, :r])) <= 4 * np.finfo(float).eps * math.sqrt(n)
    assert np.max(np.abs(got[1] - want[1, :, r:])) <= 4 * np.finfo(float).eps * math.sqrt(n)


@pytest.mark.parametrize("n", [8, 9, 64, 257, 2048, 2049])
@pytest.mark.parametrize("p", _SKETCH_WEIGHTS, ids=_weight_id)
def test_woodbury_basis_is_exactly_even_then_exactly_odd(n, p):
    # Q = [Q_e, Q_o] is orthonormalised per parity in _fold's coordinates, so
    # each column keeps its parity under the reflection i <-> N - i of nodes
    # 1..N-1, which B's mirrored half needs. One QR of the unfolded sketch of
    # the same probes gives columns that miss their parity by 0.2 to 0.54
    # (N = 64 and 512, mu = 3).
    tg = cgl_nodes(GridKind.TNODES, n)
    _plan.cache_clear()
    _, rep = cosh_invert_direct(cosh_forward(GridFn(tg, tg.weights), p), p)
    assert rep.form == "woodbury"
    gi, giq, _ = _plan(p, n).direct
    q = giq / gi[:, None]
    r = q.shape[1] // 2
    assert q.shape[1] == 2 * min(_RANK // 2, n // 2) and not np.any(q[0])
    assert np.max(np.abs(q[1:, :r] - q[:0:-1, :r])) <= 1e-14
    assert np.max(np.abs(q[1:, r:] + q[:0:-1, r:])) <= 1e-14
    np.testing.assert_allclose(q.T @ q, np.eye(2 * r) * np.any(q, axis=0), atol=1e-14)


@pytest.mark.parametrize("n", [8, 9, 64, 257, 512, 641, 2049])
@pytest.mark.parametrize("p", _SKETCH_WEIGHTS, ids=_weight_id)
def test_half_pass_sums_match_the_full_matrix(monkeypatch, n, p):
    # (I - Q Q^T) E commutes with the reflection, so the right half of A's
    # columns, each counted twice and even N's centre once, gives ||A||_F and
    # ||E - Q B||_F of the whole matrix, and B's left half is its mirror. The
    # residual's half sum is within 1e-15 ||A||_F of the full one (at most
    # 1.7e-16 measured), 1e-3 of the check's 1e-12 ||A||_F.
    seen, half_pass = [], fhtcheb.cosh._half_pass

    def wrapped(p, g, q):
        out = half_pass(p, g, q)
        seen.append((g, q, out[0].copy()) + out[1:])  # _woodbury scales B in place
        return out

    monkeypatch.setattr(fhtcheb.cosh, "_half_pass", wrapped)
    fhtcheb.cosh._woodbury(p, n)
    [(g, q, b, size, rest)] = seen
    a = fhtcheb.cosh.system_matrix(p, n)
    e = a - np.diag(g)
    full_b = q.T @ e
    norm_a = np.linalg.norm(a)
    assert abs(math.sqrt(size) - norm_a) <= n * np.finfo(float).eps * norm_a
    assert abs(math.sqrt(rest) - np.linalg.norm(e - q @ full_b)) <= 1e-15 * norm_a
    assert np.max(np.abs(b - full_b)) <= 1e-14 * norm_a


@pytest.mark.parametrize("n, mu", [(64, 3.0), (64, 0.3), (1024, 0.3)])
def test_rank_deficient_sketch_keeps_the_woodbury_factor(n, mu):
    # The sketch has rank 4 + 4 of 12 + 12 at mu = 3 and 2 + 2 at mu = 0.3, so QR
    # fills most of Q with directions of rounding. Orthonormalised per parity,
    # they keep Q's parity, and the factor passes its exact check and solves as
    # accurately as LU.
    p = WeightParam.cosh_real(mu)
    err, lu_err, rep = _direct_and_lu_errors(p, n)
    assert rep.form == "woodbury"
    assert err <= max(2.0 * lu_err, 1e-12), (err, lu_err)
    gi, giq, _ = _plan(p, n).direct
    q, r = giq / gi[:, None], giq.shape[1] // 2
    assert np.max(np.abs(q[1:, r:] + q[:0:-1, r:])) <= 1e-14


# system_matrix's products: ranges of _PANEL columns, the last taking a rest of
# at most _PANEL / 2, so no product is a sliver (N = 257, 513 and 1537 had a
# one-column product when blocks of _PANEL ceil(N / (2 _PANEL)) columns were cut).
@pytest.mark.parametrize("n, products", [
    (600, [(300, 600)]),
    (640, [(320, 640)]),
    (641, [(321, 512), (512, 641)]),
    (2049, [(1025, 1280), (1280, 1536), (1536, 1792), (1792, 2049)]),
    (257, [(129, 257)]),
    (513, [(257, 513)]),
    (1537, [(769, 1024), (1024, 1280), (1280, 1537)]),
])
def test_woodbury_check_reads_whole_products_of_system_matrix(monkeypatch, n, products):
    # The factor's check reads the right half of A's columns, h + 1..N - 1 with
    # h = (N - 1) // 2, one call per product of system_matrix that meets it:
    # the products past the middle, the first cut at column h + 1.
    seen, system_matrix = [], fhtcheb.cosh.system_matrix

    def wrapped(p, size, cols=slice(None)):
        seen.append(cols.indices(size)[:2])
        return system_matrix(p, size, cols)

    monkeypatch.setattr(fhtcheb.cosh, "system_matrix", wrapped)
    assert fhtcheb.cosh._woodbury(WeightParam.cosh_real(3.0), n) is not None
    assert seen == products


@pytest.mark.parametrize("n", [2048, 2049])
def test_cold_direct_solve_reads_half_the_columns(monkeypatch, n):
    # A cold Woodbury solve reads N - h - 1 columns of system_matrix, h = (N - 1) // 2:
    # 1024 of 2048 (it read all N before the factor was split by parity).
    cols, system_matrix = [], fhtcheb.cosh.system_matrix

    def wrapped(p, size, c=slice(None)):
        cols.append(len(range(size)[c]))
        return system_matrix(p, size, c)

    p = WeightParam.cosh_real(3.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes)), p)
    monkeypatch.setattr(fhtcheb.cosh, "system_matrix", wrapped)
    _plan.cache_clear()
    _, rep = cosh_invert_direct(F, p)
    assert rep.form == "woodbury"
    assert sum(cols) == n - (n - 1) // 2 - 1 == 1024


def test_products_tile_the_columns():
    for n in range(2, MAX_DEGREE + 2):
        products = fhtcheb.cosh._products(n, 0, n)
        assert [a for a, _ in products] == [0] + [b for _, b in products[:-1]], n
        assert products[-1][1] == n, n
        if n > 128:
            assert all(128 < b - a <= 384 for a, b in products), (n, products)


@pytest.mark.parametrize("n", [8, 9, 1024, 1025, 2048])
def test_halves_read_the_right_half_of_the_columns(monkeypatch, n):
    # The LU halves fold columns h + 1..N - 1 of the system matrix, h = (N - 1) // 2,
    # in one call: the other half is their reflection.
    seen, system_matrix = [], fhtcheb.cosh.system_matrix

    def wrapped(p, size, cols=slice(None)):
        seen.append(cols.indices(size)[:2])
        return system_matrix(p, size, cols)

    monkeypatch.setattr(fhtcheb.cosh, "system_matrix", wrapped)
    fhtcheb.cosh._halves(WeightParam.cosh_real(14.0), n)
    assert seen == [((n - 1) // 2 + 1, n)]


@pytest.mark.parametrize("n, bound", [(1024, 0.75), (2048, 0.38)])
def test_cold_direct_solve_peaks_under_half_a_system_matrix(n, bound):
    # The first Woodbury solve at a key sketches the range by FFT and checks the
    # factor against one column range of system_matrix at a time, so it forms
    # no N x N array. With 128-row panels of HD^T above N = 256 it peaks at
    # 0.69 N^2 float64 at N = 1024 and 0.343 N^2 at N = 2048 (0.816 and 0.406
    # with 256-row panels), where the whole system matrix peaked at 1.63 N^2.
    p = WeightParam.cosh_real(3.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes)), p)
    _plan.cache_clear()
    build.cache_clear()
    tracemalloc.start()
    try:
        _, rep = cosh_invert_direct(F, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.form == "woodbury"
    assert peak <= bound * n * n * 8, peak / (8 * n * n)


@pytest.mark.parametrize("n, call", [(1025, "lu_solve"), (1024, "condition_estimate")],
                         ids=["lu_solve", "condition_estimate"])
def test_cold_lu_halves_peak_under_1_2_system_matrices(n, call):
    # The LU halves fold the right half of A's columns alone, one panel of
    # D_s HD D_t over its products and 128-row panels of HD^T: 1.144 N^2
    # float64 for the solve at N = 1025 and 1.140 N^2 for the SVD at N = 1024
    # (1.269 and 1.265 with 256-row panels), where all of A and its fold in
    # bands of 32 row pairs peaked at 1.78 N^2.
    p = WeightParam.cosh_real(14.0)
    tg = cgl_nodes(GridKind.TNODES, n)
    F = cosh_forward(GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes)), p)
    _plan.cache_clear()
    build.cache_clear()
    tracemalloc.start()
    try:
        if call == "lu_solve":
            assert cosh_invert_direct(F, p)[1].form == "lu"
        else:
            condition_estimate(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * n * n * 8, peak / (8 * n * n)


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
    # and one refinement step; the worst ratio to LU's error here is 1.26
    # (mu = 8, N = 64).
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


@pytest.mark.parametrize("p", verify._ORACLE_WEIGHTS, ids=lambda p: f"{p.flavor.value}{p.value:g}")
def test_mean_constrained_meets_the_oracle_within_1e_5(p):
    # The null function (2/pi)/w carries fbar_mu: 3.1e-7 to 2.1e-6 on |x| < 0.9, where a
    # constant mean term with a log-singular correction missed by 1.3e-5 to 4.6e-5.
    assert _oracle_gaps(p)["mean_constrained"] <= 1e-5


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
        got = _hd_contract(x, plan.d_t, plan.d_s_sym)
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
        # f = w has fbar != 0. The bound dates from a mean correction with a
        # log-singular term that converged algebraically (5.7e-5). Carried by the
        # null function (2/pi)/w it measures 7.0e-9, all but 2e-13 of it from the
        # 400-point rule's error in fbar.
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

    @pytest.mark.parametrize("n", [64, 2048])
    def test_nonzero_mean_exact_next_to_the_ends(self, n):
        # mu = 0, f = w(1 + 0.3t): F = H[f] = u + 0.3(u^2 - 1/2) exactly, fbar = pi/4.
        # A constant mean term missed by 5.1e-2 (N = 64) and 4.8e-2 (N = 2048) at the
        # S-nodes next to +-1; the null function (2/pi)/w carries it to rounding.
        p = WeightParam.cosh_real(0.0)
        sg, ug = cgl_nodes(GridKind.SNODES, n), cgl_nodes(GridKind.UNODES, n)
        F = GridFn(ug, ug.nodes + 0.3 * (ug.nodes ** 2 - 0.5))
        got, rep = cosh_invert_mean_constrained(F, p, math.pi / 4)
        assert rep.converged
        assert np.max(np.abs(got.values - sg.weights * (1.0 + 0.3 * sg.nodes))) < 1e-12

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


def test_warm_mean_constrained_solve_retains_no_n_by_m_array():
    # With HM, its chain blocks and the plan cached, a solve with fbar_mu != 0 keeps
    # nothing of size N x m: the 256-point PV rule's matrix this replaced was 256 N.
    n = MAX_DEGREE + 1
    p = WeightParam.cosh_real(2.0)
    ug = cgl_nodes(GridKind.UNODES, n)
    build(TransformKind.HM, n)
    fhtcheb.cosh._chain_blocks(TransformKind.HM, n)
    _plan(p, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cosh_invert_mean_constrained(GridFn(ug, ug.nodes), p, 0.5)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 * n * 8, f"retained {retained / (8 * n):.1f} N float64"


# Kd on the U-nodes from the slope's T-series by the Tricomi pair H[T_k/w] = -U_{k-1}:
# U_{k-1}(cos th) = sin(k th) / sin th, summed directly, every angle reduced exactly.
# The reference's series, from the exact-angle DCT at max(N, 512) Chebyshev points of
# the first kind, is cut at degree 160, beyond which the five slopes' coefficients are
# below 1e-17; measured gap 1.7e-13 relative (N = 2049).
@pytest.mark.parametrize("n", [8, 255, 256, 1024, 2049])
def test_null_correction_kernel_matches_tricomi_sum(n):
    from numpy.polynomial import chebyshev

    ug = cgl_nodes(GridKind.UNODES, n)
    m, k = max(n, 512), np.arange(160)
    x = chebyshev.chebpts1(m)[::-1]  # cos((j + 1/2) pi / m), j = 0..m-1
    t = np.cos(np.pi / (2 * m) * (np.outer(k, 2 * np.arange(m) + 1) % (4 * m)))
    u = np.sin(np.pi / (n + 1) * (np.outer(np.arange(1, n + 1), k[1:]) % (2 * n + 2)))
    for p in [WeightParam.cosh_real(mu) for mu in (0.5, 2.0, 4.0, -3.0)] \
            + [WeightParam.cos_imaginary(0.7)]:
        c = t @ p.slope(x) * (2.0 / m)
        want = u @ c[1:] / ug.weights
        got = fhtcheb.cosh._kd_unodes(p, ug)
        assert np.max(np.abs(got - want)) <= 5e-13 * np.max(np.abs(want))


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

    def test_km_adds_no_key_to_the_solver_cache(self):
        # A kernel reads the slope on the U-nodes, the values of the plan's d_u
        # (which carries no product_sign), without inserting a plan: calls at four
        # other N leave a direct key's factor in the cache of four keys.
        p, n, sizes = WeightParam.cosh_real(3.0), 64, (16, 32, 63, 255)
        tg = cgl_nodes(GridKind.TNODES, n)
        F = cosh_forward(GridFn(tg, tg.weights), p)
        _plan.cache_clear()
        cosh_invert_direct(F, p)
        direct = _plan(p, n).direct
        x = np.linspace(-1.0, 1.0, 9)
        got = [kernel("Km", p, m, x) for m in sizes]
        assert _plan(p, n).direct is direct
        for m, k in zip(sizes, got):
            series = _u_analysis(GridFn(cgl_nodes(GridKind.UNODES, m), _plan(p, m).d_u))
            assert np.array_equal(k, _power_series(np.concatenate(([0.0], series)), x).real)

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

    def test_verify_passes_mu_19_where_sigma_min_is_at_rounding(self):
        # kappa eps is about 1 at mu = 19: the SVD resolves sigma_min only to N eps sigma_max,
        # so its kappa (1.35e17) is rounding noise over the bound (9.0e15), both past 1/(N eps)
        p = WeightParam.cosh_real(19.0)
        est = condition_estimate(p, 256)
        res = verify.check_condition(p)
        assert est.measured > est.bound >= 1.0 / (256 * math.ulp(1.0))
        assert res.passed and "sigma_min at the SVD's rounding" in res.detail

    @pytest.mark.parametrize("mu", [4.0, 15.0])
    def test_verify_stays_strict_where_the_svd_resolves_sigma_min(self, mu):
        res = verify.check_condition(WeightParam.cosh_real(mu))
        assert res.passed and "rounding" not in res.detail

    @pytest.mark.parametrize("measured, bound",
                             [(403.0, 201.7), (1.0e13, 5.0e12), (1.0e17, 5.3e12)],
                             ids=["small", "resolvable", "bound-below-rounding"])
    def test_verify_fails_a_kappa_over_the_bound(self, monkeypatch, measured, bound):
        # 1/(N eps) = 1.76e13 at N = 256: a kappa below it is resolved, and a bound below it
        # leaves no room for rounding, so each of these is over its bound and fails
        monkeypatch.setattr(verify, "condition_estimate",
                            lambda p, n: fhtcheb.cosh.ConditionEstimate(measured, bound))
        res = verify.check_condition(WeightParam.cosh_real(3.0))
        assert not res.passed and "rounding" not in res.detail


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


def test_iterative_solver_defaults_are_the_cli_defaults():
    args = build_parser().parse_args(["cosh-invert", "--method", "neumann", "--mu", "1"])
    for solver in (cosh_invert_neumann, cosh_invert_mean_constrained):
        params = inspect.signature(solver).parameters
        got = (params["tol"].default, params["max_iter"].default)
        assert got == (args.tol, args.max_iter) == (1e-10, 10000)


@pytest.mark.parametrize("method", ["neumann", "mean_constrained"])
def test_iterative_solvers_stop_at_the_default_max_iter(method):
    # Both need more than 10 000 steps here: Neumann at mu = 4 on f = w e^t,
    # mean-constrained at mu = 6 on F = u with fbar = 0.
    n = 64
    if method == "neumann":
        p, tg = WeightParam.cosh_real(4.0), cgl_nodes(GridKind.TNODES, n)
        _, rep = cosh_invert_neumann(cosh_forward(GridFn(tg, tg.weights * np.exp(tg.nodes)), p), p)
    else:
        ug = cgl_nodes(GridKind.UNODES, n)
        _, rep = cosh_invert_mean_constrained(GridFn(ug, ug.nodes), WeightParam.cosh_real(6.0), 0.0)
    assert rep.iterations == len(rep.residual_history) == 10000
    assert not rep.converged and rep.residual_history[-1] >= 1e-10

"""Property tests over random sizes, coefficients and samples.

Examples are derandomized, so every run checks the same cases; each input
vector is drawn from a seeded numpy generator rather than element by element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtcheb import (
    MAX_DEGREE,
    GridFn,
    GridKind,
    ResampleMode,
    WeightParam,
    cgl_nodes,
    coeffs_from_sgrid,
    cosh_forward,
    cosh_invert_mean_constrained,
    fht_forward_d,
    fht_forward_m,
    fht_inverse_d,
    fht_inverse_m,
    plancherel_check,
    resample,
    system_matrix,
    weight_w,
)
from fhtcheb.cosh import _fold, _halves, _iterate, _plan
from fhtcheb.fht import _u_analysis, m_analysis_sgrid
from fhtcheb.grids import _power_series, _u_to_t
from fhtcheb.transforms import TransformKind, _c3, _hd_contract, _s1, build

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(2, 512)


@PROPERTY
@given(degree=st.integers(0, MAX_DEGREE), seed=SEEDS)
def test_resample_matches_trig_sums(degree, seed):
    # On x = cos(theta): sum a_k T_k(x) = sum a_k cos(k theta) and
    # w(x) sum a_k U_{k-1}(x) = sum a_k sin(k theta).
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(degree + 1)
    theta = np.concatenate(([0.0, np.pi], rng.uniform(0.0, np.pi, 30)))
    x = np.cos(theta)
    k = np.arange(degree + 1)
    bound = 1e-11 * np.sum(np.abs(a))
    t_sum = resample(a, x, ResampleMode.T_SERIES)
    wu_sum = resample(a, x, ResampleMode.WU_SERIES)
    assert np.max(np.abs(t_sum - np.cos(np.outer(theta, k)) @ a)) <= bound
    assert np.max(np.abs(wu_sum - np.sin(np.outer(theta, k)) @ a)) <= bound


@PROPERTY
@given(length=st.integers(1, 64), seed=SEEDS)
def test_u_to_t_ties_the_two_views_of_the_power_series(length, seed):
    # sum u_j U_j(x) summed as a T-series, times w(x), is the WU-series of (0, u)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(length)
    x = np.concatenate(([-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 30)))
    got = weight_w(x) * _power_series(_u_to_t(u), x).real
    want = resample(np.concatenate(([0.0], u)), x, ResampleMode.WU_SERIES)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(u))


@PROPERTY
@given(n=SIZES, seed=SEEDS)
def test_d_flavor_roundtrip_and_plancherel(n, seed):
    rng = np.random.default_rng(seed)
    tg = cgl_nodes(GridKind.TNODES, n)
    v = rng.standard_normal(n)
    v[0] = 0.0  # w vanishes at t_0 = 1
    f = GridFn(tg, v)
    np.testing.assert_allclose(fht_inverse_d(fht_forward_d(f)).values, v, atol=1e-12)
    assert plancherel_check(f).defect < 1e-10


@PROPERTY
@given(n=SIZES, seed=SEEDS)
def test_m_flavor_roundtrip_removes_mean(n, seed):
    # The inverse recovers f w up to the constant c0 the forward annihilates.
    rng = np.random.default_rng(seed)
    sg = cgl_nodes(GridKind.SNODES, n)
    f = GridFn(sg, rng.standard_normal(n))
    c0, _ = m_analysis_sgrid(f)
    back = fht_inverse_m(fht_forward_m(f))
    got = back.values * sg.weights
    np.testing.assert_allclose(got, f.values * sg.weights - c0, atol=1e-10)


def _forward_m_two_stage(f):
    """fht_forward_m as T-analysis on S-nodes, then a U-synthesis by S1_{N+1}."""
    _, d = m_analysis_sgrid(f)
    n = f.grid.n
    s1 = _s1(n + 1)
    return np.sqrt((n + 1) / 2.0) * (s1 @ np.concatenate(([0.0], d)))[1:]


def _inverse_m_two_stage(F):
    """fht_inverse_m as U-analysis on U-nodes, then a T-synthesis by C3."""
    n = F.grid.n
    d = _u_analysis(F)
    c3 = _c3(n)
    return np.sqrt(n / 2.0) * (c3 @ np.concatenate(([0.0], d[:-1])))


@PROPERTY
@given(n=SIZES, seed=SEEDS, mu=st.floats(0.1, 3.0))
def test_fused_m_flavor_matches_two_stage(n, seed, mu):
    # Both sides are compared times w, where neither divides by a small weight.
    rng = np.random.default_rng(seed)
    sg = cgl_nodes(GridKind.SNODES, n)
    ug = cgl_nodes(GridKind.UNODES, n)
    f = GridFn(sg, rng.standard_normal(n))
    F = GridFn(ug, rng.standard_normal(n))
    np.testing.assert_allclose(fht_forward_m(f).values * ug.weights,
                               _forward_m_two_stage(f), rtol=0, atol=1e-12)
    np.testing.assert_allclose(fht_inverse_m(F).values * sg.weights,
                               _inverse_m_two_stage(F), rtol=0, atol=1e-12)
    # The first step norm of the mean-constrained solver is the L_m^2 norm
    # sqrt(c0^2 + sum d^2 / 2) of that step, from its (c0 + sum d T_{k+1})/w split.
    p = WeightParam.cosh_real(mu)
    f0 = -_inverse_m_two_stage(GridFn(ug, F.values / p.scale(ug.nodes))) / sg.weights
    inner = _forward_m_two_stage(GridFn(sg, p.slope(sg.nodes) * f0)) / ug.weights
    step = _inverse_m_two_stage(GridFn(ug, p.slope(ug.nodes) * inner)) / sg.weights
    c0, d = m_analysis_sgrid(GridFn(sg, step))
    _, rep = cosh_invert_mean_constrained(F, p, 0.0, max_iter=1)
    want = np.sqrt(c0 ** 2 + 0.5 * np.sum(d ** 2))
    assert abs(rep.residual_history[0] - want) <= 1e-10 * max(1.0, want)


@PROPERTY
@given(n=st.integers(64, 512), seed=SEEDS,
       p=st.one_of(st.floats(-3.0, 3.0).map(WeightParam.cosh_real),
                   st.floats(-0.7, 0.7, exclude_min=True, exclude_max=True)
                   .map(WeightParam.cos_imaginary)))
def test_mean_constrained_recovers_w_times_a_quadratic(n, seed, p):
    # f = w q with q quadratic, so fbar_mu != 0 in general. F from cosh_forward on
    # T-nodes, interpolated to the U-nodes; fbar_mu by the 64-point second-kind
    # Gauss-Chebyshev rule, exact to degree 127 (cosh(3t)'s T-series is below 1e-70
    # from degree 60 on).
    # N >= 64 resolves tanh(mu t) for |mu| <= 3. Rounding in y = w_s v grows by up to
    # N^2 near +-1 (the same for fbar_mu = 0), hence a bound per N^2 and a w-weighted
    # one; measured 2.6e-14 N^2 and 6e-12.
    q = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
    tg, sg, ug = (cgl_nodes(k, n) for k in (GridKind.TNODES, GridKind.SNODES, GridKind.UNODES))
    F = cosh_forward(GridFn(tg, tg.weights * np.polynomial.polynomial.polyval(tg.nodes, q)), p)
    Fu = resample(coeffs_from_sgrid(F), ug.nodes, ResampleMode.T_SERIES)
    th = np.arange(1, 65) * (np.pi / 65)
    x = np.cos(th)
    fbar = 0.5 * np.pi / 65 * float(np.sum(np.sin(th) ** 2 * p.scale(x)
                                           * np.polynomial.polynomial.polyval(x, q)))
    got, rep = cosh_invert_mean_constrained(GridFn(ug, Fu), p, fbar, tol=1e-13)
    err = np.abs(got.values - sg.weights * np.polynomial.polynomial.polyval(sg.nodes, q))
    assert rep.converged
    assert np.max(err) <= 1e-12 * n ** 2
    assert np.max(sg.weights * err) <= 1e-10


# Every parameter the weight accepts: |mu| < 19.0615 (cosh), |eta| < pi/4 (cos).
WEIGHTS = st.one_of(st.floats(-19.0, 19.0).map(WeightParam.cosh_real),
                    st.floats(-0.785, 0.785).map(WeightParam.cos_imaginary))


def fold2(a):
    """blocks[p, q] of a: rows of parity p, columns of parity q (0 even, 1 odd)."""
    return _fold(_fold(a).transpose(2, 0, 1)).transpose(2, 0, 3, 1)


@PROPERTY
@given(n=SIZES, seed=SEEDS, p=WEIGHTS)
def test_parity_split_step_matches_unsplit(n, seed, p):
    # The operators of both iterations flip parity: their same-parity blocks
    # vanish, and one split step equals one step of the unsplit operator.
    for a in (build(TransformKind.HD, n)[:, 1:], build(TransformKind.HM, n).T):
        blocks = fold2(a)
        h1, h2 = a.shape[1] // 2, a.shape[0] // 2
        same = max(np.max(np.abs(blocks[0, 0])), np.max(np.abs(blocks[1, 1, :h2, :h1]), initial=0.0))
        assert same <= 1e-15 * np.max(np.abs(a))
    # The direct solver drops the cross-parity blocks of its system matrix.
    blocks = fold2(system_matrix(p, n)[1:, 1:])
    assert max(np.max(np.abs(blocks[0, 1])), np.max(np.abs(blocks[1, 0]))) <= 1e-14

    rng = np.random.default_rng(seed)
    plan = _plan(p, n)
    sg = cgl_nodes(GridKind.SNODES, n)
    ug = cgl_nodes(GridKind.UNODES, n)

    f0 = np.concatenate(([0.0], rng.standard_normal(n - 1)))
    got, _, _ = _iterate(TransformKind.HD, n, plan.d_t[1:], plan.d_s, f0[1:], 1e-300, 1)
    want = f0 + _hd_contract(f0, plan.d_t, plan.d_s_sym)
    assert np.linalg.norm(got - want[1:]) <= 1e-13 * np.linalg.norm(want)

    y0 = rng.standard_normal(n)  # y = w_s v
    got, _, _ = _iterate(TransformKind.HM, n, plan.d_s, plan.d_u, y0, 1e-300, 1)
    inner = fht_forward_m(GridFn(sg, plan.d_s * y0 / sg.weights))
    want = y0 + sg.weights * fht_inverse_m(GridFn(ug, plan.d_u * inner.values)).values
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("mu", [0.5, 3.0, 14.0])
@pytest.mark.parametrize("n", [8, 9, 64, 255, 600, 1025])
def test_halves_are_the_diagonal_blocks(n, mu):
    # The system matrix commutes with the reflection of T-nodes 1..N-1, so the
    # direct solver's halves fold the right half of its columns alone: bit for
    # bit that fold of the whole matrix's columns, scaled by +-sqrt(2) off the
    # centre column, with a unit pad closing the odd block for even N. They
    # match the same-parity blocks of the fold of all of A within the bound of
    # the dropped cross blocks; 600 and 1025 span more than one panel.
    p = WeightParam.cosh_real(mu)
    a = system_matrix(p, n)[1:, 1:]
    h = (n - 1) // 2
    want = _fold(a[:, h:][:, ::-1])
    want[0, :, :h] *= np.sqrt(2.0)
    want[1, :, :h] *= -np.sqrt(2.0)
    if n % 2 == 0:
        want[1, :, -1] = 0.0
        want[1, -1, -1] = 1.0
    got = _halves(p, n)
    assert np.array_equal(got, want)
    blocks = fold2(a)
    same = np.stack((blocks[0, 0], blocks[1, 1]))
    if n % 2 == 0:
        same[1, -1, -1] = 1.0
    assert np.max(np.abs(got - same)) <= 5e-15

"""Property tests over random sizes, coefficients and samples.

Examples are derandomized, so every run checks the same cases; each input
vector is drawn from a seeded numpy generator rather than element by element.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtcheb import (
    MAX_DEGREE,
    Basis,
    ChebCoeffs,
    Flavor,
    GridFn,
    GridKind,
    ResampleMode,
    cgl_nodes,
    fht_forward_d,
    fht_forward_m,
    fht_inverse_d,
    fht_inverse_m,
    plancherel_check,
    resample,
)
from fhtcheb.fht import m_analysis_sgrid

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
    coeffs = ChebCoeffs(Basis.FIRST_T, a)
    t_sum = resample(coeffs, x, ResampleMode.T_SERIES)
    wu_sum = resample(coeffs, x, ResampleMode.WU_SERIES)
    assert np.max(np.abs(t_sum - np.cos(np.outer(theta, k)) @ a)) <= bound
    assert np.max(np.abs(wu_sum - np.sin(np.outer(theta, k)) @ a)) <= bound


@PROPERTY
@given(n=SIZES, seed=SEEDS)
def test_d_flavor_roundtrip_and_plancherel(n, seed):
    rng = np.random.default_rng(seed)
    tg = cgl_nodes(GridKind.TNODES, n)
    v = rng.standard_normal(n)
    v[0] = 0.0  # w vanishes at t_0 = 1
    f = GridFn(tg, v)
    np.testing.assert_allclose(fht_inverse_d(fht_forward_d(f)).values, v, atol=1e-12)
    assert plancherel_check(f, Flavor.D).defect < 1e-10


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

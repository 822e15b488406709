import math

import numpy as np
import pytest

from fhtcheb import GridMismatchError, InvalidSizeError, TransformKind, apply, build


class TestBuild:
    def test_c3_2(self):
        m = build(TransformKind.C3, 2)
        r = math.sqrt(0.5)
        np.testing.assert_allclose(m, [[r, r], [r, -r]], atol=1e-15)

    def test_s1_2(self):
        m = build(TransformKind.S1, 2)
        np.testing.assert_allclose(m, [[0, 0], [0, 1]], atol=1e-15)

    def test_s1_4_row1(self):
        m = build(TransformKind.S1, 4)
        want = math.sqrt(0.5) * np.array([0.0, math.sin(np.pi / 4),
                                          math.sin(np.pi / 2), math.sin(3 * np.pi / 4)])
        np.testing.assert_allclose(m[1], want, atol=1e-15)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build(TransformKind.C3, 1)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_c3_orthogonal(self, n):
        m = build(TransformKind.C3, n)
        assert np.max(np.abs(m.T @ m - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_s1_diag(self, n):
        m = build(TransformKind.S1, n)
        d = np.eye(n)
        d[0, 0] = 0.0
        assert np.max(np.abs(m.T @ m - d)) < 1e-12

    def test_s1_row0_col0_zero(self):
        m = build(TransformKind.S1, 16)
        assert np.all(m[0] == 0.0)
        assert np.all(m[:, 0] == 0.0)

    def test_caches_bounded(self):
        for n in range(2, 20):
            build(TransformKind.C3, n)
            info = build.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_entries_immutable(self):
        m = build(TransformKind.C3, 8)
        with pytest.raises(ValueError):
            m[0, 0] = 99.0


class TestApply:
    def test_c3_e0(self):
        n = 16
        m = build(TransformKind.C3, n)
        e0 = np.zeros(n)
        e0[0] = 1.0
        np.testing.assert_allclose(apply(m, e0), np.full(n, math.sqrt(1.0 / n)),
                                   atol=1e-15)

    def test_s1_roundtrip_zeroes_a0(self):
        n = 16
        m = build(TransformKind.S1, n)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(n)
        got = apply(m, apply(m, a), transposed=True)
        want = a.copy()
        want[0] = 0.0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_c3_roundtrip(self):
        n = 16
        m = build(TransformKind.C3, n)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(n)
        np.testing.assert_allclose(apply(m, apply(m, a), transposed=True), a, atol=1e-12)

    def test_size_mismatch(self):
        m = build(TransformKind.C3, 8)
        with pytest.raises(GridMismatchError):
            apply(m, np.ones(9))


class TestMAnalysisRoundtrip:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_roundtrip(self, n):
        from fhtcheb.fht import m_analysis_sgrid
        from fhtcheb import Basis, ChebCoeffs, GridFn, GridKind, ResampleMode
        from fhtcheb import cgl_nodes, resample

        rng = np.random.default_rng(2)
        d = rng.standard_normal(n)
        d[-1] = 0.0  # T_N is invisible on S-nodes
        sg = cgl_nodes(GridKind.SNODES, n)
        tc = np.concatenate(([0.0], d))
        f = resample(ChebCoeffs(Basis.FIRST_T, tc), sg.nodes, ResampleMode.T_SERIES)
        _, got = m_analysis_sgrid(GridFn(sg, f / sg.weights))
        np.testing.assert_allclose(got, d, atol=1e-10)

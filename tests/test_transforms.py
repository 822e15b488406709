import math

import numpy as np
import pytest

import fhtcheb.cosh
from fhtcheb import (GridFn, GridKind, GridMismatchError, InvalidSizeError, WeightParam,
                     cgl_nodes, cosh_forward, cosh_invert_direct)
from fhtcheb.transforms import (
    TransformKind,
    _c3,
    _c3t_apply,
    _hd_apply,
    _hd_columns,
    _hd_generator,
    _hd_spectrum,
    _s1,
    _s1_apply,
    apply,
    build,
)
from fhtcheb.verify import check_c3_orthogonality, check_s1_diagonal


def _fused_by_sums(n):
    """HD and HM entry by entry from the cos / sin sums that define them."""
    hd, hm = np.zeros((n, n)), np.zeros((n, n))
    for m in range(n):
        for j in range(n):
            cos_k = [math.cos(k * (m + 0.5) * math.pi / n) for k in range(1, n)]
            hd[m, j] = 2.0 / n * sum(c * math.sin(k * j * math.pi / n)
                                     for k, c in enumerate(cos_k, 1))
            hm[m, j] = 2.0 / math.sqrt(n * (n + 1)) * sum(
                c * math.sin(k * (j + 1) * math.pi / (n + 1)) for k, c in enumerate(cos_k, 1))
    return hd, hm


class TestBuild:
    def test_c3_2(self):
        m = _c3(2)
        r = math.sqrt(0.5)
        np.testing.assert_allclose(m, [[r, r], [r, -r]], atol=1e-15)

    def test_s1_2(self):
        m = _s1(2)
        np.testing.assert_allclose(m, [[0, 0], [0, 1]], atol=1e-15)

    def test_s1_4_row1(self):
        m = _s1(4)
        want = math.sqrt(0.5) * np.array([0.0, math.sin(np.pi / 4),
                                          math.sin(np.pi / 2), math.sin(3 * np.pi / 4)])
        np.testing.assert_allclose(m[1], want, atol=1e-15)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build(TransformKind.HD, 1)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_c3_orthogonal(self, n):
        m = _c3(n)
        assert np.max(np.abs(m.T @ m - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_s1_diag(self, n):
        m = _s1(n)
        d = np.eye(n)
        d[0, 0] = 0.0
        assert np.max(np.abs(m.T @ m - d)) < 1e-12

    def test_s1_row0_col0_zero(self):
        m = _s1(16)
        assert np.all(m[0] == 0.0)
        assert np.all(m[:, 0] == 0.0)

    def test_caches_bounded(self):
        for n in range(2, 20):
            build(TransformKind.HD, n)
            info = build.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    @pytest.mark.parametrize("n", [2, 3, 8, 255, 256, 1024])
    def test_fused_matrices(self, n):
        hd = build(TransformKind.HD, n)
        hm = build(TransformKind.HM, n)
        # HD is built in closed form, so the product of its factors checks it.
        c3, s1 = _c3(n), _s1(n)
        np.testing.assert_allclose(hd, c3 @ s1.T, rtol=0, atol=1e-12)
        if n <= 8:
            want_hd, want_hm = _fused_by_sums(n)
            np.testing.assert_allclose(hd, want_hd, rtol=0, atol=1e-14)
            np.testing.assert_allclose(hm, want_hm, rtol=0, atol=1e-14)
        for m in (hd, hm):
            with pytest.raises(ValueError):
                m[0, 0] = 99.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double for the reference")
    def test_hd_correct_to_rounding(self):
        # C3 and S1 take cos and sin of angles up to N pi, so their product is
        # off by about 1e-14 here; the closed form must be exact to rounding.
        n = 128
        idx = np.arange(n, dtype=np.longdouble)
        pi = np.longdouble("3.14159265358979323846264338327950288")
        c3 = np.sqrt(np.longdouble(2) / n) * np.cos(np.outer(idx + 0.5, idx) * (pi / n))
        c3[:, 0] = np.sqrt(np.longdouble(1) / n)
        s1 = np.sqrt(np.longdouble(2) / n) * np.sin(np.outer(idx, idx) * (pi / n))
        err = np.abs(build(TransformKind.HD, n) - c3 @ s1.T).max()
        assert float(err) < 1e-15

    def test_entries_immutable(self):
        m = build(TransformKind.HD, 8)
        with pytest.raises(ValueError):
            m[0, 0] = 99.0


class TestApply:
    def test_c3_e0(self):
        n = 16
        m = _c3(n)
        e0 = np.zeros(n)
        e0[0] = 1.0
        np.testing.assert_allclose(apply(m, e0), np.full(n, math.sqrt(1.0 / n)),
                                   atol=1e-15)

    def test_s1_roundtrip_zeroes_a0(self):
        n = 16
        m = _s1(n)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(n)
        got = apply(m, apply(m, a), transposed=True)
        want = a.copy()
        want[0] = 0.0
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_c3_roundtrip(self):
        n = 16
        m = _c3(n)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(n)
        np.testing.assert_allclose(apply(m, apply(m, a), transposed=True), a, atol=1e-12)

    def test_size_mismatch(self):
        m = _c3(8)
        with pytest.raises(GridMismatchError):
            apply(m, np.ones(9))

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 255, 256, 257, 1000, 2048, 2049])
    def test_hd_generator_has_period_2n(self, n):
        # _hd_apply's circular correlation of length 2N is exact only by this identity.
        s, i = _hd_generator(n), np.arange(2 * n)
        np.testing.assert_array_equal(s[2 * n:], s[:n - 1])
        np.testing.assert_array_equal(s[2 * n - 1 - i], -s[:2 * n])
        # The FFT length: 2N when 2N is 5-smooth, else the least 5-smooth length >= 3N-1.
        smooth = {2 ** a * 3 ** b * 5 ** c for a in range(14) for b in range(9) for c in range(6)}
        want = 2 * n if 2 * n in smooth else min(x for x in smooth if x >= 3 * n - 1)
        assert _hd_spectrum(n)[0] == want
        assert want == {64: 128, 257: 800, 1000: 2000, 2049: 6250}.get(n, want)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 255, 256, 512, 600, 1000, 1024, 1025,
                                   2048, 2049])
    def test_hd_by_fft_matches_dense(self, n):
        hd = build(TransformKind.HD, n)
        v = np.random.default_rng(n).standard_normal((2, n))
        for transposed, dense in ((False, hd), (True, hd.T)):
            want = v @ dense.T
            batched = _hd_apply(v, transposed)
            for row in range(2):
                tol = 1e-14 * np.abs(want[row]).max()
                assert np.abs(batched[row] - want[row]).max() <= tol
                assert np.abs(_hd_apply(v[row], transposed) - want[row]).max() <= tol
        assert not _hd_spectrum(n)[1].flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 8, 255, 256, 1024, 2049])
    def test_c3t_and_s1_by_fft_match_dense(self, n):
        # S1 at n + 1 is the size the U-grid analysis uses.
        rng = np.random.default_rng(n)
        checks = [(_c3t_apply, _c3(n).T, rng.standard_normal(n))]
        for size in (n, n + 1):
            checks.append((_s1_apply, _s1(size), rng.standard_normal(size)))
        for fast, dense, v in checks:
            want = dense @ v
            assert np.abs(fast(v) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 255, 256, 257, 1024, 2049, 2050])
    def test_c3t_and_s1_batched_match_rows_bit_for_bit(self, n):
        v = np.random.default_rng(n).standard_normal((3, n))
        for fast in (_c3t_apply, _s1_apply):
            batched = fast(v)
            for row in range(3):
                np.testing.assert_array_equal(batched[row], fast(v[row]))

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 255, 256, 257, 1024, 2048, 2049])
    def test_hd_batched_matches_rows_bit_for_bit(self, n):
        v = np.random.default_rng(n).standard_normal((3, n))
        for transposed in (False, True):
            batched = _hd_apply(v, transposed)
            for row in range(3):
                np.testing.assert_array_equal(batched[row], _hd_apply(v[row], transposed))


def _column_ranges(n):
    """Empty, one-column, clipped-at-n and seeded random column ranges of HD of size n."""
    a, b = np.sort(np.random.default_rng(n).choice(n + 1, size=2, replace=False))
    return [(0, 0), (n, n), (n // 2, n // 2), (0, 1), (n - 1, n), (n // 2, n // 2 + 1),
            (n // 3, n + 100), (0, n), (int(a), int(b))]


class TestHdColumns:
    @pytest.mark.parametrize("n", [2, 3, 8, 255, 256, 257, 2049])
    def test_columns_are_the_matrix_columns_bit_for_bit(self, n):
        # Also against HD[m, j] = s[N+m+j] + s[N-1-m+j] by index, with no window view.
        s, m = _hd_generator(n), np.arange(n)[:, None]
        for a, b in _column_ranges(n):
            got = _hd_columns(n, a, b)
            want = build(TransformKind.HD, n)[:, a:b]
            j = np.arange(a, min(b, n))
            assert got.shape == want.shape == (n, len(j))
            assert got.tobytes() == want.tobytes()  # signs of zeros too
            assert got.tobytes() == (s[n + m + j] + s[n - 1 - m + j]).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 8, 255, 256, 257, 2049])
    def test_columns_match_the_product_of_the_factors(self, n):
        c3, s1 = _c3(n), _s1(n)
        for a, b in _column_ranges(n):
            np.testing.assert_allclose(_hd_columns(n, a, b), c3 @ s1[a:b].T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 257])
    def test_generator_is_read_only(self, n):
        s = _hd_generator(n)
        assert s.shape == (3 * n - 1,) and not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 1.0

    def test_a_cold_direct_solve_computes_the_generator_once(self, monkeypatch):
        # cosh_forward, then the four system_matrix calls of a cold Woodbury solve at
        # N = 2049: one generator between them (a weight no other test solves at).
        n, p = 2049, WeightParam.cosh_real(2.75)
        g = cgl_nodes(GridKind.TNODES, n)
        calls, system_matrix = [], fhtcheb.cosh.system_matrix
        def counted(*args):
            calls.append(args)
            return system_matrix(*args)
        monkeypatch.setattr(fhtcheb.cosh, "system_matrix", counted)
        _hd_generator.cache_clear()
        F = cosh_forward(GridFn(g, g.weights * np.exp(g.nodes)), p)
        _, rep = cosh_invert_direct(F, p)
        assert rep.form == "woodbury" and len(calls) == 4
        assert _hd_generator.cache_info().misses == 1


@pytest.mark.parametrize("check, fast", [(check_c3_orthogonality, _c3t_apply),
                                         (check_s1_diagonal, _s1_apply)])
def test_verify_checks_the_fft_transform(monkeypatch, check, fast):
    # verify certifies the FFT transforms that run, so a perturbed one fails its check.
    assert check(64).passed
    monkeypatch.setattr(f"fhtcheb.verify.{fast.__name__}", lambda v: fast(v) * (1.0 + 1e-9))
    assert not check(64).passed


class TestMAnalysisRoundtrip:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_roundtrip(self, n):
        from fhtcheb.fht import m_analysis_sgrid
        from fhtcheb import GridFn, GridKind, ResampleMode
        from fhtcheb import cgl_nodes, resample

        rng = np.random.default_rng(2)
        d = rng.standard_normal(n)
        d[-1] = 0.0  # T_N is invisible on S-nodes
        sg = cgl_nodes(GridKind.SNODES, n)
        tc = np.concatenate(([0.0], d))
        f = resample(tc, sg.nodes, ResampleMode.T_SERIES)
        _, got = m_analysis_sgrid(GridFn(sg, f / sg.weights))
        np.testing.assert_allclose(got, d, atol=1e-10)

import math

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
    ResampleMode,
    cgl_nodes,
    cheb_eval,
    inner_product,
    norm,
    resample,
    weight_w,
)
from fhtcheb.cli import main
from fhtcheb.fht import evaluate
from fhtcheb.grids import _clenshaw
from fhtcheb.report import write_csv


class TestCglNodes:
    def test_snodes_closed_form(self):
        g = cgl_nodes(GridKind.SNODES, 4)
        want = np.cos((np.arange(4) + 0.5) * np.pi / 4)
        np.testing.assert_array_equal(g.nodes, want)
        assert np.all(np.diff(g.nodes) < 0)
        assert np.all(np.abs(g.nodes) < 1)

    def test_tnodes_first_is_one(self):
        g = cgl_nodes(GridKind.TNODES, 4)
        assert g.nodes[0] == 1.0
        np.testing.assert_allclose(g.nodes, [1.0, math.sqrt(0.5), 0.0, -math.sqrt(0.5)],
                                   atol=1e-15)

    def test_unodes(self):
        g = cgl_nodes(GridKind.UNODES, 3)
        np.testing.assert_allclose(g.nodes, [math.cos(np.pi / 4), 0.0,
                                             math.cos(3 * np.pi / 4)], atol=1e-15)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            cgl_nodes(GridKind.SNODES, 1)

    @pytest.mark.parametrize("kind", list(GridKind))
    def test_too_large(self, kind):
        # a grid function on more nodes has a series resample refuses
        assert cgl_nodes(kind, MAX_DEGREE + 1).n == MAX_DEGREE + 1
        with pytest.raises(InvalidSizeError):
            cgl_nodes(kind, MAX_DEGREE + 2)

    def test_weights_are_sin_angles(self):
        g = cgl_nodes(GridKind.UNODES, 16)
        np.testing.assert_allclose(g.weights, np.sqrt(1 - g.nodes ** 2), atol=1e-15)

    @pytest.mark.parametrize("kind", list(GridKind))
    def test_shared_and_read_only(self, kind):
        g = cgl_nodes(kind, 16)
        assert cgl_nodes(kind, 16) is g
        for a in (g.nodes, g.weights):
            with pytest.raises(ValueError):
                a[0] = 0.5


class TestChebEval:
    def test_t2(self):
        assert cheb_eval(Basis.FIRST_T, 2, 0.5) == pytest.approx(-0.5)

    def test_u1(self):
        assert cheb_eval(Basis.SECOND_U, 1, 0.5) == pytest.approx(1.0)

    def test_t3(self):
        assert cheb_eval(Basis.FIRST_T, 3, 0.9) == pytest.approx(0.216)

    def test_trig_identities(self):
        for theta in (0.1, 0.7, 2.5):
            x = math.cos(theta)
            for n in range(65):
                assert cheb_eval(Basis.FIRST_T, n, x) == pytest.approx(
                    math.cos(n * theta), abs=1e-12)
                assert cheb_eval(Basis.SECOND_U, n, x) * math.sin(theta) == pytest.approx(
                    math.sin((n + 1) * theta), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cheb_eval(Basis.FIRST_T, 2, 1.5)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            cheb_eval(Basis.FIRST_T, 5000, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 7, 256, MAX_DEGREE + 1])
    def test_clenshaw_bit_identical_to_the_plain_recurrence(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n) * np.exp(-np.arange(n) / 64.0)
        x = np.concatenate([[-1.0, -0.0, 1.0], rng.uniform(-1.0, 1.0, 300)])
        for second_kind in (False, True):
            b1, b2, two_x = np.zeros_like(x), np.zeros_like(x), 2.0 * x
            for ak in a[:0:-1]:
                b1, b2 = two_x * b1 - b2 + ak, b1
            want = a[0] + (two_x if second_kind else x) * b1 - b2
            assert np.array_equal(_clenshaw(a, x, second_kind), want)


class TestWeight:
    def test_values(self):
        assert weight_w(0.0) == 1.0
        assert weight_w(1.0) == 0.0
        assert weight_w(0.6) == pytest.approx(0.8)

    def test_domain(self):
        with pytest.raises(DomainError):
            weight_w(1.0001)


# NaN lies nowhere on [-1, 1], nor does the double just above 1; +-1 itself does.
@pytest.mark.parametrize("x", [np.nan, 1.0 + 2.0 ** -52, [0.5, np.nan], [-1.0, np.nan]])
@pytest.mark.parametrize("call", [
    weight_w,
    lambda x: cheb_eval(Basis.FIRST_T, 3, x),
    lambda x: cheb_eval(Basis.SECOND_U, 3, x),
    lambda x: resample(np.ones(4), x, ResampleMode.T_SERIES),
    lambda x: resample(np.ones(4), x, ResampleMode.WU_SERIES),
], ids=["weight_w", "cheb_eval-T", "cheb_eval-U", "resample-T", "resample-WU"])
def test_points_off_the_interval_refused(call, x):
    with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
        call(x)
    assert np.all(np.isfinite(call([-1.0, 1.0])))


class TestInnerProduct:
    def test_constant_ld(self):
        g = cgl_nodes(GridKind.SNODES, 16)
        one = GridFn(g, np.ones(16))
        assert inner_product(one, one) == pytest.approx(1.0)

    def test_t1_t2_orthogonal(self):
        g = cgl_nodes(GridKind.SNODES, 8)
        f = GridFn(g, cheb_eval(Basis.FIRST_T, 1, g.nodes))
        h = GridFn(g, cheb_eval(Basis.FIRST_T, 2, g.nodes))
        assert abs(inner_product(f, h)) < 1e-14

    def test_u0_lm(self):
        g = cgl_nodes(GridKind.UNODES, 8)
        one = GridFn(g, np.ones(8))
        assert inner_product(one, one) == pytest.approx(0.5)

    def test_exactness_t(self):
        g = cgl_nodes(GridKind.SNODES, 32)
        for i in range(6):
            for j in range(6):
                fi = GridFn(g, cheb_eval(Basis.FIRST_T, i, g.nodes))
                fj = GridFn(g, cheb_eval(Basis.FIRST_T, j, g.nodes))
                want = 1.0 if i == j == 0 else (0.5 if i == j else 0.0)
                assert inner_product(fi, fj) == pytest.approx(want, abs=1e-13)

    def test_exactness_u(self):
        g = cgl_nodes(GridKind.UNODES, 32)
        for i in range(6):
            for j in range(6):
                fi = GridFn(g, cheb_eval(Basis.SECOND_U, i, g.nodes))
                fj = GridFn(g, cheb_eval(Basis.SECOND_U, j, g.nodes))
                want = 0.5 if i == j else 0.0
                assert inner_product(fi, fj) == pytest.approx(want, abs=1e-13)

    def test_grid_mismatch(self):
        f = GridFn(cgl_nodes(GridKind.SNODES, 8), np.ones(8))
        g = GridFn(cgl_nodes(GridKind.UNODES, 8), np.ones(8))
        t = GridFn(cgl_nodes(GridKind.TNODES, 8), np.ones(8))
        with pytest.raises(GridMismatchError):
            inner_product(f, g)
        with pytest.raises(GridMismatchError):  # T-nodes carry no quadrature rule
            inner_product(t, t)

    def test_norm_reciprocal_weight(self):
        # Continuum value is 1; the discrete second-kind rule gives
        # sqrt(N/(N+1)) exactly (the integrand 1/w is not polynomial).
        for n in (16, 256):
            g = cgl_nodes(GridKind.UNODES, n)
            f = GridFn(g, 1.0 / g.weights)
            got = norm(f)
            assert got == pytest.approx(math.sqrt(n / (n + 1.0)), abs=1e-14)
            assert abs(got - 1.0) < 1.0 / n

    def test_norm_zero(self):
        g = cgl_nodes(GridKind.SNODES, 8)
        assert norm(GridFn(g, np.zeros(8))) == 0.0


class TestResample:
    def test_t_series(self):
        c = np.array([0.0, 1.0, 0.0])
        assert resample(c, 0.3, ResampleMode.T_SERIES) == pytest.approx(0.3)

    def test_wu_series_u0(self):
        c = np.array([0.0, 1.0, 0.0])
        assert resample(c, 0.6, ResampleMode.WU_SERIES) == pytest.approx(0.8)

    def test_wu_series_u1(self):
        c = np.array([0.0, 0.0, 1.0])
        want = weight_w(0.5) * cheb_eval(Basis.SECOND_U, 1, 0.5)
        assert resample(c, 0.5, ResampleMode.WU_SERIES) == pytest.approx(want)

    def test_a0_contributes_nothing_in_wu(self):
        c1 = np.array([5.0, 1.0])
        c2 = np.array([0.0, 1.0])
        x = np.linspace(-0.9, 0.9, 7)
        np.testing.assert_array_equal(
            resample(c1, x, ResampleMode.WU_SERIES),
            resample(c2, x, ResampleMode.WU_SERIES),
        )

    def test_domain(self):
        c = np.array([1.0])
        with pytest.raises(DomainError):
            resample(c, 1.2, ResampleMode.T_SERIES)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double for the reference")
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 255, 1024, MAX_DEGREE + 1])
    def test_against_trig_reference(self, n):
        # T_k(cos th) = cos(k th) and w(cos th) U_{k-1}(cos th) = sin(k th)
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n)
        bound = 1e-14 * np.abs(a).sum()
        for x in (np.linspace(-1.0, 1.0, 257), rng.uniform(-1.0, 1.0, 257),
                  np.array([-1.0, -0.0, 0.0, 1.0])):
            angles = np.outer(np.arccos(x.astype(np.longdouble)), np.arange(n))
            for mode, trig in ((ResampleMode.T_SERIES, np.cos), (ResampleMode.WU_SERIES, np.sin)):
                err = np.abs(resample(a, x, mode) - trig(angles) @ a.astype(np.longdouble))
                assert float(err.max()) < bound, (mode, x.shape)

    @pytest.mark.parametrize("mode", list(ResampleMode))
    def test_empty_series_is_zero(self, mode):
        x = np.linspace(-1.0, 1.0, 5)
        np.testing.assert_array_equal(resample(np.array([]), x, mode), np.zeros(5))
        assert resample(np.array([]), 0.5, mode) == 0.0

    @pytest.mark.parametrize("mode", list(ResampleMode))
    def test_shapes(self, mode):
        a = np.random.default_rng(3).standard_normal(20)
        x = np.linspace(-1.0, 1.0, 15).reshape(3, 5)
        out = resample(a, x, mode)
        assert out.shape == (3, 5) and out.flags.c_contiguous
        np.testing.assert_array_equal(out.ravel(), resample(a, x.ravel(), mode))
        value = resample(a, 0.25, mode)
        assert type(value) is float and value == resample(a, [0.25], mode)[0]

    def test_checks_in_order(self):
        # points first, then the degree cap, then the coefficients' type
        too_long = np.ones(MAX_DEGREE + 2, dtype=complex)
        with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
            resample(too_long, 1.5, ResampleMode.T_SERIES)
        with pytest.raises(DomainError, match="exceeds cap"):
            resample(too_long, 0.5, ResampleMode.T_SERIES)
        with pytest.raises(DomainError, match="real"):
            resample(np.array([1.0, 1j]), 0.5, ResampleMode.T_SERIES)


def test_resampling_runs_no_clenshaw_recurrence(tmp_path, monkeypatch):
    # resample, evaluate and the CLI's display files all take the power series
    n = 255
    tg, sg = cgl_nodes(GridKind.TNODES, n), cgl_nodes(GridKind.SNODES, n)
    f = GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes))
    F = GridFn(sg, sg.nodes + 0.15 * (2.0 * sg.nodes ** 2 - 1.0))
    x = np.linspace(-1.0, 1.0, 101)
    a = np.random.default_rng(5).standard_normal(n)
    write_csv(tmp_path / "f.csv", tg.nodes, f.values)
    write_csv(tmp_path / "F.csv", sg.nodes, F.values)
    ops = [lambda: resample(a, x, ResampleMode.T_SERIES),
           lambda: resample(a, x, ResampleMode.WU_SERIES),
           lambda: evaluate(f, x), lambda: evaluate(F, x)]

    def cli_outputs(tag):
        for cmd, stem in (("forward", "f"), ("invert", "F")):
            out = tmp_path / f"{stem}_{tag}.csv"
            assert main([cmd, "--input", str(tmp_path / f"{stem}.csv"), "--output", str(out)]) == 0
        return [(tmp_path / f"{stem}_{tag}_uniform.csv").read_bytes() for stem in "fF"]

    want = [op() for op in ops] + cli_outputs("free")

    def refuse(*args, **kwargs):
        raise AssertionError("Clenshaw recurrence called")

    monkeypatch.setattr("fhtcheb.grids._clenshaw", refuse)
    monkeypatch.setattr("fhtcheb.cosh._clenshaw", refuse)
    got = [op() for op in ops] + cli_outputs("patched")
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestGridFn:
    def test_length_validated(self):
        g = cgl_nodes(GridKind.SNODES, 8)
        with pytest.raises(GridMismatchError):
            GridFn(g, np.ones(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", list(GridKind))
    def test_non_finite_values_refused(self, kind, bad):
        g = cgl_nodes(kind, 8)
        for index in range(8):
            v = np.ones(8)
            v[index] = bad
            with pytest.raises(DomainError):
                GridFn(g, v)

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
    WeightParam,
    cgl_nodes,
    cheb_eval,
    coeffs_from_sgrid,
    coeffs_from_tgrid,
    cosh_forward,
    cosh_invert_direct,
    cosh_invert_mean_constrained,
    cosh_invert_neumann,
    fht_forward_d,
    fht_forward_m,
    fht_inverse_d,
    fht_inverse_m,
    kernel,
    norm,
    pair,
    plancherel_check,
    range_defect,
    resample,
)
from fhtcheb.fht import evaluate, m_analysis_sgrid, sgrid_to_unodes
from fhtcheb.grids import Grid


def _u_on(grid, k):
    return cheb_eval(Basis.SECOND_U, k, grid.nodes)


class TestForwardD:
    @pytest.mark.parametrize("n", [64, 256])
    def test_unit_circle(self, n):
        tg = cgl_nodes(GridKind.TNODES, n)
        F = fht_forward_d(GridFn(tg, tg.weights))
        np.testing.assert_allclose(F.values, F.grid.nodes, atol=1e-12)

    def test_zero(self):
        tg = cgl_nodes(GridKind.TNODES, 32)
        F = fht_forward_d(GridFn(tg, np.zeros(32)))
        assert np.all(F.values == 0.0)

    def test_wu1_maps_to_t2(self):
        n = 64
        tg = cgl_nodes(GridKind.TNODES, n)
        f = GridFn(tg, 2.0 * tg.nodes * tg.weights)
        F = fht_forward_d(f)
        want = 2.0 * F.grid.nodes ** 2 - 1.0
        np.testing.assert_allclose(F.values, want, atol=1e-12)

    def test_wrong_grid(self):
        sg = cgl_nodes(GridKind.SNODES, 32)
        with pytest.raises(GridMismatchError):
            fht_forward_d(GridFn(sg, np.zeros(32)))


_P = WeightParam.cosh_real(1.0)
# every public operator on grid functions, with the one grid kind it takes
_GRID_OPERATORS = {
    "fht_forward_d": (fht_forward_d, GridKind.TNODES),
    "fht_inverse_d": (fht_inverse_d, GridKind.SNODES),
    "fht_forward_m": (fht_forward_m, GridKind.SNODES),
    "fht_inverse_m": (fht_inverse_m, GridKind.UNODES),
    "coeffs_from_tgrid": (coeffs_from_tgrid, GridKind.TNODES),
    "coeffs_from_sgrid": (coeffs_from_sgrid, GridKind.SNODES),
    "m_analysis_sgrid": (m_analysis_sgrid, GridKind.SNODES),
    "range_defect": (range_defect, GridKind.SNODES),
    "sgrid_to_unodes": (sgrid_to_unodes, GridKind.SNODES),
    "cosh_forward": (lambda f: cosh_forward(f, _P), GridKind.TNODES),
    "cosh_invert_direct": (lambda F: cosh_invert_direct(F, _P), GridKind.SNODES),
    "cosh_invert_neumann": (lambda F: cosh_invert_neumann(F, _P), GridKind.SNODES),
    "cosh_invert_mean_constrained":
        (lambda F: cosh_invert_mean_constrained(F, _P, 0.0), GridKind.UNODES),
}


@pytest.mark.parametrize("op, kind, wrong", [
    pytest.param(op, kind, wrong, id=f"{name}-{wrong.value}")
    for name, (op, kind) in _GRID_OPERATORS.items() for wrong in GridKind if wrong is not kind])
def test_every_grid_operator_refuses_a_wrong_grid(op, kind, wrong):
    grid = cgl_nodes(wrong, 16)
    with pytest.raises(GridMismatchError, match=f"expected {kind.value}-nodes"):
        op(GridFn(grid, np.ones(16)))


@pytest.mark.parametrize("op", [fht_forward_d, lambda f: cosh_forward(f, _P)],
                         ids=["fht_forward_d", "cosh_forward"])
def test_oversized_grid_refused_before_the_transform(op):
    n = 3000
    assert n > MAX_DEGREE + 1
    with pytest.raises(InvalidSizeError):
        cgl_nodes(GridKind.TNODES, n)
    angles = np.arange(n) * np.pi / n  # a T-grid built by hand, past cgl_nodes
    f = GridFn(Grid(GridKind.TNODES, n, np.cos(angles), np.sin(angles)), np.sin(angles))
    with pytest.raises(InvalidSizeError, match=f"got {n}"):
        op(f)


class TestInverseD:
    def test_s_maps_to_w(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        f = fht_inverse_d(GridFn(sg, sg.nodes))
        np.testing.assert_allclose(f.values, f.grid.weights, atol=1e-12)

    def test_constant_annihilated(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        f = fht_inverse_d(GridFn(sg, np.ones(n)))
        np.testing.assert_allclose(f.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [32, 128])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(4)
        tg = cgl_nodes(GridKind.TNODES, n)
        v = rng.standard_normal(n)
        v[0] = 0.0
        back = fht_inverse_d(fht_forward_d(GridFn(tg, v)))
        np.testing.assert_allclose(back.values, v, atol=1e-12)

    def test_shifted_pair_recovery(self):
        n = 256
        pr = pair("shifted")
        sg = cgl_nodes(GridKind.SNODES, n)
        ug = cgl_nodes(GridKind.UNODES, n)
        f = fht_inverse_d(GridFn(sg, pr.F(sg.nodes)))
        got_u = resample(coeffs_from_tgrid(f), ug.nodes, ResampleMode.WU_SERIES)
        want_u = pr.f(ug.nodes)
        rel = (norm(GridFn(ug, got_u - want_u))
               / norm(GridFn(ug, want_u)))
        assert rel < 1e-2


class TestForwardM:
    def test_t1_over_w(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        F = fht_forward_m(GridFn(sg, sg.nodes / sg.weights))
        np.testing.assert_allclose(F.values, 1.0, atol=1e-10)

    def test_reciprocal_weight_annihilated(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        F = fht_forward_m(GridFn(sg, 1.0 / sg.weights))
        np.testing.assert_allclose(F.values, 0.0, atol=1e-10)

    def test_t3_over_w(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        f = GridFn(sg, cheb_eval(Basis.FIRST_T, 3, sg.nodes) / sg.weights)
        F = fht_forward_m(f)
        np.testing.assert_allclose(F.values, _u_on(F.grid, 2), atol=1e-10)


class TestInverseM:
    def test_u0(self):
        n = 64
        ug = cgl_nodes(GridKind.UNODES, n)
        f = fht_inverse_m(GridFn(ug, np.ones(n)))
        np.testing.assert_allclose(f.values, f.grid.nodes / f.grid.weights, atol=1e-10)

    def test_zero(self):
        ug = cgl_nodes(GridKind.UNODES, 32)
        f = fht_inverse_m(GridFn(ug, np.zeros(32)))
        assert np.max(np.abs(f.values)) < 1e-12

    def test_roundtrip_t2_over_w(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        v = cheb_eval(Basis.FIRST_T, 2, sg.nodes) / sg.weights
        back = fht_inverse_m(fht_forward_m(GridFn(sg, v)))
        np.testing.assert_allclose(back.values, v, atol=1e-10)


class TestRangeDefect:
    def test_odd_function(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        assert abs(range_defect(GridFn(sg, sg.nodes))) < 1e-13

    def test_constant(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        assert range_defect(GridFn(sg, np.ones(n))) == pytest.approx(np.sqrt(n))

    def test_forward_image_in_range(self):
        n = 64
        rng = np.random.default_rng(6)
        tg = cgl_nodes(GridKind.TNODES, n)
        v = rng.standard_normal(n)
        v[0] = 0.0
        F = fht_forward_d(GridFn(tg, v))
        assert abs(range_defect(F)) < 1e-12

    def test_no_dense_transform(self, monkeypatch):
        # Column 0 of C3 is 1/sqrt(N), so the defect needs no N x N build.
        from fhtcheb.transforms import _c3, apply

        n = 256
        sg = cgl_nodes(GridKind.SNODES, n)
        F = GridFn(sg, np.random.default_rng(7).standard_normal(n))
        want = apply(_c3(n), F.values, transposed=True)[0]

        def refuse(kind, n):
            raise AssertionError(f"{kind} built at n = {n}")

        monkeypatch.setattr("fhtcheb.fht.build", refuse)
        assert range_defect(F) == pytest.approx(want, abs=1e-13)


class TestPlancherel:
    def test_d_flavor(self):
        n = 64
        tg = cgl_nodes(GridKind.TNODES, n)
        f = GridFn(tg, tg.weights * _u_on(tg, 3))
        assert plancherel_check(f).defect < 1e-10

    def test_m_flavor_with_mean(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        f = GridFn(sg, sg.weights * _u_on(sg, 0))
        rep = plancherel_check(f)
        assert rep.defect < 1e-10
        assert rep.lhs < rep.rhs + 1e-10 or rep.lhs == pytest.approx(rep.rhs, abs=1e-10)

    def test_m_flavor_zero_mean(self):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        f = GridFn(sg, sg.weights * _u_on(sg, 1))  # odd, zero mean
        rep = plancherel_check(f)
        assert rep.defect < 1e-10
        ug = cgl_nodes(GridKind.UNODES, n)
        full = norm(GridFn(ug, sgrid_to_unodes(f))) ** 2
        assert rep.lhs == pytest.approx(full, abs=1e-10)

    def test_u_grid_raises(self):
        ug = cgl_nodes(GridKind.UNODES, 16)
        with pytest.raises(GridMismatchError):
            plancherel_check(GridFn(ug, ug.weights))

    def test_lemma2_inequality_random(self):
        # ||F||_Lm^2 <= ||f||_Lm^2; the right side equals ||f w||_Ld^2 and the
        # S-node rule is exact for it, so the comparison holds for any samples.
        n = 64
        rng = np.random.default_rng(8)
        sg = cgl_nodes(GridKind.SNODES, n)
        for _ in range(5):
            f = GridFn(sg, rng.standard_normal(n))
            lhs = norm(fht_forward_m(f)) ** 2
            full = norm(GridFn(sg, f.values * sg.weights)) ** 2
            assert lhs <= full + 1e-10


class TestIsometry:
    @pytest.mark.parametrize("k", [0, 1, 7, 30])
    def test_d(self, k):
        n = 64
        tg = cgl_nodes(GridKind.TNODES, n)
        f = GridFn(tg, tg.weights * _u_on(tg, k))
        rep = plancherel_check(f)
        assert rep.defect < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 7, 30])
    def test_m(self, k):
        n = 64
        sg = cgl_nodes(GridKind.SNODES, n)
        f = GridFn(sg, cheb_eval(Basis.FIRST_T, k + 1, sg.nodes) / sg.weights)
        F = fht_forward_m(f)
        assert norm(F) ** 2 == pytest.approx(0.5, abs=1e-10)


class TestCoeffs:
    def test_tgrid_a0_zero(self):
        n = 32
        rng = np.random.default_rng(9)
        tg = cgl_nodes(GridKind.TNODES, n)
        a = coeffs_from_tgrid(GridFn(tg, rng.standard_normal(n)))
        assert a[0] == 0.0

    def test_sgrid_roundtrip(self):
        n = 32
        sg = cgl_nodes(GridKind.SNODES, n)
        vals = 1.5 + sg.nodes - 0.25 * cheb_eval(Basis.FIRST_T, 4, sg.nodes)
        a = coeffs_from_sgrid(GridFn(sg, vals))
        got = resample(a, sg.nodes, ResampleMode.T_SERIES)
        np.testing.assert_allclose(got, vals, atol=1e-12)
        assert a[0] == pytest.approx(1.5, abs=1e-13)


def test_analysis_builds_no_c3_or_s1(monkeypatch):
    # Every analysis is one FFT; none of these operations builds a dense table.
    n = 255
    sg, tg = cgl_nodes(GridKind.SNODES, n), cgl_nodes(GridKind.TNODES, n)
    f = GridFn(tg, tg.weights * (1.0 + 0.3 * tg.nodes))
    F = GridFn(sg, sg.nodes + 0.15 * (2.0 * sg.nodes ** 2 - 1.0))
    x = np.linspace(-1.0, 1.0, 101)
    p = WeightParam.cosh_real(3.0)
    ops = [lambda: coeffs_from_tgrid(f), lambda: coeffs_from_sgrid(F),
           lambda: evaluate(f, x), lambda: evaluate(F, x), lambda: sgrid_to_unodes(F),
           lambda: kernel("Kd", p, n, x), lambda: kernel("Km", p, n, x)]
    want = [op() for op in ops]

    def refuse(kind, size):
        raise AssertionError(f"{kind} built at n = {size}")

    monkeypatch.setattr("fhtcheb.fht.build", refuse)
    monkeypatch.setattr("fhtcheb.cosh.build", refuse)
    for op, value in zip(ops, want):
        np.testing.assert_array_equal(op(), value)


class TestEvaluate:
    @pytest.mark.parametrize("n", [8, 9, 64, 255])
    @pytest.mark.parametrize("kind", [GridKind.TNODES, GridKind.SNODES])
    def test_reproduces_samples_at_own_nodes(self, kind, n):
        # the T-grid's node t_0 = 1 is a zero of every w U_k term
        grid = cgl_nodes(kind, n)
        vals = np.random.default_rng(n).standard_normal(n)
        got = evaluate(GridFn(grid, vals), grid.nodes)
        first = 1 if kind is GridKind.TNODES else 0
        err = np.max(np.abs(got[first:] - vals[first:]))
        assert err <= 1e-11 * np.max(np.abs(vals))

    def test_u_grid_raises(self):
        ug = cgl_nodes(GridKind.UNODES, 16)
        with pytest.raises(GridMismatchError):
            evaluate(GridFn(ug, ug.weights), 0.3)

    @pytest.mark.parametrize("x", [np.nan, 1.0 + 2.0 ** -52, [0.5, np.nan]])
    @pytest.mark.parametrize("kind", [GridKind.TNODES, GridKind.SNODES])
    def test_points_off_the_interval_raise(self, kind, x):
        grid = cgl_nodes(kind, 16)
        f = GridFn(grid, np.cos(grid.nodes))
        with pytest.raises(DomainError):
            evaluate(f, x)
        assert np.all(np.isfinite(evaluate(f, [-1.0, 1.0])))

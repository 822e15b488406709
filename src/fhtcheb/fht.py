"""Forward and inverse finite Hilbert transform in both weighted flavors.

Division flavor (d): f sampled on T-nodes, F on S-nodes, F = C3 S1^T f.
The constant (T_0) component of F violates the range condition
integral(F/w) = 0 and is silently annihilated by the inverse.

Multiplication flavor (m): f sampled on S-nodes, F on U-nodes. f is
analyzed in the basis {T_{n+1}/w}; the residual constant-over-w component
maps to zero. The basis map is T_{n+1}/w <-> U_n with the positive sign of
the classical Tricomi pairs; see the sign note in cosh.py for how this
composes with the plain-convention transform.

Both flavors rest on the two transforms of transforms.py. C3^T of size N
analyzes T-series on S-nodes, S1 sine series on T-nodes, and S1 of size N+1
w U-series on U-nodes, each by one real FFT. The d-flavor pair applies their
fused product HD by one FFT correlation with its closed-form generator, the
m-flavor pair the fused product HM, one dense matrix-vector product each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .grids import (
    GridFn,
    GridKind,
    ResampleMode,
    cgl_nodes,
    inner_product,
    norm,
    resample,
)
from .transforms import TransformKind, _c3t_apply, _hd_apply, _s1_apply, apply, build


def _require(f: GridFn, kind: GridKind) -> None:
    if f.grid.kind is not kind:
        raise GridMismatchError(f"expected {kind.value}-nodes, got {f.grid.kind.value}-nodes")


# ---------------------------------------------------------------------------
# coefficient analysis / synthesis helpers

def coeffs_from_tgrid(f: GridFn) -> np.ndarray:
    """Series coefficients a_n of a T-grid function, f(cos th) = sum a_n sin(n th), by one DST-I.

    The same a_n are the T-series coefficients of the forward image
    F(cos th) = sum a_n cos(n th); a_0 is identically zero (range condition).
    """
    _require(f, GridKind.TNODES)
    a = np.sqrt(2.0 / f.grid.n) * _s1_apply(f.values)
    a[0] = 0.0
    return a


def coeffs_from_sgrid(F: GridFn) -> np.ndarray:
    """T-series coefficients of an S-grid function (a_0 included), by one DCT-II."""
    _require(F, GridKind.SNODES)
    n = F.grid.n
    ah = _c3t_apply(F.values)
    a = np.sqrt(2.0 / n) * ah
    a[0] = ah[0] / np.sqrt(n)
    return a


def m_analysis_sgrid(f: GridFn) -> tuple[float, np.ndarray]:
    """Split f on S-nodes as (c0 + sum_n d_n T_{n+1}) / w.

    Returns (c0, d); c0/w is the component the forward transform annihilates.
    d has N entries; the last is 0 because T_N vanishes on the S-nodes.
    """
    _require(f, GridKind.SNODES)
    a = coeffs_from_sgrid(GridFn(f.grid, f.values * f.grid.weights))
    return float(a[0]), np.append(a[1:], 0.0)


def _u_analysis(F: GridFn) -> np.ndarray:
    """Coefficients d_k of a U-grid function F = sum_k d_k U_k, k = 0..N-1."""
    sv = _s1_apply(np.concatenate(([0.0], F.grid.weights * F.values)))  # S1 at N+1
    return np.sqrt(2.0 / sv.shape[0]) * sv[1:]


def evaluate(f: GridFn, x):
    """f at arbitrary points x in [-1, 1], by the series its grid's kind implies.

    A T-grid function is evaluated by its sine series w(x) sum a_n U_{n-1}(x),
    an S-grid one by its T-series; U-grid functions raise GridMismatchError.
    """
    if f.grid.kind is GridKind.TNODES:
        return resample(coeffs_from_tgrid(f), x, ResampleMode.WU_SERIES)
    return resample(coeffs_from_sgrid(f), x, ResampleMode.T_SERIES)


def sgrid_to_unodes(f: GridFn) -> np.ndarray:
    """Resample an S-grid function onto the U-grid of the same size."""
    _require(f, GridKind.SNODES)
    ug = cgl_nodes(GridKind.UNODES, f.grid.n)
    return evaluate(GridFn(f.grid, f.values * f.grid.weights), ug.nodes) / ug.weights


# ---------------------------------------------------------------------------
# the four transform operations

def fht_forward_d(f: GridFn) -> GridFn:
    """F = HD f = C3 S1^T f: maps w U_{n-1} samples on T-nodes to T_n on S-nodes."""
    _require(f, GridKind.TNODES)
    return GridFn(cgl_nodes(GridKind.SNODES, f.grid.n), _hd_apply(f.values))


def fht_inverse_d(F: GridFn) -> GridFn:
    """f = HD^T F = S1 C3^T F; the T_0 component of F is annihilated."""
    _require(F, GridKind.SNODES)
    return GridFn(cgl_nodes(GridKind.TNODES, F.grid.n), _hd_apply(F.values, transposed=True))


def fht_forward_m(f: GridFn) -> GridFn:
    """Map T_{n+1}/w components on S-nodes to U_n on U-nodes; C/w maps to 0.

    The first call at a size builds HM, one O(N^3) product: 0.49 s at N = 2048
    on one core, against 0.28 s for the first call of the two-stage form.
    """
    _require(f, GridKind.SNODES)
    n = f.grid.n
    ug = cgl_nodes(GridKind.UNODES, n)
    hm = build(TransformKind.HM, n)
    out = np.sqrt((n + 1) / n) * apply(hm, f.grid.weights * f.values, transposed=True)
    out /= ug.weights
    return GridFn(ug, out)


def fht_inverse_m(F: GridFn) -> GridFn:
    """Map U_n components on U-nodes back to T_{n+1}/w on S-nodes (HM, as above)."""
    _require(F, GridKind.UNODES)
    n = F.grid.n
    sg = cgl_nodes(GridKind.SNODES, n)
    hm = build(TransformKind.HM, n)
    out = np.sqrt(n / (n + 1)) * apply(hm, F.grid.weights * F.values) / sg.weights
    return GridFn(sg, out)


def range_defect(F: GridFn) -> float:
    """Component 0 of C3^T F = (1/sqrt(N)) sum F(s_m); zero iff F is in range."""
    _require(F, GridKind.SNODES)
    return float(np.sum(F.values) / np.sqrt(F.grid.n))


# ---------------------------------------------------------------------------
# Plancherel validators

@dataclass(frozen=True)
class PlancherelReport:
    lhs: float
    rhs: float
    defect: float


def plancherel_check(f: GridFn) -> PlancherelReport:
    """Check the Plancherel-like equality of the flavor f's grid implies.

    T-nodes, D flavor: ||F||_{Ld}^2 == ||f||_{Ld}^2.
    S-nodes, M flavor: ||F||_{Lm}^2 == ||f||_{Lm}^2 - <f, 1/w>_m^2 for real f
    (the mean term is the normalized form of the (integral f)^2 correction;
    <f, 1/w>_m = (1/pi) integral f dt). U-nodes raise GridMismatchError.
    """
    if f.grid.kind is GridKind.TNODES:
        F = fht_forward_d(f)
        lhs = norm(F) ** 2
        rhs = norm(GridFn(F.grid, evaluate(f, F.grid.nodes))) ** 2
    else:
        F = fht_forward_m(f)
        lhs = norm(F) ** 2
        ug = F.grid
        f_on_u = GridFn(ug, sgrid_to_unodes(f))
        mean = inner_product(f_on_u, GridFn(ug, 1.0 / ug.weights))
        rhs = norm(f_on_u) ** 2 - mean ** 2
    return PlancherelReport(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))

"""Chebyshev-Gauss-Lobatto grids, polynomials, weights and weighted inner products.

Three node families are used throughout:

* S-nodes  ``cos((m+0.5)pi/N)``, m = 0..N-1 (half-integer angles, all interior)
* T-nodes  ``cos(m pi/N)``,      m = 0..N-1 (integer angles, t_0 = 1 exactly)
* U-nodes  ``cos(j pi/(N+1))``,  j = 1..N   (interior, Gauss nodes for weight w)

S-nodes carry the Gauss-Chebyshev rule for the division-weighted space L_d^2
(weight 1/w), U-nodes the rule for the multiplication-weighted space L_m^2
(weight w), where w(t) = sqrt(1 - t^2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, GridMismatchError, InvalidSizeError

# Series above this degree, and grids of more than MAX_DEGREE + 1 nodes, are
# refused: error growth beyond it is untested.
MAX_DEGREE = 2048


class GridKind(enum.Enum):
    SNODES = "s"
    TNODES = "t"
    UNODES = "u"


class Basis(enum.Enum):
    FIRST_T = "T"
    SECOND_U = "U"


class ResampleMode(enum.Enum):
    T_SERIES = "t_series"    # sum a_n T_n(x)
    WU_SERIES = "wu_series"  # w(x) sum a_n U_{n-1}(x)


@dataclass(frozen=True)
class Grid:
    """Collocation grid: node abscissae and the weights w(node).

    Both are taken from the generating angles, nodes = cos(angle) and
    weights = sin(angle), so the weights are exact and the nodes are always
    the closed-form cosines, never accumulated. Both arrays are read-only.
    """

    kind: GridKind
    n: int
    nodes: np.ndarray
    weights: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        for a in (self.nodes, self.weights):
            a.flags.writeable = False

    def matches(self, other: "Grid") -> bool:
        return self.kind is other.kind and self.n == other.n


@dataclass(frozen=True)
class GridFn:
    """Finite sample values attached to a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.shape[0] != self.grid.n:
            raise GridMismatchError(
                f"values length {v.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", v)


def cgl_nodes(kind: GridKind, n: int) -> Grid:
    """The CGL grid of the given kind and size (2 <= n <= MAX_DEGREE + 1), shared between calls.

    Above that size a grid function's series could not be evaluated off the grid.
    """
    if not 2 <= n <= MAX_DEGREE + 1:
        raise InvalidSizeError(f"grid size must be in [2, {MAX_DEGREE + 1}], got {n}")
    return _cgl_grid(kind, n)


@lru_cache(maxsize=32)  # a grid is two length-N arrays
def _cgl_grid(kind: GridKind, n: int) -> Grid:
    if kind is GridKind.SNODES:
        angles = (np.arange(n) + 0.5) * np.pi / n
    elif kind is GridKind.TNODES:
        angles = np.arange(n) * np.pi / n
    elif kind is GridKind.UNODES:
        angles = np.arange(1, n + 1) * np.pi / (n + 1)
    else:  # pragma: no cover
        raise GridMismatchError(f"unknown grid kind {kind}")
    return Grid(kind=kind, n=n, nodes=np.cos(angles), weights=np.sin(angles))


def _points(x: np.ndarray, what: str) -> None:
    """Refuse x unless every point lies in [-1, 1]; NaN lies nowhere, so it is refused."""
    if not np.all(np.abs(x) <= 1.0):
        raise DomainError(f"{what} outside [-1, 1]")


def weight_w(t):
    """w(t) = sqrt(1 - t^2); exactly 0 at +-1. Accepts scalars or arrays."""
    t = np.asarray(t, dtype=float)
    _points(t, "weight_w argument")
    out = np.sqrt(np.maximum(0.0, (1.0 - t) * (1.0 + t)))
    return out if out.ndim else float(out)


def _clenshaw(a: np.ndarray, x: np.ndarray, second_kind: bool) -> np.ndarray:
    """sum a_k T_k(x), or sum a_k U_k(x) if second_kind, by Clenshaw's recurrence.

    The backward recurrence b_k = a_k + 2x b_{k+1} - b_{k+2} is stable on
    [-1, 1]. It serves `cheb_eval` and `cosh.kernel`, which need U-series
    without the factor w(x): `_power_series` gives only w(x) times such a
    series, and dividing by w is 0/0 at +-1. `resample` uses `_power_series`.
    """
    b1 = np.zeros(x.shape, dtype=np.result_type(a, x))
    if a.shape[0] == 0:
        return b1
    b2, b0 = np.zeros_like(b1), np.empty_like(b1)
    two_x = 2.0 * x
    for ak in a[:0:-1].tolist():  # in place, rounding as two_x * b1 - b2 + ak
        np.multiply(two_x, b1, out=b0)
        b0 -= b2
        b0 += ak
        b0, b1, b2 = b2, b0, b1
    return a[0] + (two_x if second_kind else x) * b1 - b2


def _power_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(z) = sum a_k z^k at z = x + i w(x) = e^{i theta}, x = cos(theta), for 1-D x.

    Re P = sum a_k T_k(x) and Im P = sum a_k sin(k theta) = w(x) sum a_k U_{k-1}(x).
    Baby-step/giant-step (Paterson & Stockmeyer, 1973): with k = qB + r and
    B = ceil(sqrt(N)), P = sum_q z^{qB} sum_r a_{qB+r} z^r. The baby powers
    z^r and the giant powers z^{qB} are about 2 sqrt(N) in-place products over
    x in one B x M buffer, the inner sums one real GEMM, and the outer sum one
    multiply-and-sum.
    """
    n, m = a.shape[0], x.shape[0]
    if n == 0:
        return np.zeros(m, dtype=complex)
    b = math.isqrt(n - 1) + 1
    q = -(-n // b)
    z = np.empty(m, dtype=complex)
    z.real, z.imag = x, weight_w(x)
    powers = np.empty((b, m), dtype=complex)
    powers[0] = 1.0
    for r in range(1, b):
        np.multiply(powers[r - 1], z, out=powers[r])
    blocks = np.zeros(q * b)
    blocks[:n] = a
    # (Q x B) @ (B x 2M): each complex power is a (re, im) pair of reals
    inner = (blocks.reshape(q, b) @ powers.view(float)).view(complex)
    step = powers[b - 1] * z
    for j in range(1, q):  # the giant powers overwrite the spent baby powers (Q <= B)
        np.multiply(powers[j - 1], step, out=powers[j])
    inner *= powers[:q]
    return inner.sum(axis=0)


def cheb_eval(basis: Basis, n: int, x):
    """Evaluate T_n(x) or U_n(x) (vectorized over x).

    Degrees above ``MAX_DEGREE`` are refused.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if n > MAX_DEGREE:
        raise DomainError(f"degree {n} exceeds recurrence cap {MAX_DEGREE}")
    x = np.asarray(x, dtype=float)
    _points(x, "cheb_eval argument")
    scalar = x.ndim == 0
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    out = _clenshaw(unit, np.atleast_1d(x), basis is Basis.SECOND_U)
    return float(out[0]) if scalar else out


def inner_product(f: GridFn, g: GridFn) -> float:
    """Discrete weighted inner product in the space of the operands' grid.

    S-nodes carry L_d^2 with the first-kind Gauss-Chebyshev rule, U-nodes
    L_m^2 with the second-kind rule; both rules are exact for polynomial
    integrands of degree <= 2N-1 and already include the 1/pi normalization
    of the continuous inner products. T-nodes carry no rule.
    """
    if not f.grid.matches(g.grid):
        raise GridMismatchError("operands live on different grids")
    grid, prod = f.grid, f.values * g.values
    if grid.kind is GridKind.SNODES:
        return float(np.sum(prod) / grid.n)
    if grid.kind is GridKind.UNODES:
        return float(np.sum(prod * grid.weights ** 2) / (grid.n + 1))
    raise GridMismatchError("inner products need s- or u-nodes, got t-nodes")


def norm(f: GridFn) -> float:
    """Weighted L^2 norm in the space of f's grid: sqrt of inner_product(f, f)."""
    return float(np.sqrt(inner_product(f, f)))


def resample(coeffs: np.ndarray, targets, mode: ResampleMode):
    """Evaluate a coefficient vector a_0..a_{N-1} on arbitrary targets in [-1, 1].

    T_SERIES returns sum a_n T_n(x); WU_SERIES returns
    w(x) * sum a_n U_{n-1}(x), where the n = 0 term contributes nothing
    (U_{-1} = 0). They are the real and imaginary parts of one `_power_series`.
    """
    x = np.asarray(targets, dtype=float)
    _points(x, "resample targets")
    a = np.asarray(coeffs)
    n_terms = a.shape[0]
    if n_terms - 1 > MAX_DEGREE:
        raise DomainError(f"series degree {n_terms - 1} exceeds cap {MAX_DEGREE}")
    if np.iscomplexobj(a):
        raise DomainError("series coefficients must be real")
    p = _power_series(a, x.ravel())
    out = (p.real if mode is ResampleMode.T_SERIES else p.imag).reshape(x.shape)
    return float(out) if out.ndim == 0 else out.copy()  # contiguous, not a view of P

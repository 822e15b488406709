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

# `resample` and `cheb_eval` refuse series above this degree, and `cgl_nodes` grids
# of more than MAX_DEGREE + 1 nodes: error growth beyond it is untested.
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
            raise GridMismatchError(f"values length {v.shape} does not match grid size "
                                    f"{self.grid.n}")
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


def _u_to_t(u: np.ndarray) -> np.ndarray:
    """T-series coefficients t with sum t_i T_i = sum u_j U_j, in O(N) and with no division.

    U_j = 2 sum_{i <= j, i = j mod 2} T_i, less T_0 for even j, so t_i is twice the
    sum of the u_j with j >= i of i's parity, and t_0 is that sum once.
    """
    t = np.empty(u.shape[0])
    for parity in (0, 1):
        t[parity::2] = 2.0 * np.cumsum(u[parity::2][::-1])[::-1]
    t[:1] /= 2.0
    return t


def _power_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(z) = sum a_k z^k at z = x + i w(x) = e^{i theta}, x = cos(theta), for 1-D x.

    Re P = sum a_k T_k(x) and Im P = sum a_k sin(k theta) = w(x) sum a_k U_{k-1}(x).
    It is the package's one series evaluator: a U-series without the factor w
    (`cheb_eval`'s U_n, the Kd kernel) is first mapped to a T-series by `_u_to_t`.
    Baby-step/giant-step (Paterson & Stockmeyer, 1973): with k = qB + r and
    B = ceil(sqrt(N)), P = sum_q z^{qB} sum_r a_{qB+r} z^r. The baby powers
    z^r and the giant powers z^{qB} are about 2 sqrt(N) in-place products over
    the targets, the inner sums one real GEMM and the outer sum one multiply-and-sum,
    for at most 512 targets at a time in one buffer that every chunk reuses.
    """
    n, m = a.shape[0], x.shape[0]
    out = np.zeros(m, dtype=complex)
    if n == 0:
        return out
    b = math.isqrt(n - 1) + 1
    q = -(-n // b)
    blocks = np.zeros(q * b)
    blocks[:n] = a
    buf = np.empty((1 + b + q, min(m, 512)), dtype=complex)  # z, the powers, the inner sums
    for s in range(0, m, 512):
        k = min(512, m - s)
        z, powers, inner = buf[0, :k], buf[1:b + 1, :k], buf[b + 1:, :k]
        z.real, z.imag = x[s:s + k], weight_w(x[s:s + k])
        powers[0] = 1.0
        for r in range(1, b):
            np.multiply(powers[r - 1], z, out=powers[r])
        # (Q x B) @ (B x 2M): each complex power is a (re, im) pair of reals
        np.matmul(blocks.reshape(q, b), powers.view(float), out=inner.view(float))
        step = powers[b - 1] * z
        for j in range(1, q):  # the giant powers overwrite the spent baby powers (Q <= B)
            np.multiply(powers[j - 1], step, out=powers[j])
        inner *= powers[:q]
        inner.sum(axis=0, out=out[s:s + k])
    return out


def cheb_eval(basis: Basis, n: int, x):
    """T_n(x) or U_n(x), vectorized over x, summed as a T-series by `resample`.

    U_n is first rewritten as a T-series by `_u_to_t`. Degrees above ``MAX_DEGREE``
    are refused before the series is formed. Within about 1e-4 of +-1, U_n is accurate
    only to about 24.6 (n+1) eps (measured over every n <= 2048): the powers z^r carry
    an angle error near r eps, and the T-series of U_n sums about n/2 of them.
    """
    if not 0 <= n <= MAX_DEGREE:
        raise DomainError(f"degree must be in [0, {MAX_DEGREE}], got {n}")
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    return resample(unit if basis is Basis.FIRST_T else _u_to_t(unit), x, ResampleMode.T_SERIES)


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

"""Dense DCT-III / DST-I matrices and the shifted trigonometric analysis matrices.

Everything here is O(N^2) on purpose: a dense apply is sub-millisecond up
to N = 512 and a few milliseconds at N = 2048, and the explicit matrix
doubles as the object whose condition number the weighted solver bounds.
The matrices are cached per (kind, N); an N x N matrix takes 8 N^2 bytes
(32 MB at N = 2048), so each cache keeps only the most recently used few.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, InvalidSizeError


# Cache bounds: build holds the four kinds at two sizes, the synthesis
# tables two sizes each.
_BUILD_CACHE_SIZE = 8
_SYNTHESIS_CACHE_SIZE = 2


class TransformKind(enum.Enum):
    C3 = "c3"
    S1 = "s1"
    M_ANALYSIS_COS = "m_analysis_cos"
    M_SYNTHESIS_SIN = "m_synthesis_sin"


@dataclass(frozen=True)
class TransformMatrix:
    kind: TransformKind
    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def build(kind: TransformKind, n: int) -> TransformMatrix:
    """Build (and cache) one of the four transform matrices.

    C3 is the orthogonal DCT-III on half-integer angles; S1 the symmetric
    DST-I on integer angles (row 0 and column 0 are zero, encoding the
    boundary condition f(t_0) = 0).  The M-kinds are the analysis matrices
    for the multiplication-flavor bases: cosines cos((n+1)(m+0.5)pi/N) on
    S-nodes, and weighted sines on U-nodes.
    """
    if n < 2:
        raise InvalidSizeError(f"transform size must be >= 2, got {n}")
    idx = np.arange(n)
    if kind is TransformKind.C3:
        ang = np.outer(idx + 0.5, idx) * (np.pi / n)
        m = np.sqrt(2.0 / n) * np.cos(ang)
        m[:, 0] = np.sqrt(1.0 / n)
    elif kind is TransformKind.S1:
        ang = np.outer(idx, idx) * (np.pi / n)
        m = np.sqrt(2.0 / n) * np.sin(ang)
    elif kind is TransformKind.M_ANALYSIS_COS:
        ang = np.outer(idx + 0.5, idx + 1) * (np.pi / n)
        m = (2.0 / n) * np.cos(ang)
    elif kind is TransformKind.M_SYNTHESIS_SIN:
        ph = (idx + 1) * np.pi / (n + 1)
        m = (2.0 / (n + 1)) * np.sin(np.outer(ph, idx + 1)) * np.sin(ph)[:, None]
    else:  # pragma: no cover
        raise InvalidSizeError(f"unknown transform kind {kind}")
    return TransformMatrix(kind=kind, n=n, entries=m)


def apply(m: TransformMatrix, v: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Plain matrix-vector product (optionally with the transpose)."""
    v = np.asarray(v)
    if v.shape[-1] != m.n:
        raise GridMismatchError(f"vector length {v.shape[-1]} != matrix size {m.n}")
    return (m.entries.T @ v) if transposed else (m.entries @ v)


# Internal synthesis helpers (cached alongside the spec matrices).

@lru_cache(maxsize=_SYNTHESIS_CACHE_SIZE)
def u_synthesis(n: int) -> np.ndarray:
    """U_k(u_j) table on U-nodes: rows j = 1..n, columns k = 0..n-1."""
    ph = np.arange(1, n + 1) * np.pi / (n + 1)
    k = np.arange(n)
    tbl = np.sin(np.outer(ph, k + 1)) / np.sin(ph)[:, None]
    tbl.flags.writeable = False
    return tbl


@lru_cache(maxsize=_SYNTHESIS_CACHE_SIZE)
def t_shift_synthesis(n: int) -> np.ndarray:
    """T_{k+1}(s_m) table on S-nodes: rows m, columns k = 0..n-1."""
    th = (np.arange(n) + 0.5) * np.pi / n
    k = np.arange(n)
    tbl = np.cos(np.outer(th, k + 1))
    tbl.flags.writeable = False
    return tbl

"""The two dense trigonometric transforms every operator is built from.

C3 is the orthogonal DCT-III on half-integer angles (S-nodes); S1 the
symmetric DST-I on integer angles (T-nodes at size N, U-nodes at size N+1).
Every other table the package needs is a scaled slice of one of them, for
example T_{k+1}(s_m) = sqrt(N/2) C3[m, k+1] and
U_k(u_j) = sqrt((N+1)/2) S1_{N+1}[j, k+1] / sin(j pi/(N+1)).

Everything here is O(N^2) on purpose: a dense apply is sub-millisecond up
to N = 512 and a few milliseconds at N = 2048, and the explicit matrix
doubles as the object whose condition number the weighted solver bounds.
The matrices are cached per (kind, N); an N x N matrix takes 8 N^2 bytes
(32 MB at N = 2048), so the cache keeps only the most recently used few.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, InvalidSizeError


# Cache bound: C3 at N plus S1 at N and N+1, for two sizes, with room to spare.
_BUILD_CACHE_SIZE = 8


class TransformKind(enum.Enum):
    C3 = "c3"
    S1 = "s1"


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def build(kind: TransformKind, n: int) -> np.ndarray:
    """Build (and cache) C3 or S1 of size n as a read-only array.

    C3 is the orthogonal DCT-III on half-integer angles; S1 the symmetric
    DST-I on integer angles (row 0 and column 0 are zero, encoding the
    boundary condition f(t_0) = 0).
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
    else:  # pragma: no cover
        raise InvalidSizeError(f"unknown transform kind {kind}")
    m.flags.writeable = False
    return m


def apply(m: np.ndarray, v: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Plain matrix-vector product (optionally with the transpose)."""
    v = np.asarray(v)
    if v.shape[-1] != m.shape[0]:
        raise GridMismatchError(f"vector length {v.shape[-1]} != matrix size {m.shape[0]}")
    return (m.T @ v) if transposed else (m @ v)

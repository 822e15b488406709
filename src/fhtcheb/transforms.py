"""The trigonometric transforms every operator is built from; internal to the package.

C3 is the orthogonal DCT-III on half-integer angles (S-nodes); S1 the
symmetric DST-I on integer angles (T-nodes at size N, U-nodes at size N+1),
whose zero row and column 0 encode f(t_0) = 0. HD = C3 S1^T is the d-flavor
FHT and HM = C3[:, 1:] S1_{N+1}[1:, 1:N]^T the m-flavor one.

HD is formed here alone, from its generator (_hd_generator, cached per N: 3N-1
floats) s[i] = S(i + 1/2 - N) / N, S(q) = sum_{k<N} sin(k q pi/N) =
sin((N-1) q pi/2N) sin(q pi/2) / sin(q pi/2N) with 2q odd (never 0 / 0). S is
odd with period 2N in q, so s[i + 2N] = s[i] and s[2N-1-i] = -s[i], bit for bit,
as _sinpi reduces every angle exactly. Columns: HD[m, j] = s[N+m+j] + s[N-1-m+j],
a Hankel plus a Toeplitz matrix; _hd_columns copies one window of s and adds the
other in place, and build(HD) and cosh's system_matrix form HD only so.
Correlations: _hd_correlate gives c[k] = sum_j s[(k+j) mod L] v[j], k < L, by
real FFTs of length L = 2N when 2N is 5-smooth (exact by the period), else the
least 5-smooth L >= 3N-1 (nothing wraps). Every product with the whole HD is
one: HD v = c[N:2N] + c[N-1::-1], HD^T u = c[:N] for v = [u[::-1], u]
(_hd_apply), and HD^T D_s HD D_t v (_hd_contract) correlates D_t v, whose c[:2N]
give [u[::-1], u] = c + c[::-1] for u = HD D_t v, then that times the row
d_s_sym = [d_s[::-1], d_s]: bit for bit two _hd_apply calls.

Per operation C3^T, S1 and HD are applied in O(N log N), with no table, by
real FFTs along the last axis: _c3t_apply, _s1_apply and _hd_apply. Only the
iterations read dense tables: HD for the Neumann chain blocks and HM (one
O(N^3) product of _c3 and _s1) for the m-flavor transforms and chain blocks,
the few most recently used cached, 8 N^2 bytes each; the direct solver forms
its system matrix, or column ranges of it, panel by panel from _hd_columns.
Every angle is reduced exactly, so every table is correct to rounding.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import chain, count

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError, InvalidSizeError


# Cache bound per N of HD's generator and spectrum, and of the matrices: one N has
# at most two (HD, HM), so a few sizes in use fit at once.
_BUILD_CACHE_SIZE = 8


class TransformKind(enum.Enum):
    HD = "hd"  # C3 S1^T: f on T-nodes -> F on S-nodes
    HM = "hm"  # C3[:, 1:] S1_{N+1}[1:, 1:N]^T: between U-node and S-node series


def _sinpi(i: np.ndarray, d: int, scale: float = 1.0) -> np.ndarray:
    """scale * sin(i pi/d) for an integer array i, which is reduced mod 2d in
    place; the table angles are reflected into [0, pi/2] in integers, so every
    value is correct to rounding."""
    j = np.arange(2 * d)
    table = np.where(j < d, scale, -scale) * np.sin(np.minimum(j % d, d - j % d) * (np.pi / d))
    return table[np.remainder(i, 2 * d, out=i)]


def _c3(n: int) -> np.ndarray:
    idx = np.arange(n)  # cos((m+1/2) k pi/N) = sin(((2m+1) k + N) pi/2N)
    m = _sinpi(np.outer(2 * idx + 1, idx) + n, 2 * n, np.sqrt(2.0 / n))
    m[:, 0] = np.sqrt(1.0 / n)
    return m


def _s1(n: int) -> np.ndarray:
    idx = np.arange(n)
    return _sinpi(np.outer(idx, idx), n, np.sqrt(2.0 / n))


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def _hd_generator(n: int) -> np.ndarray:
    """The 3N-1 values s[i] = S(i + 1/2 - N) / N that HD is formed from, read-only."""
    r = np.arange(1 - 2 * n, 4 * n - 2, 2)  # r = 2q
    s = _sinpi((n - 1) * r, 4 * n) * _sinpi(n * r, 4 * n) / (n * _sinpi(r, 4 * n))
    s.flags.writeable = False
    return s


def _hd_columns(n: int, start: int, stop: int) -> np.ndarray:
    """HD[:, start:stop] of size n as a new array, added in place: no ufunc buffer."""
    w = sliding_window_view(_hd_generator(n), n)  # w[i, j] = s[i + j]
    hd = w[n:, start:stop].copy()
    return np.add(hd, w[n - 1::-1, start:stop], out=hd)


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def _hd_spectrum(n: int) -> tuple[int, np.ndarray]:
    """(L, rfft of the HD generator's first L values, zero-padded), read-only."""
    # x divides 30^(bit length of x) iff x is 5-smooth, a length numpy's FFT does fast.
    lengths = chain((2 * n,), count(3 * n - 1))
    size = next(x for x in lengths if pow(30, x.bit_length(), x) == 0)
    spectrum = np.fft.rfft(_hd_generator(n), size)  # cropped or zero-padded to L
    spectrum.flags.writeable = False
    return size, spectrum


def _hd_correlate(v: np.ndarray, n: int) -> np.ndarray:
    """c[k] = sum_j s[(k+j) mod L] v[j], k < L, along the last axis of v, for HD of size n.
    The spectrum stays the first factor: swapped, FMA rounds differently."""
    size, spectrum = _hd_spectrum(n)
    f = np.fft.rfft(v, size)
    return np.fft.irfft(np.multiply(spectrum, np.conjugate(f, out=f), out=f), size)


def _hd_apply(v: np.ndarray, transposed: bool = False) -> np.ndarray:
    """HD v (or HD^T v) along the last axis of v, by one correlation."""
    n = v.shape[-1]
    if transposed:
        v = np.concatenate((v[..., ::-1], v), axis=-1)
    c = _hd_correlate(v, n)
    return c[..., :n] if transposed else c[..., n:2 * n] + c[..., n - 1::-1]


def _hd_contract(v: np.ndarray, d_t: np.ndarray, d_s_sym: np.ndarray) -> np.ndarray:
    """HD^T D_s HD D_t v along the last axis of v, by two correlations with the whole,
    unsplit HD; d_s_sym = [d_s[::-1], d_s]."""
    n = v.shape[-1]
    c = _hd_correlate(d_t * v, n)[..., :2 * n]
    return _hd_correlate((c + c[..., ::-1]) * d_s_sym, n)[..., :n]


def _c3t_apply(v: np.ndarray) -> np.ndarray:
    """C3^T v along the last axis of v, the orthonormal DCT-II, by the rfft y of
    [v, v[::-1]] (Makhoul 1980): sum_m v_m cos((m+1/2) k pi/N) = Re(e^{-i k pi/2N} y_k) / 2."""
    n = v.shape[-1]
    y = np.fft.rfft(np.concatenate((v, v[..., ::-1]), axis=-1))[..., :n]
    x = (y * np.exp(-0.5j * np.pi / n * np.arange(n))).real * np.sqrt(0.5 / n)
    x[..., 0] *= np.sqrt(0.5)
    return x


def _s1_apply(v: np.ndarray) -> np.ndarray:
    """S1 v along the last axis of v, the DST-I, by the rfft y of [0, v_1..v_{N-1}, 0,
    -v_{N-1}..-v_1]: sum_k v_k sin(j k pi/N) = -Im(y_j) / 2, and v_0 meets S1's zero column."""
    n = v.shape[-1]
    zero = np.zeros(v.shape[:-1] + (1,))
    y = np.fft.rfft(np.concatenate((zero, v[..., 1:], zero, -v[..., :0:-1]), axis=-1))[..., :n]
    return y.imag * -np.sqrt(0.5 / n)


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def build(kind: TransformKind, n: int) -> np.ndarray:
    """Build (and cache) the read-only matrix of one kind and size n."""
    if n < 2:
        raise InvalidSizeError(f"transform size must be >= 2, got {n}")
    m = _hd_columns(n, 0, n) if kind is TransformKind.HD \
        else _c3(n)[:, 1:] @ _s1(n + 1)[1:, 1:n].T
    m.flags.writeable = False
    return m


def apply(m: np.ndarray, v: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Plain matrix-vector product (optionally with the transpose)."""
    v = np.asarray(v)
    if v.shape[-1] != m.shape[0]:
        raise GridMismatchError(f"vector length {v.shape[-1]} != matrix size {m.shape[0]}")
    return (m.T @ v) if transposed else (m @ v)

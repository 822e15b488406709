"""Cosh-weighted finite Hilbert transform: forward operator and three inverters.

The decomposition cosh(mu(s-t)) = cosh(mu s)cosh(mu t) - sinh(mu s)sinh(mu t)
turns the weighted transform into (plain FHT) minus a strictly contracting
perturbation with norm tanh^2(mu) < 1. That gives a dense linear system that
is uniformly well conditioned, a convergent Neumann iteration in the division
flavor, and a mean-constrained iteration in the multiplication flavor. The
pure-imaginary parameter mu = i eta (|eta| < pi/4) swaps cosh -> cos and
tanh -> tan with contraction tan^2(eta), and flips the sign of the product
term: cos(eta(s-t)) = cos(eta s)cos(eta t) + sin(eta s)sin(eta t)
(WeightParam.product_sign).

The iterations (_iterate) work on parity halves: tanh and the Hilbert kernel
are odd, so each operator maps even functions to even ones and odd to odd.
They run an even and an odd chain of about N/2 x N/2 blocks; when many steps
are predicted, sixteen steps per product (K^16, both chains' powers from one
chain's squarings) and one stop test per pass of many products. The direct
solver keeps per (weight, N) a Woodbury factor of its system matrix, a
diagonal plus a parity-split term of rank independent of N, from FFT products
and one pass over the right half of the matrix's columns, with no N x N array;
or where (1+c)/(1-c) is too large, two parity halves for LU from those columns.
Each solver checks its residual once through the unsplit operator: final_defect.

Sign conventions. The plain transform maps w U_n -> T_{n+1} (so F = s for
f = w); the multiplication-flavor operators in fht.py carry the opposite
Tricomi orientation (T_{n+1}/w -> +U_n). Where the two meet, in the
mean-constrained solver, the composition picks up an explicit minus sign on
the data term; the contraction term's two flips cancel.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError
from .fht import _require, _u_analysis, coeffs_from_sgrid, evaluate, fht_forward_m, fht_inverse_m
from .grids import Grid, GridFn, GridKind, _points, _power_series, _u_to_t, cgl_nodes, norm
from .transforms import (TransformKind, _c3t_apply, _hd_apply, _hd_columns, _hd_contract,
                         _s1_apply, build)


class WeightFlavor(enum.Enum):
    COSH_REAL = "cosh"
    COS_IMAGINARY = "cos"


@dataclass(frozen=True)
class WeightParam:
    """Transform weight parameter: real mu (cosh) or real eta (cos, |eta| < pi/4)."""

    flavor: WeightFlavor
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ParameterError("weight parameter must be finite")
        if self.flavor is WeightFlavor.COS_IMAGINARY and abs(self.value) >= math.pi / 4:
            raise ParameterError(f"|eta| must be < pi/4 for the cos flavor, got {self.value}")
        # tanh^2(|mu|) rounds to 1 from |mu| = 19.0615 on, where the system is
        # singular in float64; this also keeps cosh(mu t) far from overflow.
        if not self.contraction < 1.0:
            raise ParameterError("contraction tanh^2(|mu|) rounds to 1 in float64 for "
                                 f"mu = {self.value}")

    @staticmethod
    def cosh_real(mu: float) -> "WeightParam":
        return WeightParam(WeightFlavor.COSH_REAL, float(mu))

    @staticmethod
    def cos_imaginary(eta: float) -> "WeightParam":
        return WeightParam(WeightFlavor.COS_IMAGINARY, float(eta))

    def _map(self, real_fn, imag_fn, x):
        """real_fn(mu x) or imag_fn(eta x), a float for a scalar x."""
        fn = real_fn if self.flavor is WeightFlavor.COSH_REAL else imag_fn
        out = fn(self.value * np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def scale(self, x):
        """cosh(mu x) or cos(eta x)."""
        return self._map(np.cosh, np.cos, x)

    def slope(self, x):
        """tanh(mu x) or tan(eta x)."""
        return self._map(np.tanh, np.tan, x)

    @property
    def product_sign(self) -> float:
        """tanh(mu s) tanh(mu t) / (slope(s) slope(t)): 1, or -1 for the cos flavor,
        where tanh(i eta s) tanh(i eta t) = -tan(eta s) tan(eta t)."""
        return 1.0 if self.flavor is WeightFlavor.COSH_REAL else -1.0

    @property
    def contraction(self) -> float:
        """tanh^2(|mu|) or tan^2(|eta|); always < 1."""
        if self.flavor is WeightFlavor.COSH_REAL:
            return math.tanh(abs(self.value)) ** 2
        return math.tan(abs(self.value)) ** 2

    @property
    def coercive_const(self) -> float:
        return 1.0 - self.contraction


@dataclass
class SolveReport:
    """What one solve did; every solver sets every field. SolveReport() stands for no solve."""

    iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    measured_ratio: float | None = None
    bound_ratio: float | None = None
    coercive_const: float | None = None
    final_defect: float | None = None
    converged: bool = True
    form: str | None = None  # how the solver ran: "one-step", "powered", "woodbury" or "lu"


@dataclass(frozen=True)
class ConditionEstimate:
    measured: float
    bound: float


@dataclass(frozen=True)
class NullExperimentRow:
    n: int
    norm_d: float
    norm_m: float


# ---------------------------------------------------------------------------
# argument checks and solve reports

# The iterative solvers' stopping defaults, also those of the CLI's --tol and --max-iter.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000


def _check_stopping(tol: float, max_iter: int, mean_fbar: float = 0.0) -> None:
    if not (math.isfinite(tol) and tol > 0.0 and max_iter >= 1 and math.isfinite(mean_fbar)):
        raise ParameterError("need a finite tol > 0, max_iter >= 1 and a finite mean_fbar, "
                             f"got tol={tol}, max_iter={max_iter}, mean_fbar={mean_fbar}")


def _report(p: WeightParam, history: list[float], tol: float, defect: float,
            form: str) -> SolveReport:
    ratio = 0.0  # a direct solve takes no steps
    if history:
        steps = np.asarray(history)
        before, after = steps[:-1], steps[1:]
        # a step that overflowed to inf did not contract (and inf / inf is no ratio)
        ratio = (float(np.max(after[before > 0.0] / before[before > 0.0], initial=0.0))
                 if np.all(np.isfinite(steps)) else math.inf)
    return SolveReport(
        iterations=len(history),
        residual_history=history,
        measured_ratio=ratio,
        bound_ratio=p.contraction,
        coercive_const=p.coercive_const,
        final_defect=defect,
        converged=not history or history[-1] < tol,
        form=form,
    )


# ---------------------------------------------------------------------------
# the parity-split iteration kernel
#
# Both iterations are x <- f0 + K x with K = A^T D2 A D1, where D1 and D2 hold
# an odd slope on reflection-symmetric nodes (index i <-> len-1-i) and A is an
# odd operator: A = HD[:, 1:] on T-nodes 1..N-1 (Neumann) and A = HM^T in the
# variable y = w_s v (mean-constrained; there the sqrt((N+1)/N) and w factors
# of fht_forward_m / fht_inverse_m cancel). In the orthonormal even / odd
# coordinates of _fold, A and the diagonals map even to odd and odd to even,
# so K splits into two independent chains of half size, one per parity of x.

# The chain blocks of one (operator, N) hold N^2/2 values, half as many as HD;
# the few most recently used are kept. For _POWER_CROSSOVER and _BLOCK_STEPS (a power
# of two, also the most blocks in one pass) see _iterate.
_BLOCK_CACHE_SIZE = 4
_POWER_CROSSOVER = 0.5
_BLOCK_STEPS = 16


def _fold(a: np.ndarray) -> np.ndarray:
    """Even and odd parts of a along axis 0, as rows 0 and 1 of one array.

    Pair i < n//2 of the reflection i <-> n-1-i gives (a_i +- a_{n-1-i})/sqrt(2);
    for odd n the centre entry ends the even row and the odd row ends in 0.
    """
    n, h = a.shape[0], a.shape[0] // 2
    top, bottom = a[:h], a[::-1][:h]
    out = np.zeros((2, n - h) + a.shape[1:])
    np.add(top, bottom, out=out[0, :h])
    np.subtract(top, bottom, out=out[1, :h])
    out[:, :h] *= math.sqrt(0.5)
    if n % 2:
        out[0, h] = a[h]
    return out


def _unfold(x: np.ndarray, n: int) -> np.ndarray:
    """The inverse of _fold along axis 0: _fold in the layout [even part, odd part reversed]."""
    h = n // 2
    y = _fold(np.concatenate((x[0], x[1, :h][::-1])))
    return np.concatenate((y[0], y[1, :h][::-1]))


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _chain_blocks(kind: TransformKind, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) of both chains without their diagonals, stacked even then odd, read-only.

    Folded by hand, not by _fold, to form only the cross blocks (HM at N = 2048,
    one core: 17 ms, against 75 ms for _fold of the rows, then the columns). With
    B_eo = A[even rows, odd columns] and B_oe = A[odd rows, even columns], the
    even chain is R = B_eo D1, L = B_oe^T D2 and the odd chain R = B_oe D1,
    L = B_eo^T D2. The even rows lose their centre row, which D2 maps to 0, and
    B_eo gains a zero centre column when A has one, so both chains have the same
    shapes. The same-parity blocks of A are zero to rounding and are dropped.
    Only R is stored; L is a view of it. The chains share one matrix,
    M = R_even^T D2 R_odd: K_even = M^T D1 and K_odd = M D1 (see _block_powers).
    """
    a = build(TransformKind.HD, n)[:, 1:] if kind is TransformKind.HD \
        else build(TransformKind.HM, n).T
    cols = a.shape[1]
    h2, h1 = a.shape[0] // 2, cols // 2
    top, bottom = a[:h2], a[::-1][:h2]
    even, odd = top + bottom, top - bottom  # row pairs, times sqrt(2)
    right = np.zeros((2, h2, cols - h1))
    right[0, :, :h1] = even[:, :h1] - even[:, ::-1][:, :h1]
    right[1, :, :h1] = odd[:, :h1] + odd[:, ::-1][:, :h1]
    right[:, :, :h1] *= 0.5
    if cols % 2:
        right[1, :, h1] = odd[:, h1] * math.sqrt(0.5)
    right.flags.writeable = False
    return right[::-1].transpose(0, 2, 1), right


def _block_powers(left: np.ndarray, right: np.ndarray, dg1: np.ndarray, dg2: np.ndarray,
                  step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V = [K b ... K^B b] from step = K b, and K^B, of both chains; B = _BLOCK_STEPS.

    left and right are _chain_blocks, dg1 and dg2 their diagonals as columns.
    One chain's squarings serve both: with X = K_odd^(q-1) M, K_odd^q = X D1
    and K_even^q = X^T D1, and X for 2q is X D1 X. So each doubling of q is
    one m x m product, and no power divides by D1, which is 0 at a centre pad.
    """
    xq, q = left[1] @ (dg2 * right[1]), 1  # X = M for q = 1
    v = np.empty(step.shape[:2] + (_BLOCK_STEPS,))
    v[..., :1] = step
    while q < _BLOCK_STEPS:  # v[..., q:2q] = K^q v[..., :q], then X for 2q
        dv = dg1 * v[..., :q]
        np.matmul(xq.T, dv[0], out=v[0, :, q:2 * q])
        np.matmul(xq, dv[1], out=v[1, :, q:2 * q])
        xq, q = xq @ (dg1 * xq), 2 * q
    k = np.stack((xq.T, xq))
    k *= dg1[:, 0]
    return v, k


def _iterate(kind: TransformKind, n: int, d1: np.ndarray, d2: np.ndarray, f0: np.ndarray,
             tol: float, max_iter: int) -> tuple[np.ndarray, list[float], str]:
    """Iterate x <- f0 + K x from x = f0 until a step is shorter than tol.

    Step k is K^k f0, x sums steps 0..k, and in either form a step's length
    is its norm over sqrt(n), which the orthonormal folding preserves. If
    min(max_iter, 1 + log(tol / |K f0|) / log c) steps, c = max|d1| max|d2|
    >= ||K||, exceed _POWER_CROSSOVER times the block size m ~ N/2, it forms
    P = K^B, B = _BLOCK_STEPS = 16, by _block_powers (five m x m products)
    and runs V <- P V from V = [K f0 ... K^B f0] (break-even about 0.2 m at
    N = 2048, 0.25 m at N = 1024 and 0.35 m at N = 256, one core) in passes: one
    buffer of the blocks the bound predicts from the last step, at most
    max_iter steps and _BLOCK_STEPS blocks (4.2 MB at N = 2049), then one norm,
    stop test and sum for them all. Else step k = L D2 (R D1 step k-1), two
    matrix-vector products with the diagonals applied to the vectors and one
    stop test per step, with no m x m product and no scaled copy of the blocks.
    Returns the last x, the step lengths and "powered" or "one-step".
    """
    # D1 and D2 on the node pairs are the odd parts (d_i - d_{n-1-i}) / 2 of
    # d1 and d2; an odd diagonal is 0 at a centre node.
    left, right = _chain_blocks(kind, n)
    dg1 = _fold(d1)[1, :, None] * math.sqrt(0.5)
    dg2 = _fold(d2)[1, :left.shape[2], None] * math.sqrt(0.5)
    b = _fold(f0)[..., None]
    scale = 1.0 / math.sqrt(n)
    step = left @ (dg2 * (right @ (dg1 * b)))
    x, history = b + step, [math.sqrt(np.vdot(step, step)) * scale]
    if not math.isfinite(history[0]):  # ||K|| <= c < 1: every later step is shorter
        raise DomainError("the solve's first step overflows float64: the data are too large")
    c = float(np.abs(d1).max() * np.abs(d2).max())  # 0 for mu = 0, where K = 0
    def steps_after(length: float) -> float:  # a bound on the steps until one is below tol
        # Two logs: tol / length can underflow. c = 1 (np.tanh(19) rounds to 1) predicts no count.
        return math.inf if c == 1.0 else 1 + (math.log(tol) - math.log(length)) / math.log(c)
    if c > 0.0 and history[0] >= tol and \
            min(max_iter, steps_after(history[0])) > _POWER_CROSSOVER * left.shape[1]:
        v, k = _block_powers(left, right, dg1, dg2, step)
        steps, x, history = min(max_iter, 1 + steps_after(history[0])), b, []
        while True:  # a pass; the first measures step 1 again, hence 1 + steps_after above
            buf = np.empty((min(_BLOCK_STEPS, math.ceil(steps / _BLOCK_STEPS)),) + v.shape)
            buf[0] = v
            for j in range(1, buf.shape[0]):
                np.matmul(k, buf[j - 1], out=buf[j])
            norms = np.sqrt(np.einsum("jpmi,jpmi->ji", buf, buf)).ravel()[:max_iter - len(history)]
            norms *= scale  # the step lengths in order, up to max_iter
            take = next(iter(np.flatnonzero(norms < tol) + 1), norms.size)  # to the first short one
            history += norms[:take].tolist()
            last, cols = divmod(take, _BLOCK_STEPS)
            buf[last:, ..., cols:] = 0.0  # the steps past the stop
            x = x + buf[:last + 1].sum(axis=0).sum(axis=2, keepdims=True)
            if history[-1] < tol or len(history) == max_iter:
                return _unfold(x[..., 0], f0.shape[0]), history, "powered"
            v, steps = k @ buf[-1], min(max_iter - len(history), steps_after(history[-1]))
    while history[-1] >= tol and len(history) < max_iter:
        step = left @ (dg2 * (right @ (dg1 * step)))
        x += step
        history.append(math.sqrt(np.vdot(step, step)) * scale)
    return _unfold(x[..., 0], f0.shape[0]), history, "one-step"


# ---------------------------------------------------------------------------
# forward operator and division-flavor inverters

# One plan per (weight, N), shared by every operator, for the few most recently
# used keys. Only a direct solve adds its state to one: about 2 _RANK N values,
# or the parity halves, about N^2/2 values, above _INVERSE_LIMIT.
_PLAN_CACHE_SIZE = 4

# The direct solver uses the Woodbury factor of its system matrix while
# sqrt(N) kappa eps is below this (to mu = 11.6 at N = 64, 10.7 at N = 2048):
# there a Woodbury solve and one refinement step are as accurate as LU. Above
# it, it solves by LU on the parity halves, which a refinement step with the
# unsplit operator's residual only worsens. (One Woodbury refinement stays
# within 1.3x of LU's error to mu = 16 at N = 64..2048, but not from mu = 17.)
_INVERSE_LIMIT = 1e-5
_RANK = 24  # probes of the range finder: the columns of Q in _woodbury

_PANEL = 256  # columns of HD per product of system_matrix, and rows of HD^T per panel to N = 256


@dataclass
class _Plan:
    """Read-only tanh(mu .) and cosh(mu .) on the S-, T- and U-nodes, and the direct state.

    d_s carries the weight's product_sign, so d_s d_t and d_s d_u are the
    products tanh(mu s) tanh(mu t) of every operator in both flavors; d_s views the
    second half of d_s_sym, the row of transforms._hd_contract. The first direct
    solve sets direct, under lock: _woodbury's factor or (_halves,) for LU."""

    d_s_sym: np.ndarray
    d_s: np.ndarray
    d_t: np.ndarray
    d_u: np.ndarray
    cosh_s: np.ndarray
    cosh_t: np.ndarray
    cosh_u: np.ndarray
    direct: tuple[np.ndarray, ...] | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(p: WeightParam, n: int) -> _Plan:
    nodes = [cgl_nodes(k, n).nodes for k in (GridKind.SNODES, GridKind.TNODES, GridKind.UNODES)]
    rows = np.empty((7, n))
    rows[1:] = [p.slope(x) for x in nodes] + [p.scale(x) for x in nodes]
    rows[1] *= p.product_sign
    rows[0] = rows[1, ::-1]
    rows.flags.writeable = False  # each diagonal is a view of one row
    return _Plan(rows[:2].ravel(), *rows[1:])


def cosh_forward(f: GridFn, p: WeightParam) -> GridFn:
    """F_mu = cosh_s * [HD - D_s HD D_t] (cosh_t * f) on S-nodes, HD = C3 S1^T.

    Both products with HD are one batched FFT correlation (_hd_apply)."""
    _require(f, GridKind.TNODES)
    n = f.grid.n
    plan = _plan(p, n)
    fhat = np.empty((2, n))
    np.multiply(plan.cosh_t, f.values, out=fhat[0])
    np.multiply(plan.d_t, fhat[0], out=fhat[1])
    hd_fhat, hd_dt_fhat = _hd_apply(fhat)
    return GridFn(cgl_nodes(GridKind.SNODES, n), plan.cosh_s * (hd_fhat - plan.d_s * hd_dt_fhat))


def _products(n: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The column ranges of system_matrix's products that meet columns start..stop-1:
    _PANEL columns each, the last with a rest <= _PANEL / 2."""
    edges = [*range(0, max(n - _PANEL // 2, 1), _PANEL), n]
    return [(a, b) for a, b in zip(edges, edges[1:]) if a < stop and start < b]


def system_matrix(p: WeightParam, n: int, cols: slice = slice(None)) -> np.ndarray:
    """I - HD^T D_s HD D_t (HD = C3 S1^T), the direct solver's matrix, or its columns cols (a
    non-empty range of step 1), to the same bits. From _hd_columns, no dense HD: panels of HD^T,
    _PANEL rows up to N = _PANEL and _PANEL / 2 above (0.69, not 0.82, N^2 float64 at a cold
    Woodbury build's peak at N = 1024), times one panel of D_s HD D_t, one matrix product per range
    of _products that meets cols. Up to N = _PANEL the dense formula's bits; 0 - x keeps eye - x's
    zero signs."""
    start, stop, step = cols.indices(n)
    if step != 1 or stop <= start:
        raise ParameterError(f"need a non-empty column range of step 1, got {cols}")
    plan = _plan(p, n)
    products = _products(n, start, stop)
    lo, hi = products[0][0], products[-1][1]
    scaled = _hd_columns(n, lo, hi)
    scaled *= plan.d_s[:, None]
    scaled *= plan.d_t[lo:hi]
    out, height = np.empty((n, hi - lo)), _PANEL if n <= _PANEL else _PANEL // 2
    for i in range(0, n, height):
        rows = _hd_columns(n, i, i + height).T
        for a, b in products:
            np.matmul(rows, scaled[:, a - lo:b - lo], out=out[i:i + height, a - lo:b - lo])
        del rows  # before the next panel is built
    np.subtract(0.0, out, out=out)
    out[lo:hi].flat[::hi - lo + 1] += 1.0
    return out[:, start - lo:stop - lo]


def _halves(p: WeightParam, n: int) -> np.ndarray:
    """The even and the odd block of system_matrix(p, n)[1:, 1:] in _fold's coordinates.

    Row and column 0 of the system matrix are e_0, and A' = A[1:, 1:] commutes with
    the reflection i <-> m-1-i, m = N-1. So column j of a block is column m-1-j of A',
    folded, times sqrt(2) (even block) or -sqrt(2) (odd block) off the centre: the
    halves fold the right half of A''s columns, reversed. The cross blocks are below
    5e-15 (N <= 2048, |mu| <= 19) and are dropped; for even N the odd block is padded
    with a unit diagonal entry.
    """
    m, h = n - 1, (n - 1) // 2
    halves = _fold(system_matrix(p, n, slice(h + 1, n))[1:, ::-1])
    halves[0, :, :h] *= math.sqrt(2.0)
    halves[1, :, :h] *= -math.sqrt(2.0)
    if m % 2:  # the centre column: 0 in the odd block but for the pad
        halves[1, :, h] = 0.0
        halves[1, h, h] = 1.0
    return halves


def _probes(n: int) -> np.ndarray:
    """A fixed n x _RANK block of values in [-1, 1): a splitmix64 hash of each entry's index."""
    z = np.arange(1, n * _RANK + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).reshape(n, _RANK) * 2.0 ** -52 - 1.0


def _half_pass(p: WeightParam, g: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float, float]:
    """_woodbury's B = Q^T E, ||A||_F^2, ||E - Q B||_F^2 from A's columns h+1..N-1, h = (N-1)//2,
    one system_matrix call per product: (I - Q Q^T) E commutes with J, so each column counts twice
    (even N's centre once; A's column 0 is e_0), and B[:, N-j] = S B[:, j], S = diag(1_e, -1_o)."""
    n, h = g.shape[0], (g.shape[0] - 1) // 2
    b, size, rest = np.zeros((q.shape[1], n)), 1.0, 0.0
    for j, k in _products(n, h + 1, n):
        j = max(j, h + 1)
        e = np.ascontiguousarray(system_matrix(p, n, slice(j, k)))  # a cut product: a copy
        size += 2.0 * np.vdot(e, e) - (2 * j == n) * np.vdot(e[:, 0], e[:, 0])
        e[j:k].flat[::k - j + 1] -= g[j:k]
        np.matmul(q.T, e, out=b[:, j:k])
        e -= q @ b[:, j:k]
        rest += 2.0 * np.vdot(e, e) - (2 * j == n) * np.vdot(e[:, 0], e[:, 0])
        del e  # before the next product is built
    b[:, 1:h + 1] = np.repeat((1.0, -1.0), q.shape[1] // 2)[:, None] * b[:, n - h:][:, ::-1]
    return b, size, rest


def _woodbury(p: WeightParam, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(g^-1, g^-1 Q, M) with A^-1 = diag(g^-1) - (g^-1 Q) M, A = system_matrix(p, n), or None.

    A = diag(g) + E, g = 1/cosh_t^2 even (1 at node 0), E of a rank independent of N (12 at mu = 8,
    1e-12 cut), 0 in row and column 0, commuting with J: i <-> N-i. Q = [Q_e, Q_o] is a range
    finder's basis of E Omega = Omega - g Omega - K Omega (K = I - A by FFT, _hd_contract) for even
    and odd parts of _probes, by one QR per parity in _fold's coordinates: exactly even and odd
    however rank-deficient the sketch (4 + 4 at mu = 3). B = Q^T E, M = (I + B g^-1 Q)^-1 B g^-1
    (Sherman-Morrison-Woodbury). None where ||E - Q B||_F > 1e-12 ||A||_F (_half_pass), as A's
    rounding leaves 1e-16 ||A||_F in E (over 1e-12 ||E||_F at small mu or eta)."""
    plan = _plan(p, n)
    g, r = np.append(1.0, plan.cosh_t[1:] ** -2.0), min(_RANK // 2, n // 2)  # r: probes per parity
    x = _fold(_probes(n)[1:, :2 * r])
    x[0, :, r:] = x[1, :, :r] = 0.0
    omega = np.concatenate((np.zeros((1, 2 * r)), _unfold(x, n - 1))).T
    y = _fold((omega * (1.0 - g) - _hd_contract(omega, plan.d_t, plan.d_s_sym)).T[1:])
    x[0, :, :r], x[1, :, r:] = np.linalg.qr(np.stack((y[0, :, :r], y[1, :, r:])))[0]
    q = np.concatenate((np.zeros((1, 2 * r)), _unfold(x, n - 1)))
    del omega, y, x  # before the column pass
    b, size, rest = _half_pass(p, g, q)
    if not math.sqrt(rest) <= 1e-12 * math.sqrt(size):
        return None
    b /= g
    return 1.0 / g, q / g[:, None], np.linalg.solve(np.eye(2 * r) + b @ q, b)


def _invert_d(F_mu: GridFn, p: WeightParam, solve, tol: float = 0.0):
    """Shell of the d-flavor inversions; solve(plan, f0) returns (fhat, steps, form).

    fhat solves fhat - HD^T D_s HD D_t fhat = f0 = HD^T (F_mu / cosh_s), and f = fhat / cosh_t.
    The L_d^2 defect of fhat is computed once, through the unsplit operator.
    """
    _require(F_mu, GridKind.SNODES)
    n = F_mu.grid.n
    plan = _plan(p, n)
    f0 = _hd_apply(F_mu.values / plan.cosh_s, transposed=True)
    fhat, history, form = solve(plan, f0)
    d = (fhat - f0 - _hd_contract(fhat, plan.d_t, plan.d_s_sym))[1:]
    defect = math.sqrt(d.dot(d)) / math.sqrt(n)  # np.linalg.norm's arithmetic on 1-D input
    fvals = fhat / plan.cosh_t
    fvals[0] = 0.0
    return GridFn(cgl_nodes(GridKind.TNODES, n), fvals), _report(p, history, tol, defect, form)


def cosh_invert_direct(F_mu: GridFn, p: WeightParam) -> tuple[GridFn, SolveReport]:
    """Solve [I - HD^T D_s HD D_t] fhat = HD^T (F_mu / cosh_s), HD = C3 S1^T.

    The first solve at a (weight, N) stores the key's direct state in its plan:
    the _woodbury factor while sqrt(N) kappa eps is below _INVERSE_LIMIT, else
    (or where the factor fails its check) the parity halves. A Woodbury solve is
    O(rN) on the unsplit vector plus one refinement step with a matrix-free
    residual; an LU solve on the folded halves is O(N^3 / 4).
    """
    def solve(plan: _Plan, b: np.ndarray) -> tuple[np.ndarray, list[float], str]:
        n, c = b.shape[0], p.contraction
        with plan.lock:
            if plan.direct is None:
                low_rank = math.sqrt(n) * (1 + c) / (1 - c) * np.finfo(float).eps < _INVERSE_LIMIT
                plan.direct = (_woodbury(p, n) if low_rank else None) or (_halves(p, n),)
                for a in plan.direct:
                    a.flags.writeable = False
        if len(plan.direct) == 1:  # b[0] = 0, and row 0 is e_0
            y = np.linalg.solve(plan.direct[0], _fold(b[1:])[..., None])
            return np.concatenate(([0.0], _unfold(y[..., 0], n - 1))), [], "lu"
        gi, giq, m = plan.direct
        fhat = gi * b - giq @ (m @ b)
        r = b - fhat + _hd_contract(fhat, plan.d_t, plan.d_s_sym)
        return fhat + gi * r - giq @ (m @ r), [], "woodbury"

    return _invert_d(F_mu, p, solve)


def cosh_invert_neumann(F_mu: GridFn, p: WeightParam, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> tuple[GridFn, SolveReport]:
    """Fixed-point iteration fhat_{k+1} = fhat_0 + M fhat_k, contraction tanh^2(mu)."""
    _check_stopping(tol, max_iter)

    def solve(plan: _Plan, f0: np.ndarray) -> tuple[np.ndarray, list[float], str]:
        x, history, form = _iterate(TransformKind.HD, f0.shape[0], plan.d_t[1:], plan.d_s,
                                    f0[1:], tol, max_iter)
        return np.concatenate(([0.0], x)), history, form  # column 0 of HD is 0, so f0[0] = 0

    return _invert_d(F_mu, p, solve, tol)


# ---------------------------------------------------------------------------
# mean-constrained multiplication-flavor inverter (requires fbar_mu)

def _kd_unodes(p: WeightParam, ug: Grid) -> np.ndarray:
    """Kd = sum_{k>=1} c_k U_{k-1} on the U-nodes ug, c the slope's T-series at m = max(N, 512)
    S-nodes (at N = 64 alone it misses by up to 2.4e-3 at mu = 19). w_j U_{k-1}(u_j) = sin(k j
    pi/(N+1)) has period 2(N+1) in k and is odd about N+1: c folds to N+1 terms, one DST-I."""
    n, m, period = ug.n, max(ug.n, 512), 2 * ug.n + 2
    c = np.zeros(-(-m // period) * period)  # C3^T of the slope: sqrt(m/2) c_k for k >= 1
    c[:m] = _c3t_apply(p.slope(cgl_nodes(GridKind.SNODES, m).nodes))
    c = c.reshape(-1, period).sum(axis=0)
    c[1:n + 1] -= c[:n + 1:-1]  # c_k - c_{2(N+1)-k}; c_0 and c_{N+1} meet sin 0
    return math.sqrt((n + 1) / m) * _s1_apply(c[:n + 1])[1:] / ug.weights


def cosh_invert_mean_constrained(F_mu: GridFn, p: WeightParam, mean_fbar: float,
                                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
                                 ) -> tuple[GridFn, SolveReport]:
    """Invert in L_m^2 given fbar_mu = (1/2) integral cosh(mu t) f(t) dt.

    F_mu is sampled on U-nodes; the recovered f is returned on S-nodes. With
    phi = (2/pi)/w, the transform's null function (H[phi] = 0, mean 1), the
    iteration converges to v = cosh(mu t) f(t) - fbar_mu phi at rate
    tanh^2(mu), and f = (v + fbar_mu phi) / cosh(mu t). An error d in fbar_mu
    moves f by d 2/(pi w_s cosh_s), most at the S-nodes next to +-1. For
    exact data of f = w(1 + 0.3t) at mu = 0, fbar_mu = pi/4, the max error is
    1.5e-14 at N = 64 and 6.7e-13 at N = 2048.
    """
    _check_stopping(tol, max_iter, mean_fbar)
    _require(F_mu, GridKind.UNODES)
    ug, n = F_mu.grid, F_mu.grid.n
    sg = cgl_nodes(GridKind.SNODES, n)
    plan = _plan(p, n)

    # The data term drops phi's share of F_mu / cosh_u: -slope(u) H[slope phi](u), which is
    # (2/pi) slope(u) Kd(u) times the product_sign by the Tricomi pair H[T_k/w] = -U_{k-1}.
    null_term = (mean_fbar * -2.0 / np.pi * p.product_sign) * plan.d_u * _kd_unodes(p, ug)
    fhat1 = F_mu.values / plan.cosh_u + null_term
    # Data term: the plain-convention inverse is minus the Tricomi-oriented one.
    f0 = -fht_inverse_m(GridFn(ug, fhat1)).values

    # In y = w_s v the step is HM D_u HM^T D_s y, and the L_m^2 norm
    # sqrt(c0^2 + sum d^2 / 2) of the (c0 + sum d T_{k+1})/w split of v is
    # ||y|| / sqrt(N), because C3 is orthogonal.
    y, history, form = _iterate(TransformKind.HM, n, plan.d_s, plan.d_u, sg.weights * f0,
                                tol, max_iter)
    f = y / sg.weights
    inner = fht_forward_m(GridFn(sg, plan.d_s * f))
    step = fht_inverse_m(GridFn(ug, plan.d_u * inner.values)).values
    defect = float(np.linalg.norm(sg.weights * (f - f0 - step))) / math.sqrt(n)
    fvals = (f + mean_fbar * (2.0 / np.pi) / sg.weights) / plan.cosh_s
    return GridFn(sg, fvals), _report(p, history, tol, defect, form)


# ---------------------------------------------------------------------------
# kernels, conditioning, null-function experiment

def kernel(kind: str, p: WeightParam, n: int, x) -> np.ndarray:
    """Polynomial kernel K_d or K_m at points x in [-1, 1], the slope interpolated at n nodes.

    Kd: tanh(mu s) = sum c_k T_k(s) interpolated at S-nodes, mapped term by
    term to sum_{k>=1} c_k U_{k-1}(t). Km: tanh(mu u) = sum d_k U_k(u)
    interpolated at U-nodes, mapped to sum d_k T_{k+1}(t). The slope is odd,
    so both kernels are even. Both are summed as Re of `_power_series` (accurate
    at t = +-1 too), Kd after `_u_to_t` rewrites its U-series as a T-series. Km's
    degree is n, one above `resample`'s cap at the largest grid, so it skips `resample`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _points(x, "kernel points")
    if kind not in ("Kd", "Km"):
        raise ParameterError(f"unknown kernel kind {kind!r}")
    g = cgl_nodes(GridKind.SNODES if kind == "Kd" else GridKind.UNODES, n)
    slope = GridFn(g, p.slope(g.nodes))  # no _plan: a kernel adds no key to the solver cache
    if kind == "Kd":
        t_series = _u_to_t(coeffs_from_sgrid(slope)[1:])
    else:
        t_series = np.concatenate(([0.0], _u_analysis(slope)))
    # contiguous, not a view of P
    return _power_series(t_series, x.ravel()).real.reshape(x.shape).copy()


def condition_estimate(p: WeightParam, n: int) -> ConditionEstimate:
    """2-norm condition number of the direct system matrix vs. the (1+c)/(1-c) bound.

    The singular values are those of the two parity halves and the unit one
    of row 0.
    """
    sv = np.append(np.linalg.svd(_halves(p, n), compute_uv=False), 1.0)
    c = p.contraction
    return ConditionEstimate(measured=float(sv.max() / sv.min()), bound=(1.0 + c) / (1.0 - c))


def null_experiment(p: WeightParam, sizes) -> list[NullExperimentRow]:
    """Forward-transform the null-space candidate cos(mu w(t)) and report norms.

    No assertion is made on the magnitudes: the boundary value f(1) = 1 is
    invisible to the T-grid scheme, so the operator acts on the orthogonal
    projection of the candidate.
    """
    if p.flavor is not WeightFlavor.COSH_REAL or p.value == 0.0:
        raise ParameterError("null experiment requires the cosh flavor with mu != 0")
    # every size is checked by cgl_nodes before the first transform
    grids = [(cgl_nodes(GridKind.TNODES, n), cgl_nodes(GridKind.UNODES, n)) for n in sorted(sizes)]
    rows = []
    for tg, ug in grids:
        F = cosh_forward(GridFn(tg, np.cos(p.value * tg.weights)), p)
        nm = norm(GridFn(ug, evaluate(F, ug.nodes)))
        rows.append(NullExperimentRow(n=tg.n, norm_d=norm(F), norm_m=nm))
    return rows

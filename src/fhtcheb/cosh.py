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
diagonal plus a term of rank independent of N, or where (1+c)/(1-c) is too
large the matrix's two parity halves for LU. Each solver checks its residual
once through the unsplit operator: final_defect.

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
from .grids import (
    GridFn,
    GridKind,
    _points,
    _power_series,
    _u_to_t,
    cgl_nodes,
    norm,
)
from .transforms import TransformKind, _hd_apply, _hd_correlate, _hd_generator, build


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
            raise ParameterError(
                f"|eta| must be < pi/4 for the cos flavor, got {self.value}"
            )
        # tanh^2(|mu|) rounds to 1 from |mu| = 19.0615 on, where the system is
        # singular in float64; this also keeps cosh(mu t) far from overflow.
        if not self.contraction < 1.0:
            raise ParameterError(
                f"contraction tanh^2(|mu|) rounds to 1 in float64 for mu = {self.value}"
            )

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
# the few most recently used are kept. For _POWER_CROSSOVER, _BLOCK_STEPS (a power of
# two) and _PASS_BYTES see _iterate.
_BLOCK_CACHE_SIZE = 4
_POWER_CROSSOVER = 0.5
_BLOCK_STEPS = 16
_PASS_BYTES = 1 << 22


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
    """The length-n vector whose _fold is x (the inverse of _fold on vectors)."""
    h = n // 2
    a = np.empty(n)
    a[:h] = (x[0, :h] + x[1, :h]) * math.sqrt(0.5)
    a[::-1][:h] = (x[0, :h] - x[1, :h]) * math.sqrt(0.5)
    if n % 2:
        a[h] = x[0, h]
    return a


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _chain_blocks(kind: TransformKind, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) of both chains without their diagonals, stacked even then odd, read-only.

    With B_eo = A[even rows, odd columns] and B_oe = A[odd rows, even
    columns], the even chain is R = B_eo D1, L = B_oe^T D2 and the odd chain
    R = B_oe D1, L = B_eo^T D2. The even rows lose their centre row, which
    D2 maps to 0, and B_eo gains a zero centre column when A has one, so
    both chains have the same shapes. The same-parity blocks of A are zero
    to rounding and are dropped. Only R is stored; L is a view of it. The
    chains share one matrix, M = R_even^T D2 R_odd: K_even = M^T D1 and
    K_odd = M D1 (see _block_powers).
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
    max_iter steps and _PASS_BYTES, then one norm, stop test and sum for them
    all. Else step k = L D2 (R D1 step k-1), two matrix-vector products with
    the diagonals applied to the vectors and one stop test per step, with no
    m x m product and no scaled copy of the blocks. Returns the last x, the
    step lengths and "powered" or "one-step".
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
            blocks = math.ceil(steps / _BLOCK_STEPS)
            buf = np.empty((max(1, min(_PASS_BYTES // v.nbytes, blocks)),) + v.shape)
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

_PANEL = 256  # columns of HD per panel of system_matrix
_FOLD_ROWS = 32  # row pairs per band of _halves


@dataclass
class _Plan:
    """Read-only tanh(mu .) and cosh(mu .) on the S-, T- and U-nodes, and the direct state.

    d_s carries the weight's product_sign, so d_s d_t and d_s d_u are the
    products tanh(mu s) tanh(mu t) of every operator in both flavors; d_s views the
    second half of _contract's row d_s_sym = [d_s[::-1], d_s]. The first direct
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


def system_matrix(p: WeightParam, n: int) -> np.ndarray:
    """I - HD^T D_s HD D_t (HD = C3 S1^T), the matrix inverted by the direct solver.

    From HD's generator, _PANEL columns of HD times half of D_s HD D_t at a time: no dense
    HD, and up to N = _PANEL the dense formula's bits. 0 - x keeps eye - x's zero signs."""
    plan = _plan(p, n)
    w = np.lib.stride_tricks.sliding_window_view(_hd_generator(n), n)
    def panel(j: int, width: int) -> np.ndarray:  # HD[:, j:j + width], added in place: no ufunc buffer
        cols = w[n:, j:j + width].copy()
        return np.add(cols, w[n - 1::-1, j:j + width], out=cols)

    out = np.empty((n, n))
    width = _PANEL * -(-n // (2 * _PANEL))
    for j in range(0, n, width):
        scaled = panel(j, width)
        scaled *= plan.d_s[:, None]
        scaled *= plan.d_t[j:j + width]
        for i in range(0, n, _PANEL):
            np.matmul(panel(i, _PANEL).T, scaled, out=out[i:i + _PANEL, j:j + width])
        del scaled  # before the next panel is built
    np.subtract(0.0, out, out=out)
    out.flat[::n + 1] += 1.0
    return out


def _halves(p: WeightParam, n: int) -> np.ndarray:
    """The even and the odd block of system_matrix(p, n)[1:, 1:] in _fold's coordinates.

    Row and column 0 of the system matrix are e_0, and on T-nodes 1..N-1 it
    commutes with the reflection i <-> N-2-i. The cross blocks are below
    5e-15 (N <= 2048, |mu| <= 19) and are dropped; for even N the odd block
    is padded with a unit diagonal entry. _FOLD_ROWS row pairs at a time are
    folded, then their columns, straight into the halves.
    """
    a = system_matrix(p, n)[1:, 1:]
    m, h = n - 1, (n - 1) // 2
    halves = np.zeros((2, m - h, m - h))
    for i in range(0, h, _FOLD_ROWS):
        j = min(i + _FOLD_ROWS, h)
        pairs = np.concatenate((a[i:j], a[m - j:m - i]))  # rows r and m-1-r, r in i..j-1
        blocks = _fold(_fold(pairs).transpose(2, 0, 1))  # [column parity, column, row parity, row]
        halves[0, i:j], halves[1, i:j] = blocks[0, :, 0].T, blocks[1, :, 1].T
    if m % 2:  # the centre row: even, and 0 in the odd block but for the pad
        halves[0, h] = _fold(a[h])[0]
        halves[1, h, h] = 1.0
    return halves


def _probes(n: int) -> np.ndarray:
    """A fixed n x _RANK block of values in [-1, 1): a splitmix64 hash of each entry's index."""
    z = np.arange(1, n * _RANK + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).reshape(n, _RANK) * 2.0 ** -52 - 1.0


def _woodbury(p: WeightParam, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(g^-1, g^-1 Q, M) with A^-1 = diag(g^-1) - (g^-1 Q) M, A = system_matrix(p, n), or None.

    A = diag(g) + E, g = 1/cosh_t^2 (1 at node 0), where E's rank does not
    depend on N (12 at mu = 8, 1e-12 cut). Q is an orthonormal basis of E times
    the _probes (a randomized range finder), B = Q^T E and M = (I + B g^-1 Q)^-1
    B g^-1 (Sherman-Morrison-Woodbury). None where ||E - Q B||_F > 1e-12 ||A||_F;
    the scale is A's, as A's rounding leaves 1e-16 ||A||_F in E (more than
    1e-12 ||E||_F at small mu or eta). E, then E - Q B, overwrite A in place.
    """
    e = system_matrix(p, n)
    size = np.linalg.norm(e)
    g = _plan(p, n).cosh_t ** -2.0
    g[0] = 1.0
    e.flat[::n + 1] -= g
    q = e @ _probes(n)[:, :n - 1]  # row 0 of E is 0: at most n - 1 independent columns
    for j in range(q.shape[1]):  # Gram-Schmidt, twice (LAPACK's QR adds 0.3 MB to peak RSS)
        for _ in range(2):
            q[:, j] -= q[:, :j] @ (q[:, :j].T @ q[:, j])
        q[:, j] /= np.linalg.norm(q[:, j]) or 1.0
    b = q.T @ e
    for i in range(0, n, _PANEL):
        e[i:i + _PANEL] -= q[i:i + _PANEL] @ b
    if not np.linalg.norm(e) <= 1e-12 * size:
        return None
    del e  # the factor's arrays reuse its memory
    b /= g
    return 1.0 / g, q / g[:, None], np.linalg.solve(np.eye(q.shape[1]) + b @ q, b)


def _contract(plan: _Plan, v: np.ndarray) -> np.ndarray:
    """HD^T D_s HD D_t v: the Neumann operator, I - system_matrix applied matrix-free.

    Two correlations with the whole, unsplit HD: with c the first 2N values of the one
    of D_t v, [u[::-1], u] = c + c[::-1] for u = HD D_t v, so HD^T D_s u correlates
    (c + c[::-1]) d_s_sym, bit for bit the input _hd_apply would form."""
    n = v.shape[-1]
    c = _hd_correlate(plan.d_t * v, n)[..., :2 * n]
    return _hd_correlate((c + c[..., ::-1]) * plan.d_s_sym, n)[..., :n]


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
    d = (fhat - f0 - _contract(plan, fhat))[1:]
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
        r = b - fhat + _contract(plan, fhat)
        return fhat + gi * r - giq @ (m @ r), [], "woodbury"

    return _invert_d(F_mu, p, solve)


def cosh_invert_neumann(
    F_mu: GridFn,
    p: WeightParam,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> tuple[GridFn, SolveReport]:
    """Fixed-point iteration fhat_{k+1} = fhat_0 + M fhat_k, contraction tanh^2(mu)."""
    _check_stopping(tol, max_iter)

    def solve(plan: _Plan, f0: np.ndarray) -> tuple[np.ndarray, list[float], str]:
        x, history, form = _iterate(TransformKind.HD, f0.shape[0], plan.d_t[1:], plan.d_s,
                                    f0[1:], tol, max_iter)
        return np.concatenate(([0.0], x)), history, form  # column 0 of HD is 0, so f0[0] = 0

    return _invert_d(F_mu, p, solve, tol)


# ---------------------------------------------------------------------------
# mean-constrained multiplication-flavor inverter (requires fbar_mu)

@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 256-point Gauss-Legendre rule, computed on first use."""
    return np.polynomial.legendre.leggauss(256)


# One matrix per node set, N x 256 values (4.2 MB at N = 2049), for the few most recently used.
@lru_cache(maxsize=4)
def _pv_quadrature(x: bytes) -> np.ndarray:
    """W_GL / (x - t_GL) at the float64 points x, read-only: the weight-independent part
    of slope_fht's rule."""
    t, w = _gauss_legendre()
    a = w / (np.frombuffer(x)[:, None] - t)
    a.flags.writeable = False
    return a


def slope_fht(p: WeightParam, x: np.ndarray) -> np.ndarray:
    """Plain FHT of tanh(mu .) (or tan(eta .)) at interior points x.

    Singularity subtraction with a Gauss-Legendre rule on the regular part;
    the slope function is analytic on [-1, 1], so 256 nodes reach machine
    precision for |mu| <= 4. The difference g(t) - g(x) is formed before it
    is weighted: a node x within 1e-7 of a rule node would lose digits if
    the two terms were summed apart.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gx = p.slope(x)
    gt = p.slope(_gauss_legendre()[0])
    reg = np.einsum("ij,ij->i", gt - gx[:, None], _pv_quadrature(x.tobytes()))
    return (reg + gx * np.log((1.0 + x) / (1.0 - x))) / np.pi


def mean_correction(p: WeightParam, x: np.ndarray) -> np.ndarray:
    """G(s) = tanh(mu s) H[tanh(mu .)](s) - (1/pi) ln((1+s)/(1-s)), the first term
    times the weight's product_sign.

    The log singularity at +-1 is integrable; G is only ever evaluated at
    interior collocation nodes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return p.product_sign * p.slope(x) * slope_fht(p, x) - np.log((1.0 + x) / (1.0 - x)) / np.pi


def cosh_invert_mean_constrained(
    F_mu: GridFn,
    p: WeightParam,
    mean_fbar: float,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> tuple[GridFn, SolveReport]:
    """Invert in L_m^2 given fbar_mu = (1/2) integral cosh(mu t) f(t) dt.

    F_mu is sampled on U-nodes; the recovered f is returned on S-nodes. The
    iteration converges to cosh(mu t) f(t) - fbar_mu at rate tanh^2(mu).
    With fbar_mu != 0 the answer is least accurate next to +-1, where the grid
    resolves the log-singular correction fbar_mu G poorly: for exact data of
    f = w(1 + 0.3t) at mu = 0, N = 64, fbar_mu = pi/4 it misses by 5.1e-2 at
    the S-nodes next to +-1, 3.6e-5 on |x| < 0.9 and 1.7e-6 on |x| < 0.1.
    """
    _check_stopping(tol, max_iter, mean_fbar)
    _require(F_mu, GridKind.UNODES)
    n = F_mu.grid.n
    ug = F_mu.grid
    sg = cgl_nodes(GridKind.SNODES, n)
    plan = _plan(p, n)

    fhat1 = F_mu.values / plan.cosh_u + mean_fbar * mean_correction(p, ug.nodes)
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
    return GridFn(sg, (f + mean_fbar) / plan.cosh_s), _report(p, history, tol, defect, form)


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
    if kind == "Kd":
        sg = cgl_nodes(GridKind.SNODES, n)
        series = coeffs_from_sgrid(GridFn(sg, p.slope(sg.nodes)))
        t_series = _u_to_t(series[1:])
    elif kind == "Km":
        series = _u_analysis(GridFn(cgl_nodes(GridKind.UNODES, n), _plan(p, n).d_u))
        t_series = np.concatenate(([0.0], series))
    else:
        raise ParameterError(f"unknown kernel kind {kind!r}")
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

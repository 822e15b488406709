"""Cosh-weighted finite Hilbert transform: forward operator and three inverters.

The decomposition cosh(mu(s-t)) = cosh(mu s)cosh(mu t) - sinh(mu s)sinh(mu t)
turns the weighted transform into (plain FHT) minus a strictly contracting
perturbation with norm tanh^2(mu) < 1. That gives a dense linear system that
is uniformly well conditioned, a convergent Neumann iteration in the division
flavor, and a mean-constrained iteration in the multiplication flavor. The
pure-imaginary parameter mu = i eta (|eta| < pi/4) swaps cosh -> cos and
tanh -> tan with contraction tan^2(eta).

Both iterations step on parity halves. tanh and the Hilbert kernel are odd,
so each iteration operator maps even functions to even ones and odd to odd;
one kernel (_iterate) runs the even and the odd chain side by side, each a
product with two blocks of about N/2 x N/2 folded once per (operator, N),
at half the work of the full products. After the loop, each solver computes
its fixed-point residual once through the unsplit operator and reports it
as final_defect.

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

from .errors import ParameterError
from .fht import _u_analysis, coeffs_from_sgrid, fht_forward_m, fht_inverse_m
from .grids import (
    Basis,
    ChebCoeffs,
    Grid,
    GridFn,
    GridKind,
    ResampleMode,
    Space,
    _clenshaw,
    cgl_nodes,
    norm,
    resample,
)
from .transforms import TransformKind, apply, build


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

    def scale(self, x):
        """cosh(mu x) or cos(eta x)."""
        x = np.asarray(x, dtype=float)
        out = np.cosh(self.value * x) if self.flavor is WeightFlavor.COSH_REAL \
            else np.cos(self.value * x)
        return out if out.ndim else float(out)

    def slope(self, x):
        """tanh(mu x) or tan(eta x)."""
        x = np.asarray(x, dtype=float)
        out = np.tanh(self.value * x) if self.flavor is WeightFlavor.COSH_REAL \
            else np.tan(self.value * x)
        return out if out.ndim else float(out)

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
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    measured_ratio: float = 0.0
    bound_ratio: float = 0.0
    coercive_const: float = 1.0
    final_defect: float = 0.0
    converged: bool = True


@dataclass(frozen=True)
class KernelFn:
    values: np.ndarray
    series: ChebCoeffs


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
# internal norms

def _norm_d_tvals(v: np.ndarray) -> float:
    """L_d^2 norm of a T-grid function via its sine interpolant (node 0 ignored)."""
    return float(np.sqrt(np.sum(v[1:] ** 2) / v.shape[0]))


def _contraction_stats(history: list[float]) -> float:
    ratios = [
        b / a for a, b in zip(history, history[1:]) if a > 0.0
    ]
    return max(ratios) if ratios else 0.0


def _check_stopping(tol: float, max_iter: int, mean_fbar: float = 0.0) -> None:
    if not (math.isfinite(tol) and tol > 0.0 and max_iter >= 1 and math.isfinite(mean_fbar)):
        raise ParameterError("need a finite tol > 0, max_iter >= 1 and a finite mean_fbar, "
                             f"got tol={tol}, max_iter={max_iter}, mean_fbar={mean_fbar}")


def _report(p: WeightParam, history: list[float], tol: float, defect: float) -> SolveReport:
    return SolveReport(
        iterations=len(history),
        residual_history=history,
        measured_ratio=_contraction_stats(history),
        bound_ratio=p.contraction,
        coercive_const=p.coercive_const,
        final_defect=defect,
        converged=bool(history) and history[-1] < tol,
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

# The chain blocks of one (operator, N) hold N^2 values, as many as HD; the
# few most recently used are kept.
_BLOCK_CACHE_SIZE = 4


def _fold(a: np.ndarray) -> np.ndarray:
    """Even and odd parts of a along axis 0, as rows 0 and 1 of one array.

    Pair i < n//2 of the reflection i <-> n-1-i gives (a_i +- a_{n-1-i})/sqrt(2);
    for odd n the centre entry ends the even row and the odd row ends in 0.
    """
    n, h = a.shape[0], a.shape[0] // 2
    top, bottom = a[:h], a[::-1][:h]
    out = np.zeros((2, n - h) + a.shape[1:])
    out[0, :h] = top + bottom
    out[1, :h] = top - bottom
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
    to rounding and are dropped. L is stored transposed and contiguous, as
    the products read it.
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
    left = np.ascontiguousarray(right[::-1].transpose(0, 2, 1))
    right.flags.writeable = left.flags.writeable = False
    return left, right


def _iterate(kind: TransformKind, n: int, d1: np.ndarray, d2: np.ndarray, f0: np.ndarray,
             tol: float, max_iter: int) -> tuple[np.ndarray, list[float]]:
    """Iterate x <- f0 + K x from x = f0 until a step is shorter than tol.

    Both parity chains advance together; a step's length is its Euclidean
    norm over sqrt(n), which the orthonormal folding preserves. Returns the
    last x and the step lengths.
    """
    # D1 and D2 on the node pairs are the odd parts (d_i - d_{n-1-i}) / 2 of
    # d1 and d2; an odd diagonal is 0 at a centre node.
    left, right = _chain_blocks(kind, n)
    left = left * (_fold(d2)[1, :left.shape[2]] * math.sqrt(0.5))
    right = right * (_fold(d1)[1] * math.sqrt(0.5))
    b = _fold(f0)[..., None]
    x = b
    scale = 1.0 / math.sqrt(n)
    history: list[float] = []
    for _ in range(max_iter):
        nxt = b + left @ (right @ x)
        delta = (nxt - x).ravel()
        history.append(math.sqrt(delta @ delta) * scale)
        x = nxt
        if history[-1] < tol:
            break
    return _unfold(x[..., 0], f0.shape[0]), history


# ---------------------------------------------------------------------------
# forward operator and division-flavor inverters

# One plan per (weight, N), shared by every operator, for the few most recently
# used keys. Only a direct solve adds an N x N array to one, so the bound caps
# the memory they keep.
_PLAN_CACHE_SIZE = 4


@dataclass
class _Plan:
    """Read-only tanh(mu .) and cosh(mu .) on the S-, T- and U-nodes, and the direct state."""

    d_s: np.ndarray
    d_t: np.ndarray
    d_u: np.ndarray
    cosh_s: np.ndarray
    cosh_t: np.ndarray
    cosh_u: np.ndarray
    matrix: np.ndarray | None = None  # the system matrix, from the second solve its inverse
    inverted: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(p: WeightParam, n: int) -> _Plan:
    nodes = [cgl_nodes(k, n).nodes for k in (GridKind.SNODES, GridKind.TNODES, GridKind.UNODES)]
    rows = np.array([p.slope(x) for x in nodes] + [p.scale(x) for x in nodes])
    rows.flags.writeable = False  # each diagonal is a view of one row
    return _Plan(*rows)


def cosh_forward(f: GridFn, p: WeightParam) -> GridFn:
    """F_mu = cosh_s * [HD - D_s HD D_t] (cosh_t * f) on S-nodes, HD = C3 S1^T."""
    if f.grid.kind is not GridKind.TNODES:
        raise ParameterError("cosh_forward expects samples on T-nodes")
    n = f.grid.n
    plan = _plan(p, n)
    hd = build(TransformKind.HD, n)
    fhat = plan.cosh_t * f.values
    out = plan.cosh_s * (apply(hd, fhat) - plan.d_s * apply(hd, plan.d_t * fhat))
    return GridFn(cgl_nodes(GridKind.SNODES, n), out)


def system_matrix(p: WeightParam, n: int) -> np.ndarray:
    """I - HD^T D_s HD D_t (HD = C3 S1^T), the matrix inverted by the direct solver."""
    plan = _plan(p, n)
    hd = build(TransformKind.HD, n)
    return np.eye(n) - hd.T @ (plan.d_s[:, None] * hd * plan.d_t[None, :])


def _contract(plan: _Plan, hd: np.ndarray, v: np.ndarray) -> np.ndarray:
    """HD^T D_s HD D_t v: the Neumann operator, I - system_matrix applied matrix-free."""
    return hd.T @ (plan.d_s * (hd @ (plan.d_t * v)))


def cosh_invert_direct(F_mu: GridFn, p: WeightParam) -> tuple[GridFn, SolveReport]:
    """Solve [I - HD^T D_s HD D_t] fhat = HD^T (F_mu / cosh_s), HD = C3 S1^T.

    The first solve at a (weight, N) builds the system matrix into the
    key's plan and solves by LU, so a one-shot call costs one
    factorisation. The second replaces the stored matrix by its inverse;
    that solve and every later one is a product with the inverse plus one
    step of iterative refinement, O(N^2) instead of O(N^3), whose residuals
    are computed matrix-free.
    """
    if F_mu.grid.kind is not GridKind.SNODES:
        raise ParameterError("cosh_invert_direct expects samples on S-nodes")
    n = F_mu.grid.n
    plan = _plan(p, n)
    hd = build(TransformKind.HD, n)
    b = apply(hd, F_mu.values / plan.cosh_s, transposed=True)
    with plan.lock:
        first = plan.matrix is None
        if first:
            plan.matrix = system_matrix(p, n)
        elif not plan.inverted:
            plan.matrix, plan.inverted = np.linalg.inv(plan.matrix), True
        m = plan.matrix
    if first:
        fhat = np.linalg.solve(m, b)
        residual = m @ fhat - b
    else:
        fhat = m @ b
        fhat += m @ (b - fhat + _contract(plan, hd, fhat))
        residual = fhat - _contract(plan, hd, fhat) - b
    fvals = fhat / plan.cosh_t
    fvals[0] = 0.0
    report = SolveReport(iterations=0, bound_ratio=p.contraction,
                         coercive_const=p.coercive_const, final_defect=_norm_d_tvals(residual))
    return GridFn(cgl_nodes(GridKind.TNODES, n), fvals), report


def cosh_invert_neumann(
    F_mu: GridFn,
    p: WeightParam,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> tuple[GridFn, SolveReport]:
    """Fixed-point iteration fhat_{k+1} = fhat_0 + M fhat_k, contraction tanh^2(mu)."""
    _check_stopping(tol, max_iter)
    if F_mu.grid.kind is not GridKind.SNODES:
        raise ParameterError("cosh_invert_neumann expects samples on S-nodes")
    n = F_mu.grid.n
    plan = _plan(p, n)
    hd = build(TransformKind.HD, n)
    f0 = apply(hd, F_mu.values / plan.cosh_s, transposed=True)
    x, history = _iterate(TransformKind.HD, n, plan.d_t[1:], plan.d_s, f0[1:], tol, max_iter)
    fhat = np.concatenate(([0.0], x))  # column 0 of HD is 0, so f0[0] = 0
    defect = _norm_d_tvals(fhat - f0 - _contract(plan, hd, fhat))
    fvals = fhat / plan.cosh_t
    fvals[0] = 0.0
    return GridFn(cgl_nodes(GridKind.TNODES, n), fvals), _report(p, history, tol, defect)


# ---------------------------------------------------------------------------
# mean-constrained multiplication-flavor inverter (requires fbar_mu)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(256)


def slope_fht(p: WeightParam, x: np.ndarray) -> np.ndarray:
    """Plain FHT of tanh(mu .) (or tan(eta .)) at interior points x.

    Singularity subtraction with a Gauss-Legendre rule on the regular part;
    the slope function is analytic on [-1, 1], so 256 nodes reach machine
    precision for |mu| <= 4.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gx = p.slope(x)
    gt = p.slope(_GL_NODES)
    reg = ((gt[None, :] - gx[:, None]) / (x[:, None] - _GL_NODES[None, :])) @ _GL_WEIGHTS
    return (reg + gx * np.log((1.0 + x) / (1.0 - x))) / np.pi


def mean_correction(p: WeightParam, x: np.ndarray) -> np.ndarray:
    """G(s) = tanh(mu s) H[tanh(mu .)](s) - (1/pi) ln((1+s)/(1-s)).

    The log singularity at +-1 is integrable; G is only ever evaluated at
    interior collocation nodes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return p.slope(x) * slope_fht(p, x) - np.log((1.0 + x) / (1.0 - x)) / np.pi


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
    """
    _check_stopping(tol, max_iter, mean_fbar)
    if F_mu.grid.kind is not GridKind.UNODES:
        raise ParameterError("cosh_invert_mean_constrained expects samples on U-nodes")
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
    y, history = _iterate(TransformKind.HM, n, plan.d_s, plan.d_u, sg.weights * f0, tol, max_iter)
    f = y / sg.weights
    inner = fht_forward_m(GridFn(sg, plan.d_s * f))
    step = fht_inverse_m(GridFn(ug, plan.d_u * inner.values)).values
    defect = float(np.linalg.norm(sg.weights * (f - f0 - step))) / math.sqrt(n)
    return GridFn(sg, (f + mean_fbar) / plan.cosh_s), _report(p, history, tol, defect)


# ---------------------------------------------------------------------------
# kernels, conditioning, null-function experiment

def kernel(kind: str, p: WeightParam, eval_grid: Grid) -> KernelFn:
    """Polynomial kernels K_d / K_m generated by the slope function.

    Kd: tanh(mu s) = sum c_n T_n(s) interpolated at S-nodes, mapped term by
    term to sum_{n>=1} c_n U_{n-1}(t). Km: tanh(mu u) = sum d_n U_n(u)
    interpolated at U-nodes, mapped to sum d_n T_{n+1}(t). Both kernels are
    odd.
    """
    n = eval_grid.n
    if kind == "Kd":
        series = coeffs_from_sgrid(GridFn(cgl_nodes(GridKind.SNODES, n), _plan(p, n).d_s))
        vals = _clenshaw(series.coeffs[1:], eval_grid.nodes, second_kind=True)
    elif kind == "Km":
        d = _u_analysis(GridFn(cgl_nodes(GridKind.UNODES, n), _plan(p, n).d_u))
        series = ChebCoeffs(Basis.SECOND_U, d)
        tcoeffs = np.concatenate(([0.0], d))  # shift: d_n multiplies T_{n+1}
        vals = resample(ChebCoeffs(Basis.FIRST_T, tcoeffs), eval_grid.nodes,
                        ResampleMode.T_SERIES)
    else:
        raise ParameterError(f"unknown kernel kind {kind!r}")
    return KernelFn(values=np.atleast_1d(vals), series=series)


def condition_estimate(p: WeightParam, n: int) -> ConditionEstimate:
    """2-norm condition number of the direct system matrix vs. the (1+c)/(1-c) bound."""
    sv = np.linalg.svd(system_matrix(p, n), compute_uv=False)
    c = p.contraction
    return ConditionEstimate(measured=float(sv[0] / sv[-1]), bound=(1.0 + c) / (1.0 - c))


def null_experiment(p: WeightParam, sizes) -> list[NullExperimentRow]:
    """Forward-transform the null-space candidate cos(mu w(t)) and report norms.

    No assertion is made on the magnitudes: the boundary value f(1) = 1 is
    invisible to the T-grid scheme, so the operator acts on the orthogonal
    projection of the candidate.
    """
    if p.flavor is not WeightFlavor.COSH_REAL or p.value == 0.0:
        raise ParameterError("null experiment requires the cosh flavor with mu != 0")
    rows = []
    for n in sorted(sizes):
        tg = cgl_nodes(GridKind.TNODES, n)
        f = GridFn(tg, np.cos(p.value * tg.weights))
        F = cosh_forward(f, p)
        nd = norm(F, Space.LD2)
        ug = cgl_nodes(GridKind.UNODES, n)
        f_u = resample(coeffs_from_sgrid(F), ug.nodes, ResampleMode.T_SERIES)
        nm = norm(GridFn(ug, f_u), Space.LM2)
        rows.append(NullExperimentRow(n=n, norm_d=nd, norm_m=nm))
    return rows

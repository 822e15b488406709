"""Cosh-weighted finite Hilbert transform: forward operator and three inverters.

The decomposition cosh(mu(s-t)) = cosh(mu s)cosh(mu t) - sinh(mu s)sinh(mu t)
turns the weighted transform into (plain FHT) minus a strictly contracting
perturbation with norm tanh^2(mu) < 1. That gives a dense linear system that
is uniformly well conditioned, a convergent Neumann iteration in the division
flavor, and a mean-constrained iteration in the multiplication flavor. The
pure-imaginary parameter mu = i eta (|eta| < pi/4) swaps cosh -> cos and
tanh -> tan with contraction tan^2(eta).

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


def _fixed_point(f0: np.ndarray, step, step_norm, p: WeightParam, tol: float, max_iter: int):
    """Iterate x <- f0 + step(x) from x = f0 until step_norm of a step is below tol."""
    history: list[float] = []
    x = f0
    for _ in range(max_iter):
        nxt = f0 + step(x)
        history.append(step_norm(nxt - x))
        x = nxt
        if history[-1] < tol:
            break
    return x, SolveReport(
        iterations=len(history),
        residual_history=history,
        measured_ratio=_contraction_stats(history),
        bound_ratio=p.contraction,
        coercive_const=p.coercive_const,
        final_defect=history[-1] if history else 0.0,
        converged=bool(history) and history[-1] < tol,
    )


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
    """HD^T D_s HD D_t v: the Neumann step, and I - system_matrix applied matrix-free."""
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
    fhat, report = _fixed_point(f0, lambda v: _contract(plan, hd, v), _norm_d_tvals,
                                p, tol, max_iter)
    fvals = fhat / plan.cosh_t
    fvals[0] = 0.0
    return GridFn(cgl_nodes(GridKind.TNODES, n), fvals), report


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

    def step(v: np.ndarray) -> np.ndarray:
        inner = fht_forward_m(GridFn(sg, plan.d_s * v))
        return fht_inverse_m(GridFn(ug, plan.d_u * inner.values)).values

    # The L_m^2 norm sqrt(c0^2 + sum d^2 / 2) of the (c0 + sum d T_{k+1})/w
    # split is ||w f|| / sqrt(N), because C3 is orthogonal.
    w_norm = sg.weights / np.sqrt(n)
    f, report = _fixed_point(f0, step, lambda v: float(np.linalg.norm(w_norm * v)),
                             p, tol, max_iter)
    return GridFn(sg, (f + mean_fbar) / plan.cosh_s), report


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

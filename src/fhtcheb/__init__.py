"""Spectral finite Hilbert transform on (-1, 1), with cosh/cos-weighted inversion."""

from .errors import (
    DomainError,
    FhtChebError,
    GridMismatchError,
    InvalidSizeError,
    ParameterError,
    ReducedAccuracyWarning,
)
from .grids import (
    MAX_DEGREE,
    Basis,
    Grid,
    GridFn,
    GridKind,
    ResampleMode,
    cgl_nodes,
    cheb_eval,
    inner_product,
    norm,
    resample,
    weight_w,
)
from .fht import (
    coeffs_from_sgrid,
    coeffs_from_tgrid,
    fht_forward_d,
    fht_forward_m,
    fht_inverse_d,
    fht_inverse_m,
    plancherel_check,
    range_defect,
)
from .cosh import (
    WeightParam,
    condition_estimate,
    cosh_forward,
    cosh_invert_direct,
    cosh_invert_mean_constrained,
    cosh_invert_neumann,
    kernel,
    null_experiment,
    system_matrix,
)

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: the PV oracle, which no solver uses, loads on first use
    if name in ("cosh_pv_forward", "pair", "pv_fht", "pv_reciprocal_weight"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

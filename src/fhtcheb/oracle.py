"""Brute-force principal-value quadrature and analytic test pairs.

This module is the ground truth the spectral operators are checked against.
It deliberately shares no code with the collocation machinery: the singular
integrals are computed by singularity subtraction plus a composite midpoint
rule, which converges at O(h^2) for Lipschitz integrands and is insensitive
to how the grid aligns with the singularity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError, ReducedAccuracyWarning
from .cosh import WeightParam  # noqa: E402  (only the parameter container)


@dataclass(frozen=True)
class AnalyticPair:
    """A closed-form (f, F) pair with F the finite Hilbert transform of f."""

    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    kinks: tuple[float, ...]


def _midpoints(m_points: int) -> tuple[np.ndarray, float]:
    h = 2.0 / m_points
    return -1.0 + (np.arange(m_points) + 0.5) * h, h


def _check_eval_point(s: float, m_points: int, kinks=()) -> None:
    if not -1.0 < s < 1.0:
        raise DomainError(f"oracle evaluation point must be inside (-1, 1), got {s}")
    if m_points < 64:
        raise DomainError(f"m_points must be >= 64, got {m_points}")
    for k in kinks:
        if abs(s - k) < 1e-9:
            warnings.warn(f"evaluating at kink location {k}: reduced accuracy",
                          ReducedAccuracyWarning, stacklevel=3)


def pv_fht(f, s: float, m_points: int = 4096, kinks=()) -> float:
    """Principal-value FHT (1/pi) PV-int f(t)/(s-t) dt by subtraction.

    The constant part f(s) integrates in closed form to the log term;
    the remainder (f(t)-f(s))/(s-t) is regular for Lipschitz f and is
    integrated by the composite midpoint rule.
    """
    _check_eval_point(s, m_points, kinks)
    t, h = _midpoints(m_points)
    fs = float(np.asarray(f(np.array([s], dtype=float)))[0]) if callable(f) else f
    reg = np.sum((np.asarray(f(t), dtype=float) - fs) / (s - t)) * h
    return float((reg + fs * np.log((1.0 + s) / (1.0 - s))) / np.pi)


def cosh_pv_forward(f, s: float, p: WeightParam, m_points: int = 4096, kinks=()) -> float:
    """Weighted transform (1/pi) PV-int cosh(mu(s-t))/(s-t) f(t) dt.

    Split as the plain FHT plus a regular remainder with kernel
    (cosh(mu(s-t)) - 1)/(s-t), which tends to 0 at t = s. The cos flavor is
    analogous with cos(eta(s-t)).
    """
    _check_eval_point(s, m_points, kinks)
    t, h = _midpoints(m_points)
    d = s - t
    num = p.scale(d) - 1.0
    kern = np.where(np.abs(d) < 1e-12, 0.0, num / np.where(d == 0.0, 1.0, d))
    reg = np.sum(kern * np.asarray(f(t), dtype=float)) * h / np.pi
    return pv_fht(f, s, m_points, kinks) + float(reg)


def pv_reciprocal_weight(s: float, m_points: int = 4096) -> float:
    """(1/pi) PV-int 1/((s-t) w(t)) dt, computed in theta variables.

    After t = cos(theta) the integrand 1/(s - cos theta) is bounded away
    from the single interior pole at theta0 = arccos(s); the pole is
    subtracted with its closed-form principal value. The exact value is 0.
    """
    if not -1.0 < s < 1.0:
        raise DomainError("evaluation point must be inside (-1, 1)")
    th0 = np.arccos(s)
    sin0 = np.sin(th0)
    h = np.pi / m_points
    th = (np.arange(m_points) + 0.5) * h
    g = 1.0 / (s - np.cos(th))
    pole = 1.0 / (sin0 * (th - th0))
    reg = np.sum(g - pole) * h
    return float((reg + np.log((np.pi - th0) / th0) / sin0) / np.pi)


def _unit_circle_f(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, np.sqrt(np.maximum(0.0, 1.0 - t * t)), 0.0)


def _unit_circle_F(s):
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) <= 1.0, s, s - np.sign(s) * np.sqrt(np.maximum(0.0, s * s - 1.0)))


def _shifted_f(t):
    t = np.asarray(t, dtype=float)
    v = 0.64 - (t + 0.1) ** 2
    return np.where((t >= -0.9) & (t <= 0.7), np.sqrt(np.maximum(0.0, v)), 0.0)


def _shifted_F(s):
    s = np.asarray(s, dtype=float)
    x = s + 0.1
    outside = x - np.sign(x) * np.sqrt(np.maximum(0.0, x * x - 0.64))
    return np.where((s >= -0.9) & (s <= 0.7), x, outside)


_PAIRS = {
    # smooth inside (-1, 1); square-root behavior at +-1
    "unit_circle": AnalyticPair(f=_unit_circle_f, F=_unit_circle_F, kinks=()),
    # continuous, not differentiable at -0.9 and 0.7; f vanishes outside [-0.9, 0.7]
    "shifted": AnalyticPair(f=_shifted_f, F=_shifted_F, kinks=(-0.9, 0.7)),
}


def pair(name: str) -> AnalyticPair:
    """Return a named analytic (f, F) pair."""
    try:
        return _PAIRS[name]
    except KeyError:
        raise ParameterError(f"unknown analytic pair {name!r}") from None

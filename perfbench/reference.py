"""Reference values the benchmark checks fhtcheb against.

Nothing here imports fhtcheb. Every value comes from a closed form or from
a quadrature written for this benchmark, so a check fails when the program
is wrong, not when it merely differs from a stored copy of its own output.

Test functions are finite sine series in theta = arccos(t):

    f(t) = sum_k c_k sin(k theta) = sum_k c_k w(t) U_{k-1}(t),  w = sqrt(1 - t^2)

whose plain finite Hilbert transform F(s) = (1/pi) PV-int f(t)/(s - t) dt
is the cosine series sum_k c_k T_k(s) = sum_k c_k cos(k arccos s).
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre rule on [0, pi] in the angle variable. The integrands below
# are analytic on [0, pi], so the rule converges geometrically; 512 nodes
# resolve sine series up to degree ~100 times cosh(mu (s - t)) for |mu| <= 4
# to rounding level.
_GL_SIZE = 512


def _gl_theta(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * np.pi * (x + 1.0), 0.5 * np.pi * w


_THETA, _THETA_W = _gl_theta(_GL_SIZE)
# Nodes interlacing with the above, for targets that fall on one of them.
_THETA_ALT = _gl_theta(_GL_SIZE + 1)


def t_nodes(n: int) -> np.ndarray:
    return np.cos(np.arange(n) * np.pi / n)


def s_nodes(n: int) -> np.ndarray:
    return np.cos((np.arange(n) + 0.5) * np.pi / n)


def u_nodes(n: int) -> np.ndarray:
    return np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def uniform_nodes(n: int) -> np.ndarray:
    """The CLI's even display grid x_k = (2k + 1 - N)/N."""
    return (2.0 * np.arange(n) + 1.0 - n) / n


def sine_series(coef: np.ndarray, x) -> np.ndarray:
    """f(x) = sum_k c_k sin(k arccos x), k = 1..len(coef)."""
    k = np.arange(1, len(coef) + 1)
    return np.sin(np.outer(np.arccos(np.asarray(x, dtype=float)), k)) @ coef


def cosine_series(coef: np.ndarray, x) -> np.ndarray:
    """F(x) = sum_k c_k cos(k arccos x) = sum_k c_k T_k(x): the plain FHT of sine_series."""
    k = np.arange(1, len(coef) + 1)
    return np.cos(np.outer(np.arccos(np.asarray(x, dtype=float)), k)) @ coef


def cosh_pv_transform(coef: np.ndarray, mu: float, s) -> np.ndarray:
    """(1/pi) PV-int f(t) cosh(mu (s - t)) / (s - t) dt for f = sine_series(coef).

    With t = cos(theta) and s = cos(phi) the integral is
    (1/pi) PV-int_0^pi G(theta) / (cos phi - cos theta) d theta with
    G(theta) = f(cos theta) sin(theta) cosh(mu (s - cos theta)). Glauert's
    integral PV-int_0^pi d theta / (cos phi - cos theta) = 0 lets G(phi) be
    subtracted, which leaves an analytic integrand for Gauss-Legendre.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    phi = np.arccos(s)
    # A target on a node would divide by zero: those use the other rule.
    near = np.min(np.abs(phi[:, None] - _THETA[None, :]), axis=1) < 1e-9
    out = np.empty_like(s)
    for mask, (th, wt) in ((~near, (_THETA, _THETA_W)), (near, _THETA_ALT)):
        if not mask.any():
            continue
        ct = np.cos(th)
        si = s[mask][:, None]
        g = (sine_series(coef, ct) * np.sin(th))[None, :] * np.cosh(mu * (si - ct[None, :]))
        g_pole = (sine_series(coef, s[mask]) * np.sin(phi[mask]))[:, None]
        out[mask] = ((g - g_pole) / (si - ct[None, :])) @ wt / np.pi
    return out


def cosh_mean(coef: np.ndarray, mu: float) -> float:
    """fbar_mu = (1/2) int_{-1}^{1} cosh(mu t) f(t) dt by Gauss-Legendre in theta."""
    ct = np.cos(_THETA)
    return 0.5 * float(np.sum(_THETA_W * np.cosh(mu * ct) * sine_series(coef, ct) * np.sin(_THETA)))


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an `x,value[,reference]` CSV into its x and value columns.

    Raises ValueError on a malformed header, a short row or a non-float cell.
    """
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] not in ("x,value", "x,value,reference"):
        raise ValueError(f"{path}: bad header {lines[:1]}")
    ncol = lines[0].count(",") + 1
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if rows.shape[0] == 0 or rows.shape[1] != ncol:
        raise ValueError(f"{path}: {rows.shape[0]} rows of {rows.shape[1]} cells, want {ncol} cells")
    return rows[:, 0], rows[:, 1]


def write_csv(path, x, value) -> None:
    """Write an input CSV in the CLI's format, 17 significant digits per float."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,value\n")
        fh.writelines(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, value))

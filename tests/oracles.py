"""Closed-form oracles and curvature norms that only the tests use."""

import numpy as np


def radial_log_laplacian_oracle(theta0: int, n: int = 4000) -> dict:
    """High-resolution check that Lap(r^{2t}(t log r - 1)) = 4 t^3 r^{2t-2} log r.

    Settles the cubic-vs-quadratic discrepancy in the closed-form log
    coefficient by direct finite differencing of the radial profile.
    """
    r = np.linspace(0.25, 0.75, n)
    h = r[1] - r[0]
    t = float(theta0)
    f = r ** (2 * t) * (t * np.log(r) - 1.0)
    lap = np.empty_like(f)
    lap[1:-1] = ((f[2:] - 2 * f[1:-1] + f[:-2]) / h ** 2
                 + (f[2:] - f[:-2]) / (2 * h * r[1:-1]))
    lap[0] = lap[1]
    lap[-1] = lap[-2]
    cubic = 4.0 * t ** 3 * r ** (2 * t - 2) * np.log(r)
    quad = 4.0 * t ** 2 * r ** (2 * t - 2) * np.log(r)
    mid = slice(1, -1)
    return {
        "cubic_error": float(np.max(np.abs(lap[mid] - cubic[mid]))),
        "quadratic_error": float(np.max(np.abs(lap[mid] - quad[mid]))),
    }


def H_norm(curv) -> np.ndarray:
    """|H| per node of a ``CurvatureField``."""
    return np.linalg.norm(curv.H, axis=-1)


def bending_energy_density(curv) -> np.ndarray:
    """|II|^2_g in the induced metric times the area factor e^{2 lam}."""
    sq = (np.sum(curv.h11 ** 2, axis=-1) + 2.0 * np.sum(curv.h12 ** 2, axis=-1)
          + np.sum(curv.h22 ** 2, axis=-1))
    return sq * np.exp(2.0 * curv.lam)

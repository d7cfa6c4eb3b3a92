"""Closed-form oracles, chart transforms, curvature norms and identity
cross-checks that only the tests use."""

import numpy as np

from willmore.grid import annulus_norms, dot, dz, dzbar, laplacian
from willmore.surface import normal_projector


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


def inverted_chart(chart, center):
    """Compose a chart with the sphere inversion p -> (p - c)/|p - c|^2."""
    center = np.asarray(center, dtype=float)

    def new_chart(x, y):
        comps = chart(x, y)
        shifted = [ci - center[k] for k, ci in enumerate(comps)]
        norm2 = shifted[0] * shifted[0]
        for s in shifted[1:]:
            norm2 = norm2 + s * s
        return [s / norm2 for s in shifted]
    return new_chart


def rotated_chart(chart, Q: np.ndarray):
    """Compose a chart with an ambient orthogonal map."""
    Q = np.asarray(Q, dtype=float)

    def new_chart(x, y):
        comps = chart(x, y)
        return [sum(Q[i, j] * comps[j] for j in range(len(comps)))
                for i in range(Q.shape[0])]
    return new_chart


def tangential_H_defect(curv, frame) -> float:
    """max |pi_T H| / max(|H|, eps): vanishes on exactly conformal input."""
    pi_n = normal_projector(frame)
    tang = curv.H - pi_n(curv.H)
    scale = max(float(np.max(np.linalg.norm(curv.H, axis=-1))), 1e-30)
    return float(np.max(np.linalg.norm(tang, axis=-1))) / scale


def gauss_curvature_from_liouville(curv, branch) -> np.ndarray:
    """K via -Lap u = e^{2 lam} K; cross-validates the det(II) route."""
    return -laplacian(curv.grid, branch.u) * np.exp(-2.0 * curv.lam)


def codazzi_defect(curv, frame) -> float:
    """Residual of the Codazzi identity tying H, H0 and the conformal factor.

    In the Weingarten convention used here (H0 from dz(e^{-lam} e_z)) the
    identity reads e^{-2lam} dzbar(e^{2lam} H.H0) = H.dz H + H0.dzbar H;
    it is why the parallel-mean-curvature multiplier is anti-holomorphic.
    """
    grid = frame.grid
    e2l = np.exp(2.0 * frame.lam)
    lhs = dzbar(grid, e2l * dot(curv.H, curv.H0)) / e2l
    dzH = dz(grid, curv.H)
    dzbH = dzbar(grid, curv.H)
    rhs = dot(curv.H, dzH) + dot(curv.H0, dzbH)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-30)
    return annulus_norms(grid, lhs - rhs)["max"] / scale

"""Least-squares extraction of the local expansions of Phi and H.

On inner annuli the immersion is fitted componentwise against

    Re(c_k z^{theta0 + k}),  k = 0 .. theta0 - a   (c_0 = A, c_k = B_k),
    Re(C_{theta0-a} |z|^{2 theta0} z^{-a}),
    -C |z|^{2 theta0} (theta0 log|z| - 1),

with radial weights r^{-2 theta0} equalizing annulus contributions, and the
mean curvature against Re(E_a z^{-a}) - gamma0 log|z| plus nuisance
companions absorbing the leading remainder.  Fitted log-coefficients decode
through C = e^{2 u0} gamma0 / (2 theta0^3) and
C_{theta0-a} = e^{2 u0} E_a / (2 theta0 (theta0 - a)); remainder decay
exponents come from log-log slopes of the residual circle norms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from willmore.curvature import CurvatureField
from willmore.grid import PolarGrid, circle_mean, fit_order, jsonable
from willmore.surface import ImmersionField


class ExpansionError(ValueError):
    pass


@dataclass(eq=False)
class ExpansionFit:
    """What ``fit_phi`` measured; ``to_json`` reports every field."""

    A: np.ndarray                     # complex (m,)
    B: list                           # complex (m,) per order 1..theta0-a
    E_a: np.ndarray                   # complex (m,), from the pole column
    C_vec: np.ndarray                 # real (m,), log coefficient
    C_theta_a: np.ndarray             # complex (m,)
    gamma0_fit: np.ndarray            # real (m,), decoded from C_vec
    remainder_exponent_phi: float
    remainder_exponent_H: Optional[float] = None
    fit_residual: float = 0.0
    condition_number: float = 1.0
    at_floor: bool = False

    def to_json(self) -> dict:
        return jsonable({f.name: getattr(self, f.name) for f in fields(self)})


def _weighted_lstsq(design: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray):
    """Column-normalized weighted least squares; returns coefs, cond, resid."""
    wd = design * weights[:, None]
    norms = np.linalg.norm(wd, axis=0)
    if np.any(norms == 0):
        raise ExpansionError("degenerate (identically zero) design column")
    wd = wd / norms
    wt = targets * weights[:, None]
    coef, _, rank, sv = np.linalg.lstsq(wd, wt, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if rank < design.shape[1] or cond > 1e12:
        raise ExpansionError(
            f"rank-deficient expansion design (cond {cond:.2e}): basis "
            "collinear at the sampled radii")
    coef = coef / norms[:, None]
    resid = targets - design @ coef
    return coef, cond, resid


def _residual_slope(grid: PolarGrid, resid_nodes: np.ndarray, sel: slice,
                    scale: float):
    """Log-log slope of residual circle norms, ignoring rounding-floor rows."""
    prof = np.sqrt(circle_mean(np.sum(resid_nodes ** 2, axis=-1)))
    floor = 1e-12 * max(scale, 1.0)
    if np.max(prof) < floor:
        return np.inf, True
    # only the circles within three decades of the peak carry signal;
    # below that the profile flattens onto the rounding floor
    keep = prof > max(1e-3 * float(np.max(prof)), floor)
    radii = grid.r[sel][keep]
    if keep.sum() < 3:
        return np.inf, True
    return fit_order(radii, prof[keep]), False


def _fit_rows(grid: PolarGrid) -> slice:
    """The inner third of the circles, where both expansions are fitted."""
    return slice(0, max(8, int(round(1.0 / 3.0 * grid.n_r))))


def fit_phi(field: ImmersionField, theta0: int, a: int, u0: float) -> ExpansionFit:
    """Componentwise weighted fit of the immersion expansion on inner annuli."""
    grid = field.grid
    m = field.ambient_dim
    sel = _fit_rows(grid)

    z = grid.z[sel].ravel()
    r = np.abs(z)
    cols = []
    for k in range(0, theta0 - a + 1):
        zp = z ** (theta0 + k)
        cols += [zp.real, zp.imag]
    pole = r ** (2 * theta0) * z ** float(-a)
    cols.append(pole.real)
    if a != 0:
        cols.append(pole.imag)
    cols.append(-(r ** (2 * theta0)) * (theta0 * np.log(r) - 1.0))
    design = np.stack(cols, axis=1)

    weights = r ** float(-2 * theta0)
    targets = field.phi[:, sel].reshape(m, -1).T  # one row per node
    coef, cond, resid = _weighted_lstsq(design, targets, weights)

    def complex_pair(i):
        return coef[i] - 1j * coef[i + 1]

    A = complex_pair(0)
    B = [complex_pair(2 * k) for k in range(1, theta0 - a + 1)]
    idx = 2 * (theta0 - a + 1)
    if a != 0:
        C_ta = coef[idx] - 1j * coef[idx + 1]
        idx += 2
    else:
        C_ta = coef[idx].astype(complex)
        idx += 1
    C_vec = coef[idx].real

    E_a = 2.0 * theta0 * (theta0 - a) * np.exp(-2.0 * u0) * C_ta
    gamma0_fit = 2.0 * theta0 ** 3 * np.exp(-2.0 * u0) * C_vec

    # un-weighted residual per node for the decay profile
    resid_nodes = resid.reshape(-1, grid.n_theta, m)
    slope, at_floor = _residual_slope(grid, resid_nodes, sel,
                                      float(np.max(np.abs(targets))))
    rms = float(np.sqrt(np.mean((resid * weights[:, None]) ** 2)))
    return ExpansionFit(A, B, E_a, C_vec, C_ta, gamma0_fit,
                        remainder_exponent_phi=slope,
                        fit_residual=rms, condition_number=cond,
                        at_floor=at_floor)


def fit_H(curv: CurvatureField, theta0: int, a: int, u0: float) -> dict:
    """Fit H against Re(E_a z^{-a}) - gamma0 log|z| plus nuisance companions.

    The companions Re/Im(z^{k-a}), k = 1, 2, absorb the leading remainder so
    the pole and log coefficients stay clean.
    """
    if a >= theta0:
        raise ExpansionError(f"pole order a = {a} outside [0, theta0 - 1]")
    grid = curv.grid
    m = curv.H.shape[0]
    sel = _fit_rows(grid)

    z = grid.z[sel].ravel()
    r = np.abs(z)
    zp = z ** float(-a)
    cols = [zp.real]
    if a != 0:
        cols.append(zp.imag)
    cols.append(-np.log(r))
    for k in range(1, 3):
        zq = z ** float(k - a)
        cols.append(zq.real)
        if k - a != 0:
            cols.append(zq.imag)
            # the remainder also carries rotation-invariant radial content
            cols.append(r ** float(k - a))
    design = np.stack(cols, axis=1)

    weights = r ** float(a)
    targets = curv.H[:, sel].reshape(m, -1).T  # one row per node
    coef = _weighted_lstsq(design, targets, weights)[0]

    n_struct = (1 if a == 0 else 2) + 1
    if a != 0:
        E_a = coef[0] - 1j * coef[1]
        gamma0 = coef[2].real
    else:
        E_a = coef[0].astype(complex)
        gamma0 = coef[1].real
    # eta is the gap to the structural part alone; the nuisance content is
    # part of the remainder whose decay the exponent measures
    eta = targets - design[:, :n_struct] @ coef[:n_struct]
    eta_nodes = eta.reshape(-1, grid.n_theta, m)
    slope, at_floor = _residual_slope(grid, eta_nodes, sel,
                                      float(np.max(np.abs(targets))))
    return {"E_a": E_a, "gamma0": gamma0, "eta_exponent": slope,
            "at_floor": at_floor}


def verify_constants(fit: ExpansionFit, theta0: int, a: int, u0: float,
                     gamma0: np.ndarray, E_a_from_H: np.ndarray) -> dict:
    """Defects of the closed-form constants against the fitted coefficients.

    C = e^{2u0} gamma0 / (2 theta0^3): the cubic power is the one consistent
    with the radial Laplacian of |z|^{2 theta0}(theta0 log|z| - 1), whose
    closed form is 4 theta0^3 |z|^{2 theta0 - 2} log|z|.
    """
    out = {}
    expect_C = np.exp(2.0 * u0) / (2.0 * theta0 ** 3) * np.asarray(gamma0)
    out["C_defect"] = float(np.linalg.norm(fit.C_vec - expect_C))
    expect_Cta = (np.exp(2.0 * u0) / (2.0 * theta0 * (theta0 - a))
                  * np.asarray(E_a_from_H))
    if a == 0:
        # |z|^{2 theta0} z^0 is real: only the real part is identifiable
        out["C_theta_a_defect"] = float(
            np.linalg.norm(fit.C_theta_a.real - expect_Cta.real))
        out["C_theta_a_partial"] = True
    else:
        out["C_theta_a_defect"] = float(
            np.linalg.norm(fit.C_theta_a - expect_Cta))
        out["C_theta_a_partial"] = False
    return out

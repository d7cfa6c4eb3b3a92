"""Constrained Willmore equation in strong and divergence form.

Strong form residual (zero exactly for a constrained Willmore immersion;
reduces to the classical Delta_g H + 2 H (H^2 - K) = 0 in codimension one):

    e^{-2 lam} pi_n div(pi_n grad H) + 2 Re((H.H0*) H0) - e^{-2 lam} Re(H0 f).

Divergence form: with the conventions used throughout this package
(H0 = 2 dz(e^{-lam} e_z), n = star(e1 ^ e2)) the flux

    X_raw = grad H - 3 pi_n grad H + star(grad_perp n ^ H)
            + e^{-2 lam} M_f grad_perp Phi

is divergence free away from the puncture exactly when the strong form
vanishes, and the two sides obey the pointwise algebraic identity

    strong form = -(e^{-2 lam} / 2) div X_raw

for every conformal immersion (solution or not); ``equivalence_check``
verifies it discretely, together with dz(e^{-2 lam} f dz Phi) = H0 f / 2.
The circulation of X_raw over any centered circle is 4 pi beta0, and
X = X_raw - 2 beta0 grad log|x| (``FluxField.corrected``) has vanishing
circulation, consistently with the mean curvature growing like
-beta0 log|z| at the puncture.

grad H and grad n are read from the caches ``CurvatureField.dH`` and
``FrameField.dn``, so the strong form, the flux and the parallelism test
share one derivative of each.  The flux is built once, without beta0, and
``equivalence_check`` combines the strong field and flux the caller holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from willmore.curvature import CurvatureField
from willmore.grid import PolarGrid, annulus_norms, div, dot, dz
from willmore.multiplier import matrix_field
from willmore.multivec import MultiVec, hodge_star, wedge
from willmore.surface import FrameField, ImmersionField, normal_projector


@dataclass(eq=False)
class FluxField:
    grid: PolarGrid
    raw: np.ndarray                 # (2, n_r, n_theta, m), no beta0 correction
    div_defect: np.ndarray          # div raw per node, (n_r, n_theta, m)

    def div_norms(self, r_lo=None, r_hi=None) -> dict:
        return annulus_norms(self.grid, self.div_defect, r_lo, r_hi)

    def corrected(self, beta0) -> np.ndarray:
        """X = raw - 2 beta0 grad log|x|, the flux with vanishing circulation."""
        beta0 = np.asarray(beta0, dtype=float)
        grid = self.grid
        r2 = (grid.rr ** 2)[..., None]
        return np.stack([self.raw[0] - 2.0 * beta0 * grid.x[..., None] / r2,
                         self.raw[1] - 2.0 * beta0 * grid.y[..., None] / r2])


def _star_wedge_with_H(comp: np.ndarray, H: np.ndarray) -> np.ndarray:
    m = H.shape[-1]
    nv = MultiVec(m, m - 2, comp)
    return hodge_star(wedge(nv, MultiVec.vector(m, H))).coeffs


def strong_residual(curv: CurvatureField, frame: FrameField,
                    f_field: Optional[np.ndarray] = None,
                    r_lo=None, r_hi=None) -> dict:
    """Nodewise strong-form residual and its annulus norms."""
    grid = curv.grid
    pi_n = normal_projector(frame)
    Hx, Hy = curv.dH
    e2l = np.exp(2.0 * frame.lam)[..., None]
    lap_perp = pi_n(div(grid, pi_n(Hx), pi_n(Hy))) / e2l
    cross = 2.0 * np.real(dot(curv.H, np.conj(curv.H0))[..., None] * curv.H0)
    res = lap_perp + cross
    if f_field is not None:
        res = res - np.real(curv.H0 * f_field[..., None]) / e2l
    return {"field": res, "norms": annulus_norms(grid, res, r_lo, r_hi)}


def flux(curv: CurvatureField, frame: FrameField,
         f_field: Optional[np.ndarray] = None,
         field: Optional[ImmersionField] = None) -> FluxField:
    """Divergence-form flux X_raw and its divergence.

    The multiplier term uses M_f of ``f_field`` and grad Phi of ``field``.
    With f == 0 it is skipped entirely, so the flux reduces bitwise to the
    plain Willmore flux.
    """
    grid = curv.grid
    pi_n = normal_projector(frame)
    Hx, Hy = curv.dH
    nx, ny = frame.dn
    raw_x = Hx - 3.0 * pi_n(Hx) + _star_wedge_with_H(-ny, curv.H)
    raw_y = Hy - 3.0 * pi_n(Hy) + _star_wedge_with_H(nx, curv.H)

    if f_field is not None and np.any(f_field):
        if field is None:
            raise ValueError("the immersion field is needed for the M_f term")
        M_f = matrix_field(f_field)
        perp = (-field.d1[1], field.d1[0])  # grad_perp Phi
        e2l = np.exp(2.0 * frame.lam)[..., None]
        raw_x = raw_x + (M_f[..., 0, 0, None] * perp[0]
                         + M_f[..., 0, 1, None] * perp[1]) / e2l
        raw_y = raw_y + (M_f[..., 1, 0, None] * perp[0]
                         + M_f[..., 1, 1, None] * perp[1]) / e2l

    raw = np.stack([raw_x, raw_y])
    return FluxField(grid, raw, div(grid, raw[0], raw[1]))


def equivalence_check(strong: np.ndarray, fl: FluxField,
                      curv: CurvatureField, frame: FrameField,
                      f_field: Optional[np.ndarray],
                      field: Optional[ImmersionField],
                      r_lo, r_hi) -> dict:
    """Discrete defect of strong form + (e^{-2 lam}/2) div X_raw, and of the
    anti-holomorphy identity dz(e^{-2 lam} f dz Phi) = H0 f / 2.

    ``strong`` is the field of ``strong_residual`` and ``fl`` the flux of
    ``flux``, both built with the same multiplier ``f_field``.
    """
    grid = curv.grid
    e2l = np.exp(2.0 * frame.lam)[..., None]
    gap = strong + 0.5 * fl.div_defect / e2l
    out = {"identity_norms": annulus_norms(grid, gap, r_lo, r_hi)}
    if f_field is not None and field is not None and np.any(f_field):
        dz_phi = 0.5 * (field.d1[0] - 1j * field.d1[1])
        lhs = dz(grid, f_field[..., None] * dz_phi / e2l)
        rhs = 0.5 * curv.H0 * f_field[..., None]
        out["antiholomorphy_norms"] = annulus_norms(grid, lhs - rhs, r_lo, r_hi)
    return out

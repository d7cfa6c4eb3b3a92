"""Constrained Willmore equation in strong and divergence form, in one pass.

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

for every conformal immersion (solution or not).  The circulation of X_raw
over any centered circle is 4 pi beta0, and
X = X_raw - 2 beta0 grad log|x| (``FluxField.corrected``) has vanishing
circulation, consistently with the mean curvature growing like
-beta0 log|z| at the puncture.

``equation`` evaluates both forms of a level at once: it forms e^{2 lam}
and pi_n grad H once, and returns the strong-form field, the flux (built
once, without beta0), the norms of the strong form, of div X_raw and of
the gap in the identity above over ``NORM_ANNULUS``, and the parallelism
defect |pi_n grad H| / max(|grad H|, |H|).  n is never formed: the term
star(grad_perp n ^ H) comes from the frame (``star_dn_wedge``), and grad H,
which the pass takes itself, and pi_n grad H are released before the flux
divergence.  Both flux components are assembled in one (2, m, ...) buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from willmore.curvature import CurvatureField
from willmore.grid import PolarGrid, annulus_norms, div, dot, grad
from willmore.multiplier import matrix_field
from willmore.surface import FrameField, ImmersionField, normal_projector

#: the annulus [r_lo, r_hi] of the equation's norms (``annulus_mask`` also
#: trims 10% of the rows at each rim)
NORM_ANNULUS = (0.1, 0.9)


@dataclass(eq=False)
class FluxField:
    grid: PolarGrid
    raw: np.ndarray                 # (2, m, n_r, n_theta), no beta0 correction

    def corrected(self, beta0) -> np.ndarray:
        """X = raw - 2 beta0 grad log|x|, the flux with vanishing circulation."""
        twice = 2.0 * np.asarray(beta0, dtype=float)[..., None, None]
        grid = self.grid
        r2 = grid.rr ** 2
        return np.stack([self.raw[0] - twice * grid.x / r2,
                         self.raw[1] - twice * grid.y / r2])


@dataclass(eq=False)
class Equation:
    """Both forms of the equation on one level and their checks."""

    strong: np.ndarray              # strong-form residual, (m, n_r, n_theta)
    div_defect: np.ndarray          # div X_raw per node, (m, n_r, n_theta)
    flux: FluxField
    norms: dict     # NORM_ANNULUS norms: "strong", "div" (div X_raw), "identity"
    pmc_defect: float               # |pi_n grad H| / max(|grad H|, |H|)


def star_dn_wedge(frame: FrameField, H: np.ndarray, eH: tuple,
                  i: int) -> np.ndarray:
    """star(d_i n ^ H) = <nu1, H> e2 - <e2, H> nu1 + <e1, H> nu2 - <nu2, H> e1
    with nu_a = pi_n d_i e_a (``FrameField.nu``) and eH = (<e1, H>, <e2, H>):
    exact algebra for n = star(e1 ^ e2), which assumes no conformality."""
    (nu1, nu2), e1, e2 = frame.nu(i), frame.e1, frame.e2
    out = dot(nu1, H) * e2 - eH[1] * nu1
    out += eH[0] * nu2 - dot(nu2, H) * e1
    return out


def equation(curv: CurvatureField, frame: FrameField,
             f: Optional[np.ndarray] = None,
             field: Optional[ImmersionField] = None) -> Equation:
    """The strong form, the flux X_raw and their checks, with multiplier f.

    The multiplier terms use M_f of ``f`` and grad Phi of ``field``.  With
    f absent or identically zero they are skipped, so both forms reduce
    bitwise to the plain Willmore equation.  The norms are taken over
    ``NORM_ANNULUS``.
    """
    grid = curv.grid
    if f is not None and not np.any(f):
        f = None
    if f is not None and field is None:
        raise ValueError("the immersion field is needed for the M_f term")
    e2l = np.exp(2.0 * frame.lam)
    # the flux is summed in place, its star(grad_perp n ^ H) terms first:
    # grad_perp n = (-d_y n, d_x n), and negation is exact
    raw = np.empty((2,) + curv.H.shape)
    eH = dot(frame.e1, curv.H), dot(frame.e2, curv.H)  # once per level
    np.negative(star_dn_wedge(frame, curv.H, eH, 1), out=raw[0])
    raw[1] = star_dn_wedge(frame, curv.H, eH, 0)
    del eH
    Hx, Hy = grad(grid, curv.H)
    pi_n = normal_projector(frame)
    px, py = pi_n(Hx), pi_n(Hy)

    num = np.sqrt(dot(px, px) + dot(py, py))
    den = np.sqrt(dot(Hx, Hx) + dot(Hy, Hy))
    floor = max(float(np.max(den)), float(np.max(np.abs(curv.H))), 1e-30)
    pmc_defect = annulus_norms(grid, num)["max"] / floor

    raw[0] += np.subtract(Hx, 3.0 * px, out=Hx)  # grad H dies here
    raw[1] += np.subtract(Hy, 3.0 * py, out=Hy)
    del Hx, Hy
    strong = pi_n(div(grid, px, py))
    del px, py
    strong /= e2l
    strong += 2.0 * np.real(dot(curv.H, np.conj(curv.H0)) * curv.H0)
    if f is not None:
        strong -= np.real(curv.H0 * f) / e2l
        M_f = matrix_field(f)
        perp = (-field.d1[1], field.d1[0])  # grad_perp Phi
        for k in range(2):
            raw[k] += (M_f[k, 0] * perp[0] + M_f[k, 1] * perp[1]) / e2l
        del M_f, perp

    div_defect = div(grid, raw[0], raw[1])
    gap = strong + 0.5 * div_defect / e2l
    norms = {"strong": annulus_norms(grid, strong, *NORM_ANNULUS),
             "div": annulus_norms(grid, div_defect, *NORM_ANNULUS),
             "identity": annulus_norms(grid, gap, *NORM_ANNULUS)}
    return Equation(strong, div_defect, FluxField(grid, raw), norms,
                    pmc_defect)

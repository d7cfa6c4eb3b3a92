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

``equation`` evaluates both forms at once, per node on the rows of its
frame: a level runs it once per row block (``pipeline.level_pass``, with
two halo rows: grad H, then the divergences) and keeps each block's own
rows.  It reads e^{2 lam} and nu from the frame and H.H0* from the
curvature, each formed once per block, and returns the flux (built once,
without beta0), the per-node squared norms dot(f, f) of the strong form,
of div X_raw and of the gap in the identity above, and the per-circle
maxima of |pi_n grad H| and of max(|grad H|, |H|); from these
``Equation`` takes the norms over ``NORM_ANNULUS`` (the only rows of the
squares a level keeps) and the parallelism defect
|pi_n grad H| / max(|grad H|, |H|).  The strong form and div X_raw
themselves are never kept.  n is never formed: the term
star(grad_perp n ^ H) comes from the frame (``star_dn_wedge``), and
grad H, which the pass takes itself, and pi_n grad H are released before
the flux divergence.  Both flux components are summed in one
(2, m, ...) buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from willmore.curvature import CurvatureField
from willmore.grid import PolarGrid, _norms, annulus_mask, div, dot, grad
from willmore.multiplier import matrix_field
from willmore.surface import FrameField, ImmersionField, normal_projector

#: the annulus [r_lo, r_hi] of the equation's norms (``annulus_mask`` also
#: trims 10% of the rows at each rim)
NORM_ANNULUS = (0.1, 0.9)


@dataclass(eq=False)
class FluxField:
    grid: PolarGrid
    raw: np.ndarray  # (2, m, n_r, n_theta), uncorrected until ``corrected``

    def corrected(self, beta0) -> np.ndarray:
        """X = raw - 2 beta0 grad log|x|, the flux with vanishing circulation,
        subtracted in place: the raw flux is overwritten, and returned."""
        twice = 2.0 * np.asarray(beta0, dtype=float)[..., None, None]
        grid = self.grid
        r2 = grid.rr ** 2
        X = self.raw
        X[0] -= twice * grid.x / r2
        X[1] -= twice * grid.y / r2
        return X


@dataclass(eq=False)
class Equation:
    """Both forms of the equation on a grid's or a row block's nodes.

    ``squares`` holds dot(f, f) per node of the strong form ("strong"), of
    div X_raw ("div") and of the identity gap ("identity"), on a level only
    on the ``NORM_ANNULUS`` rows, which ``rows`` picks.  ``parallel`` and
    ``scale`` hold per circle the max of |pi_n grad H| and of
    max(|grad H|, |H|).  ``norms`` are the ``NORM_ANNULUS`` norms of the
    three squares, whose pooled |f| is sqrt(dot(f, f)), and ``pmc_defect``
    the annulus max of |pi_n grad H| over the largest scale.
    """

    flux: FluxField
    squares: dict
    rows: object  # the squares' NORM_ANNULUS rows: a mask, or all of a level's
    parallel: np.ndarray
    scale: np.ndarray

    @property
    def norms(self) -> dict:
        return {key: _norms(np.sqrt(sq[self.rows]))
                for key, sq in self.squares.items()}

    @property
    def pmc_defect(self) -> float:
        floor = max(1e-30, float(np.max(self.scale)))
        rows = annulus_mask(self.flux.grid)
        return float(np.max(self.parallel[rows])) / floor


def star_dn_wedge(frame: FrameField, H: np.ndarray, eH: tuple,
                  i: int) -> np.ndarray:
    """star(d_i n ^ H) = <nu1, H> e2 - <e2, H> nu1 + <e1, H> nu2 - <nu2, H> e1
    with nu_a = pi_n d_i e_a (``FrameField.nu``) and eH = (<e1, H>, <e2, H>):
    exact algebra for n = star(e1 ^ e2), which assumes no conformality."""
    (nu1, nu2), e1, e2 = frame.nu[i], frame.e1, frame.e2
    out = dot(nu1, H) * e2 - eH[1] * nu1
    out += eH[0] * nu2 - dot(nu2, H) * e1
    return out


def equation(curv: CurvatureField, frame: FrameField,
             f: Optional[np.ndarray] = None,
             field: Optional[ImmersionField] = None) -> Equation:
    """The strong form, the flux X_raw and their checks, with multiplier f,
    on the rows of ``curv`` (radial stencils one-sided at its end rows).

    The multiplier terms use M_f of ``f`` and grad Phi of ``field``.  With
    f absent or identically zero on these rows they are skipped, so both
    forms reduce bitwise to the plain Willmore equation.
    """
    grid = curv.grid
    if f is not None and not np.any(f):
        f = None
    if f is not None and field is None:
        raise ValueError("the immersion field is needed for the M_f term")
    H, H0, e2l = curv.H, curv.H0, frame.e2l
    raw = np.empty((2,) + H.shape)
    # the flux is summed in place, its star(grad_perp n ^ H) terms first:
    # grad_perp n = (-d_y n, d_x n), and negation is exact
    eH = dot(frame.e1, H), dot(frame.e2, H)
    np.negative(star_dn_wedge(frame, H, eH, 1), out=raw[0])
    raw[1] = star_dn_wedge(frame, H, eH, 0)
    del eH, frame.nu  # nu is read last here; a later read forms it again
    Hx, Hy = grad(grid, H)
    pi_n = normal_projector(frame)
    px, py = pi_n(Hx), pi_n(Hy)

    parallel = np.max(np.sqrt(dot(px, px) + dot(py, py)), axis=-1)
    scale = np.maximum(np.max(np.sqrt(dot(Hx, Hx) + dot(Hy, Hy)), axis=-1),
                       np.max(np.abs(H), axis=(0, -1)))

    raw[0] += np.subtract(Hx, 3.0 * px, out=Hx)  # grad H dies here
    raw[1] += np.subtract(Hy, 3.0 * py, out=Hy)
    del Hx, Hy
    strong = pi_n(div(grid, px, py))
    del px, py
    strong /= e2l
    strong += 2.0 * np.real(curv.hdot * H0)
    if f is not None:
        strong -= np.real(H0 * f) / e2l
        M_f = matrix_field(f)
        d1 = field.d1
        perp = (-d1[1], d1[0])  # grad_perp Phi
        for i in range(2):
            raw[i] += (M_f[i, 0] * perp[0] + M_f[i, 1] * perp[1]) / e2l
        del M_f, perp

    div_defect = div(grid, raw[0], raw[1])
    gap = strong + 0.5 * div_defect / e2l
    squares = {key: dot(v, v) for key, v in (("strong", strong),
                                              ("div", div_defect),
                                              ("identity", gap))}
    return Equation(FluxField(grid, raw), squares,
                    annulus_mask(grid, *NORM_ANNULUS), parallel, scale)

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
and pi_n grad H once, and returns the flux (built once, without beta0),
the per-node squared norms dot(f, f) of the strong form, of div X_raw and
of the gap in the identity above, their norms over ``NORM_ANNULUS``, and
the parallelism defect |pi_n grad H| / max(|grad H|, |H|).  The strong
form and div X_raw themselves are never kept for the whole level: the
pass runs in row blocks of ``PolarGrid.blocks`` with a halo of two rows
(grad H, then the divergences), so its temporaries stay cache-sized.  n is
never formed: the term star(grad_perp n ^ H) comes from the frame
(``star_dn_wedge``), and grad H, which the pass takes itself, and
pi_n grad H are released before the flux divergence.  Both flux
components of a block are summed in one (2, m, ...) buffer, whose kept
rows are copied into the level's flux.
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
    """Both forms of the equation on one level and their checks.

    ``squares`` holds dot(f, f) per node, shape (n_r, n_theta), of the
    strong form ("strong"), of div X_raw ("div") and of the identity gap
    ("identity"); ``norms`` are the ``NORM_ANNULUS`` norms of the same
    three, whose pooled |f| is sqrt(dot(f, f)).
    """

    flux: FluxField
    squares: dict
    norms: dict
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
    bitwise to the plain Willmore equation.  The pass runs row block by
    row block (``PolarGrid.blocks``) with two halo rows, for grad H and
    then the divergences, and copies each block's kept rows of the flux
    into the level's.  The norms are taken over ``NORM_ANNULUS``.
    """
    grid = curv.grid
    if f is not None and not np.any(f):
        f = None
    if f is not None and field is None:
        raise ValueError("the immersion field is needed for the M_f term")
    m, n_theta = curv.H.shape[0], grid.n_theta
    raw = np.empty((2,) + curv.H.shape)
    squares = {key: np.empty(grid.rr.shape)
               for key in ("strong", "div", "identity")}
    num = np.empty(grid.rr.shape)  # |pi_n grad H|
    floor = 1e-30                  # max(|grad H|, |H|)
    for band in grid.blocks(m, 2):
        rows, kept, k = band.rows, band.kept, (slice(None), band.keep)
        rb = np.empty((2, m, band.n_r, n_theta))
        fr = frame.on(band)
        H, H0 = curv.H[:, rows], curv.H0[:, rows]
        e2l = np.exp(2.0 * fr.lam)
        # the flux is summed in place, its star(grad_perp n ^ H) terms
        # first: grad_perp n = (-d_y n, d_x n), and negation is exact
        eH = dot(fr.e1, H), dot(fr.e2, H)
        np.negative(star_dn_wedge(fr, H, eH, 1), out=rb[0])
        rb[1] = star_dn_wedge(fr, H, eH, 0)
        del eH
        Hx, Hy = grad(band, H)
        pi_n = normal_projector(fr)
        px, py = pi_n(Hx), pi_n(Hy)

        num[kept] = np.sqrt(dot(px[k], px[k]) + dot(py[k], py[k]))
        den = np.sqrt(dot(Hx[k], Hx[k]) + dot(Hy[k], Hy[k]))
        floor = max(floor, float(np.max(den)), float(np.max(np.abs(H[k]))))

        rb[0] += np.subtract(Hx, 3.0 * px, out=Hx)  # grad H dies here
        rb[1] += np.subtract(Hy, 3.0 * py, out=Hy)
        del Hx, Hy
        strong = pi_n(div(band, px, py))
        del px, py
        strong /= e2l
        strong += 2.0 * np.real(dot(H, np.conj(H0)) * H0)
        if f is not None:
            fb = f[rows]
            strong -= np.real(H0 * fb) / e2l
            M_f = matrix_field(fb)
            d1 = field.d1[:, :, rows]
            perp = (-d1[1], d1[0])  # grad_perp Phi
            for i in range(2):
                rb[i] += (M_f[i, 0] * perp[0] + M_f[i, 1] * perp[1]) / e2l
            del M_f, perp

        div_defect = div(band, rb[0], rb[1])
        gap = strong + 0.5 * div_defect / e2l
        for key, v in (("strong", strong), ("div", div_defect),
                       ("identity", gap)):
            squares[key][kept] = dot(v[k], v[k])
        del strong, div_defect, gap
        raw[:, :, kept] = rb[:, :, band.keep]
    norms = {key: annulus_norms(grid, np.sqrt(sq), *NORM_ANNULUS)
             for key, sq in squares.items()}
    pmc_defect = annulus_norms(grid, num)["max"] / floor
    return Equation(FluxField(grid, raw), squares, norms, pmc_defect)

"""Second fundamental form, mean and Weingarten curvature, energy, diagnostics.

Conventions on a conformal chart with parameter lam and unit frame e1, e2:
the frame-scaled second fundamental form vectors are h_ij = e^{-2 lam} II_ij,
with II = pi_n d2 Phi formed once by ``frame_and_gauss``; the mean curvature
vector is evaluated un-projected as H = e^{-2 lam} Lap Phi / 2 (its
tangential part is a conformality diagnostic), and the Weingarten vector as
H0 = 2 e^{-2 lam} (dzz Phi - 2 dz(lam) dz Phi).  The Gauss curvature comes
from <h11, h22> - <h12, h12>, which feeds the Liouville residual
Lap u + e^{2 lam} K.  Every term is per node, so ``curvature`` is a kernel
over the rows of its frame: a level runs it once per row block
(``pipeline.level_pass``) and keeps H, K, the energy density, |grad n| of
the Gauss map (from the frame's nu) and e^lam |H0|, while H0 lives only
in the block, for the multiplier and the equation pass.  The h_ij are
temporaries of K, and grad H is taken by the equation pass, its only
reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from willmore.grid import PolarGrid, annulus_mask, dot, integrate, laplacian
from willmore.surface import BranchData, FrameField, ImmersionField


@dataclass(eq=False)
class CurvatureField:
    """The curvature of a grid's or a row block's nodes; a level's keeps no
    H0, whose readers run per block."""

    grid: PolarGrid
    lam: np.ndarray
    H: np.ndarray          # (m, n_r, n_theta) real, un-projected evaluation
    K: np.ndarray
    energy_density: np.ndarray  # |H|^2 e^{2 lam}
    dn_norm: np.ndarray    # |grad n| of the Gauss map
    eH0_norm: np.ndarray   # e^lam |H0|
    H0: Optional[np.ndarray] = None  # (m, n_r, n_theta) complex

    @cached_property
    def hdot(self) -> np.ndarray:
        """H.H0* per node, for the multiplier and the equation's cross term."""
        return dot(self.H, np.conj(self.H0))


def curvature(field: ImmersionField, frame: FrameField) -> CurvatureField:
    """H, H0, K, the energy density, |grad n| and e^lam |H0| on the rows of
    ``frame``; the h_ij = II e^{-2 lam} of ``frame.II`` are temporaries of
    K, and |grad n|^2 = sum_i |nu1_i|^2 + |nu2_i|^2 (``FrameField.nu``)."""
    p1, p2 = field.d1
    pxx, pxy, pyy = field.d2
    e2l = frame.e2l
    h11, h12, h22 = frame.II / e2l
    K = np.subtract(dot(h11, h22), dot(h12, h12))
    del h11, h12, h22

    H = np.divide(0.5 * (pxx + pyy), e2l)

    lam_x = (dot(p1, pxx) + dot(p2, pxy)) / (2.0 * e2l)
    lam_y = (dot(p1, pxy) + dot(p2, pyy)) / (2.0 * e2l)
    dz_lam = 0.5 * (lam_x - 1j * lam_y)
    dz_phi = 0.5 * (p1 - 1j * p2)
    H0 = 0.25 * (pxx - pyy - 2j * pxy)  # dzz_phi, turned into H0 in place
    H0 -= np.multiply(2.0 * dz_lam, dz_phi, out=dz_phi)
    del dz_phi
    np.divide(np.multiply(2.0, H0, out=H0), e2l, out=H0)

    density = np.multiply(dot(H, H), e2l)
    dn_norm = np.sqrt(sum(dot(v, v) for pair in frame.nu for v in pair))
    re, im = H0.real, H0.imag
    eH0_norm = np.exp(frame.lam) * np.sqrt(dot(re, re) + dot(im, im))
    return CurvatureField(frame.grid, frame.lam, H, K, density, dn_norm,
                          eH0_norm, H0)


def willmore_energy(curv: CurvatureField) -> float:
    """Integral of |H|^2 over the grid annulus in the induced area element."""
    return integrate(curv.grid, curv.energy_density)


def gauss_map_energy_density(curv: CurvatureField) -> np.ndarray:
    """|grad n|^2 of the Gauss map n = star(e1 ^ e2) (flat measure), from
    the frame's second fundamental form."""
    return curv.dn_norm ** 2


def gauss_bonnet_check(curv: CurvatureField, branch: BranchData) -> dict:
    """Liouville residual Lap u + e^{2 lam} K on the rim-trimmed grid.

    This is the computable local form of the Gauss-Bonnet identity; u is
    the regular conformal part of the branch-order analysis, formed on
    ``PolarGrid.band()``.
    """
    band = curv.grid.band()
    u, lam, K = (a[band.rows] for a in (branch.u, curv.lam, curv.K))
    return band.norms(laplacian(band, u) + np.exp(2.0 * lam) * K)


def delta_profile(curv: CurvatureField) -> dict:
    """delta(r) = r max_theta |grad n| per circle, plus int delta^2 dr/r."""
    grid = curv.grid
    delta = grid.r * np.max(curv.dn_norm, axis=-1)
    total = float(np.trapezoid(delta ** 2, grid.s))
    return {"r": grid.r, "delta": delta, "square_integral": total}


def weingarten_constant(curv: CurvatureField) -> float:
    """Measured best constant in e^lam |H0| <= c |grad n| (c <= 2 expected)."""
    lhs, rhs = curv.eH0_norm, curv.dn_norm
    sl = annulus_mask(curv.grid)
    ratio = lhs[sl] / np.maximum(rhs[sl], 1e-30)
    # nodes at rounding level, relative to the largest |grad n| or in the
    # scale-free r |grad n| (a flat chart's), hold no ratio
    floor = np.maximum(1e-12 * float(np.max(rhs)), 1e-12 / curv.grid.rr[sl])
    keep = rhs[sl] > floor
    return float(np.max(ratio[keep])) if np.any(keep) else 0.0

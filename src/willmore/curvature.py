"""Second fundamental form, mean and Weingarten curvature, energy, diagnostics.

Conventions on a conformal chart with parameter lam and unit frame e1, e2:
the frame-scaled second fundamental form vectors are h_ij = e^{-2 lam} II_ij,
with II = pi_n d2 Phi formed once by ``frame_and_gauss``; the mean curvature
vector is evaluated un-projected as H = e^{-2 lam} Lap Phi / 2 (its
tangential part is a conformality diagnostic), and the Weingarten vector as
H0 = 2 e^{-2 lam} (dzz Phi - 2 dz(lam) dz Phi).  The Gauss curvature comes
from <h11, h22> - <h12, h12>, which feeds the Liouville residual
Lap u + e^{2 lam} K.  ``CurvatureField`` keeps H, H0, K and the energy
density only: the h_ij are temporaries of K, and grad H is taken by the
equation pass, its only reader.  Every term is per node, so ``curvature``
writes its outputs row block by row block (``PolarGrid.blocks``, no halo)
and its temporaries stay block-sized.  |grad n| of the Gauss map comes
from II as well (``FrameField.dn_norm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from willmore.grid import PolarGrid, annulus_mask, dot, integrate, laplacian
from willmore.surface import BranchData, FrameField, ImmersionField


@dataclass(eq=False)
class CurvatureField:
    grid: PolarGrid
    lam: np.ndarray
    H: np.ndarray          # (m, n_r, n_theta) real, un-projected evaluation
    H0: np.ndarray         # (m, n_r, n_theta) complex
    K: np.ndarray
    energy_density: np.ndarray  # |H|^2 e^{2 lam}


def curvature(field: ImmersionField, frame: FrameField) -> CurvatureField:
    """H, H0, K and the energy density of a level, block by block; the
    h_ij = II e^{-2 lam} of ``frame.II`` are temporaries of K."""
    grid, m = field.grid, field.ambient_dim
    H = np.empty(field.phi.shape)
    H0 = np.empty(field.phi.shape, dtype=complex)
    K, density = np.empty(grid.rr.shape), np.empty(grid.rr.shape)
    for band in grid.blocks(m, 0):
        r = band.rows
        p1, p2 = field.d1[:, :, r]
        pxx, pxy, pyy = field.d2[:, :, r]
        e2l = np.exp(2.0 * frame.lam[r])
        h11, h12, h22 = frame.II[:, :, r] / e2l
        np.subtract(dot(h11, h22), dot(h12, h12), out=K[r])
        del h11, h12, h22

        Hb = np.divide(0.5 * (pxx + pyy), e2l, out=H[:, r])

        dz_phi = 0.5 * (p1 - 1j * p2)
        dzz_phi = 0.25 * (pxx - pyy - 2j * pxy)
        lam_x = (dot(p1, pxx) + dot(p2, pxy)) / (2.0 * e2l)
        lam_y = (dot(p1, pxy) + dot(p2, pyy)) / (2.0 * e2l)
        dz_lam = 0.5 * (lam_x - 1j * lam_y)
        np.divide(2.0 * (dzz_phi - 2.0 * dz_lam * dz_phi), e2l, out=H0[:, r])

        np.multiply(dot(Hb, Hb), e2l, out=density[r])
    return CurvatureField(grid, frame.lam, H, H0, K, density)


def willmore_energy(curv: CurvatureField) -> float:
    """Integral of |H|^2 over the grid annulus in the induced area element."""
    return integrate(curv.grid, curv.energy_density)


def gauss_map_energy_density(frame: FrameField) -> np.ndarray:
    """|grad n|^2 of the Gauss map n = star(e1 ^ e2) (flat measure), from
    the frame's second fundamental form."""
    return frame.dn_norm ** 2


def gauss_bonnet_check(curv: CurvatureField, branch: BranchData) -> dict:
    """Liouville residual Lap u + e^{2 lam} K on the rim-trimmed grid.

    This is the computable local form of the Gauss-Bonnet identity; u is
    the regular conformal part of the branch-order analysis, formed on
    ``PolarGrid.band()``.
    """
    band = curv.grid.band()
    u, lam, K = (a[band.rows] for a in (branch.u, curv.lam, curv.K))
    return band.norms(laplacian(band, u) + np.exp(2.0 * lam) * K)


def delta_profile(frame: FrameField) -> dict:
    """delta(r) = r max_theta |grad n| per circle, plus int delta^2 dr/r."""
    gn = frame.dn_norm
    delta = frame.grid.r * np.max(gn, axis=-1)
    total = float(np.trapezoid(delta ** 2, frame.grid.s))
    return {"r": frame.grid.r, "delta": delta, "square_integral": total}


def weingarten_constant(curv: CurvatureField, frame: FrameField) -> float:
    """Measured best constant in e^lam |H0| <= c |grad n| (c <= 2 expected)."""
    re, im = curv.H0.real, curv.H0.imag
    lhs = np.exp(curv.lam) * np.sqrt(dot(re, re) + dot(im, im))
    rhs = frame.dn_norm
    sl = annulus_mask(curv.grid)
    ratio = lhs[sl] / np.maximum(rhs[sl], 1e-30)
    # nodes at rounding level, relative to the largest |grad n| or in the
    # scale-free r |grad n| (a flat chart's), hold no ratio
    floor = np.maximum(1e-12 * float(np.max(rhs)), 1e-12 / curv.grid.rr[sl])
    keep = rhs[sl] > floor
    return float(np.max(ratio[keep])) if np.any(keep) else 0.0

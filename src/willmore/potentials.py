"""Auxiliary potentials g, G, S, R and the conservative system checks.

g and G solve Poisson problems driven by Gamma = 2 beta0 log|x|,

    Lap g = grad(Gamma) . grad(Phi),   Lap G = grad(Gamma) ^ grad(Phi),

with zero Dirichlet data on the outer grid circle; the puncture side closes
with the bounded-solution (decaying-mode) condition on each angular mode,
and all modes are solved together in one sweep over the exponential radial
grid.  As beta0 is constant, one m-component solve of Lap U = (2/r) d_r Phi
gives g = beta0 . U and G = beta0 ^ U.  S (scalar) and R (2-vector valued)
are curl potentials of

    grad_perp S = L . grad_perp(Phi) - grad g,
    grad_perp R = L ^ grad_perp(Phi) - 2 H ^ grad(Phi) - grad G,

reconstructed by path integration.  ``verify_system`` evaluates the
conservative conformal Willmore system and the closing identity
-2 Lap Phi = (grad S - grad_perp g) . grad_perp Phi
             - (grad R - grad_perp G) . grad_perp Phi (first-order
contraction in the second pairing) on the annulus rows plus a halo row
(``PolarGrid.band``), with star n = e1 ^ e2 and its derivatives formed from
a frame built there.  This is the only module that runs the exterior-algebra
operators of ``multivec``.  ``potential_set`` integrates R in m // 2 blocks
of at most m components and merges their loop defects; it keeps S, R's
loop defects (R itself has no reader) and, of the rest, only the band rows
``verify_system`` reads.
Fields are (components, n_r, n_theta): a block of R is a run of planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from willmore.curvature import CurvatureField
from willmore.grid import PolarGrid, RowBand, div, dot, grad
from willmore.multivec import (_apply_bilinear, _wedge_terms, bullet_21,
                               bullet_22, wedge)
from willmore.residues import integrate_curl_potential, loop_defects
from willmore.surface import ImmersionField, conformal_factor, frame_and_gauss


class PotentialError(ValueError):
    pass


@dataclass(eq=False)
class PotentialSet:
    band: RowBand                      # the rows ``verify_system`` reads
    S: np.ndarray                      # scalar field, (n_r, n_theta)
    v_S: tuple                         # grad_perp S on the band rows
    v_R: tuple                         # grad_perp R on the band rows
    dg: tuple                          # grad g on the band rows
    dG: tuple                          # grad G on the band rows
    loop_defects: dict                 # path-integration defects of S, R


# ---------------------------------------------------------------------------
# mode-wise Poisson solver on the annulus
# ---------------------------------------------------------------------------

def _solve_modes(grid: PolarGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve Lap u = rhs with u = 0 at r_max and boundedness at the puncture.

    Angular Fourier decomposition; per mode the radial problem
    u'' - k^2 u = e^{2s} rhs_k closes with u'(s_min) = |k| u(s_min), which
    kills the inward-growing homogeneous branch (the unique bounded
    extension across the excluded disk).  Every mode is eliminated in the
    same sweep over the rows: inward from the outer row, writing
    u_i = alpha_i u_{i-1} + beta_i, then the Robin row for u_0, then outward.
    """
    n_r, n_theta = grid.n_r, grid.n_theta
    h = grid.ds
    n_modes = n_theta // 2 + 1
    # rows lead for the sweep: each row is one (n_modes, components) plane
    src = np.fft.rfft(rhs, axis=-1).reshape(-1, n_r, n_modes).transpose(1, 2, 0)
    src *= np.exp(2.0 * grid.s)[:, None, None]
    k = np.arange(n_modes, dtype=float)[:, None]   # irfft supplies k < 0
    h2_12 = h * h / 12.0
    # Numerov rows (fourth order), 0 < i < n_r - 1:
    #   off (u_{i-1} + u_{i+1}) - diag u_i = h^2/12 (f_{i-1} + 10 f_i + f_{i+1})
    off = 1.0 - h2_12 * k * k
    diag = 2.0 + 10.0 * h2_12 * k * k
    b = h2_12 * (src[:-2] + 10.0 * src[1:-1] + src[2:])
    # inward from u_{n-1} = 0 (alpha = beta = 0 on the outer row); the rows
    # are diagonally dominant, so the sweep needs no pivoting
    alpha = np.zeros((n_r, n_modes, 1))
    u = src                      # beta, then the solution; b has read src
    u[-1] = 0.0
    for i in range(n_r - 2, 0, -1):
        piv = diag - off * alpha[i + 1]
        alpha[i] = off / piv
        u[i] = (off * u[i + 1] - b[i - 1]) / piv
    # inner row, fourth-order one-sided Robin u'(s0) = k u(s0):
    # (-25 - 12 h k) u_0 + 48 u_1 - 36 u_2 + 16 u_3 - 3 u_4 = 0,
    # with u_j = a_j u_0 + c_j from the sweep
    a, c = 1.0, 0.0
    lhs, acc = -25.0 - 12.0 * h * k, 0.0
    for j, w in enumerate((48.0, -36.0, 16.0, -3.0), start=1):
        a, c = alpha[j] * a, alpha[j] * c + u[j]
        lhs, acc = lhs + w * a, acc + w * c
    u[0] = -acc / lhs
    for i in range(1, n_r):
        u[i] += alpha[i] * u[i - 1]
    bad = ~np.all(np.isfinite(u), axis=(0, 2))
    if np.any(bad):
        raise PotentialError(
            f"singular radial solve at mode k = {int(np.argmax(bad))}")
    return np.fft.irfft(u.transpose(2, 0, 1), n_theta, axis=-1).reshape(rhs.shape)


def solve_gG(beta0: np.ndarray, field: ImmersionField) -> np.ndarray:
    """U with g = beta0 . U and G = beta0 ^ U (zero if beta0 is): one
    m-component solve of Lap U = w = (2/r) d_r Phi."""
    grid = field.grid
    if not np.any(beta0):
        return np.zeros(field.phi.shape)
    w = ((2.0 * grid.x / grid.rr ** 2) * field.d1[0]
         + (2.0 * grid.y / grid.rr ** 2) * field.d1[1])
    return _solve_modes(grid, w)


# ---------------------------------------------------------------------------
# curl potentials S, R
# ---------------------------------------------------------------------------

def potential_set(L: np.ndarray, beta0: np.ndarray, field: ImmersionField,
                  curv: CurvatureField, band: RowBand) -> PotentialSet:
    """grad g and grad G from U (``solve_gG``), then S and the loop defects
    of R from the flux potential L; the set keeps the rows of ``band`` (a
    ``PolarGrid.band``)."""
    grid, d1, m = field.grid, field.d1, field.ambient_dim
    cut = lambda pair: tuple(v[..., band.rows, :].copy() for v in pair)
    dU = grad(grid, solve_gG(beta0, field))
    dg = (dot(dU[0], beta0), dot(dU[1], beta0))
    # grad_perp Phi = (-Phi_y, Phi_x); -(a . b) is a . (-b) bit for bit
    v_s = (-dot(L, d1[1]) - dg[0], dot(L, d1[0]) - dg[1])
    S, part_S = integrate_curl_potential(grid, v_s[0], v_s[1])
    v_s, dg = cut(v_s), cut(dg)
    n2 = comb(m, 2)
    width = n2 // (m // 2)
    v_r, dG = ([np.empty((n2,) + dg[0].shape) for _ in d1] for _ in range(2))
    parts = []
    for lo in range(0, n2, width):
        cols = slice(lo, lo + width)
        # the table cut to the block's outputs: the wedge's slice, bitwise
        table = tuple((a, b, o - lo, sg) for a, b, o, sg
                      in _wedge_terms(m) if lo <= o < lo + width)
        wb = lambda a, b: _apply_bilinear(table, a, b, width)
        # L ^ grad_perp Phi - 2 H ^ grad Phi - grad G (exact sign, doubling)
        v = [sign * wb(L, d1[1 - k]) - 2.0 * wb(curv.H, d1[k])
             - wb(beta0, dU[k]) for k, sign in ((0, -1.0), (1, 1.0))]
        for k in (0, 1):
            dG[k][cols] = wb(beta0, dU[k][:, band.rows])
            v_r[k][cols] = v[k][:, band.rows]
        parts.append(integrate_curl_potential(grid, *v)[1])
        del v                      # before the next block's terms are formed
    return PotentialSet(band, S, v_s, tuple(v_r), dg, tuple(dG),
                        {"S": loop_defects(part_S), "R": loop_defects(*parts)})


# ---------------------------------------------------------------------------
# conservative system residuals
# ---------------------------------------------------------------------------

def verify_system(pots: PotentialSet, field: ImmersionField) -> dict:
    """Annulus norms of the conservative system and the -2 Lap Phi identity.

    Evaluated on the rows of ``pots.band``, the only rows of the field it
    reads, where it rebuilds the level's frame (with no second defect gate;
    every term is per node, so bit for bit) and forms star n = e1 ^ e2 and
    d_i(e1 ^ e2) = nu1_i ^ e2 + e1 ^ nu2_i (``FrameField.nu``).
    The gradients of S and R enter through their defining curl fields
    (grad_perp S and grad_perp R are known exactly up to the reported loop
    defect), so each residual costs a single discrete derivative.  The five
    signs (s1 .. s5 below) carry the orientation of the contraction terms
    relative to the printed system; they are the ones under which every
    residual is refinement-convergent with this package's Hodge star
    (star e_I = sign(I, I^c) e_{I^c}) and contractions ``bullet_21`` and
    ``bullet_22``, whose conventions differ from the cited statements'.
    """
    grid = pots.band
    field = field.on(grid)
    frame = frame_and_gauss(field, conformal_factor(field), np.inf)
    s_bullR, s_dotS, s_bullG, s_sng, s_phi = -1, -1, -1, -1, +1
    sn = wedge(frame.e1, frame.e2)  # star n
    sn_x, sn_y = (wedge(nu1, frame.e2) + wedge(frame.e1, nu2)
                  for nu1, nu2 in frame.nu)
    del frame  # its e1, e2, II and nu

    # grad_perp S = v_S and grad_perp R = v_R by construction, so
    # grad S = rot(v_S) and Lap S = d1(v_S_2) - d2(v_S_1); each residual's
    # norms are taken, and its terms released, before the next is formed
    perp_S, perp_R = pots.v_S, pots.v_R
    Sx, Sy = perp_S[1], -perp_S[0]
    Rx, Ry = perp_R[1], -perp_R[0]
    (gx, gy), (Gx, Gy) = pots.dg, pots.dG

    # -Lap S = grad(star n) . perp grad R + div((star n) . grad G)
    dot_R = dot(sn_x, perp_R[0]) + dot(sn_y, perp_R[1])
    div_w = div(grid, dot(sn, Gx), dot(sn, Gy))
    norms = {"sysS": grid.norms(-div(grid, Sx, Sy) - dot_R - div_w)}
    del dot_R, div_w

    # -Lap R = s1 grad(star n) bullet perp grad R - grad(star n) perp grad S
    #          + div(s3 (star n) bullet grad G + s4 (star n) grad g)
    div_f = div(grid,
                s_bullG * bullet_22(sn, Gx) + s_sng * sn * gx,
                s_bullG * bullet_22(sn, Gy) + s_sng * sn * gy)
    bull_R = bullet_22(sn_x, perp_R[0]) + bullet_22(sn_y, perp_R[1])
    dot_S = sn_x * perp_S[0] + sn_y * perp_S[1]
    del sn, sn_x, sn_y
    norms["sysR"] = grid.norms(-div(grid, Rx, Ry) - s_bullR * bull_R
                               + s_dotS * dot_S - div_f)
    del div_f, bull_R, dot_S

    # -2 Lap Phi = (grad S - perp grad g) . perp grad Phi
    #              + s5 (grad R - perp grad G) bullet perp grad Phi
    d1, d2 = field.d1, field.d2
    perp_phi = (-d1[1], d1[0])
    t_scal = (Sx + gy) * perp_phi[0] + (Sy - gx) * perp_phi[1]
    t_bull = (bullet_21(Rx + Gy, perp_phi[0])
              + bullet_21(Ry - Gx, perp_phi[1]))
    norms["delphi"] = grid.norms(-2.0 * (d2[0] + d2[2]) - t_scal
                                 - s_phi * t_bull)
    return norms

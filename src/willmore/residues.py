"""Branch data and the circulation residues of the flux around the puncture.

The analysis chain: the conformal factor's circle means fix the integer
branch order theta0 and the regular part u with value u(0); circle means of
z^{1-theta0} dz(Phi) fix the tangent vector A (isotropic, normal-free at 0);
the flux circulation fixes the first residue beta0, corrected to the
modified residue gamma0 when the multiplier order hits mu = theta0 - 2;
path integration of the corrected flux produces the potential L; and the
winding numbers of W = (i/2) L + H + beta0 log|z| + F_mu / 2 around small
circles are the second residue gamma with pole order a = max_j gamma_j.
Fields are (m, n_r, n_theta) and circle reductions (m, n_r); the report's
per-circle tables (``per_circle_beta0``, ``winding_raw``) keep one row per
circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from willmore.grid import (INTEGER, INTEGERS, MAPPING, PAIRS, REAL, REALS,
                           REQUIRED, PolarGrid, circle_mean,
                           circulation, read_json)
from willmore.multiplier import MultiplierSpec
from willmore.residual import FluxField
from willmore.surface import BranchData, ImmersionField, tangent_frame


#: how far a raw winding may sit from its integer
WINDING_GATE = 0.2


class ResidueError(ValueError):
    pass


def _inner_rows(grid: PolarGrid) -> slice:
    """The inner circles ``radial_extrapolate`` reads."""
    return slice(0, max(6, grid.n_r // 6))


def radial_extrapolate(grid: PolarGrid, rings: np.ndarray):
    """Value at r = 0 from a least-squares quadratic in r on inner circles.

    ``rings`` has shape (n, ...) with at least the ``_inner_rows`` of the
    grid; the radii are normalized before fitting so the design stays
    conditioned on strongly graded grids.
    """
    n = _inner_rows(grid).stop
    r = grid.r[:n]
    rho = r / r[-1]
    design = np.stack([rho ** k for k in range(3)], axis=1)
    vals = rings[:n].reshape(n, -1)
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return coef[0].reshape(rings.shape[1:])


# ---------------------------------------------------------------------------
# branch order and tangent vector
# ---------------------------------------------------------------------------

def branch_order(grid: PolarGrid, lam: np.ndarray) -> BranchData:
    """theta0 = 1 + round(slope of circle-averaged lam against log r)."""
    lam_bar = circle_mean(lam)
    k = max(4, int(round(0.5 * grid.n_r)))
    slope = float(np.polyfit(grid.s[:k], lam_bar[:k], 1)[0])
    nearest = int(np.rint(slope))
    if abs(slope - nearest) > 0.2:
        raise ResidueError(
            f"conformal factor slope {slope:.3f} is farther than 0.2 from "
            "an integer: input under-resolved or not conformal")
    theta0 = nearest + 1
    if theta0 < 1:
        raise ResidueError(f"branch order {theta0} is not a positive integer")
    u = lam - (theta0 - 1) * np.log(grid.rr)
    u0 = float(radial_extrapolate(grid, circle_mean(u)))
    return BranchData(theta0, slope, u, u0)


def tangent_projector_at_origin(field: ImmersionField):
    """pi_T onto the tangent plane at 0: T = e1 ^ e2, held as the matrix
    W = e1 e2^T - e2 e1^T, extrapolated by circle means to W0 and scaled to
    a unit 2-vector (|W0|_F = sqrt 2); for unit decomposable T, pi_T = W0^T W0.
    e1 and e2 come from grad Phi on the ``_inner_rows``, as in the frame.
    """
    grid = field.grid
    e1, e2, _ = tangent_frame(field.d1[:, :, _inner_rows(grid)])
    # circle mean e1 e2^T per row, (rows, m, m)
    M = np.moveaxis(e1, 0, 1) @ np.moveaxis(e2, 0, 2) / grid.n_theta
    W0 = radial_extrapolate(grid, M - np.swapaxes(M, 1, 2))
    W0 *= np.sqrt(2.0) / np.linalg.norm(W0)
    P = W0.T @ W0  # symmetric
    return lambda v: v @ P


@dataclass(eq=False)
class TangentData:
    A: np.ndarray               # complex (m,)
    isotropy_defect: float      # |A.A| / |A|^2
    normal_defect: float        # |pi_n(0) A| / |A|


def tangent_vector(field: ImmersionField, branch: BranchData) -> TangentData:
    """A = (2/theta0) lim z^{1-theta0} dz(Phi), by circle-mean extrapolation."""
    grid = field.grid
    rows = _inner_rows(grid)
    dz_phi = 0.5 * (field.d1[0, :, rows] - 1j * field.d1[1, :, rows])
    w = grid.z[rows] ** (1 - branch.theta0) * dz_phi
    rings = circle_mean(w).T
    A = 2.0 / branch.theta0 * radial_extrapolate(grid, rings)
    if not np.all(np.isfinite(A)):
        raise ResidueError("tangent-vector extrapolation diverged")
    norm2 = float(np.sum(np.abs(A) ** 2))
    iso = abs(A @ A) / max(norm2, 1e-300)
    pi_T = tangent_projector_at_origin(field)
    normal_part = A - pi_T(A)
    nd = float(np.linalg.norm(normal_part)) / max(np.sqrt(norm2), 1e-300)
    return TangentData(A, iso, nd)


# ---------------------------------------------------------------------------
# first and modified residues
# ---------------------------------------------------------------------------

def first_residue(fl: FluxField) -> dict:
    """beta0 = circulation / 4 pi per circle on 5 circles spread over the
    rows at 25-75% of the grid; mean and rho-spread reported."""
    n_r = fl.grid.n_r  # at least 16, so the 5 circles are distinct
    circles = np.linspace(int(0.25 * n_r), int(0.75 * n_r), 5).astype(int)
    table = (circulation(fl.grid, fl.raw[0], fl.raw[1], circles)
             / (4.0 * np.pi)).T  # one row per circle
    beta0 = table.mean(axis=0)
    spread = float(np.max(np.linalg.norm(table - beta0, axis=-1)))
    return {"beta0": beta0, "rho_spread": spread,
            "radii": fl.grid.r[circles], "per_circle": table}


def modified_residue(beta0: np.ndarray, theta0: int, spec: MultiplierSpec,
                     A: np.ndarray, u0: float) -> np.ndarray:
    """gamma0 = beta0 - (1/2) [mu == theta0-2] theta0 e^{-2u0} Re(a_mu A).

    The correction undoes the circulation that the multiplier block of the
    flux contributes at the logarithmic order mu = theta0 - 2, so gamma0 is
    the multiplier-independent log coefficient of the mean curvature.  Its
    sign is tied to the flux orientation used here (+ M_f block): the
    correction term equals the M_f circulation / 4 pi exactly, which the
    test suite pins by comparing against the multiplier-free flux.
    """
    beta0 = np.asarray(beta0, dtype=float)
    if spec.zero or spec.mu != theta0 - 2:
        return beta0.copy()
    return beta0 - 0.5 * theta0 * np.exp(-2.0 * u0) * np.real(spec.a_mu * np.asarray(A))


# ---------------------------------------------------------------------------
# curl potentials by path integration
# ---------------------------------------------------------------------------

def _cumtrapz(vals: np.ndarray, h: float) -> np.ndarray:
    # trapezoid steps along axis -2 with a gradient correction; telescopes
    # to fourth order.  The correction is formed in the output, and the
    # gradient released, before the midpoint sums
    dv = np.moveaxis(np.gradient(vals, h, axis=-2), -2, 0)
    vals = np.moveaxis(vals, -2, 0)  # views: the rows are whole planes
    out = np.empty_like(vals, dtype=dv.dtype)
    mids = np.subtract(dv[1:], dv[:-1], out=out[1:])
    del dv
    mids *= h * h / 12.0
    half = np.add(vals[1:], vals[:-1])
    half *= 0.5 * h
    np.subtract(half, mids, out=mids)
    del half
    out[0] = 0.0
    np.cumsum(mids, axis=0, out=mids)
    return np.moveaxis(out, 0, -2)


def _cumtheta(vals: np.ndarray, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral antiderivative along axis -1 (n_theta even), 0 at theta = 0.

    Writes the antiderivative samples over ``vals`` and returns them with
    the per-circle holonomy 2 pi mean(f) picked up over one full loop (the
    non-periodic part), shape (..., n_r).
    """
    mean = np.mean(vals, axis=-1, keepdims=True)
    vals -= mean
    fh = np.fft.rfft(vals, axis=-1)
    k = np.arange(n_theta // 2 + 1, dtype=float)
    mask = np.ones(len(k))
    mask[0] = mask[-1] = 0.0  # the mean and the unpaired Nyquist mode
    k[0] = k[-1] = 1.0
    fh *= mask / (1j * k)
    np.fft.irfft(fh, n_theta, axis=-1, out=vals)
    del fh
    vals -= vals[..., :1].copy()
    theta = (2.0 * np.pi / n_theta) * np.arange(n_theta)
    vals += mean * theta
    return vals, 2.0 * np.pi * mean[..., 0]


def integrate_curl_potential(grid: PolarGrid, vx: np.ndarray, vy: np.ndarray):
    """P with grad_perp P = (vx, vy), fixed to 0 at the outer basepoint, and
    its part of the loop defect (``loop_defects``).

    Paths run radially inward along theta = 0 (corrected cumulative
    trapezoid in log r), then angularly around each circle (spectral
    antiderivative).  Works for scalar node fields or fields with leading
    axes.  The part is the per-circle profiles, worst over the leading
    axes, of the angular holonomy and of the mismatch against the
    independent angular-then-radial path family, and P's scale.  Each
    quantity is built in place and released once read: the angular
    antiderivative over its integrand, the other path family and the gap
    over the radial sums, so at most three input-sized arrays are alive
    besides the inputs.
    """
    c, s, rr = grid.cos_t, grid.sin_t, grid.rr
    dP_ds = np.multiply(-s, vx)              # r * (V . e_theta)
    dP_ds += c * vy
    dP_ds *= rr
    radial = _cumtrapz(dP_ds, grid.ds)
    del dP_ds
    radial -= radial[..., -1:, :].copy()     # zero at the outer basepoint

    dP_dth = np.multiply(c, vx)              # -r * (V . e_r)
    dP_dth += s * vy
    dP_dth *= -rr
    # scale: the potential itself or the work done along a full circle,
    # whichever is larger (P can be small through cancellation)
    circle_work = float(np.max(np.mean(np.abs(dP_dth), axis=-1)) * 2.0 * np.pi)
    P, holo = _cumtheta(dP_dth, grid.n_theta)  # written over dP_dth
    rim = P[..., -1:, :].copy()
    P += radial[..., :1]                     # inward along theta = 0
    holo_profile = np.abs(holo).reshape(-1, grid.n_r).max(axis=0)

    # independent path family: angular at the outer rim, then radial inward,
    # and the gap to it, both formed in the radial buffer
    radial += rim
    gap = np.abs(np.subtract(P, radial, out=radial), out=radial)
    mismatch_profile = gap.max(axis=-1).reshape(-1, grid.n_r).max(axis=0)
    del radial, gap
    scale = max(float(max(P.max(), -P.min())), circle_work, 1e-300)
    return P, (holo_profile, mismatch_profile, scale)


def loop_defects(*parts) -> dict:
    """The loop defect of a potential integrated in one or more parts of
    ``integrate_curl_potential``: the worst holonomy and path mismatch over
    the parts, with their profiles, relative to the largest scale."""
    holo, mism = (np.max([p[i] for p in parts], axis=0) for i in (0, 1))
    holonomy, mismatch = float(np.max(holo)), float(np.max(mism))
    defect = max(holonomy, mismatch)
    return {"holonomy": holonomy, "holonomy_profile": holo,
            "path_mismatch": mismatch, "noise_profile": holo + mism,
            "defect": defect,
            "relative_defect": defect / max(p[2] for p in parts)}


def potential_L(fl: FluxField, beta0) -> tuple[np.ndarray, dict]:
    """L with grad_perp L = X, the flux corrected by the first residue
    beta0 in place (``FluxField.corrected``: ``fl.raw`` is overwritten),
    and its loop defects."""
    X = fl.corrected(beta0)
    L, part = integrate_curl_potential(fl.grid, X[0], X[1])
    return L, loop_defects(part)


# ---------------------------------------------------------------------------
# W field and the second residue
# ---------------------------------------------------------------------------

def w_field(L: np.ndarray, H: np.ndarray, beta0: np.ndarray,
            F_mu: Optional[np.ndarray], grid: PolarGrid) -> np.ndarray:
    """W = (i/2) L + H + beta0 log|z| - F_mu / 2, meromorphic near 0.

    The F_mu sign follows the flux orientation used throughout (+ M_f
    block): the multiplier's logarithmic content inside beta0 log|z| and
    the real part of F_mu / 2 then cancel at the order mu = theta0 - 2,
    leaving the pole of the meromorphic part exposed.
    """
    W = 0.5j * L + H + np.asarray(beta0)[..., None, None] * np.log(grid.rr)
    if F_mu is not None:
        W = W - 0.5 * F_mu
    return W


@dataclass(eq=False)
class SecondResidue:
    gamma: np.ndarray           # (m,) integers
    a: int
    raw: np.ndarray             # (n_circles, m) pre-rounding windings
    degenerate: np.ndarray      # (m,) bool


def _winding(values: np.ndarray) -> float:
    """Argument increment / 2 pi around the circle, by phase unwrapping.

    The open path over the n sampled angles covers (n-1)/n of the circle;
    scaling by n/(n-1) estimates the full loop without the closing step, so
    the result drifts continuously off integers when W_j is not honestly
    meromorphic (the closed-loop step sum would quantize instead).
    """
    n = len(values)
    steps = np.angle(values[1:] / values[:-1])
    return float(np.sum(steps) * n / (n - 1) / (2.0 * np.pi))


def second_residue(W: np.ndarray, grid: PolarGrid,
                   noise_profile: np.ndarray) -> SecondResidue:
    """Componentwise winding numbers gamma_j = -winding(W_j) on small circles.

    Four circles are drawn from the innermost quartile of radii where the
    meromorphic part dominates; each integer must be confirmed by two
    consecutive circles with raw winding within WINDING_GATE of it.  Components
    that vanish at the puncture carry no pole and no usable phase; they are
    flagged degenerate with gamma_j = 0 by convention.  Vanishing is
    detected by a modulus below 1e-7 relative to the largest component,
    by a modulus below 3x the noise floor (half the largest entry of L's
    ``noise_profile``, its holonomy plus path mismatch, on the inner
    max(4, n_r // 4) circles), or by the circle-mean modulus
    decaying toward the puncture (log-log slope >= 1/2), since a meromorphic
    E_j with E_j(0) != 0 or a pole can only stay level or grow inward.  A
    degenerate component's raw windings are NaN: its phase is noise, not a
    measurement.
    """
    noise_floor = 0.5 * float(np.max(noise_profile[:max(4, grid.n_r // 4)]))
    m = W.shape[0]
    hi = max(int(0.25 * grid.n_r), 6)
    idx = sorted(set(np.linspace(2, hi, 4).astype(int).tolist()))  # no numpy.ma
    amp = np.array([[np.mean(np.abs(W[j, i])) for j in range(m)]
                    for i in idx])
    raw = np.full((len(idx), m), np.nan)
    for ci, i in enumerate(idx):
        for j in range(m):
            if amp[ci, j] > 0:
                raw[ci, j] = -_winding(W[j, i])
    gamma = np.zeros(m, dtype=int)
    degenerate = np.zeros(m, dtype=bool)
    scale = float(np.max(amp))
    if scale == 0.0 or scale <= 3.0 * noise_floor:
        # identically vanishing or noise-dominated W: no usable poles
        raw[:] = np.nan
        return SecondResidue(gamma, 0, raw, np.ones(m, dtype=bool))
    log_r = np.log(grid.r[idx])
    for j in range(m):
        decay = float(np.polyfit(log_r, np.log(np.maximum(amp[:, j], 1e-300)),
                                 1)[0]) if len(idx) > 1 else 0.0
        if (np.max(amp[:, j]) < max(1e-7 * scale, 3.0 * noise_floor)
                or decay >= 0.5):
            degenerate[j] = True
            raw[:, j] = np.nan
            continue
        confirmed = None
        for ci in range(len(idx) - 1):
            k1, k2 = np.rint(raw[ci, j]), np.rint(raw[ci + 1, j])
            ok1 = abs(raw[ci, j] - k1) <= WINDING_GATE
            ok2 = abs(raw[ci + 1, j] - k2) <= WINDING_GATE
            if ok1 and ok2 and k1 == k2:
                confirmed = int(k1)
                break
        if confirmed is None:
            raise ResidueError(
                f"component {j}: raw windings {raw[:, j]} never within "
                f"{WINDING_GATE} of one integer on two consecutive circles")
        if confirmed < 0:
            raise ResidueError(
                f"component {j}: negative winding {confirmed}; W is not "
                "meromorphic-with-pole at the puncture")
        gamma[j] = confirmed
    return SecondResidue(gamma, int(np.max(gamma)) if len(gamma) else 0,
                         raw, degenerate)


def pole_order_range(theta0: int, spec: MultiplierSpec) -> tuple[int, int]:
    """Admissible [lo, hi] for a = max_j gamma_j given the multiplier order."""
    if spec.zero:
        return 0, theta0 - 1
    return max(0, theta0 - spec.mu - 2), theta0 - 1


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ResidueReport:
    theta0: int
    u0: float
    A: np.ndarray
    beta0: np.ndarray
    rho_spread: float
    gamma0: np.ndarray
    gamma: np.ndarray
    a: int
    diagnostics: dict = dfield(default_factory=dict)

    @classmethod
    def from_json(cls, doc: dict) -> "ResidueReport":
        """The report whose ``grid.jsonable`` form is ``doc``; a missing
        entry or one of the wrong form raises ValueError naming its key."""
        e = read_json(doc, RESIDUE_KEYS, "the report's residues",
                      missing="the report has no {key!r} entry")
        e["diagnostics"] = {k: np.asarray(v)
                            for k, v in e["diagnostics"].items()}
        # the lists of numbers, integers and pairs as arrays
        return cls(**{k: np.array(v) if isinstance(v, list) else v
                      for k, v in e.items()})


#: the entries of a saved report's residues (``ResidueReport.from_json``)
RESIDUE_KEYS = {"theta0": (INTEGER, REQUIRED), "u0": (REAL, REQUIRED),
                "A": (PAIRS, REQUIRED), "beta0": (REALS, REQUIRED),
                "rho_spread": (REAL, REQUIRED), "gamma0": (REALS, REQUIRED),
                "gamma": (INTEGERS, REQUIRED), "a": (INTEGER, REQUIRED),
                "diagnostics": (MAPPING, {})}

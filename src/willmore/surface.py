"""Conformal immersions of the punctured disk sampled on exponential-polar grids.

The catalog holds closed-form conformal charts (plane, branched plane,
stereographic sphere, catenoid end, inverted catenoid, CMC cylinder,
Clifford torus patch) plus a synthetic branch-point template with planted
expansion coefficients.  Every catalog chart is written in ordinary
arithmetic over jets, so sampled fields come with machine-precision first
and second derivatives (``from_chart``); a level samples its chart one row
band at a time (``ImmersionField.on``), so d2 never spans it.  Imported CSV
samples are differentiated once, at load, with the grid stencils
(``from_samples``); every stage then reads the derivatives the field carries.
A CSV keeps one row per node, r-major: its reader and writer transpose.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from typing import Callable, Optional

import numpy as np

from willmore import jets
from willmore.grid import (COMPLEXES, INTEGER, REAL, REALS, PolarGrid,
                           RowBand, dot, grad, listof, read_json)
from willmore.jets import Jet
from willmore.multivec import MAX_DIM, MIN_DIM


#: default ``defect_threshold``: the largest conformal defect a frame accepts
DEFECT_THRESHOLD = 1e-6


class SurfaceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sampled immersion
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ImmersionField:
    """Samples of an immersion on a polar grid with their derivatives.

    ``first`` stacks phi (m, n_r, n_theta) and d1 = (d/dx1, d/dx2), ``d2``
    (d2/dx1dx1, d2/dx1dx2, d2/dx2dx2), each along its leading axis; a
    level's field of a jet ``chart`` has no d2 and is filled by ``on``.
    """

    grid: PolarGrid
    first: np.ndarray
    d2: Optional[np.ndarray] = None
    chart: Optional[Callable] = None

    def __post_init__(self):
        self.phi, self.d1 = self.first[0], self.first[1:]
        self.ambient_dim = len(self.phi)
        if self.d2 is not None and not np.all(np.isfinite(self.phi)):
            raise SurfaceError("immersion samples must be finite")

    def on(self, band: RowBand) -> "ImmersionField":
        """The samples on ``band``'s rows: views, or the chart sampled into them."""
        first = self.first[:, :, band.rows]
        if self.d2 is None:
            return from_chart(self.chart, band, self.ambient_dim, first)
        return ImmersionField(band, first, self.d2[:, :, band.rows])


def from_chart(chart: Callable, grid: PolarGrid, m: int,
               first: Optional[np.ndarray] = None) -> ImmersionField:
    """Samples of a jet chart with exact derivatives, phi and d1 in ``first``,
    evaluated one of ``grid.strips()`` at a time, so each jet temporary is a
    strip-sized plane; each operation is per node, so they equal one
    evaluation on all rows bit for bit."""
    first = np.empty((3, m) + grid.rr.shape) if first is None else first
    d2 = np.empty((3, m) + grid.rr.shape)
    for rows in grid.strips():
        rr = grid.rr[rows]  # x and y as PolarGrid forms them, per strip
        comps = chart(*Jet.seed(rr * grid.cos_t[rows], rr * grid.sin_t[rows]))
        if len(comps) != m:
            raise SurfaceError(f"chart returned {len(comps)} components, "
                               f"expected {m}")
        for slot, name in zip((*first[:, :, rows], *d2[:, :, rows]),
                              Jet.__slots__):
            for k, c in enumerate(comps):
                slot[k] = getattr(c, name)
    return ImmersionField(grid, first, d2)


def from_samples(grid: PolarGrid, phi: np.ndarray) -> ImmersionField:
    """Bare samples (m, n_r, n_theta), differentiated once with the grid
    stencils."""
    if grid.n_r < 20:
        raise SurfaceError("grid too coarse for the second-derivative stencil")
    d1 = grad(grid, phi)
    d2 = (*grad(grid, d1[0]), grad(grid, d1[1])[1])
    return ImmersionField(grid, np.stack((phi, *d1)), np.stack(d2))


# ---------------------------------------------------------------------------
# conformal frame
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FrameField:
    """Conformal parameter, orthonormal frame and second fundamental form.

    II stacks pi_n of (Phi_xx, Phi_xy, Phi_yy); ``gram`` stacks the
    Gram-Schmidt data |Phi_x|, <Phi_y, e1> and |t2| (t2 = Phi_y - <Phi_y, e1>
    e1) that turn II into nu (``nu``).  The Gauss map n = star(e1 ^ e2) is
    never formed: d_i n = star(nu1_i ^ e2 + e1 ^ nu2_i).  e^{2 lam} and nu
    are formed on first use and kept with the frame, which a level builds
    per row block, so every kernel of the block reads them from one place.
    """

    grid: PolarGrid
    lam: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    II: np.ndarray          # (3, m, n_r, n_theta)
    gram: np.ndarray        # (3, n_r, n_theta)

    @cached_property
    def e2l(self) -> np.ndarray:
        """e^{2 lam} per node."""
        return np.exp(2.0 * self.lam)

    @cached_property
    def nu(self) -> tuple:
        """((nu1, nu2) of d_x, (nu1, nu2) of d_y): nu_a = pi_n d_i e_a."""
        a, c, b = self.gram
        nu1 = [self.II[i] / a for i in (0, 1)]
        return tuple((nu1[i], (self.II[i + 1] - c * nu1[i]) / b)
                     for i in (0, 1))


def conformal_factor(field: ImmersionField) -> tuple[np.ndarray, np.ndarray]:
    """lam = log(|grad Phi| / sqrt(2)) and the per-node conformality defect."""
    p1, p2 = field.d1[0], field.d1[1]
    n1 = np.sqrt(dot(p1, p1))
    n2 = np.sqrt(dot(p2, p2))
    e2lam = 0.5 * (n1 ** 2 + n2 ** 2)
    if np.any(e2lam == 0.0):
        raise SurfaceError("degenerate sample: |grad Phi| vanishes at a node")
    lam = 0.5 * np.log(e2lam)
    cross = dot(p1, p2)
    defect = np.maximum(np.abs(n1 - n2) / np.exp(lam), np.abs(cross) / e2lam)
    return lam, defect


def frame_and_gauss(field: ImmersionField, conformal: tuple,
                    defect_threshold: float = DEFECT_THRESHOLD) -> FrameField:
    """Orthonormal tangent frame and the second fundamental form II.

    ``conformal`` is the (lam, defect) pair of ``conformal_factor``; the
    frame is refused when the defect exceeds ``defect_threshold``.  e1
    follows d Phi/dx1; e2 is Gram-Schmidt orthonormalized against e1 so the
    frame stays exactly orthonormal when the chart is only conformal to
    rounding.  II = pi_n d2 Phi is formed once, for every reader of the
    curvature and of the Gauss map's derivatives.
    """
    lam, defect = conformal
    worst = float(np.max(defect))
    if worst > defect_threshold:
        raise SurfaceError(
            f"conformal defect {worst:.3e} exceeds threshold {defect_threshold:.1e}")
    e1, e2, gram = tangent_frame(field.d1)
    II = np.empty_like(field.d2)
    for v, out in zip(field.d2, II):
        np.subtract(v, dot(v, e1) * e1, out=out)
        out -= dot(v, e2) * e2
    return FrameField(field.grid, lam, e1, e2, II, np.stack(gram))


def tangent_frame(d1: np.ndarray) -> tuple:
    """e1, e2 and ``FrameField.gram`` of d1 = (Phi_x, Phi_y)."""
    p1, p2 = d1
    a = np.sqrt(dot(p1, p1))
    e1 = p1 / a
    c = dot(p2, e1)
    t2 = p2 - c * e1
    b = np.sqrt(dot(t2, t2))
    return e1, t2 / b, (a, c, b)


@dataclass(eq=False)
class BranchData:
    """Branch order theta0, the slope it was read from, the regular part
    u = lam - (theta0 - 1) log r and its value u0 at the puncture."""

    theta0: int
    slope: float
    u: np.ndarray
    u0: float


def normal_projector(frame: FrameField):
    """Returns pi_n acting on (m, n_r, n_theta) vector fields."""
    e1, e2 = frame.e1, frame.e2

    def project(v):
        return v - dot(v, e1) * e1 - dot(v, e2) * e2

    return project


# ---------------------------------------------------------------------------
# catalog charts
# ---------------------------------------------------------------------------

def _params(name: str, params) -> dict:
    """The params of catalog entry ``name``, read as ``CATALOG_PARAMS``."""
    return read_json({} if params is None else params, CATALOG_PARAMS[name],
                     f"the {name} params", lambda msg, key: SurfaceError(msg))


def _vector(v, m: int, key: str, dtype=complex) -> np.ndarray:
    """The m-vector param ``key``, given as ``v``; zero when absent."""
    v = np.zeros(m, dtype) if v is None else np.array(v, dtype)
    if len(v) != m:
        raise SurfaceError(f"{key} must have {m} components, got {len(v)}")
    return v


_ZERO = Jet(0.0)  # pads the charts that live in a lower-dimensional subspace


def _real_sum(terms, m):
    """Components of sum_t Re(v_t J_t) for length-m vectors v_t and jets J_t,
    added one slot at a time into one zeroed (6, m, ...) array (so an exactly
    vanishing sum is +0); the m returned jets have views of it as slots."""
    out = np.zeros((6, m) + np.shape(terms[0][1].f))
    for v, jet in terms:
        v = np.reshape(v, (m,) + (1,) * (out.ndim - 2))
        for s, name in enumerate(Jet.__slots__):
            out[s] += (v * getattr(jet, name)).real
    return [Jet(*out[:, k]) for k in range(m)]


def _direction(p, m):
    """The direction A of z^theta0: given, or scale * (e1 + i e2)."""
    if p["A"] is not None:
        return _vector(p["A"], m, "A")
    scale = p["scale"]
    return np.array([scale, 1j * scale] + [0.0] * (m - 2), dtype=complex)


def _plane(params, m):
    _params("plane", params)

    def chart(x, y):
        return [x, y] + [_ZERO] * (m - 2)
    return chart


def _branched_plane(params, m):
    p = _params("branched_plane", params)
    theta0 = p["theta0"]
    if theta0 < 1:
        raise SurfaceError("theta0 must be a positive integer")
    A = _direction(p, m)
    if abs(A @ A) > 1e-12 * max(1.0, np.sum(np.abs(A) ** 2)):
        raise SurfaceError("branched plane needs an isotropic direction: A.A = 0")

    def chart(x, y):
        return _real_sum([(A, (x + 1j * y) ** theta0)], m)
    return chart


def _sphere_stereographic(params, m):
    R = _params("sphere_stereographic", params)["R"]

    def chart(x, y):
        den = x * x + y * y + 1.0
        return ([2.0 * R * x / den, 2.0 * R * y / den,
                 R * (x * x + y * y - 1.0) / den] + [_ZERO] * (m - 3))
    return chart


def _catenoid_xyz(x, y, scale):
    # conformal catenoid end: z = exp(-(t + i th)), t = -log r, th = -arg z
    r2 = x * x + y * y
    factor = (1.0 + r2) / (2.0 * r2)
    t = -0.5 * jets.log(r2)
    return [scale * (x * factor), scale * (-(y * factor)), scale * t]


def _catenoid_end(params, m):
    scale = _params("catenoid_end", params)["scale"]

    def chart(x, y):
        return _catenoid_xyz(x, y, scale) + [_ZERO] * (m - 3)
    return chart


def _inverted_catenoid(params, m):
    scale = _params("inverted_catenoid", params)["scale"]

    def chart(x, y):
        X = _catenoid_xyz(x, y, scale)
        norm2 = X[0] * X[0] + X[1] * X[1] + X[2] * X[2]
        return [Xi / norm2 for Xi in X] + [_ZERO] * (m - 3)
    return chart


def _cylinder_cmc(params, m):
    rho = _params("cylinder_cmc", params)["radius"]
    if rho <= 0:
        raise SurfaceError("cylinder radius must be positive")

    def chart(x, y):
        return ([rho * jets.cos(y / rho), rho * jets.sin(y / rho), x]
                + [_ZERO] * (m - 3))
    return chart


def _clifford_torus_patch(params, m):
    if m < 4:
        raise SurfaceError("the Clifford torus needs ambient dimension >= 4")
    a = _params("clifford_torus_patch", params)["scale"]
    c = 1.0 / np.sqrt(2.0)

    def chart(x, y):
        return ([c * jets.cos(a * x), c * jets.sin(a * x),
                 c * jets.cos(a * y), c * jets.sin(a * y)] + [_ZERO] * (m - 4))
    return chart


def synthetic_th4_coefficients(params, m):
    """Resolve the planted template data (A, B_j, E_a, gamma0, u0, C's)."""
    p = _params("synthetic_th4", params)
    theta0, a = p["theta0"], p["a"]
    if theta0 < 1 or not 0 <= a <= theta0 - 1:
        raise SurfaceError("need theta0 >= 1 and 0 <= a <= theta0 - 1")
    A = _direction(p, m)
    if abs(A @ A) > 1e-12 * np.sum(np.abs(A) ** 2):
        raise SurfaceError("planted A must be isotropic (A.A = 0)")
    B, nb = [_vector(b, m, "B") for b in p["B"]], theta0 - a
    if len(B) > nb:
        raise SurfaceError(f"at most theta0 - a = {nb} subleading vectors B_j")
    B += [np.zeros(m, dtype=complex) for _ in range(nb - len(B))]
    E_a = _vector(p["E_a"], m, "E_a")
    gamma0 = _vector(p["gamma0"], m, "gamma0", float)
    xi = _vector(p["xi"], m, "xi")
    # the pole and log coefficients live in the normal space at the origin
    for vec, nm in ((E_a.real, "Re E_a"), (E_a.imag, "Im E_a"), (gamma0, "gamma0")):
        for t in (A.real, A.imag):
            if abs(vec @ t) > 1e-10 * max(1.0, np.linalg.norm(vec) * np.linalg.norm(t)):
                raise SurfaceError(f"{nm} must be orthogonal to the tangent plane of A")
    u0 = float(np.log(theta0 * np.linalg.norm(A.real)))
    C_log = np.exp(2 * u0) / (2.0 * theta0 ** 3) * gamma0
    C_pole = np.exp(2 * u0) / (2.0 * theta0 * (theta0 - a)) * E_a
    return {"theta0": theta0, "a": a, "A": A, "B": B, "E_a": E_a,
            "gamma0": gamma0, "u0": u0, "C_log": C_log, "C_pole": C_pole,
            "xi": xi}


def _synthetic_th4(params, m):
    c = synthetic_th4_coefficients(params, m)
    theta0, a = c["theta0"], c["a"]
    # the coefficient of each power of z; all-zero B_j are skipped
    coef = {theta0: c["A"]}
    coef.update((theta0 + j, Bj) for j, Bj in enumerate(c["B"], start=1)
                if np.any(Bj))
    xi = c["xi"] if np.any(c["xi"]) else None
    last = 2 * theta0 - a + 1 if xi is not None else max(coef)

    def chart(x, y):
        z = [None, x + 1j * y]
        while len(z) <= last:  # z**(n + 1) = z**n * z, the order of **
            z.append(z[-1] * z[1])
        terms = [(v, z[n]) for n, v in coef.items()]
        terms.append((c["C_pole"], z[theta0 - a] * z[theta0].conj()))
        if xi is not None:
            # planted remainder at the expansion's decay order 2 theta0 - a + 1
            terms.append((xi, z[last]))
        r2 = x * x + y * y
        logterm = r2 ** theta0 * (0.5 * theta0 * jets.log(r2) - 1.0)
        return _real_sum(terms + [(-c["C_log"], logterm)], m)
    return chart


CATALOG = {
    "plane": _plane,
    "branched_plane": _branched_plane,
    "sphere_stereographic": _sphere_stereographic,
    "catenoid_end": _catenoid_end,
    "inverted_catenoid": _inverted_catenoid,
    "cylinder_cmc": _cylinder_cmc,
    "clifford_torus_patch": _clifford_torus_patch,
    "synthetic_th4": _synthetic_th4,
}

#: the params each catalog entry reads, each with its form and default (an
#: absent direction A is scale * (e1 + i e2), an absent vector zero); any
#: other key is refused
CATALOG_PARAMS = {
    "plane": {},
    "branched_plane": {"theta0": (INTEGER, 2), "A": (COMPLEXES, None),
                       "scale": (REAL, 1.0)},
    "sphere_stereographic": {"R": (REAL, 1.0)},
    "catenoid_end": {"scale": (REAL, 1.0)},
    "inverted_catenoid": {"scale": (REAL, 1.0)},
    "cylinder_cmc": {"radius": (REAL, 0.75)},
    "clifford_torus_patch": {"scale": (REAL, 2.0 * np.pi)},
    "synthetic_th4": {"theta0": (INTEGER, 2), "a": (INTEGER, 0),
                      "A": (COMPLEXES, None), "scale": (REAL, 1.0),
                      "B": (listof(COMPLEXES, "a list of lists of complex "
                                   "numbers"), ()),
                      "E_a": (COMPLEXES, None), "gamma0": (REALS, None),
                      "xi": (COMPLEXES, None)},
}

#: entries whose equation extends across the origin (no branch, no flux there)
REGULAR_ENTRIES = {"plane", "sphere_stereographic", "cylinder_cmc",
                   "clifford_torus_patch"}


def catalog_chart(name: str, params: Optional[dict],
                  ambient_dim: int = 3) -> Callable:
    """The jet chart of catalog entry ``name``; an unknown name, a malformed
    param or one outside the chart's domain is refused here, on no grid."""
    if name not in CATALOG:
        raise SurfaceError(f"unknown catalog surface {name!r}; "
                           f"choices: {sorted(CATALOG)}")
    return CATALOG[name](params, ambient_dim)


def catalog_surface(name: str, params: Optional[dict], grid: PolarGrid,
                    ambient_dim: int = 3) -> ImmersionField:
    return from_chart(catalog_chart(name, params, ambient_dim), grid,
                      ambient_dim)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def write_csv(path, header: list, columns: list) -> None:
    """``csv.writer``'s bytes: float reprs need no quoting; lines end in CRLF."""
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    lines = [",".join(header)] + [",".join(map(repr, row))
                                  for row in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def save_samples_csv(field: ImmersionField, path) -> None:
    g, m = field.grid, field.ambient_dim
    write_csv(path, ["r", "theta"] + [f"phi_{k + 1}" for k in range(m)],
              [np.repeat(g.r, g.n_theta), np.tile(g.theta, g.n_r)]
              + list(field.phi.reshape(m, -1)))


def load_samples_csv(path) -> ImmersionField:
    """Samples read from r, theta, phi_1 .. phi_m rows; a malformed row, a
    non-finite value or a repeated node is refused with its CSV line."""
    rows = []                              # (line, values) per node
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        m = len(next(reader, [])) - 2
        if not MIN_DIM <= m <= MAX_DIM:
            raise SurfaceError(f"CSV has {m + 2} columns: need r, theta and "
                               f"{MIN_DIM} to {MAX_DIM} coordinates")
        for row in reader:
            line = f"CSV line {reader.line_num}"
            if len(row) != m + 2:
                raise SurfaceError(f"{line}: {len(row)} fields, not {m + 2}")
            try:
                row = [float(v) for v in row]
            except ValueError as err:
                raise SurfaceError(f"{line}: {err}") from None
            if not all(map(isfinite, row)):
                what = ("samples" if all(map(isfinite, row[:2]))
                        else "node coordinates")
                raise SurfaceError(f"{line}: {what} must be finite")
            rows.append((reader.line_num, row))
    if not rows:
        raise SurfaceError("CSV has a header but no sample rows")
    data = np.asarray([row for _, row in rows])
    # the sorted distinct radii and angles (np.unique would import numpy.ma)
    r_vals, th_vals = (np.sort(data[:, k]) for k in (0, 1))
    r_vals, th_vals = (v[np.append(True, v[1:] != v[:-1])]
                       for v in (r_vals, th_vals))
    n_r, n_theta = len(r_vals), len(th_vals)
    if n_r * n_theta != len(rows):
        raise SurfaceError("CSV nodes do not form a full polar grid")
    grid = PolarGrid(float(r_vals[0]), float(r_vals[-1]), n_r, n_theta)
    if not (np.allclose(grid.r, r_vals, rtol=1e-9)
            and np.allclose(grid.theta, th_vals, rtol=1e-9, atol=1e-12)):
        raise SurfaceError("CSV nodes are not exponential-polar")
    # as many rows as nodes: with no node repeated, every node is filled
    phi = np.empty((m, n_r, n_theta))
    ri = {float(v): i for i, v in enumerate(r_vals)}
    ti = {float(v): i for i, v in enumerate(th_vals)}
    first = {}                             # node -> the line that gave it
    for line, (r, theta, *sample) in rows:
        i, j = ri[r], ti[theta]
        if first.setdefault((i, j), line) != line:
            raise SurfaceError(f"CSV line {line}: node r = {r!r}, theta = "
                               f"{theta!r} repeats line {first[i, j]}")
        phi[:, i, j] = sample
    return from_samples(grid, phi)

"""Exponential-polar grids on the punctured disk and discrete calculus.

Nodes live at radii geometrically spaced between r_min and r_max (uniform
in s = log r) and uniformly spaced angles on [0, 2pi).  The origin is never
a node.  Angular derivatives are spectral (trigonometric interpolation),
radial derivatives are second-order centered differences in s.  Angular
transforms are real (``rfft``/``irfft`` over the n/2 + 1 non-negative
modes); a complex field is differentiated as its real and imaginary parts.
Cartesian operators are assembled from the polar ones, with the trig
tables ``PolarGrid.cos_t``/``sin_t`` computed once per grid; second
derivatives compose first-derivative passes.  Each operator takes only the
derivatives its result keeps: ``div`` differentiates v_x in x and v_y in y
(never the discarded half of two gradients), and the Wirtinger derivatives
``dz``/``dzbar`` are formed directly from the polar ones as
e^{-+i theta}(d_r -+ (i/r) d_theta)/2.  ``dot`` is the one contraction over
the leading (ambient) axis: bilinear, no conjugation.  ``PolarGrid.band``
is the view of one annulus for stages that report only that annulus, and
``PolarGrid.blocks`` cuts the grid into row blocks of about
``BLOCK_BYTES`` of m-vector field rows, so that a level's one pass over
its samples, frame, curvature, multiplier and equation (``pipeline.level_pass``)
runs on block-sized arrays; a block's halo rows feed its radial stencils and
are not kept.  ``PolarGrid.strips`` splits rows the same way into strips
of ``STRIP_BYTES`` per real plane, on which a chart is evaluated.
``annulus_mask`` always trims 10% of the rows at each rim, so every
annulus norm stays off the one-sided stencils; ``integrate`` reads every
row.  ``jsonable`` is the one converter of arrays and complex numbers to
JSON values, ``json_text`` the one writer of JSON text, and ``read_json``
the one reader of JSON entries, each against its ``Form`` in its reader's
table of keys.

Field arrays are shaped (..., n_r, n_theta): ambient, coefficient and
derivative axes lead, so every (n_r, n_theta) table broadcasts as it is.
"""

from __future__ import annotations

import cmath
import json
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from numbers import Complex, Real

import numpy as np

#: bytes of m-vector field rows in one block of ``PolarGrid.blocks``; a pass
#: keeps tens of block-sized fields alive, more than a core's L2 cache holds
BLOCK_BYTES = 512 * 1024
#: bytes of a real plane in one of ``PolarGrid.strips``, on which a chart is
#: sampled (4096 nodes): each jet temporary is a plane that fits L2 cache
STRIP_BYTES = 32 * 1024


# -- JSON entries ---------------------------------------------------------------

def is_integer(v) -> bool:
    """Whether a JSON value is an integer: no fraction, and not a bool."""
    # an int is never converted: float() overflows past 1e308
    return (not isinstance(v, bool) and isinstance(v, Real)
            and (isinstance(v, int) or float(v).is_integer()))


def _finite(v, kind=Real) -> bool:
    """Whether a JSON value is a finite number of ``kind``, not a bool."""
    try:
        return (not isinstance(v, bool) and isinstance(v, kind)
                and cmath.isfinite(v))
    except OverflowError:  # an int past the float range
        return False


def _is_list(v) -> bool:
    """Whether a value is a JSON list, or from Python a tuple or an array."""
    return (isinstance(v, (list, tuple))
            or (isinstance(v, np.ndarray) and v.ndim > 0))


#: a form of JSON entry: what a refusal calls it, whether a value has it,
#: and the value kept of one that has
Form = namedtuple("Form", "what accepts convert", defaults=[lambda v: v])


def listof(form: Form, what: str) -> Form:
    """The form of a list of values of ``form``, called ``what``."""
    return Form(what, lambda v: _is_list(v) and all(map(form.accepts, v)),
                lambda v: [form.convert(x) for x in v])


INTEGER = Form("an integer", is_integer, int)
REAL = Form("a finite number", _finite, float)
NON_NEGATIVE = Form("a finite non-negative number",
                    lambda v: _finite(v) and v >= 0, float)
BOOL = Form("true or false", lambda v: isinstance(v, bool))
STRING = Form("a string", lambda v: isinstance(v, str))
MAPPING = Form("a mapping", lambda v: isinstance(v, dict))
PAIR = Form("an [re, im] pair of finite numbers",
            lambda v: _is_list(v) and len(v) == 2 and all(map(_finite, v)),
            lambda v: complex(*v))
#: a catalog param's complex number; a complex one, too, from Python
COMPLEX = Form("a finite number or an [re, im] pair of them",
               lambda v: PAIR.accepts(v) or _finite(v, Complex),
               lambda v: complex(*v) if _is_list(v) else complex(v))
INTEGERS = listof(INTEGER, "a list of integers")
REALS = listof(REAL, "a list of finite numbers")
PAIRS = listof(PAIR, "a list of [re, im] pairs")
COMPLEXES = listof(COMPLEX, "a list of [re, im] pairs or finite numbers")
#: the default of a key that an entry must have
REQUIRED = object()


def read_json(doc, table: dict, where: str,
              error=lambda message, key: ValueError(message),
              missing: str = "{where} is missing {keys}") -> dict:
    """The entries of the JSON mapping ``doc`` (called ``where``) by the
    keys of ``table``, each read as its form, or its default when absent.

    In this order, a ``doc`` that is not a mapping, an unknown key, an entry
    not of its form and a missing key (default ``REQUIRED``; the message
    ``missing``, of all the missing ``keys`` or the first, ``key``) raise
    ``error(message, key)``, with the key at fault or None.
    """
    if not isinstance(doc, dict):
        raise error(f"{where} must be a mapping, got {doc!r}", None)
    unknown = sorted(map(str, set(doc) - set(table)))
    if unknown:
        raise error(f"unknown keys {', '.join(unknown)} in {where}; "
                    f"accepted keys: {', '.join(table) or 'none'}", None)
    out = {}
    for key, (form, default) in table.items():
        if key in doc and not form.accepts(doc[key]):
            raise error(f"{where} entry {key!r} is not {form.what}", key)
        out[key] = form.convert(doc[key]) if key in doc else default
    absent = [key for key, v in out.items() if v is REQUIRED]
    if absent:
        raise error(missing.format(where=where, keys=", ".join(absent),
                                   key=absent[0]), absent[0])
    return out


@dataclass(eq=False)
class PolarGrid:
    """The defaults are the grid a config without ``grid`` runs on."""

    r_min: float = 1e-3
    r_max: float = 1.0
    n_r: int = 96
    n_theta: int = 64

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max <= 1.0:
            raise ValueError("need 0 < r_min < r_max <= 1")
        if self.n_r < 16:
            raise ValueError("n_r must be at least 16")
        if self.n_theta < 32 or self.n_theta % 2:
            raise ValueError("n_theta must be even and at least 32")

    @cached_property
    def s(self) -> np.ndarray:
        return np.linspace(np.log(self.r_min), np.log(self.r_max), self.n_r)

    @cached_property
    def r(self) -> np.ndarray:
        return np.exp(self.s)

    @cached_property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * (2.0 * np.pi / self.n_theta)

    @property
    def ds(self) -> float:
        return (np.log(self.r_max) - np.log(self.r_min)) / (self.n_r - 1)

    @cached_property
    def rr(self) -> np.ndarray:
        """Radius per node, shape (n_r, n_theta)."""
        return np.broadcast_to(self.r[:, None], (self.n_r, self.n_theta))

    @cached_property
    def tt(self) -> np.ndarray:
        return np.broadcast_to(self.theta[None, :], (self.n_r, self.n_theta))

    @cached_property
    def cos_t(self) -> np.ndarray:
        """cos(theta) per node, shape (n_r, n_theta); one row in memory."""
        return np.broadcast_to(np.cos(self.theta)[None, :], self.tt.shape)

    @cached_property
    def sin_t(self) -> np.ndarray:
        """sin(theta) per node, shape (n_r, n_theta); one row in memory."""
        return np.broadcast_to(np.sin(self.theta)[None, :], self.tt.shape)

    @cached_property
    def x(self) -> np.ndarray:
        return self.rr * self.cos_t

    @cached_property
    def y(self) -> np.ndarray:
        return self.rr * self.sin_t

    @cached_property
    def z(self) -> np.ndarray:
        return self.x + 1j * self.y

    def refined(self) -> "PolarGrid":
        """The next refinement level: radial and angular steps halved."""
        return PolarGrid(self.r_min, self.r_max,
                         (self.n_r - 1) * 2 + 1, self.n_theta * 2)

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in GRID_KEYS}

    @staticmethod
    def from_json(doc) -> "PolarGrid":
        return PolarGrid(**read_json(doc, GRID_KEYS, "the grid"))

    def band(self, r_lo=None, r_hi=None) -> "RowBand":
        """The rows of ``annulus_mask(self, r_lo, r_hi)`` (contiguous) plus
        one halo row on each side (at least four rows, for the one-sided
        second difference); the trimmed rims keep the band inside the grid."""
        rows = np.flatnonzero(annulus_mask(self, r_lo, r_hi))
        if rows.size == 0:
            raise ValueError(f"no grid circle in the annulus [{r_lo}, {r_hi}]")
        lo = int(rows[0]) - 1
        return RowBand(self, lo, max(int(rows[-1]) + 2, lo + 4),
                       slice(1, rows.size + 1))

    def blocks(self, m: int, halo: int):
        """RowBands that cover the rows in order, each of equal share of at
        most max(4, BLOCK_BYTES // row bytes) own rows of an m-vector
        field, plus up to ``halo`` rows on each side inside the grid.

        ``keep`` is the slice of a band's own rows, ``RowBand.kept`` their
        rows in the grid; the halo rows are computed but not kept.  With
        ``halo`` at least the depth of a pass's chained radial stencils,
        every kept row equals the whole grid's value bit for bit (a block
        keeps at least 3 rows, which the one-sided stencils at the grid's
        ends read).  A grid that fits is one band over all its rows.
        """
        for a, b in self._runs(max(4, BLOCK_BYTES // (m * self.n_theta * 8))):
            lo, hi = max(a - halo, 0), min(b + halo, self.n_r)
            yield RowBand(self, lo, hi, slice(a - lo, b - lo))

    def strips(self) -> list:
        """The row slices of ``_runs`` of a real plane's ``STRIP_BYTES``."""
        return [slice(*r) for r in self._runs(max(1, STRIP_BYTES // (self.n_theta * 8)))]

    def _runs(self, most: int):
        """(start, stop) of the fewest equal runs of at most ``most`` rows."""
        n = -(-self.n_r // most)
        edges = [k * self.n_r // n for k in range(n + 1)]
        return zip(edges, edges[1:])


#: the keys of a grid entry, read by ``PolarGrid.from_json``
GRID_KEYS = {"r_min": (REAL, REQUIRED), "r_max": (REAL, PolarGrid.r_max),
             "n_r": (INTEGER, REQUIRED), "n_theta": (INTEGER, REQUIRED)}


class RowBand(PolarGrid):
    """Rows lo..hi-1 of a parent grid, for stages that keep only an annulus.

    Its s, r, rr, cos_t and sin_t (the tables the operators read) are slices
    of the parent's and its ds is the parent's, so every operator gives the
    parent's values bit for bit on each row whose radial stencil stays inside
    the band; a fresh PolarGrid over the same radii differs in the last bit.
    ``keep`` is the slice of the annulus rows (or a block's own rows) within
    the band; the band's end rows are read by the stencils but never kept.
    """

    def __init__(self, parent: PolarGrid, lo: int, hi: int, keep: slice):
        self.parent, self.rows, self.keep = parent, slice(lo, hi), keep
        self.r_min, self.r_max = float(parent.r[lo]), float(parent.r[hi - 1])
        self.n_r, self.n_theta = hi - lo, parent.n_theta
        for name in ("s", "r", "rr", "cos_t", "sin_t"):
            self.__dict__[name] = getattr(parent, name)[self.rows]

    @property
    def ds(self) -> float:
        return self.parent.ds

    @property
    def kept(self) -> slice:
        """The parent's rows of ``keep``."""
        lo = self.rows.start
        return slice(lo + self.keep.start, lo + self.keep.stop)

    def norms(self, f: np.ndarray) -> dict:
        """Max and rms of |f| over the band's annulus rows."""
        return _norms(np.asarray(f)[..., self.keep, :])


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contraction over axis 0, sum_i a_i b_i (no conjugation)."""
    return np.einsum("i...,i...->...", a, b)


def dtheta(grid: PolarGrid, f: np.ndarray) -> np.ndarray:
    """Spectral d/dtheta along axis -1."""
    if np.iscomplexobj(f):
        return dtheta(grid, f.real) + 1j * dtheta(grid, f.imag)
    n = grid.n_theta
    k = np.arange(n // 2 + 1, dtype=float)
    k[n // 2] = 0.0  # drop the unpaired Nyquist mode for odd derivatives
    fh = np.fft.rfft(f, axis=-1)
    fh *= 1j * k
    return np.fft.irfft(fh, n, axis=-1)


def ds(grid: PolarGrid, f: np.ndarray) -> np.ndarray:
    """Second-order d/ds (s = log r) along axis -2, one-sided at the ends."""
    h = grid.ds
    f = np.moveaxis(f, -2, 0)  # a view: the rows are whole planes
    out = np.empty_like(f, dtype=np.result_type(f, float))
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2 * h
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return np.moveaxis(out, 0, -2)


def dss(grid: PolarGrid, f: np.ndarray) -> np.ndarray:
    """Second-order d2/ds2 along axis -2."""
    h2 = grid.ds ** 2
    f = np.moveaxis(f, -2, 0)
    out = np.empty_like(f, dtype=np.result_type(f, float))
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    return np.moveaxis(out, 0, -2)


def dr(grid: PolarGrid, f: np.ndarray) -> np.ndarray:
    return ds(grid, f) / grid.rr


def grad(grid: PolarGrid, f: np.ndarray):
    """Cartesian gradient (d/dx1, d/dx2) of a node field."""
    fr = dr(grid, f)
    ft_over_r = dtheta(grid, f) / grid.rr
    c, s = grid.cos_t, grid.sin_t
    return c * fr - s * ft_over_r, s * fr + c * ft_over_r


def div(grid: PolarGrid, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """d vx/dx1 + d vy/dx2; equal to grad(vx)[0] + grad(vy)[1] bit for bit.

    The x-term is finished before vy is differentiated, so only one pair of
    polar derivatives is alive at a time.
    """
    c, s, rr = grid.cos_t, grid.sin_t, grid.rr
    out = c * dr(grid, vx) - s * (dtheta(grid, vx) / rr)
    return out + (s * dr(grid, vy) + c * (dtheta(grid, vy) / rr))


def laplacian(grid: PolarGrid, f: np.ndarray) -> np.ndarray:
    """Polar-exponential Laplacian e^{-2s} (f_ss + f_thth)."""
    ftt = dtheta(grid, dtheta(grid, f))
    return (dss(grid, f) + ftt) / grid.rr ** 2


def _wirtinger(grid: PolarGrid, f: np.ndarray, sign: int) -> np.ndarray:
    """(d/dx1 + sign i d/dx2)/2, formed from the polar derivatives as
    e^{sign i theta} (d_r + sign (i/r) d_theta) / 2."""
    out = dtheta(grid, f).astype(complex, copy=False)
    out *= sign * 1j
    out /= grid.rr
    out += dr(grid, f)
    out *= 0.5 * (grid.cos_t[:1] + (sign * 1j) * grid.sin_t[:1])
    return out


def dz(grid: PolarGrid, f: np.ndarray) -> np.ndarray:
    """Wirtinger derivative (d/dx1 - i d/dx2)/2."""
    return _wirtinger(grid, f, -1)


def dzbar(grid: PolarGrid, f: np.ndarray) -> np.ndarray:
    return _wirtinger(grid, f, +1)


# -- circle and annulus reductions -------------------------------------------

def circle_mean(f: np.ndarray) -> np.ndarray:
    """Average over the angular axis; exact on trigonometric polynomials."""
    return np.mean(f, axis=-1)


def circulation(grid: PolarGrid, vx: np.ndarray, vy: np.ndarray,
                rows=slice(None)) -> np.ndarray:
    """Outward flux integral of (vx, vy) through the grid circles ``rows``
    (every circle by default), shape (..., n_rows)."""
    nu_dot = (grid.cos_t[rows] * vx[..., rows, :]
              + grid.sin_t[rows] * vy[..., rows, :])
    return 2.0 * np.pi * grid.r[rows] * circle_mean(nu_dot)


def annulus_mask(grid: PolarGrid, r_lo=None, r_hi=None) -> np.ndarray:
    """Radial index mask of [r_lo, r_hi] (the whole grid by default), less
    10% of the rows (at least two) at each rim."""
    lo = grid.r_min if r_lo is None else r_lo
    hi = grid.r_max if r_hi is None else r_hi
    mask = (grid.r >= lo) & (grid.r <= hi)
    k = max(2, int(round(0.1 * grid.n_r)))
    mask[:k] = False
    mask[-k:] = False
    return mask


def annulus_norms(grid: PolarGrid, f: np.ndarray, r_lo=None, r_hi=None) -> dict:
    """Max and rms of |f| over ``annulus_mask``'s rows; leading axes pooled."""
    return _norms(np.asarray(f)[..., annulus_mask(grid, r_lo, r_hi), :])


def _norms(rows: np.ndarray) -> dict:
    vals = np.abs(rows)
    if vals.ndim > 2:
        vals = np.sqrt(np.sum(vals ** 2, axis=tuple(range(vals.ndim - 2))))
    return {"max": float(np.max(vals)), "rms": float(np.sqrt(np.mean(vals ** 2)))}


def integrate(grid: PolarGrid, f: np.ndarray) -> float:
    """Integral of a scalar node field over the whole grid annulus,
    dx = r^2 ds dtheta, reading every row.

    Periodic trapezoid in theta; endpoint-corrected trapezoid in s
    (fourth order for smooth radial profiles).
    """
    s = grid.s
    ring = circle_mean(f) * 2.0 * np.pi * np.exp(2.0 * s)
    total = float(np.trapezoid(ring, s))
    h = s[1] - s[0]
    w = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
    d_lo = float(w @ ring[:5])
    d_hi = float(-w @ ring[-1:-6:-1])
    return total - h * h / 12.0 * (d_hi - d_lo)


def fit_order(hs, errs) -> float:
    """Least-squares slope of log err against log h."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    if keep.sum() < 2:
        return np.inf
    return float(np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0])


def jsonable(v):
    """``v`` with arrays, numpy scalars and complex numbers made JSON-ready.

    Complex values become ``[re, im]`` pairs; containers are converted
    recursively, and anything else is returned as it is.
    """
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return jsonable(v.tolist()) if np.iscomplexobj(v) else v.tolist()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    return v


def json_text(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=1)`` byte for byte, but a list of floats is
    one join of ``float.__repr__``, not json's pure-Python indent encoder."""
    inner = indent + " "
    if isinstance(doc, (list, tuple)) and doc:
        if all(type(x) is float for x in doc):
            body = ("," + inner).join(map(float.__repr__, doc))
            body = body.replace("nan", "NaN").replace("inf", "Infinity")
        else:
            body = ("," + inner).join(json_text(x, inner) for x in doc)
        return f"[{inner}{body}{indent}]"
    if isinstance(doc, dict) and doc:
        return "{" + inner + ("," + inner).join(
            json_text(k if isinstance(k, str) else json.dumps(k)) + ": "
            + json_text(v, inner) for k, v in doc.items()) + indent + "}"
    if isinstance(doc, str):
        return json.encoder.encode_basestring_ascii(doc)
    return json.dumps(doc)

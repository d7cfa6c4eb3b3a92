"""The anti-holomorphic multiplier f, its matrix form, and derived fields.

f(zbar) = a_mu zbar^mu + f0(zbar) with integer mu >= -1, nonzero a_mu and a
polynomial tail f0 whose coefficients start at degree mu + 1 (so mu is the
exact leading order).  mu = -1 is the singular monomial a_{-1} / zbar.

The associated 2x2 matrix field is

    M_f = [[-Im f, Re f],
           [ Re f, Im f]],

symmetric and trace free by construction.  Degenerate branch data feed the
template field F_mu and the correction J satisfying
e^{-2 lam} f dz(Phi) = dzbar(F_mu) + J.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from willmore.grid import (BOOL, INTEGER, PAIR, PAIRS, REQUIRED, PolarGrid,
                           annulus_mask, annulus_norms, dz, jsonable,
                           read_json)
from willmore.surface import BranchData, FrameField, ImmersionField


class MultiplierError(ValueError):
    pass


@dataclass(frozen=True)
class MultiplierSpec:
    mu: int = 0
    a_mu: complex = 0.0
    f0: tuple = ()          # complex coefficients of zbar^0, zbar^1, ...
    zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a_mu", complex(self.a_mu))
        object.__setattr__(self, "f0", tuple(complex(c) for c in self.f0))
        if self.zero:
            return
        if self.mu < -1:
            raise MultiplierError("multiplier order mu must be >= -1 "
                                  "(local integrability)")
        if self.a_mu == 0:
            raise MultiplierError("a_mu must be nonzero unless the multiplier "
                                  "is flagged zero")
        for d, c in enumerate(self.f0):
            if d <= self.mu and c != 0:
                raise MultiplierError(
                    f"f0 coefficient of zbar^{d} must vanish: mu = {self.mu} "
                    "is the leading order")

    @staticmethod
    def zero_spec() -> "MultiplierSpec":
        return MultiplierSpec(zero=True)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        if self.zero:
            return np.zeros_like(np.asarray(z), dtype=complex)
        zb = np.conj(z)
        out = self.a_mu * zb ** self.mu if self.mu != 0 else \
            self.a_mu * np.ones_like(zb)
        for d, c in enumerate(self.f0):
            if c != 0:
                out = out + c * zb ** d
        return out

    # -- JSON wire format ----------------------------------------------------

    def to_json(self) -> dict:
        return jsonable({f.name: getattr(self, f.name) for f in fields(self)})

    @staticmethod
    def from_json(doc) -> "MultiplierSpec":
        """The spec ``to_json`` wrote as ``doc``; a missing, unknown or
        malformed entry raises MultiplierError naming its key, and so does
        a zero spec with an order or a coefficient."""
        table = SPEC_KEYS
        if isinstance(doc, dict) and doc.get("zero") is True:
            table = {**SPEC_KEYS, "mu": (INTEGER, 0), "a_mu": (PAIR, 0j)}
        e = read_json(doc, table, "the multiplier spec",
                      lambda msg, key: MultiplierError(msg))
        if not e["zero"]:
            return MultiplierSpec(e["mu"], e["a_mu"], tuple(e["f0"]))
        for key in ("mu", "a_mu", "f0"):
            if np.any(e[key]):
                raise MultiplierError(f"a zero spec cannot set {key!r}, got "
                                      f"{doc[key]!r}")
        return MultiplierSpec.zero_spec()


#: the keys of a spec: ``mu`` and ``a_mu`` are required, unless ``zero``
#: is true, where they default to the zero spec's
SPEC_KEYS = {"mu": (INTEGER, REQUIRED), "a_mu": (PAIR, REQUIRED),
             "f0": (PAIRS, ()), "zero": (BOOL, False)}


def matrix_field(f: np.ndarray) -> np.ndarray:
    """Per-node M_f, shape (2, 2, ...); symmetric trace-free by construction."""
    re, im = f.real, f.imag
    return np.array([[-im, re], [re, im]])


@dataclass(eq=False)
class SpecialFields:
    """F_mu, J and the annulus max of J's gap to its series form."""

    F_mu: np.ndarray        # (m, n_r, n_theta) complex
    J: np.ndarray
    mismatch: float


def special_fields(spec: MultiplierSpec, branch: BranchData, A: np.ndarray,
                   field: ImmersionField, lam: np.ndarray) -> SpecialFields:
    """F_mu and J with e^{-2 lam} f dz(Phi) = dzbar(F_mu) + J.

    J is evaluated two ways: as the defining difference, and through the
    centered branch representation
    a_mu zbar^{mu+1-theta0} [z^{1-theta0} e^{-2u} dz(Phi) - (theta0/2) e^{-2 u0} A]
    plus the smooth tail contribution e^{-2 lam} f0 dz(Phi), with theta0, u
    and u0 from ``branch``.  The reported mismatch is the annulus max of
    their difference.  A zero spec gives zero fields.
    """
    grid = field.grid
    z = grid.z
    theta0, u0 = branch.theta0, branch.u0
    A = np.asarray(A, dtype=complex)[:, None, None]
    dz_phi = 0.5 * (field.d1[0] - 1j * field.d1[1])
    e2lam = np.exp(2.0 * lam)

    mu = spec.mu
    head = 0.5 * theta0 * np.exp(-2.0 * u0) * spec.a_mu * A
    if mu == theta0 - 2:
        F_mu = head * 2.0 * np.log(np.abs(z))
    else:
        F_mu = head * np.conj(z) ** (mu + 2 - theta0) / (mu + 2 - theta0)
    dzbar_F = head * np.conj(z) ** (mu + 1 - theta0)

    f = spec.evaluate(z)
    lhs = e2lam ** (-1) * f * dz_phi
    J = lhs - dzbar_F

    bracket = (z ** (1 - theta0) * np.exp(-2.0 * branch.u) * dz_phi
               - 0.5 * theta0 * np.exp(-2.0 * u0) * A)
    J_series = spec.a_mu * np.conj(z) ** (mu + 1 - theta0) * bracket
    if spec.f0:
        tail = np.zeros_like(f)
        for d, c in enumerate(spec.f0):
            if c != 0:
                tail = tail + c * np.conj(z) ** d
        J_series = J_series + e2lam ** (-1) * tail * dz_phi

    mismatch = annulus_norms(grid, J - J_series)["max"]
    return SpecialFields(F_mu, J, mismatch)


def pmc_multiplier(curv, frame: FrameField, sign: int = +1) -> dict:
    """Multiplier induced by parallel mean curvature, f = sign 2 e^{2 lam} H.H0*.

    Returns the sampled field on the rows of ``curv`` (``f_pmc``) and the
    per-circle maxima of |f_pmc| (``abs_max``) and of its discrete
    |dz f_pmc| (``dz_max``), from which ``antiholomorphy_defect`` reads the
    defect of a level that ran in row blocks.  The sign convention is
    configurable; +1 balances the strong-form equation when pi_n grad H = 0,
    which ``residual.equation`` measures as its parallelism defect.
    """
    f_pmc = sign * 2.0 * frame.e2l * curv.hdot
    return {"f_pmc": f_pmc, "abs_max": np.max(np.abs(f_pmc), axis=-1),
            "dz_max": np.max(np.abs(dz(curv.grid, f_pmc)), axis=-1)}


def antiholomorphy_defect(grid: PolarGrid, pmc: dict) -> float:
    """The annulus max of |dz f_pmc| relative to the grid's max |f_pmc|,
    from the per-circle maxima of ``pmc_multiplier``."""
    scale = max(float(np.max(pmc["abs_max"])), 1e-30)
    return float(np.max(pmc["dz_max"][annulus_mask(grid)])) / scale

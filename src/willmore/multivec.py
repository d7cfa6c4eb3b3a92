"""Exterior algebra over R^m for small ambient dimension (3 <= m <= 8).

A grade-k multivector is stored as one coefficient per strictly increasing
k-subset of {1..m}, with subsets ordered lexicographically.  Coefficient
arrays are coefficient-major, (C(m, k), ...): the trailing axes may be the
(n_r, n_theta) grid, so a ``MultiVec`` doubles as a field of multivectors
sampled on a grid, and all operations broadcast over them.  With integer
coefficient arrays every operation is exact, since the structure constants
are the integers +-1.

The bilinear products run over a table of (left, right, out, sign) terms.
Each coefficient is a contiguous plane, so every term multiplies and
accumulates whole planes in place, with no copy of either operand.  Terms
are summed in table order.

Operations: wedge product and the first-order contraction ``bullet``,
defined inductively from the interior product
<gamma . beta, alpha> = <gamma, beta ^ alpha>.  The inner product is
bilinear (no complex conjugation).  Linear operations (sums, scaling,
negation, norms) act on ``coeffs`` directly.  Only ``potentials`` uses
these operators; the Hodge star and the interior product are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from willmore.grid import dot

MAX_DIM = 8
MIN_DIM = 3


class AlgebraError(ValueError):
    """Invalid dimension or grade combination."""


@lru_cache(maxsize=None)
def _masks(m: int, k: int) -> tuple[int, ...]:
    # bitmask per sorted k-subset of {1..m}; bit (i-1) set means index i present
    return tuple(sum(1 << (i - 1) for i in combo)
                 for combo in combinations(range(1, m + 1), k))


@lru_cache(maxsize=None)
def _positions(m: int, k: int) -> dict[int, int]:
    return {mask: pos for pos, mask in enumerate(_masks(m, k))}


def _wedge_sign(mask_a: int, mask_b: int) -> int:
    # parity of moving every index of b past the larger indices of a
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        above = mask_a & ~(2 * low - 1)
        if bin(above).count("1") % 2:
            sign = -sign
        b ^= low
    return sign


@lru_cache(maxsize=None)
def _wedge_table(m: int, p: int, q: int):
    out_pos = _positions(m, p + q)
    table = []
    for ia, ma in enumerate(_masks(m, p)):
        for ib, mb in enumerate(_masks(m, q)):
            if ma & mb:
                continue
            table.append((ia, ib, out_pos[ma | mb], _wedge_sign(ma, mb)))
    return tuple(table)


@lru_cache(maxsize=None)
def _bullet_basis(m: int, mask_a: int, grade_a: int, mask_b: int, grade_b: int):
    """Expansion of e_A bullet e_B as {result_mask: coefficient}."""
    if grade_b == 1:
        if grade_a < 1:
            raise AlgebraError("bullet base case needs a grade >= 1 left slot")
        if mask_b & ~mask_a:
            return {}
        rest = mask_a ^ mask_b
        return {rest: _wedge_sign(mask_b, rest)}
    if grade_b < 1:
        raise AlgebraError("bullet right slot must have grade >= 1")
    # split e_B = e_b1 ^ e_rest with b1 the lowest index (no extra sign)
    b1 = mask_b & -mask_b
    rest = mask_b ^ b1
    qr = grade_b - 1
    out: dict[int, int] = {}
    # (a bullet e_b1) ^ e_rest
    for mask, coef in _bullet_basis(m, mask_a, grade_a, b1, 1).items():
        if mask & rest:
            continue
        key = mask | rest
        out[key] = out.get(key, 0) + coef * _wedge_sign(mask, rest)
    # (-1)^{1*qr} (a bullet e_rest) ^ e_b1
    flip = -1 if qr % 2 else 1
    for mask, coef in _bullet_basis(m, mask_a, grade_a, rest, qr).items():
        if mask & b1:
            continue
        key = mask | b1
        out[key] = out.get(key, 0) + flip * coef * _wedge_sign(mask, b1)
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def _bullet_table(m: int, p: int, q: int):
    if q < 1 or p + q - 2 < 0 or p + q - 2 > m:
        raise AlgebraError(f"bullet undefined for grades ({p}, {q}) in dim {m}")
    out_pos = _positions(m, p + q - 2)
    table = []
    for ia, ma in enumerate(_masks(m, p)):
        for ib, mb in enumerate(_masks(m, q)):
            for mask, coef in _bullet_basis(m, ma, p, mb, q).items():
                table.append((ia, ib, out_pos[mask], coef))
    return tuple(table)


def _apply_bilinear(table, a: np.ndarray, b: np.ndarray, dim_out: int) -> np.ndarray:
    # coefficient-major: each term reads and writes whole contiguous planes
    trail = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((dim_out,) + trail, dtype=np.result_type(a, b))
    for ia, ib, io, s in table:
        if s == 1:  # every table holds signs only
            out[io] += a[ia] * b[ib]
        else:
            out[io] -= a[ia] * b[ib]
    return out


@dataclass(frozen=True)
class MultiVec:
    """Grade-k element (or field of elements) of Lambda^k R^m."""

    ambient_dim: int
    grade: int
    coeffs: np.ndarray  # shape (comb(m, k), ...)

    def __post_init__(self):
        m, k = self.ambient_dim, self.grade
        if not MIN_DIM <= m <= MAX_DIM:
            raise AlgebraError(f"ambient dimension {m} outside [{MIN_DIM}, {MAX_DIM}]")
        if not 0 <= k <= m:
            raise AlgebraError(f"grade {k} outside [0, {m}]")
        c = np.asarray(self.coeffs)
        if c.shape[:1] != (comb(m, k),):
            raise AlgebraError(
                f"expected {comb(m, k)} coefficients for grade {k} in R^{m}, "
                f"got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def vector(m: int, components: np.ndarray) -> "MultiVec":
        components = np.asarray(components)
        if components.shape[:1] != (m,):
            raise AlgebraError(f"vector needs {m} components")
        return MultiVec(m, 1, components)

    def _like(self, other: "MultiVec"):
        if self.ambient_dim != other.ambient_dim:
            raise AlgebraError("ambient dimension mismatch")


def wedge(a: MultiVec, b: MultiVec) -> MultiVec:
    """Wedge product; bilinear, associative, graded-anticommutative."""
    a._like(b)
    m = a.ambient_dim
    if a.grade + b.grade > m:
        raise AlgebraError(f"grade overflow: {a.grade} + {b.grade} > {m}")
    table = _wedge_table(m, a.grade, b.grade)
    k = a.grade + b.grade
    return MultiVec(m, k, _apply_bilinear(table, a.coeffs, b.coeffs, comb(m, k)))


def bullet(alpha: MultiVec, beta: MultiVec) -> MultiVec:
    """First-order contraction.

    Equals the interior product when beta is a 1-vector, and satisfies
    alpha . (beta ^ gamma) = (alpha . beta) ^ gamma + (-1)^{pq} (alpha . gamma) ^ beta.
    Result grade is grade(alpha) + grade(beta) - 2.
    """
    alpha._like(beta)
    m = alpha.ambient_dim
    table = _bullet_table(m, alpha.grade, beta.grade)
    k = alpha.grade + beta.grade - 2
    return MultiVec(m, k, _apply_bilinear(table, alpha.coeffs, beta.coeffs, comb(m, k)))


def inner(a: MultiVec, b: MultiVec) -> np.ndarray:
    """Bilinear inner product of equal-grade multivectors (orthonormal basis)."""
    a._like(b)
    if a.grade != b.grade:
        raise AlgebraError("inner product needs equal grades")
    return dot(a.coeffs, b.coeffs)

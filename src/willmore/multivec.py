"""Vectors and bivectors over R^m (3 <= m <= 8), the exterior algebra of the
conservation-law system: S is a scalar, R is bivector-valued, star n = e1 ^ e2.

A vector is stored as its m components, a bivector as one coefficient per
pair i < j of {0 .. m-1} in lexicographic order: arrays are coefficient-major,
(m, ...) or (C(m, 2), ...), and the products broadcast over the trailing
axes.  Each product names its grades, as at m = 3 both have three
coefficients.  Each runs over a table of (left, right, out, sign) terms, with
the first-order contraction (e_a ^ e_b) . e_c = d_ac e_b - d_bc e_a and
alpha . (e_c ^ e_d) = (alpha . e_c) ^ e_d - (alpha . e_d) ^ e_c; every term
accumulates whole contiguous planes in place, in the order of the
grade-general reference algebra of ``tests/oracles.py``.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

MAX_DIM = 8
MIN_DIM = 3

#: ambient dimension from the number of bivector coefficients
_DIM = {comb(m, 2): m for m in range(MIN_DIM, MAX_DIM + 1)}


@lru_cache(maxsize=None)
def _pairs(m: int) -> dict:
    return {pair: p for p, pair in enumerate(combinations(range(m), 2))}


def _wedge_term(m: int, i: int, j: int, sign: int = 1) -> tuple:
    # sign e_i ^ e_j = +-e_{min, max} as (position, +-sign), i != j
    return (_pairs(m)[i, j], sign) if i < j else (_pairs(m)[j, i], -sign)


@lru_cache(maxsize=None)
def _wedge_terms(m: int) -> tuple:
    return tuple((i, j) + _wedge_term(m, i, j)
                 for i in range(m) for j in range(m) if i != j)


@lru_cache(maxsize=None)
def _bullet_21_terms(m: int) -> tuple:
    return tuple(t for (a, b), p in _pairs(m).items()
                 for t in ((p, a, b, 1), (p, b, a, -1)))


@lru_cache(maxsize=None)
def _bullet_22_terms(m: int) -> tuple:
    # d_ac e_b ^ e_d - d_bc e_a ^ e_d - d_ad e_b ^ e_c + d_bd e_a ^ e_c:
    # one term survives when the pairs share exactly one index
    return tuple((p, q) + _wedge_term(m, x, y, s)
                 for (a, b), p in _pairs(m).items()
                 for (c, d), q in _pairs(m).items()
                 for s, x, y, hit in ((1, b, d, a == c), (-1, a, d, b == c),
                                      (-1, b, c, a == d), (1, a, c, b == d))
                 if hit and x != y)


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


def wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vector ^ vector: the bivector u ^ v."""
    return _apply_bilinear(_wedge_terms(len(u)), u, v, comb(len(u), 2))


def bullet_21(alpha: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector . vector: the interior product, a vector."""
    return _apply_bilinear(_bullet_21_terms(len(v)), alpha, v, len(v))


def bullet_22(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Bivector . bivector: the first-order contraction, a bivector."""
    n = len(beta)
    return _apply_bilinear(_bullet_22_terms(_DIM[n]), alpha, beta, n)

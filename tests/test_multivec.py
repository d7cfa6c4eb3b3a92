"""Exterior-algebra unit tests.

Integer coefficient arrays keep every check exact; float checks use 1e-12.
The interior product is validated against its defining duality pairing by
exhaustive enumeration of basis elements for m <= 5, and the bullet
contraction against an independent right-to-left evaluation order.
"""

import numpy as np
import pytest
from math import comb
from itertools import combinations

from willmore.multivec import (
    AlgebraError, MultiVec, bullet, inner, wedge,
    _apply_bilinear, _bullet_table, _masks, _positions, _wedge_sign,
    _wedge_table,
)

# the Hodge star and the interior product are reference operators of the
# tests; their own tests stay here, beside the algebra they check
from oracles import _interior_table, hodge_star, interior

RNG = np.random.default_rng(20240811)


def rand_mv(m, k, lead=(), integer=False):
    if integer:
        c = RNG.integers(-9, 10, size=(comb(m, k),) + lead)
    else:
        c = RNG.standard_normal((comb(m, k),) + lead)
    return MultiVec(m, k, c)


def add(a, b):
    """a + b of equal grade, on the coefficients."""
    return MultiVec(a.ambient_dim, a.grade, a.coeffs + b.coeffs)


def e(m, *idx):
    """Basis element e_{i1} ^ ... ^ e_{ik}, indices strictly increasing."""
    c = np.zeros(comb(m, len(idx)), dtype=int)
    c[_positions(m, len(idx))[sum(1 << (i - 1) for i in idx)]] = 1
    return MultiVec(m, len(idx), c)


# -- wedge ------------------------------------------------------------------

def test_wedge_basis_case():
    v = wedge(e(3, 1), e(3, 2))
    assert np.array_equal(v.coeffs, e(3, 1, 2).coeffs)


def test_wedge_antisymmetry_of_vectors():
    for m in range(3, 9):
        v = rand_mv(m, 1, integer=True)
        assert not np.any(wedge(v, v).coeffs)


def test_wedge_hand_expansion():
    # (e1 + e2) ^ (e1 - e2) = -2 e12
    m = 4
    a = add(e(m, 1), e(m, 2))
    b = MultiVec(m, 1, e(m, 1).coeffs - e(m, 2).coeffs)
    expect = -2 * e(m, 1, 2).coeffs
    assert np.array_equal(wedge(a, b).coeffs, expect)


@pytest.mark.parametrize("m", range(3, 9))
def test_wedge_associative_exact(m):
    for _ in range(10):
        p, q, s = RNG.integers(0, m + 1, size=3)
        if p + q + s > m:
            continue
        a, b, c = rand_mv(m, p, integer=True), rand_mv(m, q, integer=True), rand_mv(m, s, integer=True)
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        assert np.array_equal(left.coeffs, right.coeffs)


@pytest.mark.parametrize("m", range(3, 9))
def test_wedge_graded_anticommutative(m):
    for _ in range(10):
        p = int(RNG.integers(0, m + 1))
        q = int(RNG.integers(0, m - p + 1))
        a, b = rand_mv(m, p, integer=True), rand_mv(m, q, integer=True)
        sign = (-1) ** (p * q)
        assert np.array_equal(wedge(a, b).coeffs, sign * wedge(b, a).coeffs)


def test_wedge_grade_overflow_raises():
    with pytest.raises(AlgebraError):
        wedge(rand_mv(3, 2), rand_mv(3, 2))


def test_dimension_mismatch_raises():
    with pytest.raises(AlgebraError):
        wedge(rand_mv(3, 1), rand_mv(4, 1))


# -- hodge star ---------------------------------------------------------------

def test_star_orientation_m3():
    assert np.array_equal(hodge_star(e(3, 1, 2)).coeffs, e(3, 3).coeffs)


def test_star_frame_identities_m3():
    # tangent frame e1, e2, normal n = e3: star(n ^ e1) = e2, star(n ^ e2) = -e1
    n = e(3, 3)
    assert np.array_equal(hodge_star(wedge(n, e(3, 1))).coeffs, e(3, 2).coeffs)
    assert np.array_equal(hodge_star(wedge(n, e(3, 2))).coeffs, -e(3, 1).coeffs)


def _random_orthonormal_frame(m):
    q, _ = np.linalg.qr(RNG.standard_normal((m, m)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return [MultiVec.vector(m, q[:, j]) for j in range(m)]


@pytest.mark.parametrize("m", range(3, 9))
def test_star_frame_identities_general_frame(m):
    # positively oriented orthonormal frame {e1, e2, n1..n_{m-2}},
    # n = n1 ^ ... ^ n_{m-2}: star(n ^ e1) = e2, star(n ^ e2) = -e1,
    # star(e1 ^ e2) = n
    frame = _random_orthonormal_frame(m)
    e1, e2 = frame[0], frame[1]
    n = frame[2]
    for v in frame[3:]:
        n = wedge(n, v)
    assert np.allclose(hodge_star(wedge(n, e1)).coeffs, e2.coeffs, atol=1e-12)
    assert np.allclose(hodge_star(wedge(n, e2)).coeffs, -e1.coeffs, atol=1e-12)
    assert np.allclose(hodge_star(wedge(e1, e2)).coeffs, n.coeffs, atol=1e-12)


@pytest.mark.parametrize("m", range(3, 9))
def test_double_star_sign_law(m):
    for k in range(0, m + 1):
        a = rand_mv(m, k, integer=True)
        twice = hodge_star(hodge_star(a))
        assert np.array_equal(twice.coeffs, (-1) ** (k * (m - k)) * a.coeffs)


@pytest.mark.parametrize("m", range(3, 9))
def test_star_matches_the_basis_loop(m):
    # reference: star e_I = sign(I, I^c) e_{I^c}, one basis element at a
    # time; the result also keeps the C layout, which later FFTs' rounding
    # depends on
    full = (1 << m) - 1
    for k in range(0, m + 1):
        a = rand_mv(m, k, lead=(5, 4))
        want = np.zeros((comb(m, m - k), 5, 4))
        for i, mask in enumerate(_masks(m, k)):
            j = _positions(m, m - k)[full ^ mask]
            want[j] = _wedge_sign(mask, full ^ mask) * a.coeffs[i]
        got = hodge_star(a).coeffs
        assert np.array_equal(got, want) and got.flags.c_contiguous


@pytest.mark.parametrize("m", range(3, 9))
def test_star_is_isometry(m):
    for k in range(0, m + 1):
        a, b = rand_mv(m, k), rand_mv(m, k)
        lhs = inner(hodge_star(a), hodge_star(b))
        rhs = inner(a, b)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# -- interior ---------------------------------------------------------------

def test_interior_examples():
    assert np.array_equal(interior(e(3, 1, 2), e(3, 1)).coeffs, e(3, 2).coeffs)
    assert not np.any(interior(e(3, 1, 2), e(3, 3)).coeffs)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_interior_duality_exhaustive(m):
    # <gamma . beta, alpha> = <gamma, beta ^ alpha> over all basis triples
    for q in range(0, m + 1):
        for p in range(0, q + 1):
            k = q - p
            for gi in combinations(range(1, m + 1), q):
                gamma = e(m, *gi)
                for bi in combinations(range(1, m + 1), p):
                    beta = e(m, *bi)
                    left = interior(gamma, beta)
                    for ai in combinations(range(1, m + 1), k):
                        alpha = e(m, *ai)
                        lhs = inner(left, alpha)
                        rhs = inner(gamma, wedge(beta, alpha))
                        assert lhs == rhs


@pytest.mark.parametrize("m", range(3, 9))
def test_interior_bilinear(m):
    q = int(RNG.integers(1, m + 1))
    p = int(RNG.integers(0, q + 1))
    g1, g2 = rand_mv(m, q, integer=True), rand_mv(m, q, integer=True)
    b1, b2 = rand_mv(m, p, integer=True), rand_mv(m, p, integer=True)
    assert np.array_equal(interior(add(g1, g2), b1).coeffs,
                          add(interior(g1, b1), interior(g2, b1)).coeffs)
    assert np.array_equal(interior(g1, add(b1, b2)).coeffs,
                          add(interior(g1, b1), interior(g1, b2)).coeffs)


def test_interior_invalid_grades():
    with pytest.raises(AlgebraError):
        interior(rand_mv(4, 1), rand_mv(4, 2))


# -- bullet -----------------------------------------------------------------

def test_bullet_base_case_matches_interior():
    for m in (3, 4, 5):
        for k in range(1, m + 1):
            a = rand_mv(m, k, integer=True)
            v = rand_mv(m, 1, integer=True)
            assert np.array_equal(bullet(a, v).coeffs, interior(a, v).coeffs)


def _bullet_right_to_left(alpha, mask_b, grade_b):
    """Independent evaluation: split e_B = e_rest ^ e_blast (highest index last)."""
    m = alpha.ambient_dim
    if grade_b == 1:
        idx = mask_b.bit_length()
        return interior(alpha, e(m, idx))
    blast = 1 << (mask_b.bit_length() - 1)
    rest = mask_b ^ blast
    qr = grade_b - 1
    idx = blast.bit_length()
    # alpha bullet (e_rest ^ e_blast)
    #   = (alpha bullet e_rest) ^ e_blast + (-1)^{qr*1} (alpha bullet e_blast) ^ e_rest
    t1 = wedge(_bullet_right_to_left(alpha, rest, qr), e(m, idx))
    rest_mv = None
    for i in range(1, m + 1):
        if rest & (1 << (i - 1)):
            rest_mv = e(m, i) if rest_mv is None else wedge(rest_mv, e(m, i))
    t2 = wedge(interior(alpha, e(m, idx)), rest_mv)
    if qr % 2:
        t2 = MultiVec(m, t2.grade, -t2.coeffs)
    return add(t1, t2)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_bullet_split_independence(m):
    # both factor splits of a decomposable right slot agree
    for q in range(2, m + 1):
        for bi in combinations(range(1, m + 1), q):
            mask = sum(1 << (i - 1) for i in bi)
            for p in range(max(1, 2 - q + 1), m + 1):
                if p + q - 2 > m or p + q - 2 < 0:
                    continue
                alpha = rand_mv(m, p, integer=True)
                try:
                    left = bullet(alpha, e(m, *bi))
                except AlgebraError:
                    continue
                right = _bullet_right_to_left(alpha, mask, q)
                assert np.array_equal(left.coeffs, right.coeffs)


def test_bullet_hand_case_m4():
    # (e1 ^ e2 ^ e3) bullet (e1 ^ e2), expanded by the inductive rule:
    #   ((e123 . e1) ^ e2) + (-1)((e123 . e2) ^ e1)
    #   = (e23 ^ e2) - (-e13 ^ e1) = 0 + e13 ^ e1 = 0 ... both vanish, so
    # compare against the independent evaluation instead of a guessed value.
    m = 4
    a = e(m, 1, 2, 3)
    direct = bullet(a, e(m, 1, 2))
    indep = _bullet_right_to_left(a, 0b11, 2)
    assert np.array_equal(direct.coeffs, indep.coeffs)
    # and a case with nonzero value: (e1 ^ e3) bullet (e1 ^ e2)
    b = bullet(e(m, 1, 3), e(m, 1, 2))
    # (e13 . e1) ^ e2 - (e13 . e2) ^ e1 = e3 ^ e2 - 0 = -e23
    assert np.array_equal(b.coeffs, -e(m, 2, 3).coeffs)


def test_bullet_zero_right_slot():
    a = rand_mv(4, 2)
    z = MultiVec(4, 2, np.zeros(6))
    assert not np.any(bullet(a, z).coeffs)


def test_bullet_bilinear():
    m = 5
    a1, a2 = rand_mv(m, 2, integer=True), rand_mv(m, 2, integer=True)
    b1, b2 = rand_mv(m, 2, integer=True), rand_mv(m, 2, integer=True)
    assert np.array_equal(bullet(add(a1, a2), b1).coeffs,
                          add(bullet(a1, b1), bullet(a2, b1)).coeffs)
    assert np.array_equal(bullet(a1, add(b1, b2)).coeffs,
                          add(bullet(a1, b1), bullet(a1, b2)).coeffs)


def test_bullet_invalid_grade_raises():
    with pytest.raises(AlgebraError):
        bullet(rand_mv(4, 0), rand_mv(4, 1))


# -- field (broadcast) behavior ----------------------------------------------

def test_field_broadcasting():
    m = 4
    a = rand_mv(m, 1, lead=(6, 5))
    b = rand_mv(m, 2, lead=(5,))
    w = wedge(a, b)
    assert w.coeffs.shape == (comb(m, 3), 6, 5)
    single = wedge(MultiVec(m, 1, a.coeffs[:, 2, 3]),
                   MultiVec(m, 2, b.coeffs[:, 3]))
    assert np.allclose(w.coeffs[:, 2, 3], single.coeffs)


def test_complex_coefficients_supported():
    m = 3
    a = MultiVec(m, 1, RNG.standard_normal(3) + 1j * RNG.standard_normal(3))
    v = hodge_star(wedge(a, e(m, 3)))
    assert v.coeffs.dtype.kind == "c"


def test_wedge_sign_parity():
    # moving 1 index past 2 larger ones flips twice: e34 ^ e12 = e12 ^ e34
    assert _wedge_sign(0b1100, 0b0011) == _wedge_sign(0b0011, 0b1100)
    assert _positions(4, 2)[0b0011] == 0
    assert len(_masks(8, 4)) == comb(8, 4)


# -- coefficient-major kernel -------------------------------------------------

@pytest.mark.parametrize("m", range(3, 9))
def test_every_table_holds_signs_only(m):
    # _apply_bilinear adds or subtracts each term: it has no scaled branch
    tables = []
    for p in range(m + 1):
        for q in range(m + 1):
            if p + q <= m:
                tables.append(_wedge_table(m, p, q))
            if p <= q:
                tables.append(_interior_table(m, q, p))
            if p >= 1 and q >= 1 and p + q - 2 <= m:
                tables.append(_bullet_table(m, p, q))
    assert {s for table in tables for *_, s in table} == {1, -1}


def _bilinear_reference(table, a, b, dim_out):
    """Per-entry loop on the leading coefficient axis, in table order."""
    shape = (dim_out,) + np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for ia, ib, io, s in table:
        if s == 1:
            out[io] += a[ia] * b[ib]
        elif s == -1:
            out[io] -= a[ia] * b[ib]
        else:
            out[io] += s * (a[ia] * b[ib])
    return out


@pytest.mark.parametrize("table, a_shape, b_shape, dim_out, complex_a", [
    (_bullet_table(8, 2, 2), (28, 19, 12), (28, 19, 12), 28, False),
    (_bullet_table(8, 2, 1), (28,), (8, 19, 12), 8, False),
    (_wedge_table(8, 1, 1), (8, 19, 12), (8, 19, 1), 28, True),
    (_bullet_table(3, 2, 2), (3, 19, 12), (3, 19, 12), 3, True),
])
def test_apply_bilinear_matches_entry_loop(table, a_shape, b_shape, dim_out,
                                           complex_a):
    a = RNG.standard_normal(a_shape)
    if complex_a:
        a = a + 1j * RNG.standard_normal(a_shape)
    b = RNG.standard_normal(b_shape)
    got = _apply_bilinear(table, a, b, dim_out)
    want = _bilinear_reference(table, a, b, dim_out)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    # same terms summed in the same order: equal to the last bit
    assert np.array_equal(got, want)

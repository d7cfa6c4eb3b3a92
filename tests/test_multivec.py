"""Exterior-algebra unit tests.

Integer coefficient arrays keep every check exact; float checks use 1e-12.
The library's three products (vector ^ vector, bivector . vector and
bivector . bivector) are checked term for term against the tables the
grade-general reference algebra of ``oracles`` builds.  That reference is
itself validated here: the interior product against its defining duality
pairing by exhaustive enumeration of basis elements for m <= 5, the wedge
by associativity and graded anticommutativity, and the Hodge star by its
sign law, isometry and frame identities.
"""

import numpy as np
import pytest
from math import comb
from itertools import combinations, product

from willmore.multivec import (
    _apply_bilinear, _bullet_21_terms, _bullet_22_terms, _wedge_terms,
    bullet_21, bullet_22, wedge,
)

# the grade-general algebra is the reference of the tests; its own tests
# stay here, beside the products it checks
from oracles import (_interior_table, _masks, _positions, _wedge_sign,
                     bullet_table, ext_wedge, hodge_star, interior,
                     wedge_table)

RNG = np.random.default_rng(20240811)


def rand_mv(m, k, lead=(), integer=False):
    if integer:
        return RNG.integers(-9, 10, size=(comb(m, k),) + lead)
    return RNG.standard_normal((comb(m, k),) + lead)


def e(m, *idx):
    """Basis element e_{i1} ^ ... ^ e_{ik}, indices strictly increasing."""
    c = np.zeros(comb(m, len(idx)), dtype=int)
    c[_positions(m, len(idx))[sum(1 << (i - 1) for i in idx)]] = 1
    return c


# -- the three products against the general reference -------------------------

@pytest.mark.parametrize("m", range(3, 9))
def test_products_match_the_general_reference(m):
    # term for term and in order: the order fixes the rounding of every sum
    assert _wedge_terms(m) == wedge_table(m, 1, 1)
    assert _bullet_21_terms(m) == bullet_table(m, 1)
    assert _bullet_22_terms(m) == bullet_table(m, 2)
    # alpha . (b ^ c) = (alpha . b) ^ c - (alpha . c) ^ b
    for alpha in np.eye(comb(m, 2), dtype=int):
        for b, c in product(np.eye(m, dtype=int), repeat=2):
            assert np.array_equal(
                bullet_22(alpha, wedge(b, c)),
                wedge(bullet_21(alpha, b), c) - wedge(bullet_21(alpha, c), b))
    if m == 3:
        # three coefficients either way: only the name carries the grade
        a, x = rand_mv(3, 2, integer=True), rand_mv(3, 2, integer=True)
        assert not np.array_equal(bullet_21(a, x), bullet_22(a, x))


# -- wedge ------------------------------------------------------------------

def test_wedge_basis_case():
    assert np.array_equal(wedge(e(3, 1), e(3, 2)), e(3, 1, 2))


def test_wedge_antisymmetry_of_vectors():
    for m in range(3, 9):
        v = rand_mv(m, 1, integer=True)
        assert not np.any(wedge(v, v))


def test_wedge_hand_expansion():
    # (e1 + e2) ^ (e1 - e2) = -2 e12
    m = 4
    a = e(m, 1) + e(m, 2)
    b = e(m, 1) - e(m, 2)
    assert np.array_equal(wedge(a, b), -2 * e(m, 1, 2))


@pytest.mark.parametrize("m", range(3, 9))
def test_wedge_associative_exact(m):
    for _ in range(10):
        p, q, s = (int(x) for x in RNG.integers(0, m + 1, size=3))
        if p + q + s > m:
            continue
        a, b, c = (rand_mv(m, k, integer=True) for k in (p, q, s))
        left = ext_wedge(m, p + q, ext_wedge(m, p, a, q, b), s, c)
        right = ext_wedge(m, p, a, q + s, ext_wedge(m, q, b, s, c))
        assert np.array_equal(left, right)


@pytest.mark.parametrize("m", range(3, 9))
def test_wedge_graded_anticommutative(m):
    for _ in range(10):
        p = int(RNG.integers(0, m + 1))
        q = int(RNG.integers(0, m - p + 1))
        a, b = rand_mv(m, p, integer=True), rand_mv(m, q, integer=True)
        sign = (-1) ** (p * q)
        assert np.array_equal(ext_wedge(m, p, a, q, b),
                              sign * ext_wedge(m, q, b, p, a))


# -- hodge star ---------------------------------------------------------------

def test_star_orientation_m3():
    assert np.array_equal(hodge_star(3, 2, e(3, 1, 2)), e(3, 3))


def test_star_frame_identities_m3():
    # tangent frame e1, e2, normal n = e3: star(n ^ e1) = e2, star(n ^ e2) = -e1
    n = e(3, 3)
    assert np.array_equal(hodge_star(3, 2, wedge(n, e(3, 1))), e(3, 2))
    assert np.array_equal(hodge_star(3, 2, wedge(n, e(3, 2))), -e(3, 1))


def _random_orthonormal_frame(m):
    q, _ = np.linalg.qr(RNG.standard_normal((m, m)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return list(q.T)


@pytest.mark.parametrize("m", range(3, 9))
def test_star_frame_identities_general_frame(m):
    # positively oriented orthonormal frame {e1, e2, n1..n_{m-2}},
    # n = n1 ^ ... ^ n_{m-2}: star(n ^ e1) = e2, star(n ^ e2) = -e1,
    # star(e1 ^ e2) = n
    frame = _random_orthonormal_frame(m)
    e1, e2 = frame[0], frame[1]
    n = frame[2]
    for k, v in enumerate(frame[3:], start=1):
        n = ext_wedge(m, k, n, 1, v)
    n_e = lambda v: hodge_star(m, m - 1, ext_wedge(m, m - 2, n, 1, v))
    assert np.allclose(n_e(e1), e2, atol=1e-12)
    assert np.allclose(n_e(e2), -e1, atol=1e-12)
    assert np.allclose(hodge_star(m, 2, wedge(e1, e2)), n, atol=1e-12)


@pytest.mark.parametrize("m", range(3, 9))
def test_double_star_sign_law(m):
    for k in range(0, m + 1):
        a = rand_mv(m, k, integer=True)
        twice = hodge_star(m, m - k, hodge_star(m, k, a))
        assert np.array_equal(twice, (-1) ** (k * (m - k)) * a)


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
            want[j] = _wedge_sign(mask, full ^ mask) * a[i]
        got = hodge_star(m, k, a)
        assert np.array_equal(got, want) and got.flags.c_contiguous


@pytest.mark.parametrize("m", range(3, 9))
def test_star_is_isometry(m):
    for k in range(0, m + 1):
        a, b = rand_mv(m, k), rand_mv(m, k)
        lhs = hodge_star(m, k, a) @ hodge_star(m, k, b)
        rhs = a @ b
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# -- interior ---------------------------------------------------------------

def test_interior_examples():
    assert np.array_equal(interior(3, 2, e(3, 1, 2), 1, e(3, 1)), e(3, 2))
    assert not np.any(interior(3, 2, e(3, 1, 2), 1, e(3, 3)))


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
                    left = interior(m, q, gamma, p, beta)
                    for ai in combinations(range(1, m + 1), k):
                        alpha = e(m, *ai)
                        assert left @ alpha == gamma @ ext_wedge(m, p, beta,
                                                                 k, alpha)


@pytest.mark.parametrize("m", range(3, 9))
def test_interior_bilinear(m):
    q = int(RNG.integers(1, m + 1))
    p = int(RNG.integers(0, q + 1))
    g1, g2 = rand_mv(m, q, integer=True), rand_mv(m, q, integer=True)
    b1, b2 = rand_mv(m, p, integer=True), rand_mv(m, p, integer=True)
    ins = lambda g, b: interior(m, q, g, p, b)
    assert np.array_equal(ins(g1 + g2, b1), ins(g1, b1) + ins(g2, b1))
    assert np.array_equal(ins(g1, b1 + b2), ins(g1, b1) + ins(g1, b2))


# -- bullet -----------------------------------------------------------------

def test_bullet_base_case_matches_interior():
    for m in (3, 4, 5):
        a = rand_mv(m, 2, integer=True)
        v = rand_mv(m, 1, integer=True)
        assert np.array_equal(bullet_21(a, v), interior(m, 2, a, 1, v))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_bullet_split_independence(m):
    # the rule applied to either factor order of e_c ^ e_d = -(e_d ^ e_c),
    # with the reference interior product
    for c, d in combinations(range(1, m + 1), 2):
        alpha = rand_mv(m, 2, integer=True)
        for b1, b2 in ((c, d), (d, c)):
            x, y = e(m, b1), e(m, b2)
            want = (wedge(interior(m, 2, alpha, 1, x), y)
                    - wedge(interior(m, 2, alpha, 1, y), x))
            assert np.array_equal(bullet_22(alpha, wedge(x, y)), want)


def test_bullet_hand_case_m4():
    m = 4
    # (e13 . e1) ^ e2 - (e13 . e2) ^ e1 = e3 ^ e2 - 0 = -e23
    assert np.array_equal(bullet_22(e(m, 1, 3), e(m, 1, 2)), -e(m, 2, 3))
    # the contraction of bivectors is antisymmetric: alpha . alpha = 0
    a = rand_mv(m, 2, integer=True)
    assert not np.any(bullet_22(a, a))


def test_bullet_zero_right_slot():
    a = rand_mv(4, 2)
    assert not np.any(bullet_22(a, np.zeros(6)))


def test_bullet_bilinear():
    m = 5
    a1, a2 = rand_mv(m, 2, integer=True), rand_mv(m, 2, integer=True)
    b1, b2 = rand_mv(m, 2, integer=True), rand_mv(m, 2, integer=True)
    assert np.array_equal(bullet_22(a1 + a2, b1),
                          bullet_22(a1, b1) + bullet_22(a2, b1))
    assert np.array_equal(bullet_22(a1, b1 + b2),
                          bullet_22(a1, b1) + bullet_22(a1, b2))


# -- field (broadcast) behavior ----------------------------------------------

def test_field_broadcasting():
    m = 4
    a = rand_mv(m, 1, lead=(6, 5))
    b = rand_mv(m, 1, lead=(5,))
    w = wedge(a, b)
    assert w.shape == (comb(m, 2), 6, 5)
    assert np.allclose(w[:, 2, 3], wedge(a[:, 2, 3], b[:, 3]))


def test_complex_coefficients_supported():
    m = 3
    a = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    assert wedge(a, e(m, 3)).dtype.kind == "c"


def test_wedge_sign_parity():
    # moving 1 index past 2 larger ones flips twice: e34 ^ e12 = e12 ^ e34
    assert _wedge_sign(0b1100, 0b0011) == _wedge_sign(0b0011, 0b1100)
    assert _positions(4, 2)[0b0011] == 0
    assert len(_masks(8, 4)) == comb(8, 4)


# -- coefficient-major kernel -------------------------------------------------

@pytest.mark.parametrize("m", range(3, 9))
def test_every_table_holds_signs_only(m):
    # _apply_bilinear adds or subtracts each term: it has no scaled branch
    tables = [_wedge_terms(m), _bullet_21_terms(m), _bullet_22_terms(m)]
    for p in range(m + 1):
        for q in range(m + 1):
            if p + q <= m:
                tables.append(wedge_table(m, p, q))
            if p <= q:
                tables.append(_interior_table(m, q, p))
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
    (_bullet_22_terms(8), (28, 19, 12), (28, 19, 12), 28, False),
    (_bullet_21_terms(8), (28,), (8, 19, 12), 8, False),
    (_wedge_terms(8), (8, 19, 12), (8, 19, 1), 28, True),
    (_bullet_22_terms(3), (3, 19, 12), (3, 19, 12), 3, True),
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

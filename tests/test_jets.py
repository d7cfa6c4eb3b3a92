"""Jets are checked against central finite differences of the same expression."""

import numpy as np
import pytest

from willmore import jets
from willmore.jets import Jet

RNG = np.random.default_rng(7)


def expr(x, y, lib):
    # mixes every supported primitive, stays in each function's domain
    r2 = x * x + y * y + 1.5
    t = lib.log(r2) + r2 ** 2
    w = lib.sin(x * y) + lib.cos(x - y)
    return t * w + (x * 0.7 + 1.9) / r2 + x ** 3 - 2.0 * y


class _NumpyLib:
    log = staticmethod(np.log)
    sin = staticmethod(np.sin)
    cos = staticmethod(np.cos)


def test_jet_against_finite_differences():
    x0, y0 = 0.37, -0.81
    jx, jy = Jet.seed(x0, y0)
    got = expr(jx, jy, jets)

    h = 1e-4  # balances truncation and roundoff for the second differences
    f = lambda a, b: expr(a, b, _NumpyLib)
    fx = (f(x0 + h, y0) - f(x0 - h, y0)) / (2 * h)
    fy = (f(x0, y0 + h) - f(x0, y0 - h)) / (2 * h)
    fxx = (f(x0 + h, y0) - 2 * f(x0, y0) + f(x0 - h, y0)) / h**2
    fyy = (f(x0, y0 + h) - 2 * f(x0, y0) + f(x0, y0 - h)) / h**2
    fxy = (f(x0 + h, y0 + h) - f(x0 + h, y0 - h)
           - f(x0 - h, y0 + h) + f(x0 - h, y0 - h)) / (4 * h**2)

    assert np.isclose(got.f, f(x0, y0), rtol=1e-12)
    assert np.isclose(got.fx, fx, rtol=1e-7)
    assert np.isclose(got.fy, fy, rtol=1e-7)
    assert np.isclose(got.fxx, fxx, rtol=1e-6)
    assert np.isclose(got.fxy, fxy, rtol=1e-6)
    assert np.isclose(got.fyy, fyy, rtol=1e-6)


def test_complex_monomial_jet():
    # w = z^k with z = x + iy: dw/dx = k z^{k-1}, dw/dy = i k z^{k-1}, etc.
    x = RNG.standard_normal(12)
    y = RNG.standard_normal(12)
    jx, jy = Jet.seed(x, y)
    z = jx + 1j * jy
    k = 5
    w = z ** k
    zz = x + 1j * y
    assert np.allclose(w.f, zz**k)
    assert np.allclose(w.fx, k * zz ** (k - 1))
    assert np.allclose(w.fy, 1j * k * zz ** (k - 1))
    assert np.allclose(w.fxx, k * (k - 1) * zz ** (k - 2))
    assert np.allclose(w.fxy, 1j * k * (k - 1) * zz ** (k - 2))
    assert np.allclose(w.fyy, -k * (k - 1) * zz ** (k - 2))


def test_harmonic_identity():
    # z^k is holomorphic, so its real and imaginary parts are harmonic:
    # fxx + fyy = 0 exactly in exact arithmetic
    x = RNG.standard_normal(30) * 0.5
    y = RNG.standard_normal(30) * 0.5
    jx, jy = Jet.seed(x, y)
    w = (jx + 1j * jy) ** 4
    assert np.allclose(w.fxx + w.fyy, 0.0, atol=1e-13)


def test_division_by_a_jet():
    # 1 / q with q = x^2 + y^2: q_x = 2x, q_xx = 2, q_xy = 0, and
    # (1/q)_xx = 8x^2 / q^3 - 2 / q^2, (1/q)_xy = 8xy / q^3
    x0, y0 = 1.3, 0.4
    x, y = Jet.seed(x0, y0)
    got = Jet(1.0) / (x * x + y * y)
    q = x0 * x0 + y0 * y0
    want = (1 / q, -2 * x0 / q ** 2, -2 * y0 / q ** 2,
            8 * x0 * x0 / q ** 3 - 2 / q ** 2, 8 * x0 * y0 / q ** 3,
            8 * y0 * y0 / q ** 3 - 2 / q ** 2)
    for s, w in zip(Jet.__slots__, want):
        assert np.isclose(getattr(got, s), w, rtol=1e-12)


@pytest.mark.parametrize("n", [0, -1, 0.5, 2.0])
def test_only_positive_integer_powers(n):
    jx, _ = Jet.seed(0.3, 0.7)
    with pytest.raises(ValueError, match="positive integer"):
        jx ** n


def test_constant_scaling_matches_product_rule():
    # a constant has zero derivative slots, so scaling the six slots gives
    # the values the product rule gives with the constant jet Jet(c)
    jx, jy = Jet.seed(RNG.standard_normal(12), RNG.standard_normal(12))
    u = (jx + 1j * jy) ** 3 + jets.cos(jx * jy)
    v = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    column = u._map(lambda s: np.asarray(s)[..., None])  # trailing ambient axis
    for jet, c in ((u, -1.7), (u, 0.3 - 2.1j), (column, v)):
        for scaled in (jet * c, c * jet):
            want = jet * Jet(c)
            for s in Jet.__slots__:
                assert np.array_equal(getattr(scaled, s), getattr(want, s))
    assert column.f.shape == (12, 1) and (column * v).fxy.shape == (12, 4)


def test_constant_division_matches_reciprocal_jet():
    # dividing by a constant scales the slots by 1 / c; the reciprocal jet
    # of Jet(c) gives the same values through the product rule.  Where a
    # jet's zero derivative slots are +0, as on the seeded jets a chart
    # divides, the signs of the zeros agree too for a positive divisor; the
    # product rule adds f * (-0) terms, so with a negative divisor or a -0
    # slot the reciprocal path's zero takes the sign of the value instead
    jx, jy = Jet.seed(RNG.standard_normal(12), RNG.standard_normal(12))
    for jet in (jx, jy, jx * jy, jets.cos(jx * jy), jets.sin(jy)):
        for c in (0.7, 3.0, -2.5):
            got, want = jet / c, jet * Jet(c)._reciprocal()
            for s in Jet.__slots__:
                a, b = np.broadcast_arrays(getattr(got, s), getattr(want, s))
                assert np.array_equal(a, b)
                slot = getattr(jet, s)
                keep = np.broadcast_to(~(np.signbit(slot) & (slot == 0)),
                                       a.shape)
                if c > 0:
                    assert np.array_equal(np.signbit(a[keep]),
                                          np.signbit(b[keep]))


def test_numpy_operands_on_the_left_defer_to_the_jet():
    jx, _ = Jet.seed(np.array([0.5, -1.0]), np.array([0.2, 0.1]))
    a = np.array([1.0, 2.0])
    for left in (np.float64(2.5), np.complex128(1 - 1j), a):
        for out in (left * jx, left + jx):
            assert isinstance(out, Jet)
    prod, total = a * jx, a + jx
    assert np.array_equal(prod.f, a * jx.f)
    assert np.array_equal(prod.fx, a * jx.fx)
    assert np.array_equal(total.f, a + jx.f) and total.fx == jx.fx

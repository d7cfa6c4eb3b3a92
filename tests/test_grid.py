import numpy as np
import pytest

from willmore import grid as g
from willmore.grid import PolarGrid
from willmore.residues import integrate_curl_potential


def make_grid(n_r=48, n_theta=64, r_min=0.05):
    return PolarGrid(r_min=r_min, r_max=1.0, n_r=n_r, n_theta=n_theta)


def test_grid_validation():
    with pytest.raises(ValueError):
        PolarGrid(r_min=0.0)
    with pytest.raises(ValueError):
        PolarGrid(r_min=0.5, r_max=0.4)
    with pytest.raises(ValueError):
        PolarGrid(r_min=0.1, n_r=8)
    with pytest.raises(ValueError):
        PolarGrid(r_min=0.1, n_theta=33)


def test_nodes_ordered_and_log_spaced():
    gr = make_grid()
    assert np.all(np.diff(gr.r) > 0)
    assert np.allclose(np.diff(gr.s), gr.ds)
    assert np.all(np.diff(gr.theta) > 0)
    assert gr.r[0] == pytest.approx(gr.r_min)
    assert gr.r[-1] == pytest.approx(gr.r_max)


def test_spectral_dtheta_exact_on_harmonics():
    gr = make_grid()
    f = np.cos(5 * gr.tt) + 0.3 * np.sin(11 * gr.tt)
    expect = -5 * np.sin(5 * gr.tt) + 3.3 * np.cos(11 * gr.tt)
    assert np.allclose(g.dtheta(gr, f), expect, atol=1e-10)


@pytest.mark.parametrize("scale", [1.0, 0.5 - 2.0j])
def test_dtheta_drops_the_nyquist_mode(scale):
    # cos(n theta / 2) is the unpaired Nyquist mode: its odd derivative is 0
    gr = make_grid()
    f = scale * np.cos(gr.n_theta // 2 * gr.tt)
    out = g.dtheta(gr, f)
    assert np.iscomplexobj(out) == np.iscomplexobj(f)
    assert np.max(np.abs(out)) < 1e-12


def test_constant_field_derivatives_vanish():
    gr = make_grid()
    f = np.ones((gr.n_r, gr.n_theta))
    gx, gy = g.grad(gr, f)
    assert np.allclose(gx, 0) and np.allclose(gy, 0)
    assert np.allclose(g.laplacian(gr, f), 0, atol=1e-10)


def test_monomial_gradient_converges_at_order_two():
    # f = Re(z^3): grad f = (Re(3 z^2), -Im(3 z^2)); radial stencil is O(h^2)
    errs, hs = [], []
    for n_r in (32, 64, 128):
        gr = make_grid(n_r=n_r)
        f = (gr.z ** 3).real
        gx, gy = g.grad(gr, f)
        w = 3 * gr.z ** 2
        err = max(g.annulus_norms(gr, gx - w.real)["max"],
                  g.annulus_norms(gr, gy + w.imag)["max"])
        errs.append(err)
        hs.append(gr.ds)
    assert g.fit_order(hs, errs) >= 1.9


def test_dz_on_monomial():
    gr = make_grid(n_r=128)
    k = 4
    f = gr.z ** k
    got = g.dz(gr, f)
    scale = np.abs(k * gr.z ** (k - 1))
    assert g.annulus_norms(gr, np.abs(got - k * gr.z ** (k - 1)) / scale)["max"] < 1e-3
    assert g.annulus_norms(gr, np.abs(g.dzbar(gr, f)) / scale)["max"] < 1e-3


def test_radial_derivative_convergence_order():
    errs, hs = [], []
    for n_r in (32, 64, 128):
        gr = make_grid(n_r=n_r)
        f = np.exp(np.sin(np.log(gr.rr)))  # radial only, smooth in s
        got = g.ds(gr, f)
        expect = np.cos(np.log(gr.rr)) * f
        errs.append(np.max(np.abs(got - expect)))
        hs.append(gr.ds)
    order = g.fit_order(hs, errs)
    assert order >= 1.9


def test_laplacian_on_harmonic_and_log():
    # log|x| is linear in s, so the radial stencil is exact on it
    gr = make_grid(n_r=96, n_theta=64)
    assert np.max(np.abs(g.laplacian(gr, np.log(gr.rr)))) < 1e-8
    errs, hs = [], []
    for n_r in (48, 96, 192):
        gr = make_grid(n_r=n_r)
        errs.append(g.annulus_norms(gr, g.laplacian(gr, (gr.z ** 2).real))["max"])
        hs.append(gr.ds)
    assert g.fit_order(hs, errs) >= 1.9


def test_circulation_of_log_gradient():
    # field grad log|x| has flux 2 pi through every circle
    gr = make_grid()
    vx = gr.x / gr.rr ** 2
    vy = gr.y / gr.rr ** 2
    circ = g.circulation(gr, vx, vy)
    assert np.allclose(circ, 2 * np.pi, rtol=1e-12)


def test_divergence_free_planted_field():
    # perp-gradient of a smooth stream function is divergence free;
    # with exact components the discrete divergence converges at order 2
    errs, hs = [], []
    for n_r in (32, 64, 128):
        gr = make_grid(n_r=n_r)
        # psi = Re(z^3) + x y: grad psi = (3 Re z^2 + y, -3 Im z^2 + x)
        px = 3 * (gr.z ** 2).real + gr.y
        py = -3 * (gr.z ** 2).imag + gr.x
        d = g.div(gr, -py, px)
        errs.append(g.annulus_norms(gr, d)["max"])
        hs.append(gr.ds)
    assert g.fit_order(hs, errs) >= 1.9


def _smooth(gr, lead, seed):
    """A smooth field of shape lead + (n_r, n_theta): four
    polynomials/harmonics with random weights per component.  The extra
    axes lead, as the ambient axis of every field does; the tests below
    call them ``trailing`` only to keep their ids."""
    basis = np.stack([gr.x, gr.y ** 2, gr.x * gr.y, gr.rr * np.cos(3 * gr.tt)])
    w = np.random.default_rng(seed).standard_normal(lead + (4,))
    return np.tensordot(w, basis, axes=1)


@pytest.mark.parametrize("trailing", [(), (28,)])
def test_div_is_the_kept_half_of_two_gradients(trailing):
    gr = make_grid()
    vx, vy = _smooth(gr, trailing, 1), _smooth(gr, trailing, 2)
    expect = g.grad(gr, vx)[0] + g.grad(gr, vy)[1]
    assert np.array_equal(g.div(gr, vx, vy), expect)


@pytest.mark.parametrize("is_complex", [False, True])
def test_polar_wirtinger_matches_cartesian(is_complex):
    gr = make_grid()
    f = _smooth(gr, (3,), 3)
    if is_complex:
        f = f + 1j * _smooth(gr, (3,), 4)
    gx, gy = g.grad(gr, f)
    for got, want in ((g.dz(gr, f), 0.5 * (gx - 1j * gy)),
                      (g.dzbar(gr, f), 0.5 * (gx + 1j * gy))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [3, 8, 28])
@pytest.mark.parametrize("is_complex", [False, True])
def test_dot_is_the_trailing_axis_sum(m, is_complex):
    # dot contracts the ambient axis, which leads in every field
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((2, m, 6, 5))
    if is_complex:
        a = a + 1j * rng.standard_normal(a.shape)
        b = b - 1j * rng.standard_normal(b.shape)
    expect = np.sum(a * b, axis=0)  # bilinear: no conjugate
    bound = 2 * m * np.finfo(float).eps * np.sum(np.abs(a * b), axis=0)
    assert np.all(np.abs(g.dot(a, b) - expect) <= bound)


def test_integrate_area():
    gr = make_grid(n_r=64)
    one = np.ones((gr.n_r, gr.n_theta))
    area = g.integrate_means(gr, g.circle_mean(one))
    assert area == pytest.approx(np.pi * (1 - gr.r_min ** 2), rel=1e-5)


def test_fit_order_recovers_slope():
    hs = [0.1, 0.05, 0.025]
    errs = [4e-2 * h ** 2 for h in hs]
    assert g.fit_order(hs, errs) == pytest.approx(2.0, abs=1e-10)


def test_refined_grid_halves_spacing():
    gr = make_grid(n_r=33, n_theta=64)
    fine = gr.refined()
    assert fine.ds == pytest.approx(gr.ds / 2)
    assert fine.n_theta == 2 * gr.n_theta


BAND_OPS = {
    "ds": lambda gr, f, h: g.ds(gr, f),
    "dr": lambda gr, f, h: g.dr(gr, f),
    "dtheta": lambda gr, f, h: g.dtheta(gr, f),
    "laplacian": lambda gr, f, h: g.laplacian(gr, f),
    "grad_x": lambda gr, f, h: g.grad(gr, f)[0],
    "grad_y": lambda gr, f, h: g.grad(gr, f)[1],
    "div": g.div,
}


@pytest.mark.parametrize("op", sorted(BAND_OPS))
@pytest.mark.parametrize("n_r, n_theta, lo, hi", [
    (191, 128, 0.15, 0.85),   # the system check's annulus, fine level
    (96, 64, 0.15, 0.85),
    (48, 32, 0.19, 0.21),     # one annulus row, padded to four
    (48, 32, None, None),     # the whole grid less its trimmed rims
])
@pytest.mark.parametrize("trailing, is_complex",
                         [((), False), ((3,), True), ((28,), False)])
def test_band_operators_match_the_full_grid(op, n_r, n_theta, lo, hi,
                                            trailing, is_complex):
    gr = PolarGrid(1e-3, 1.0, n_r, n_theta)
    band = gr.band(lo, hi)
    f, h = _smooth(gr, trailing, 5), _smooth(gr, trailing, 6)
    if is_complex:
        f = f + 1j * _smooth(gr, trailing, 7)
    full = BAND_OPS[op](gr, f, h)
    got = BAND_OPS[op](band, f[..., band.rows, :], h[..., band.rows, :])
    rows = np.arange(gr.n_r)[band.kept]
    mask = g.annulus_mask(gr, lo, hi)
    assert np.array_equal(rows, np.flatnonzero(mask))
    assert band.ds == gr.ds
    assert np.array_equal(got[..., band.keep, :], full[..., rows, :])
    assert band.norms(got) == g.annulus_norms(gr, full, lo, hi)


@pytest.mark.parametrize("lo, hi", [(0.5, 0.51), (0.9, 0.2)])
def test_band_of_an_empty_annulus_is_refused(lo, hi):
    with pytest.raises(ValueError, match=f"annulus \\[{lo}, {hi}\\]"):
        make_grid().band(lo, hi)


# -- the layout contract: components lead, the grid axes are last ------------

LAYOUT_OPS = {
    "dtheta": lambda gr, f, h: g.dtheta(gr, f),
    "ds": lambda gr, f, h: g.ds(gr, f),
    "dss": lambda gr, f, h: g.dss(gr, f),
    "grad_x": lambda gr, f, h: g.grad(gr, f)[0],
    "grad_y": lambda gr, f, h: g.grad(gr, f)[1],
    "div": g.div,
    "laplacian": lambda gr, f, h: g.laplacian(gr, f),
    "dz": lambda gr, f, h: g.dz(gr, f),
    "circulation": g.circulation,
    "integrate_curl_potential":
        lambda gr, f, h: integrate_curl_potential(gr, f, h)[0],
}


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("op", sorted(LAYOUT_OPS))
@pytest.mark.parametrize("lead, on_band", [((3,), False), ((8,), False),
                                           ((2,), True)])
def test_stacked_operators_act_plane_by_plane(op, lead, on_band):
    # a stacked (m, n_r, n_theta) field, or a (2, n_r, n_theta) slice of the
    # annulus rows of a band, gives each plane exactly what the plane alone
    # gives
    gr = PolarGrid(1e-3, 1.0, 96, 64)
    f, h = _smooth(gr, lead, 8), _smooth(gr, lead, 9)
    if on_band:
        gr = gr.band(0.15, 0.85)
        f, h = f[..., gr.rows, :], h[..., gr.rows, :]
    got = LAYOUT_OPS[op](gr, f, h)
    want = np.stack([LAYOUT_OPS[op](gr, a, b) for a, b in zip(f, h)])
    assert _same_bits(got, want)


@pytest.mark.parametrize("m", [3, 8, 28])
@pytest.mark.parametrize("is_complex", [False, True])
def test_dot_is_the_explicit_sum_over_axis_0(m, is_complex):
    rng = np.random.default_rng(m)
    a, b = rng.standard_normal((2, m, 96, 64))
    if is_complex:
        a = a + 1j * rng.standard_normal(a.shape)
        b = b - 1j * rng.standard_normal(b.shape)
    assert _same_bits(g.dot(a, b), _explicit_sum(a, b))
    # a constant vector against a field, as beta0 against grad U
    assert _same_bits(g.dot(a, b[:, 0, 0]), _explicit_sum(a, b[:, 0, 0]))


def _explicit_sum(a, b):
    """sum_i a_i b_i, accumulated in the order i = 0, 1, ...; complex
    products are written out in real arithmetic, since numpy's complex
    ``*`` may fuse its multiply-adds."""
    if not np.iscomplexobj(a):
        out = a[0] * b[0]
        for x, y in zip(a[1:], b[1:]):
            out += x * y
        return out
    out = np.zeros(np.broadcast_shapes(a.shape[1:], b.shape[1:]), complex)
    for x, y in zip(a, b):
        out.real += x.real * y.real - x.imag * y.imag
        out.imag += x.real * y.imag + x.imag * y.real
    return out

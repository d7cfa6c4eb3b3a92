from dataclasses import replace

import numpy as np
import pytest

from willmore import grid as g
from willmore.grid import PolarGrid
from willmore.curvature import curvature
from willmore import potentials
from willmore.multivec import wedge
from willmore.potentials import (PotentialError, _solve_modes, potential_set,
                                 solve_gG, verify_system)
from willmore.residual import equation
from willmore.residues import (first_residue, integrate_curl_potential,
                               loop_defects, potential_L)
from willmore.surface import (ImmersionField, catalog_surface,
                              conformal_factor, frame_and_gauss)

from oracles import gG_per_component


def mode_oracle(grid, k, c=1.0):
    """Closed form for Lap u = c r^k cos(k theta) under the solver's BCs.

    u = c r^{k+2}/(4k+4) + A r^k + B r^{-k} (k > 0), with u(r_max) = 0 and
    u' = k u in s = log r at the inner edge; k = 0 uses A + B s.
    """
    s0 = np.log(grid.r_min)
    if k == 0:
        # u = c e^{2s}/4 + A + B s; u'(s0) = 0 and u(0) = 0
        B = -c * np.exp(2 * s0) / 2.0
        A = -c / 4.0
        return c * grid.rr ** 2 / 4.0 + A + B * np.log(grid.rr)
    up = c / (4.0 * k + 4.0)
    # A e^{ks} + B e^{-ks}: outer u_p(1) + A + B = 0;
    # inner (u' - k u)(s0) = 0: 2 up e^{(k+2)s0} - 2 k B e^{-k s0} = 0
    B = up * np.exp((k + 2) * s0) / (k * np.exp(-k * s0))
    A = -up - B
    u = (up * grid.rr ** (k + 2) + A * grid.rr ** k + B * grid.rr ** (-k))
    return u * np.cos(k * grid.tt)


@pytest.mark.parametrize("k", [0, 1, 3, 7])
def test_mode_solver_matches_closed_form(k):
    grid = PolarGrid(0.05, 1.0, 192, 64)
    rhs = grid.rr ** k * np.cos(k * grid.tt)
    u = _solve_modes(grid, rhs)
    assert np.max(np.abs(u - mode_oracle(grid, k))) < 1e-8


@pytest.mark.parametrize("k", [1, 3, 7])
def test_dtheta_complex_input_matches_closed_form(k):
    grid = PolarGrid(0.05, 1.0, 192, 64)
    radial = mode_oracle(grid, k)[:, :1]          # the cos(k theta) profile
    z = 0.5 - 1.5j
    out = g.dtheta(grid, z * mode_oracle(grid, k))
    assert np.max(np.abs(out + z * k * radial * np.sin(k * grid.tt))) < 1e-12


def test_mode_solver_convergence_order():
    errs, hs = [], []
    for n in (48, 96, 192):
        grid = PolarGrid(0.05, 1.0, n, 64)
        rhs = grid.rr ** 3 * np.cos(3 * grid.tt)
        errs.append(np.max(np.abs(_solve_modes(grid, rhs) - mode_oracle(grid, 3))))
        hs.append(grid.ds)
    assert g.fit_order(hs, errs) >= 3.0


@pytest.mark.parametrize("r_min, n_r, n_theta", [(1e-3, 96, 64), (0.05, 48, 32)])
def test_mode_solver_satisfies_discrete_rows(r_min, n_r, n_theta):
    # per mode: every Numerov row, the 5-point Robin row and u = 0 at r_max
    grid = PolarGrid(r_min, 1.0, n_r, n_theta)
    rhs = np.random.default_rng(5).standard_normal((2, n_r, n_theta))
    u = _solve_modes(grid, rhs)
    # rows first: (n_r, 2, modes)
    uh = np.moveaxis(np.fft.rfft(u, axis=-1), -2, 0)
    fh = (np.exp(2.0 * grid.s)[:, None, None]
          * np.moveaxis(np.fft.rfft(rhs, axis=-1), -2, 0))
    h, k = grid.ds, np.arange(uh.shape[-1])
    c = h * h / 12.0
    load = c * (fh[:-2] + 10.0 * fh[1:-1] + fh[2:])
    numerov = ((1.0 - c * k * k) * (uh[:-2] + uh[2:])
               - (2.0 + 10.0 * c * k * k) * uh[1:-1] - load)
    robin = ((-25.0 - 12.0 * h * k) * uh[0] + 48.0 * uh[1] - 36.0 * uh[2]
             + 16.0 * uh[3] - 3.0 * uh[4])
    scale = np.max(np.abs(load))
    assert np.max(np.abs(numerov)) < 1e-10 * scale
    assert np.max(np.abs(robin)) < 1e-10 * scale
    assert np.max(np.abs(u[:, -1])) < 1e-10 * scale


def test_mode_solver_names_nonfinite_mode():
    grid = PolarGrid(0.05, 1.0, 48, 32)
    rhs = np.ones((48, 32))
    rhs[10, 3] = np.nan
    with pytest.raises(PotentialError, match=r"mode k = \d+"):
        _solve_modes(grid, rhs)


def analyzed(name, grid, m=3):
    field = catalog_surface(name, {}, grid, m)
    frame = frame_and_gauss(field, conformal_factor(field))
    curv = curvature(field, frame)
    return field, frame, curv


def gG(beta0, field):
    """g = beta0 . U and G = beta0 ^ U from ``solve_gG``'s U."""
    U = solve_gG(beta0, field)
    return g.dot(U, beta0), wedge(beta0, U)


def test_zero_beta0_gives_zero_potentials(monkeypatch):
    grid = PolarGrid(0.05, 1.0, 48, 64)
    field, _, _ = analyzed("sphere_stereographic", grid)
    monkeypatch.setattr(potentials, "_solve_modes", None)   # no solve at all
    pot_g, pot_G = gG(np.zeros(3), field)
    assert not np.any(pot_g) and not np.any(pot_G)
    assert pot_g.shape == (48, 64) and pot_G.shape == (3, 48, 64)


def test_solve_gG_residual_refines_inverted_catenoid():
    errs, hs = [], []
    for n in (48, 96, 192):
        grid = PolarGrid(1e-3, 1.0, n, 64)
        field, frame, curv = analyzed("inverted_catenoid", grid)
        beta0 = first_residue(equation(curv, frame).flux)["beta0"]
        pot_g, _ = gG(beta0, field)
        d1 = field.d1
        r2 = grid.rr ** 2
        gx = 2 * grid.x * beta0[:, None, None] / r2
        gy = 2 * grid.y * beta0[:, None, None] / r2
        rhs = np.sum(gx * d1[0] + gy * d1[1], axis=0)
        res = g.laplacian(grid, pot_g) - rhs
        errs.append(g.annulus_norms(grid, res, 0.1, 0.9)["rms"]
                    / max(1.0, g.annulus_norms(grid, rhs, 0.1, 0.9)["rms"]))
        hs.append(grid.ds)
    assert g.fit_order(hs, errs) >= 1.5
    assert errs[-1] < 1e-3


def test_outer_dirichlet_condition():
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    field, frame, curv = analyzed("inverted_catenoid", grid)
    beta0 = first_residue(equation(curv, frame).flux)["beta0"]
    pot_g, pot_G = gG(beta0, field)
    assert np.max(np.abs(pot_g[-1])) < 1e-12
    assert np.max(np.abs(pot_G[:, -1])) < 1e-12


@pytest.mark.parametrize("m", [4, 8])
def test_gG_from_U_matches_per_component_sources(m):
    # the 1 + C(m, 2) source components of g and G, each solved on its own,
    # against beta0 . U and beta0 ^ U from the one m-component solve
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    field, frame, curv = analyzed("inverted_catenoid", grid, m)
    beta0 = first_residue(equation(curv, frame).flux)["beta0"]
    assert np.any(beta0)
    for got, want in zip(gG(beta0, field), gG_per_component(beta0, field)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [3, 8])
def test_potential_set_solves_once_for_m_components(monkeypatch, m):
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    field, frame, curv = analyzed("inverted_catenoid", grid, m)
    fl = equation(curv, frame).flux
    beta0 = first_residue(fl)["beta0"]
    L, _ = potential_L(fl, beta0)
    calls = {"solve": [], "grad": 0}

    def solve(grid, rhs):
        calls["solve"].append(rhs.shape)
        return _solve_modes(grid, rhs)

    def grad(grid, f):
        calls["grad"] += 1
        return g.grad(grid, f)

    monkeypatch.setattr(potentials, "_solve_modes", solve)
    monkeypatch.setattr(potentials, "grad", grad)
    potential_set(L, beta0, field, curv, grid.band(0.15, 0.85))
    assert calls == {"solve": [(m, 48, 32)], "grad": 1}


def unblocked_R(L, beta0, field, curv):
    """grad_perp R formed with the full wedges and integrated in one call:
    R, its loop-defect part, grad_perp R and grad G (the set keeps only R's
    loop defects)."""
    grid, d1 = field.grid, field.d1
    dU = g.grad(grid, solve_gG(beta0, field))
    dG = [wedge(beta0, du) for du in dU]
    v_R = [wedge(L, p) - 2.0 * wedge(curv.H, d) - dG_k
           for p, d, dG_k in zip((-d1[1], d1[0]), d1, dG)]
    R, part = integrate_curl_potential(grid, *v_R)
    return R, part, v_R, dG


@pytest.mark.parametrize("m", [3, 4, 8])
def test_blocked_R_is_one_unblocked_integration(m):
    # v_R formed with the full wedges and integrated in one call gives the
    # band rows of v_R and grad G, and the loop defects of the blocked R,
    # bit for bit
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    field, frame, curv = analyzed("inverted_catenoid", grid, m)
    fl = equation(curv, frame).flux
    beta0 = first_residue(fl)["beta0"]
    L, _ = potential_L(fl, beta0)
    band = grid.band(0.15, 0.85)
    pots = potential_set(L, beta0, field, curv, band)
    assert not hasattr(pots, "R")
    _, part, v_R, dG = unblocked_R(L, beta0, field, curv)
    defects = loop_defects(part)
    for got, want in zip(pots.v_R + pots.dG, v_R + dG):
        assert np.array_equal(got, want[:, band.rows])
    got = pots.loop_defects["R"]
    assert got.keys() == defects.keys()
    for key, want in defects.items():
        assert np.array_equal(got[key], want), key


def full_chain(name, grid, band=(0.15, 0.85)):
    field, frame, curv = analyzed(name, grid)
    fl = equation(curv, frame).flux
    beta0 = first_residue(fl)["beta0"]
    L, _ = potential_L(fl, beta0)
    pots = potential_set(L, beta0, field, curv, grid.band(*band))
    return field, frame, curv, pots, (L, beta0)


def test_plane_potentials_constant():
    grid = PolarGrid(0.05, 1.0, 48, 64)
    field, frame, curv, pots, (L, beta0) = full_chain("plane", grid)
    R = unblocked_R(L, beta0, field, curv)[0]
    assert np.ptp(pots.S) < 1e-12
    assert np.ptp(R.reshape(R.shape[0], -1), axis=1).max() < 1e-12


def test_sphere_loop_mismatch_refines():
    # the round sphere's flux potential is constant, so S is discretization
    # noise; the absolute loop mismatch must then decay at stencil order
    defs, hs = [], []
    for n in (48, 96, 192):
        grid = PolarGrid(0.05, 1.0, n, 64)
        _, _, _, pots, _ = full_chain("sphere_stereographic", grid)
        defs.append(max(pots.loop_defects["S"]["defect"],
                        pots.loop_defects["R"]["defect"]))
        hs.append(grid.ds)
    assert g.fit_order(hs, defs) >= 1.5


@pytest.mark.parametrize("name", ["sphere_stereographic", "inverted_catenoid"])
def test_conservative_system_residuals_refine(name):
    r_min = 0.05 if name == "sphere_stereographic" else 1e-3
    lo, hi = (0.1, 0.9) if name == "sphere_stereographic" else (0.2, 0.8)
    res = {"sysS": [], "sysR": [], "delphi": []}
    hs = []
    for n in (48, 96, 192):
        grid = PolarGrid(r_min, 1.0, n, 64)
        field, frame, curv, pots, _ = full_chain(name, grid, (lo, hi))
        out = verify_system(pots, field)
        for key in res:
            res[key].append(out[key]["rms"])
        hs.append(grid.ds)
    for key, vals in res.items():
        order = g.fit_order(hs, vals)
        # delphi telescopes algebraically through the defining fields and
        # sits at rounding level on every grid; that counts as converged
        assert order >= 1.0 or max(vals) < 1e-10, \
            f"{name} {key}: {vals} (order {order:.2f})"


def test_verify_system_reads_only_its_band():
    # every input row outside the annulus and its halo is NaN, and the
    # norms come out unchanged: they rest on the band's rows alone
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    field, frame, _, pots, _ = full_chain("inverted_catenoid", grid)
    want = verify_system(pots, field)
    rows = pots.band.rows
    assert rows.stop - rows.start < grid.n_r // 4
    # the frame built from the band's rows is the level's frame there
    on_band = ImmersionField(pots.band, field.slots[:, :, rows])
    built = frame_and_gauss(on_band, conformal_factor(on_band), np.inf)
    for name in ("lam", "e1", "e2", "II", "gram"):
        got, level = getattr(built, name), getattr(frame, name)[..., rows, :]
        assert got.tobytes() == np.ascontiguousarray(level).tobytes(), name

    def blank(a, axis=0):
        keep = (slice(None),) * axis + (rows,)
        out = np.full_like(a, np.nan)
        out[keep] = a[keep]
        return out

    # the set holds band rows only; the derivatives of Phi, from which the
    # frame is built on the band, are full-grid inputs
    slots = field.slots.copy()
    slots[1:] = blank(slots[1:], 2)     # phi must stay finite
    field = replace(field, slots=slots)
    assert verify_system(pots, field) == want


def test_synthetic_potentials_finite():
    # the template is not an exact solution, so the curl defects bottom out
    # at its non-solution floor; S and R must still come out finite
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    field = catalog_surface(
        "synthetic_th4",
        {"theta0": 2, "a": 1,
         "E_a": [0, 0, 0.5, 0], "gamma0": [0, 0, 0.2, 0]}, grid, 4)
    frame = conformal_factor(field)
    frame = frame_and_gauss(field, frame, defect_threshold=2.0)
    curv = curvature(field, frame)
    fl = equation(curv, frame).flux
    beta0 = first_residue(fl)["beta0"]
    L, _ = potential_L(fl, beta0)
    pots = potential_set(L, beta0, field, curv, grid.band(0.15, 0.85))
    R = unblocked_R(L, beta0, field, curv)[0]
    assert np.all(np.isfinite(pots.S))
    assert np.all(np.isfinite(R))
    assert np.isfinite(pots.loop_defects["S"]["defect"])


def test_conservative_system_codimension_two():
    # m = 4 exercises the grade-2 bullet contractions with a 6-component R;
    # the Clifford torus with its parallel-mean-curvature multiplier is an
    # exactly conformal constrained-Willmore input
    from willmore.curvature import curvature as curv_fn
    from willmore.multiplier import pmc_multiplier
    res = {"sysS": [], "sysR": [], "delphi": []}
    hs = []
    for n in (48, 96, 192):
        grid = PolarGrid(0.05, 1.0, n, 64)
        field = catalog_surface("clifford_torus_patch", {"scale": 1.0},
                                grid, 4)
        frame = frame_and_gauss(field, conformal_factor(field))
        curv = curv_fn(field, frame)
        f_field = pmc_multiplier(curv, frame)["f_pmc"]
        fl = equation(curv, frame, f_field, field).flux
        beta0 = first_residue(fl)["beta0"]
        L, _ = potential_L(fl, beta0)
        pots = potential_set(L, beta0, field, curv, grid.band(0.15, 0.85))
        out = verify_system(pots, field)
        for key in res:
            res[key].append(out[key]["rms"])
        hs.append(grid.ds)
    for key, vals in res.items():
        order = g.fit_order(hs, vals)
        assert order >= 1.0 or max(vals) < 1e-9, f"{key}: {vals}"

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time
from itertools import product
from math import comb

import numpy as np
from willmore.classify import VERDICTS, classify, decide
from willmore.curvature import curvature, delta_profile, willmore_energy
from willmore.expansion import fit_H, fit_phi, verify_constants
from willmore.grid import PolarGrid, circulation, dot, fit_order
from willmore.multiplier import MultiplierSpec, pmc_multiplier
from willmore.pipeline import run_pipeline
from willmore.potentials import potential_set, verify_system
from willmore.residual import FluxField, equation
from willmore.residues import branch_order, first_residue, potential_L
from willmore.surface import catalog_surface, conformal_factor, frame_and_gauss

from oracles import ext_wedge, hodge_star, radial_log_laplacian_oracle

RNG = np.random.default_rng(424242)


def _ok(n, msg):
    print(f"[criterion {n}] PASS - {msg}")


def analyzed(name, params, grid, m=3, thr=1e-6):
    field = catalog_surface(name, params, grid, m)
    frame = conformal_factor(field)
    frame = frame_and_gauss(field, frame, defect_threshold=thr)
    return field, frame, curvature(field, frame)


# -- criterion 1: algebra suite ----------------------------------------------

def test_criterion_1_algebra():
    t0 = time.time()
    for m in range(3, 9):
        for _ in range(6):
            p, q = (int(x) for x in RNG.integers(0, m + 1, 2))
            if p + q > m:
                continue
            a = RNG.integers(-9, 10, (comb(m, p),))
            b = RNG.integers(-9, 10, (comb(m, q),))
            assert np.array_equal(ext_wedge(m, p, a, q, b),
                                  (-1) ** (p * q) * ext_wedge(m, q, b, p, a))
            s = int(RNG.integers(0, m - p - q + 1))
            c = RNG.integers(-9, 10, (comb(m, s),))
            assert np.array_equal(
                ext_wedge(m, p + q, ext_wedge(m, p, a, q, b), s, c),
                ext_wedge(m, p, a, q + s, ext_wedge(m, q, b, s, c)))
        for k in range(0, m + 1):
            a = RNG.integers(-9, 10, (comb(m, k),))
            assert np.array_equal(hodge_star(m, m - k, hodge_star(m, k, a)),
                                  (-1) ** (k * (m - k)) * a)
            af = RNG.standard_normal(comb(m, k))
            bf = RNG.standard_normal(comb(m, k))
            star_ab = dot(hodge_star(m, k, af), hodge_star(m, k, bf))
            assert abs(star_ab - dot(af, bf)) < 1e-12 * max(1, abs(dot(af, bf)))
        # Hodge frame identities on a random positively oriented frame
        qmat, _ = np.linalg.qr(RNG.standard_normal((m, m)))
        if np.linalg.det(qmat) < 0:
            qmat[:, 0] = -qmat[:, 0]
        frame = list(qmat.T)
        n = frame[2]
        for k, v in enumerate(frame[3:], start=1):
            n = ext_wedge(m, k, n, 1, v)
        n_e = lambda e: hodge_star(m, m - 1, ext_wedge(m, m - 2, n, 1, e))
        assert np.max(np.abs(n_e(frame[0]) - frame[1])) < 1e-12
        assert np.max(np.abs(n_e(frame[1]) + frame[0])) < 1e-12
        assert np.max(np.abs(hodge_star(m, 2, ext_wedge(m, 1, frame[0], 1,
                                                        frame[1])) - n)) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _ok(1, f"exact integer algebra and Hodge identities, m = 3..8 "
           f"({elapsed:.1f} s)")


# -- criterion 2: energy reproduction ----------------------------------------

def test_criterion_2_energy():
    t0 = time.time()
    grid = PolarGrid(1e-4, 1.0, 256, 256)
    _, _, curv = analyzed("sphere_stereographic", {"R": 1.0}, grid)
    w_sphere = 2.0 * willmore_energy(curv)
    err_s = abs(w_sphere - 4 * np.pi) / (4 * np.pi)
    assert err_s < 1e-6

    grid = PolarGrid(0.05, 1.0, 64, 256)
    _, _, curv = analyzed("clifford_torus_patch", {"scale": 1.0}, grid, m=4)
    dens = curv.energy_density
    w_torus = float(np.mean(dens)) * (2 * np.pi) ** 2
    err_t = abs(w_torus - 2 * np.pi ** 2) / (2 * np.pi ** 2)
    assert np.max(dens) - np.min(dens) < 1e-10
    assert err_t < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _ok(2, f"sphere 4pi to {err_s:.1e}, Clifford torus 2pi^2 to {err_t:.1e} "
           f"({elapsed:.1f} s)")


# -- criterion 3: Willmore verification --------------------------------------

def test_criterion_3_willmore_verification():
    t0 = time.time()
    cases = [("plane", {}, False), ("catenoid_end", {}, False),
             ("sphere_stereographic", {}, False),
             ("inverted_catenoid", {}, False),
             ("cylinder_cmc", {"radius": 0.75}, True)]
    summary = []
    for name, params, with_f in cases:
        strongs, divs, hs = [], [], []
        for n in (32, 64, 128):
            grid = PolarGrid(0.1, 0.9999, n, n)
            field, frame, curv = analyzed(name, params, grid)
            f_field = None
            if with_f:
                f_field = pmc_multiplier(curv, frame)["f_pmc"]
            norms = equation(curv, frame, f_field, field).norms
            strongs.append(norms["strong"]["rms"])
            divs.append(norms["div"]["rms"])
            hs.append(grid.ds)
        for label, errs in (("strong", strongs), ("div", divs)):
            if max(errs) < 1e-9:
                summary.append(f"{name}/{label}: identically satisfied")
                continue
            order = fit_order(hs, errs)
            assert order >= 1.8, f"{name} {label}: {errs} (order {order:.2f})"
            summary.append(f"{name}/{label}: order {order:.2f}")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _ok(3, "; ".join(summary) + f" ({elapsed:.1f} s)")


# -- criterion 4: first residue ----------------------------------------------

def test_criterion_4_first_residue():
    t0 = time.time()
    # planted flux: beta0 recovered to 1e-10 with spread < 1e-6 on 5 circles
    grid = PolarGrid(0.02, 1.0, 64, 64)
    beta0 = np.array([0.8, -1.3, 2.2])
    px = np.stack([3 * (grid.z ** 2).real, grid.y, (2 * grid.z).imag])
    py = np.stack([-3 * (grid.z ** 2).imag, grid.x, (2 * grid.z).real])
    r2 = grid.rr ** 2
    vx = 2 * beta0[:, None, None] * grid.x / r2 - py
    vy = 2 * beta0[:, None, None] * grid.y / r2 + px
    raw = np.stack([vx, vy])
    fl = FluxField(grid, raw)
    out = first_residue(fl)
    assert np.max(np.abs(out["beta0"] - beta0)) < 1e-10
    assert out["rho_spread"] < 1e-6

    # plane: zero
    grid = PolarGrid(0.02, 1.0, 64, 64)
    field, frame, curv = analyzed("plane", {}, grid)
    zero = first_residue(equation(curv, frame).flux)
    assert np.max(np.abs(zero["beta0"])) < 1e-12

    # inverted catenoid: nonzero, rho-independent, 3 significant digits,
    # from the circulation of the flux through the circles at 30-50% of
    # the rows
    vals = []
    for n_r in (512, 1024):
        grid = PolarGrid(1e-3, 1.0, n_r, 64)
        field, frame, curv = analyzed("inverted_catenoid", {}, grid)
        fl = equation(curv, frame).flux
        circles = np.linspace(int(0.3 * n_r), int(0.5 * n_r), 5).astype(int)
        table = (circulation(grid, fl.raw[0], fl.raw[1])[:, circles].T
                 / (4 * np.pi))
        vals.append(table.mean(axis=0))
        if n_r == 1024:
            assert np.max(np.linalg.norm(table - vals[-1], axis=-1)) < 1e-6
    n1, n2 = (float(np.linalg.norm(v)) for v in vals)
    assert n2 > 1.0
    assert abs(n1 - n2) / n2 < 5e-4  # stable to 3 significant digits
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(4, f"planted recovery 1e-10, inverted catenoid |beta0| = {n2:.4f} "
           f"stable ({elapsed:.1f} s)")


# -- criterion 5: second residue ---------------------------------------------

def test_criterion_5_second_residue():
    t0 = time.time()
    checked = 0
    for theta0 in (1, 2, 3, 4):
        for a in range(theta0):
            E = np.zeros(4, complex)
            E[2] = 1.0 + (0.5j if a else 0.0)
            E[3] = -0.3
            doc = run_pipeline({
                "surface": {"name": "synthetic_th4", "ambient_dim": 4,
                            "params": {"theta0": theta0, "a": a, "E_a": E,
                                       "gamma0": [0, 0, 0.25, 0]}},
                "grid": {"r_min": 1e-4, "r_max": 1.0, "n_r": 96,
                         "n_theta": 64},
                "with_expansion": False,
            })
            res = doc["residues"]
            assert res["a"] == a, f"theta0={theta0}, a={a}"
            live = ~np.array(doc["levels"][-1]["winding_degenerate"])
            expect = np.where(np.abs(E) > 0, a, 0)
            got = np.array(res["gamma"])
            assert np.array_equal(got[live], expect[live])
            assert np.all(got[~live] == 0)
            raw = np.array(doc["levels"][-1]["winding_raw"])[:, live]
            if raw.size:
                assert np.nanmax(np.abs(raw - np.rint(raw))) < 0.05
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _ok(5, f"exact (gamma, a) recovery for {checked} planted branch "
           f"configurations, raw windings within 0.05 ({elapsed:.1f} s)")


# -- criterion 6: expansion round trip ---------------------------------------

def test_criterion_6_expansion_round_trip():
    t0 = time.time()
    oracle = radial_log_laplacian_oracle(3)
    assert oracle["cubic_error"] < 1e-5
    assert oracle["quadratic_error"] > 1.0

    m = 4
    theta0, a = 3, 1
    A = np.zeros(m, complex)
    A[0], A[1] = 1.1, 1.1j
    B = [np.array([0.2, 0.1j, -0.3, 0.05]), np.array([0, 0, 0.2j, 0.1])]
    E = np.zeros(m, complex)
    E[2], E[3] = 0.8 + 0.3j, -0.25
    g0 = np.array([0, 0, 0.4, -0.15])
    xi = np.array([0.3, 0, 0.2j, 0])
    grid = PolarGrid(1e-2, 1.0, 96, 64)
    field = catalog_surface("synthetic_th4",
                            {"theta0": theta0, "a": a, "A": A, "B": B,
                             "E_a": E, "gamma0": g0, "xi": xi}, grid, m)
    frame = conformal_factor(field)
    frame = frame_and_gauss(field, frame, defect_threshold=2.0)
    br = branch_order(grid, frame.lam)
    fit = fit_phi(field, theta0, a, br.u0)
    assert np.max(np.abs(fit.A - A)) < 1e-6
    assert all(np.max(np.abs(bf - bp)) < 1e-4 for bf, bp in zip(fit.B, B))
    assert np.max(np.abs(fit.E_a - E)) < 1e-4
    assert np.max(np.abs(fit.gamma0_fit - g0)) < 1e-6
    assert abs(fit.remainder_exponent_phi - (2 * theta0 - a + 1)) < 0.1

    hfit = fit_H(curvature(field, frame), theta0, a, br.u0)
    assert np.max(np.abs(hfit["E_a"] - E)) < 1e-4
    assert hfit["eta_exponent"] >= (1 - a) - 0.1

    vc = verify_constants(fit, theta0, a, br.u0, g0, hfit["E_a"])
    assert vc["C_defect"] < 1e-4
    assert vc["C_theta_a_defect"] < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(6, f"A to {np.max(np.abs(fit.A - A)):.1e}, gamma0 to "
           f"{np.max(np.abs(fit.gamma0_fit - g0)):.1e}, exponent "
           f"{fit.remainder_exponent_phi:.3f}, constants defect "
           f"{max(vc['C_defect'], vc['C_theta_a_defect']):.1e} "
           f"({elapsed:.1f} s)")


# -- criterion 7: potential identities ---------------------------------------

def test_criterion_7_potential_identities():
    t0 = time.time()
    summary = []
    for name, r_min, band in (("sphere_stereographic", 0.05, (0.1, 0.9)),
                              ("inverted_catenoid", 1e-3, (0.2, 0.8))):
        res = {"sysS": [], "sysR": [], "delphi": []}
        hs = []
        for n in (48, 96, 192):
            grid = PolarGrid(r_min, 1.0, n, 64)
            field, frame, curv = analyzed(name, {}, grid)
            curv = curvature(field, frame)
            fl = equation(curv, frame).flux
            beta0 = first_residue(fl)["beta0"]
            L, _ = potential_L(fl, beta0)
            pots = potential_set(L, beta0, field, curv, grid.band(*band))
            out = verify_system(pots, field)
            for key in res:
                res[key].append(out[key]["rms"])
            hs.append(grid.ds)
        for key, vals in res.items():
            order = fit_order(hs, vals)
            assert order >= 1.0 or max(vals) < 1e-10, f"{name} {key}: {vals}"
            summary.append(f"{name.split('_')[0]}/{key}: "
                           + ("floor" if max(vals) < 1e-10
                              else f"order {order:.2f}"))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _ok(7, "; ".join(summary) + f" ({elapsed:.1f} s)")


# -- criterion 8: classifier decision table ----------------------------------

def test_criterion_8_classifier():
    t0 = time.time()
    combos = 0
    for theta0, g0z, gz, mu, pmc, reg, rng in product(
            (1, 2, 3), (True, False), (True, False), (None, -1, 0, 1),
            (True, False), (True, False), (True, False)):
        for a in range(theta0):
            verdict, cites, _ = decide(theta0, a, g0z, gz, mu, pmc, reg, rng)
            assert verdict in VERDICTS and cites
            combos += 1

    def rep(theta0=1, a=0, beta0=(0, 0, 0), gamma=(0, 0, 0), spread=1e-9):
        from willmore.residues import ResidueReport
        b = np.asarray(beta0, float)
        return ResidueReport(theta0, 0.0, np.array([1, 1j, 0]), b, spread,
                             b, np.asarray(gamma, int), int(max(gamma)))

    scenarios = [
        (rep(theta0=1), MultiplierSpec(mu=0, a_mu=1.0), False, False,
         "smooth"),
        (rep(theta0=2), MultiplierSpec(mu=0, a_mu=1.0), False, False,
         "c_theta_plus_one_alpha"),
        (rep(theta0=1), MultiplierSpec(mu=-1, a_mu=1.0), False, True,
         "regular_point_c2alpha"),
        (rep(theta0=1), MultiplierSpec.zero_spec(), True, False, "smooth"),
        (rep(theta0=1), MultiplierSpec(mu=0, a_mu=1.0), False, True,
         "regular_point_smooth"),
        (rep(theta0=1, beta0=(0, 0, 2.0), spread=1e-4),
         MultiplierSpec.zero_spec(), False, False, "c_one_alpha_worst_case"),
    ]
    for report, spec, pmc, reg, expect in scenarios:
        got = classify(report, spec, pmc=pmc, regular=reg).verdict
        assert got == expect, f"expected {expect}, got {got}"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _ok(8, f"decision table total over {combos} combinations; six scenario "
           f"rows verbatim ({elapsed:.1f} s)")


# -- criterion 9: delta diagnostic -------------------------------------------

def test_criterion_9_delta_profile():
    t0 = time.time()
    entries = [("plane", {}, 3), ("branched_plane", {"theta0": 2}, 3),
               ("sphere_stereographic", {}, 3), ("catenoid_end", {}, 3),
               ("inverted_catenoid", {}, 3), ("cylinder_cmc", {}, 3),
               ("clifford_torus_patch", {"scale": 1.0}, 4)]
    names = []
    for name, params, m in entries:
        grid = PolarGrid(1e-3, 1.0, 96, 64)
        field, frame, curv = analyzed(name, params, grid, m=m)
        prof = delta_profile(curv)
        d, r = prof["delta"], prof["r"]
        assert np.isfinite(prof["square_integral"])
        if np.max(d) < 1e-10:
            names.append(f"{name}: flat")
            continue
        means = []
        for k in range(4):
            band = (r >= grid.r_min * 2 ** k) & (r < grid.r_min * 2 ** (k + 1))
            means.append(float(np.mean(d[band])))
        assert means[0] < means[1] < means[2] < means[3], (name, means)
        names.append(f"{name}: decays")
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(9, "; ".join(names) + f" ({elapsed:.1f} s)")

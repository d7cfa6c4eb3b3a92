import numpy as np
import pytest

from willmore import grid as g
from willmore.grid import PolarGrid
from willmore.curvature import (
    curvature, delta_profile, gauss_bonnet_check, weingarten_constant,
    willmore_energy,
)
from willmore.surface import (BranchData, catalog_surface, conformal_factor,
                              frame_and_gauss)

from oracles import (H_norm, bending_energy_density,
                     gauss_curvature_from_liouville, tangential_H_defect)


def setup(name, params=None, grid=None, m=3):
    grid = grid or PolarGrid(0.01, 1.0, 64, 64)
    field = catalog_surface(name, params, grid, m)
    frame = frame_and_gauss(field, conformal_factor(field))
    return field, frame, curvature(field, frame)


def test_plane_flat():
    _, _, curv = setup("plane")
    assert np.max(np.abs(curv.H)) < 1e-12
    assert np.max(np.abs(curv.H0)) < 1e-12
    assert np.max(np.abs(curv.K)) < 1e-12


def test_sphere_umbilic_closed_forms():
    R = 1.4
    _, frame, curv = setup("sphere_stereographic", {"R": R})
    assert np.max(np.abs(H_norm(curv) - 1.0 / R)) < 1e-10
    assert np.max(np.abs(curv.H0)) < 1e-8
    assert np.max(np.abs(curv.K - 1.0 / R ** 2)) < 1e-10
    assert tangential_H_defect(curv, frame) < 1e-10


def test_catenoid_minimal():
    _, _, curv = setup("catenoid_end")
    assert np.max(H_norm(curv)) < 1e-10
    assert np.max(curv.K) < 0.0


def test_cylinder_cmc_curvatures():
    rho = 0.75
    _, _, curv = setup("cylinder_cmc", {"radius": rho})
    assert np.max(np.abs(H_norm(curv) - 1.0 / (2 * rho))) < 1e-10
    h0 = np.linalg.norm(curv.H0, axis=0)
    assert np.max(np.abs(h0 - 1.0 / (2 * rho))) < 1e-10
    assert np.max(np.abs(curv.K)) < 1e-10


def test_full_sphere_energy_two_charts():
    grid = PolarGrid(1e-4, 1.0, 96, 128)
    _, _, curv = setup("sphere_stereographic", {"R": 2.0}, grid=grid)
    w = 2.0 * willmore_energy(curv)
    assert abs(w - 4 * np.pi) / (4 * np.pi) < 1e-6


def test_clifford_torus_energy():
    # constant density: the fundamental chart domain [0, 2pi)^2 carries 2 pi^2
    grid = PolarGrid(0.05, 1.0, 48, 64)
    _, _, curv = setup("clifford_torus_patch", {"scale": 1.0}, grid=grid, m=4)
    dens = curv.energy_density
    assert np.max(dens) - np.min(dens) < 1e-10
    w_full = float(np.mean(dens)) * (2 * np.pi) ** 2
    assert abs(w_full - 2 * np.pi ** 2) / (2 * np.pi ** 2) < 1e-10


def test_energy_identity_gauss_map_vs_fundamental_form():
    # int |grad n|^2 dx = int |II|^2 dvol; |grad n| is a discrete derivative,
    # so agreement is to quadrature tolerance and sharpens under refinement.
    # Both are integrated over the rows of the band of [0.1, 0.9], away
    # from the one-sided stencils at the rims
    for name, m in (("sphere_stereographic", 3), ("inverted_catenoid", 3),
                    ("clifford_torus_patch", 4)):
        gaps, hs = [], []
        for n_r, n_theta in ((48, 32), (96, 64), (192, 128)):
            grid = PolarGrid(0.05, 1.0, n_r, n_theta)
            field = catalog_surface(name, {}, grid, m)
            frame = frame_and_gauss(field, conformal_factor(field))
            curv = curvature(field, frame)
            band = grid.band(0.1, 0.9)
            a = g.integrate_means(band, g.circle_mean(
                curv.dn_norm[band.rows] ** 2))
            b = g.integrate_means(band, g.circle_mean(
                bending_energy_density(field, frame)[band.rows]))
            gaps.append(abs(a - b) / max(abs(b), 1.0))
            hs.append(grid.ds)
        assert gaps[-1] < 2e-3, name
        assert g.fit_order(hs, gaps) >= 1.5, name


def test_weingarten_bounded_by_gauss_map_gradient():
    # e^lam |H0| <= 2 |grad n| nodewise away from the rims
    for name in ("sphere_stereographic", "inverted_catenoid", "cylinder_cmc"):
        _, frame, curv = setup(name)
        lhs = np.exp(curv.lam) * np.abs(np.linalg.norm(curv.H0, axis=0))
        rhs = curv.dn_norm
        sl = slice(5, -5)
        assert np.max((lhs[sl] - 2.0 * rhs[sl])) < 1e-6, name


def test_liouville_residual_sphere_converges():
    errs, hs = [], []
    for n_r in (32, 64, 128):
        grid = PolarGrid(0.05, 1.0, n_r, 64)
        field = catalog_surface("sphere_stereographic", {}, grid, 3)
        frame = frame_and_gauss(field, conformal_factor(field))
        # theta0 = 1 on the sphere, so u = lam
        br = BranchData(1, 0.0, frame.lam, float(frame.lam[-1, 0]))
        curv = curvature(field, frame)
        errs.append(gauss_bonnet_check(curv, br)["max"])
        hs.append(grid.ds)
    assert g.fit_order(hs, errs) >= 1.9


def test_liouville_residual_branched_plane_flat():
    grid = PolarGrid(0.05, 1.0, 48, 64)
    field = catalog_surface("branched_plane", {"theta0": 2}, grid, 3)
    frame = frame_and_gauss(field, conformal_factor(field))
    u = frame.lam - np.log(grid.rr)
    br = BranchData(2, 1.0, u, float(u[0, 0]))
    curv = curvature(field, frame)
    assert gauss_bonnet_check(curv, br)["max"] < 1e-7


def test_delta_profile_plane_zero():
    _, _, curv = setup("plane")
    prof = delta_profile(curv)
    assert np.max(prof["delta"]) < 1e-10


def test_delta_profile_sphere_vanishes_at_origin():
    _, _, curv = setup("sphere_stereographic")
    prof = delta_profile(curv)
    d = prof["delta"]
    n = len(d)
    assert d[0] < d[n // 2] < d[-1]
    assert d[0] < 0.05 * d[-1]


def test_delta_profile_inverted_catenoid():
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    _, _, curv = setup("inverted_catenoid", grid=grid)
    prof = delta_profile(curv)
    d, r = prof["delta"], prof["r"]
    # vanishes toward the branch point and has finite square integral
    inner = r < 8 * grid.r_min
    assert np.max(d[inner]) < 0.2 * np.max(d)
    assert np.isfinite(prof["square_integral"])
    # monotone decay over the three innermost dyadic annuli
    for k in range(3):
        lo, hi = grid.r_min * 2 ** k, grid.r_min * 2 ** (k + 1)
        band = (r >= lo) & (r < hi)
        nxt = (r >= hi) & (r < 2 * hi)
        assert np.mean(d[band]) < np.mean(d[nxt])


def test_energy_reads_every_row():
    # the unit sphere has |H| = 1, so the energy is the area of the
    # stereographic image of r_min < |z| < 1: 4 pi (1/(1 + r_min^2) - 1/2).
    # r_min is taken where the first circle, exp(log r_min), rounds below
    # r_min (which values do depends on the platform's exp and log); that
    # row must still be integrated
    grid = next(gr for v in np.round(np.arange(0.24, 0.25, 1e-4), 4)
                if (gr := PolarGrid(float(v), 1.0, 96, 64)).r[0] < gr.r_min)
    r_min = grid.r_min
    _, frame, curv = setup("sphere_stereographic", {"R": 1.0}, grid=grid)
    want = 4 * np.pi * (1 / (1 + r_min ** 2) - 0.5)
    assert willmore_energy(curv) == pytest.approx(want, rel=1e-8)


def test_normality_across_catalog():
    for name, m in (("sphere_stereographic", 3), ("inverted_catenoid", 3),
                    ("cylinder_cmc", 3), ("clifford_torus_patch", 4)):
        _, frame, curv = setup(name, m=m)
        assert tangential_H_defect(curv, frame) < 1e-6, name


def test_weingarten_constant_bounded_by_two():
    # e^lam |H0| <= c |grad n| with c <= 2; the measured best constant is
    # reported per run
    for name in ("inverted_catenoid", "cylinder_cmc"):
        _, _, curv = setup(name)
        c = weingarten_constant(curv)
        assert 0 < c <= 2.0 + 1e-6, (name, c)


def test_weingarten_constant_zero_on_flat_chart():
    # the branched plane's |grad n| is rounding noise (r |grad n| ~ 1e-16),
    # so no node holds a ratio and the constant stays 0
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    _, _, curv = setup("branched_plane", {"theta0": 2}, grid)
    assert np.max(grid.rr * curv.dn_norm) < 1e-13
    assert weingarten_constant(curv) == 0.0


def test_liouville_route_cross_validates_K():
    # -Lap u e^{-2 lam} agrees with the det(II) Gauss curvature
    errs, hs = [], []
    for n_r in (48, 96, 192):
        grid = PolarGrid(0.05, 1.0, n_r, 64)
        field = catalog_surface("sphere_stereographic", {"R": 1.2}, grid, 3)
        frame = frame_and_gauss(field, conformal_factor(field))
        br = BranchData(1, 0.0, frame.lam, float(frame.lam[-1, 0]))
        curv = curvature(field, frame)
        K2 = gauss_curvature_from_liouville(curv, br)
        errs.append(g.annulus_norms(grid, K2 - curv.K)["max"])
        hs.append(grid.ds)
    assert g.fit_order(hs, errs) >= 1.9

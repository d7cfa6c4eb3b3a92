import numpy as np
import pytest

from willmore import grid as g
from willmore import pipeline
from willmore.grid import PolarGrid, dot
from willmore.curvature import curvature
from willmore.multiplier import MultiplierSpec, pmc_multiplier
from willmore.residual import equation, star_dn_wedge
from willmore.surface import (CATALOG, ImmersionField, catalog_surface,
                              conformal_factor, frame_and_gauss, from_chart)

from oracles import (antiholomorphy_identity_norms, inverted_chart,
                     star_dn_wedge_algebra, star_dn_wedge_stencil, stencil_dn)

LEVELS = ((32, 32), (64, 64), (128, 128))


def setup(name, params=None, grid=None, m=3):
    grid = grid or PolarGrid(0.1, 0.9999, 64, 64)
    field = catalog_surface(name, params, grid, m)
    frame = frame_and_gauss(field, conformal_factor(field))
    return field, frame, curvature(field, frame)


def sweep(name, params=None, m=3, with_pmc_multiplier=False):
    strongs, divs, eqs, hs = [], [], [], []
    for n_r, n_theta in LEVELS:
        grid = PolarGrid(0.1, 0.9999, n_r, n_theta)
        field, frame, curv = setup(name, params, grid, m)
        f_field = None
        if with_pmc_multiplier:
            f_field = pmc_multiplier(curv, frame)["f_pmc"]
        norms = equation(curv, frame, f_field, field).norms
        strongs.append(norms["strong"]["rms"])
        divs.append(norms["div"]["rms"])
        eqs.append(norms["identity"]["rms"])
        hs.append(grid.ds)
    return strongs, divs, eqs, hs


def test_plane_zero_everything():
    field, frame, curv = setup("plane")
    eq = equation(curv, frame)
    assert eq.norms["strong"]["max"] == 0.0
    fl = eq.flux
    assert eq.norms["div"]["max"] == 0.0
    assert np.max(np.abs(fl.raw)) == 0.0


def test_sphere_strong_residual_second_order():
    strongs, divs, eqs, hs = sweep("sphere_stereographic")
    assert g.fit_order(hs, strongs) >= 1.8
    assert g.fit_order(hs, divs) >= 1.8
    assert g.fit_order(hs, eqs) >= 1.8


def test_inverted_catenoid_willmore_away_from_origin():
    strongs, divs, eqs, hs = sweep("inverted_catenoid")
    assert g.fit_order(hs, strongs) >= 1.8
    assert g.fit_order(hs, divs) >= 1.8
    assert g.fit_order(hs, eqs) >= 1.8


def test_catenoid_end_trivially_willmore():
    strongs, divs, _, _ = sweep("catenoid_end")
    assert strongs[-1] < 1e-10 and divs[-1] < 1e-9


def test_cylinder_with_pmc_multiplier():
    strongs, divs, eqs, hs = sweep("cylinder_cmc", {"radius": 0.75},
                                   with_pmc_multiplier=True)
    assert g.fit_order(hs, strongs) >= 1.8
    assert g.fit_order(hs, divs) >= 1.8
    assert g.fit_order(hs, eqs) >= 1.8


def test_cylinder_without_multiplier_not_willmore():
    # dropping the constraint term leaves an O(1) residual: the equation
    # really distinguishes constrained from plain Willmore
    strongs, _, _, _ = sweep("cylinder_cmc", {"radius": 0.75},
                             with_pmc_multiplier=False)
    assert strongs[-1] > 0.1


def test_clifford_torus_with_pmc_multiplier():
    strongs, divs, eqs, hs = sweep("clifford_torus_patch", {"scale": 1.0},
                                   m=4, with_pmc_multiplier=True)
    assert g.fit_order(hs, strongs) >= 1.8
    assert g.fit_order(hs, divs) >= 1.8


def test_antiholomorphy_identity_with_multiplier():
    grid = PolarGrid(0.1, 0.9999, 96, 96)
    field, frame, curv = setup("cylinder_cmc", {"radius": 0.75}, grid)
    f_field = pmc_multiplier(curv, frame)["f_pmc"]
    norms = antiholomorphy_identity_norms(curv, frame, f_field, field,
                                          0.1, 0.9)
    assert norms["rms"] < 1e-4


def test_planted_flux_divergence():
    # X = 2 beta0 grad log|x| + grad_perp psi is divergence free; with exact
    # components the discrete defect is O(h^2)
    beta0 = np.array([0.7, -0.3, 1.1])
    errs, hs = [], []
    for n_r, n_theta in LEVELS:
        grid = PolarGrid(0.05, 1.0, n_r, n_theta)
        # psi = Re(z^3) e_1 + x y e_2 (vector-valued stream function)
        psi_x = np.stack([3 * (grid.z ** 2).real, grid.y,
                          np.zeros_like(grid.x)])
        psi_y = np.stack([-3 * (grid.z ** 2).imag, grid.x,
                          np.zeros_like(grid.x)])
        r2 = grid.rr ** 2
        vx = 2 * beta0[:, None, None] * grid.x / r2 - psi_y
        vy = 2 * beta0[:, None, None] * grid.y / r2 + psi_x
        d = g.div(grid, vx, vy)
        errs.append(g.annulus_norms(grid, d)["max"])
        hs.append(grid.ds)
    assert g.fit_order(hs, errs) >= 1.9


def test_flux_beta0_subtraction_kills_circulation():
    grid = PolarGrid(1e-3, 0.9999, 96, 64)
    field, frame, curv = setup("inverted_catenoid", grid=grid)
    fl = equation(curv, frame).flux
    beta0 = g.circulation(grid, fl.raw[0], fl.raw[1]) / (4 * np.pi)
    b0 = beta0[:, 20:70].mean(axis=1)
    assert np.linalg.norm(b0) > 1.0  # nonzero first residue
    corrected = fl.corrected(b0)
    circ = g.circulation(grid, corrected[0], corrected[1])
    # inside the averaging band the leftover circulation is discretization noise
    assert np.max(np.abs(circ[:, 10:70])) < 1e-3 * np.linalg.norm(b0) * 4 * np.pi


def test_zero_multiplier_is_bitwise_willmore_flux():
    grid = PolarGrid(0.1, 0.9999, 48, 64)
    field, frame, curv = setup("sphere_stereographic", grid=grid)
    a = equation(curv, frame).flux
    zero_f = np.zeros((grid.n_r, grid.n_theta), dtype=complex)
    b = equation(curv, frame, zero_f, field).flux
    assert np.array_equal(a.raw, b.raw)


def test_equivalence_on_synthetic_with_multiplier():
    # the anti-holomorphy identity decays under refinement; the strong-vs-
    # divergence gap is conformality-limited for the synthetic template, so
    # it scales linearly with the planted coefficient size (and hence with
    # the template's conformality defect) instead of with h
    def gap_for(scale_c, n=96):
        params = {"theta0": 2, "a": 1,
                  "E_a": [[0.05 * scale_c, 0.02 * scale_c] if j == 2
                          else [0, 0] for j in range(4)],
                  "gamma0": [0, 0, 0.02 * scale_c, 0]}
        spec = MultiplierSpec(mu=0, a_mu=0.5 + 0.2j)
        grid = PolarGrid(0.01, 0.5, n, 64)
        field = catalog_surface("synthetic_th4", params, grid, 4)
        conformal = conformal_factor(field)
        defect = float(np.max(conformal[1]))
        frame = frame_and_gauss(field, conformal, defect_threshold=1.0)
        curv = curvature(field, frame)
        f_field = spec.evaluate(grid.z)
        eq = equation(curv, frame, f_field, field)
        # the gap |strong + (e^{-2 lam} / 2) div X_raw| per node lies
        # between the difference and the sum of the two terms' lengths
        gap_node = np.sqrt(eq.squares["identity"])
        strong = np.sqrt(eq.squares["strong"])
        half_div = 0.5 * np.sqrt(eq.squares["div"]) / np.exp(2.0 * frame.lam)
        slack = 1e-10 * (strong + half_div)
        assert np.all(gap_node <= strong + half_div + slack)
        assert np.all(gap_node >= np.abs(strong - half_div) - slack)
        gap = g.annulus_norms(grid, gap_node, 0.05, 0.4)
        anti = antiholomorphy_identity_norms(curv, frame, f_field, field,
                                             0.05, 0.4)
        return gap["rms"], anti["rms"], defect

    gap1, anti1, defect1 = gap_for(1.0)
    gap2, anti2, defect2 = gap_for(0.1)
    assert defect2 < 0.2 * defect1
    assert gap2 < 0.2 * gap1  # identity error tracks the conformality defect

    anti, hs = [], []
    for n in (48, 96, 192):
        _, a_, _ = gap_for(1.0, n)
        anti.append(a_)
        hs.append(np.log(0.5 / 0.01) / (n - 1))
    assert g.fit_order(hs, anti) >= 1.8


MULTIPLIERS = {"zero": None, "pmc": {"mode": "pmc"},
               "spec": {"mu": 0, "a_mu": [0.5, 0.2],
                        "f0": [[0, 0], [0.3, 0], [0, -0.1]]}}


def _level_pass(field, multiplier):
    """The level pass of ``pipeline.level_pass`` with ``multiplier``."""
    settings = pipeline.resolve({"surface": {"name": "inverted_catenoid"},
                                 "multiplier": MULTIPLIERS[multiplier]})
    return pipeline.level_pass(settings, field)


@pytest.mark.parametrize("multiplier", ["zero", "spec", "pmc"])
@pytest.mark.parametrize("budget", [1, 48 * 1024])  # 4-row and 32-row blocks
def test_row_blocks_equal_one_block(monkeypatch, multiplier, budget):
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    field = catalog_surface("inverted_catenoid", {}, grid, 3)
    assert len(list(grid.blocks(3, 2))) == 1
    curv, pmc, eq, defect = _level_pass(field, multiplier)
    # one block is the whole-grid kernels
    lam, whole_defect = conformal_factor(field)
    assert np.array_equal(curv.lam, lam)
    assert np.array_equal(defect, np.max(whole_defect, axis=-1))
    frame = frame_and_gauss(field, (lam, whole_defect))
    whole = curvature(field, frame)
    f = {"zero": None, "pmc": pmc_multiplier(whole, frame)["f_pmc"],
         "spec": MultiplierSpec.from_json(MULTIPLIERS["spec"]).evaluate(
             grid.z)}[multiplier]
    for name in ("H", "K", "energy_density", "dn_norm", "eH0_norm"):
        assert np.array_equal(getattr(curv, name), getattr(whole, name))
    assert eq.norms == equation(whole, frame, f, field).norms

    monkeypatch.setattr(g, "BLOCK_BYTES", budget)
    bands = list(grid.blocks(3, 2))
    assert len(bands) >= 3
    assert bands[0].rows.start == 0 and bands[-1].rows.stop == grid.n_r
    # a level's field of the chart, sampled block by block
    level = ImmersionField(grid, np.empty_like(field.first),
                           chart=CATALOG["inverted_catenoid"]({}, 3))
    curv_b, pmc_b, eq_b, defect_b = _level_pass(level, multiplier)
    assert np.array_equal(level.first, field.first) and level.d2 is None
    assert np.array_equal(defect_b, defect)
    # whole arrays: the rows next to both grid ends, read through the
    # one-sided stencils, and the rows next to every block edge
    for name in ("lam", "H", "K", "energy_density", "dn_norm", "eH0_norm"):
        assert np.array_equal(getattr(curv_b, name), getattr(curv, name))
    assert curv_b.H0 is None and pmc_b.keys() == pmc.keys() == {
        "abs_max", "dz_max"}
    for key, v in pmc.items():
        assert np.array_equal(pmc_b[key], v)
    assert np.array_equal(eq_b.flux.raw, eq.flux.raw)
    assert eq_b.squares.keys() == eq.squares.keys()
    for key, sq in eq.squares.items():
        assert np.array_equal(eq_b.squares[key], sq)
    assert np.array_equal(eq_b.parallel, eq.parallel)
    assert np.array_equal(eq_b.scale, eq.scale)
    assert eq_b.norms == eq.norms
    assert eq_b.pmc_defect == eq.pmc_defect
    assert eq.norms["div"]["max"] > 0.0 and eq.pmc_defect > 0.0


def test_moebius_invariance_smoke():
    # inverting the plane about an off-surface center lands back in the
    # Willmore class: the strong residual still converges to zero
    errs, hs = [], []
    for n_r, n_theta in LEVELS:
        grid = PolarGrid(0.1, 0.9999, n_r, n_theta)
        chart = inverted_chart(CATALOG["plane"]({}, 3), center=[0.5, 0.0, 2.0])
        field = from_chart(chart, grid, 3)
        frame = frame_and_gauss(field, conformal_factor(field))
        curv = curvature(field, frame)
        errs.append(equation(curv, frame).norms["strong"]["rms"])
        hs.append(grid.ds)
    assert g.fit_order(hs, errs) >= 1.8


# every catalog chart, one of them at m = 8; synthetic_th4 is not conformal
FLUX_CHARTS = {
    "plane": (3, None), "branched_plane": (3, None),
    "sphere_stereographic": (3, None), "catenoid_end": (3, None),
    "inverted_catenoid": (8, None), "cylinder_cmc": (3, None),
    "clifford_torus_patch": (4, None),
    "synthetic_th4": (4, {"theta0": 3, "a": 1,
                          "E_a": [[0.0, 0.0], [0.0, 0.0],
                                  [0.2, 0.1], [-0.15, 0.12]],
                          "gamma0": [0.0, 0.0, 0.6, -0.5]}),
}


@pytest.mark.parametrize("name", sorted(FLUX_CHARTS))
def test_flux_term_frame_form(name):
    # star(d_i n ^ H) from the frame equals the exterior-algebra product of
    # the exact d_i n node by node; its gap to the stencil form
    # star(grad n ^ H), and the gap in |grad n|, fall at the stencil's order
    m, params = FLUX_CHARTS[name]
    term_gaps, norm_gaps = [], []
    for n_r in (48, 96, 192):
        grid = PolarGrid(1e-3, 1.0, n_r, 64)
        field = catalog_surface(name, params, grid, m)
        frame = frame_and_gauss(field, conformal_factor(field),
                                defect_threshold=2.0)
        curv = curvature(field, frame)
        H, dn_norm = curv.H, curv.dn_norm
        dn = stencil_dn(frame)
        eH = g.dot(frame.e1, H), g.dot(frame.e2, H)
        got = np.stack([star_dn_wedge(frame, H, eH, i) for i in (0, 1)])
        want = np.stack([star_dn_wedge_algebra(frame, H, i) for i in (0, 1)])
        old = np.stack([star_dn_wedge_stencil(dn[i], H) for i in (0, 1)])
        scale = max(float(np.max(np.abs(got))), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
        stencil_norm = np.sqrt(dot(dn[0], dn[0]) + dot(dn[1], dn[1]))
        if name in ("plane", "branched_plane"):
            # n is constant: |grad n| and the term sit at rounding level
            assert np.max(grid.rr * dn_norm) < 1e-13
            assert np.max(grid.rr * stencil_norm) < 1e-13
            assert scale < 1e-13
            continue
        gap = lambda a: g.annulus_norms(grid, np.linalg.norm(a, axis=0))
        term_gaps.append(max(gap(got[i] - old[i])["max"]
                             for i in (0, 1)) / scale)
        norm_gaps.append(g.annulus_norms(grid, stencil_norm - dn_norm)
                         ["max"] / float(np.max(dn_norm)))
    falls = lambda gaps: all(a >= 3.5 * b for a, b in zip(gaps, gaps[1:]))
    if name in ("plane", "branched_plane"):
        return
    assert falls(norm_gaps), norm_gaps
    if name == "catenoid_end":  # minimal: H, and so the term, is noise
        assert scale < 1e-12
    else:
        assert falls(term_gaps), term_gaps

"""Traced memory of the largest per-level transients.

tracemalloc sees every numpy data buffer, so the peak of a call measures
how many field-sized arrays it keeps alive at once.  The bounds are
multiples of one input field's bytes: the in-place curl-potential
integration peaks near 3.1 of its inputs (8.0 when every path quantity
had its own array), and a whole codim-6 level near 7.5 of its
28-component fields (23 when h_ij, grad H and the flux temporaries were
all kept; 15.8 while g, G, grad G, v_R and grad n stayed on the full grid
after their stages; 11.8 while g and G took 1 + C(m, 2) Poisson solves and
grad_perp R was formed 28 components wide; 9.5 while the Gauss map and its
stencil gradient were formed; 8.4 while the level's frame lived on for
verify_system; 7.6 while the level sampled its chart into one whole-grid
array with the second derivatives).  A pmc-mode m = 3 level of 191x256
nodes, which splits into three row blocks, peaks near 16.0 of its
3-component fields (16.4 while each block evaluated its chart on the
block's x and y at once; 18.6 while the chart's second derivatives were
sampled on the whole grid and H0 was formed through block-sized
temporaries; 23.5 while the level's frame, H0 and f_pmc were whole-grid
arrays; 26.4 while curvature and the equation pass ran on the whole grid
at once and the level kept the strong-form and divergence fields, the
frame and H0 until its end).
"""

import json
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np

from willmore import grid as g
from willmore import pipeline, potentials, surface
from willmore.cli import main
from willmore.curvature import CurvatureField, curvature
from willmore.grid import PolarGrid
from willmore.potentials import PotentialSet, potential_set
from willmore.residual import equation
from willmore.residues import first_residue, integrate_curl_potential, potential_L
from willmore.surface import catalog_surface, conformal_factor, frame_and_gauss


def traced_peak(fn, *args) -> int:
    """Bytes above the starting point at the peak of ``fn(*args)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_curl_potential_peak_is_three_inputs():
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    vx, vy = np.random.default_rng(7).standard_normal((2, 28, 96, 64))
    integrate_curl_potential(grid, vx, vy)  # the grid's trig tables
    assert traced_peak(integrate_curl_potential, grid, vx, vy) \
        < 3.5 * vx.nbytes


def test_codim6_level_peak():
    settings = pipeline.resolve({
        "surface": {"name": "inverted_catenoid", "ambient_dim": 8},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 48, "n_theta": 32},
        "with_potentials": True})
    grid = settings.grids[0]
    pipeline.analyze_level(settings, grid)  # grid caches, algebra tables
    field_bytes = grid.n_r * grid.n_theta * 28 * 8
    assert traced_peak(pipeline.analyze_level, settings, grid) \
        < 8 * field_bytes


def test_frame_is_dead_when_potential_set_runs(monkeypatch):
    # verify_system builds its frame on its band from the field, so the
    # level's frame dies after the equation pass in every mode
    refs, alive = [], []

    def frame(*args):
        out = frame_and_gauss(*args)
        refs.append(weakref.ref(out))
        return out

    def potentials(*args):
        alive.append(refs[0]() is not None)
        return potential_set(*args)

    monkeypatch.setattr(pipeline, "frame_and_gauss", frame)
    monkeypatch.setattr(pipeline, "potential_set", potentials)
    settings = pipeline.resolve({
        "surface": {"name": "inverted_catenoid", "ambient_dim": 4},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 48, "n_theta": 32},
        "with_potentials": True, "with_expansion": False})
    level, _ = pipeline.analyze_level(settings, settings.grids[0])
    assert len(refs) == 1 and alive == [False]
    assert level["system_residuals"].keys() == {"sysS", "sysR", "delphi"}


def test_pmc_level_peak_in_row_blocks():
    settings = pipeline.resolve({
        "surface": {"name": "cylinder_cmc", "params": {"radius": 0.75}},
        "multiplier": {"mode": "pmc"},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 191, "n_theta": 256}})
    grid = settings.grids[0]
    assert len(list(grid.blocks(3, 2))) == 3
    pipeline.analyze_level(settings, grid)  # grid caches
    field_bytes = grid.n_r * grid.n_theta * 3 * 8
    assert traced_peak(pipeline.analyze_level, settings, grid) \
        < 16.5 * field_bytes


def test_chart_sampled_one_row_block_at_a_time(monkeypatch):
    # each block samples the chart on its own rows and halo, and no call
    # spans the level: its second derivatives never exist whole-grid
    sampled, sample = [], surface.from_chart

    def from_chart(chart, grid, *args):
        sampled.append(grid.rows)
        return sample(chart, grid, *args)

    monkeypatch.setattr(surface, "from_chart", from_chart)
    settings = pipeline.resolve({
        "surface": {"name": "cylinder_cmc", "params": {"radius": 0.75}},
        "multiplier": {"mode": "pmc"},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 191, "n_theta": 256}})
    grid = settings.grids[0]
    bands = list(grid.blocks(3, 2))
    assert len(bands) == 3
    pipeline.analyze_level(settings, grid)
    assert sampled == [band.rows for band in bands]


def test_chart_sampled_in_row_strips(monkeypatch):
    # one 191x128 synthetic_th4 block (branch_th3's chart) is sampled in
    # strips of STRIP_BYTES per real plane: the jet temporaries add about
    # 1.2 of the block's six slots (first and d2) to them, against 3.5 when
    # the chart is evaluated on the whole block at once
    params = {"theta0": 3, "a": 1, "E_a": [0, 0, 0.2 + 0.1j, -0.15 + 0.12j],
              "gamma0": [0, 0, 0.6, -0.5]}
    grid = PolarGrid(1e-2, 1.0, 191, 128)
    band = next(grid.blocks(4, 2))
    assert band.n_r < grid.n_r and len(band.strips()) > 1
    chart = surface.catalog_chart("synthetic_th4", params, 4)
    slots = 6 * 4 * band.n_r * band.n_theta * 8
    surface.from_chart(chart, band, 4)  # the grid's trig tables
    assert traced_peak(surface.from_chart, chart, band, 4) < 3.0 * slots
    monkeypatch.setattr(g, "STRIP_BYTES", band.n_r * band.n_theta * 8)
    assert len(band.strips()) == 1
    assert traced_peak(surface.from_chart, chart, band, 4) > 3.0 * slots


def test_generate_samples_one_row_block_at_a_time(monkeypatch, tmp_path):
    # willmore generate fills the chart's samples through the level's own
    # accessor, one block's rows per call and no halo
    sampled, sample = [], surface.from_chart

    def from_chart(chart, grid, *args):
        sampled.append(grid.rows)
        return sample(chart, grid, *args)

    monkeypatch.setattr(surface, "from_chart", from_chart)
    config = {"surface": {"name": "cylinder_cmc", "params": {"radius": 0.75}},
              "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 191,
                       "n_theta": 256}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["generate", "--config", str(path),
                 "--out", str(tmp_path / "samples.csv")]) == 0
    bands = list(pipeline.resolve(config).grids[0].blocks(3, 0))
    assert len(bands) == 3
    assert sampled == [band.rows for band in bands]


def test_no_frame_spans_a_multi_block_level(monkeypatch):
    # the level pass builds one frame per row block and the system check
    # its own on its rows; the tangent projector reads grad Phi alone
    seen = []

    def frame(field, *args):
        seen.append(field.grid.n_r)
        return frame_and_gauss(field, *args)

    for module in (pipeline, potentials):
        monkeypatch.setattr(module, "frame_and_gauss", frame)
    monkeypatch.setattr(g, "BLOCK_BYTES", 32 * 1024)
    settings = pipeline.resolve({
        "surface": {"name": "cylinder_cmc", "params": {"radius": 0.75}},
        "multiplier": {"mode": "pmc"}, "with_potentials": True})
    grid = settings.grids[0]
    n_blocks = len(list(grid.blocks(3, 2)))
    assert n_blocks >= 3
    pipeline.analyze_level(settings, grid)
    assert len(seen) == n_blocks + 1
    assert max(seen) < grid.n_r


def test_potential_set_keeps_only_its_band():
    # g and G die inside the stage; the fields verify_system reads are
    # copies of the band's rows, not views that pin the full grid
    assert not {f.name for f in fields(PotentialSet)} & {"g", "G"}
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    field = catalog_surface("inverted_catenoid", {}, grid, 4)
    frame = frame_and_gauss(field, conformal_factor(field))
    curv = curvature(field, frame)
    fl = equation(curv, frame).flux
    beta0 = first_residue(fl)["beta0"]
    L, _ = potential_L(fl, beta0)
    band = grid.band(0.15, 0.85)
    pots = potential_set(L, beta0, field, curv, band)
    assert pots.band is band
    for v in pots.v_S + pots.v_R + pots.dg + pots.dG:
        assert v.shape[-2:] == (band.n_r, grid.n_theta)
        assert v.base is None


def test_curvature_field_keeps_no_second_fundamental_form():
    # h_ij are temporaries of K, and grad H belongs to the equation pass
    names = {f.name for f in fields(CurvatureField)}
    assert not names & {"h11", "h12", "h22"}
    assert not hasattr(CurvatureField, "dH")

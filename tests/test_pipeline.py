"""analyze_level builds each per-level quantity once and passes it on, and
reports what it measured, not noise."""

import importlib
import json
from collections import Counter

import numpy as np
import pytest

from willmore import grid as g
from willmore import (multiplier, multivec, pipeline, potentials, residual,
                      surface)
from willmore.grid import PolarGrid, grad

# the package exports the function ``curvature``, which shadows the module
curvature = importlib.import_module("willmore.curvature")

ONE_PASS_CONFIGS = {
    "pmc_cylinder": {"surface": {"name": "cylinder_cmc",
                                 "params": {"radius": 0.75}},
                     "multiplier": {"mode": "pmc"}},
    "zero_multiplier": {"surface": {"name": "inverted_catenoid"}},
    # the system check forms d(e1 ^ e2) from the frame's II, with no
    # gradient
    "codim6_potentials": {"surface": {"name": "inverted_catenoid",
                                      "ambient_dim": 8},
                          "with_potentials": True},
}


def _count(monkeypatch, calls, key, fn, *modules):
    """Replace ``fn`` by a counting wrapper under its name in ``modules``."""
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, counted, raising=False)


def _count_projections(monkeypatch, calls, *modules):
    """Count every application of a ``normal_projector`` built in
    ``modules``."""
    make = surface.normal_projector

    def counted_projector(frame):
        project = make(frame)

        def counted(v):
            calls["project"] += 1
            return project(v)
        return counted
    for mod in modules:
        monkeypatch.setattr(mod, "normal_projector", counted_projector,
                            raising=False)


@pytest.mark.parametrize("name", sorted(ONE_PASS_CONFIGS))
def test_analyze_level_runs_each_stage_once(name, monkeypatch):
    calls = Counter()
    # patched where defined too, so a call from inside another stage counts
    _count(monkeypatch, calls, "equation", residual.equation, pipeline,
           residual)
    _count(monkeypatch, calls, "pmc_multiplier", multiplier.pmc_multiplier,
           pipeline, multiplier)
    # grad H is the only gradient the equation pass takes
    _count(monkeypatch, calls, "grad_H", grad, residual)
    # pi_n H_x, pi_n H_y and pi_n div(pi_n grad H) in the equation pass;
    # curvature reads the frame's II = pi_n d2 Phi
    _count_projections(monkeypatch, calls, curvature, residual, multiplier)
    # f's anti-holomorphy defect is the level's only dz
    _count(monkeypatch, calls, "dz", g.dz, g, multiplier, residual)
    pipeline.analyze_level(pipeline.resolve(ONE_PASS_CONFIGS[name]),
                           PolarGrid(1e-3, 1.0, 96, 64))
    assert calls == {"equation": 1, "pmc_multiplier": 1, "grad_H": 1,
                     "project": 3, "dz": 1}


BLOCKED_CONFIGS = {
    "pmc_cylinder": ONE_PASS_CONFIGS["pmc_cylinder"],
    "spec_multiplier": {"surface": {"name": "inverted_catenoid"},
                        "multiplier": {"mu": 0, "a_mu": [0.5, -0.25],
                                       "f0": [[0.0, 0.0], [0.2, 0.1]]}},
    "codim6_potentials": ONE_PASS_CONFIGS["codim6_potentials"],
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CONFIGS))
def test_blocked_level_record_is_the_one_block_record(name, monkeypatch):
    # every kept row of the level pass equals the one-block pass, so the
    # whole level record and the residues agree to the bit
    settings = pipeline.resolve(BLOCKED_CONFIGS[name])
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    m = settings.surface["ambient_dim"]
    assert len(list(grid.blocks(m, 2))) == 1
    dump = lambda run: json.dumps(g.jsonable([run[0], run[1].to_json()]))
    one = dump(pipeline.analyze_level(settings, grid))
    monkeypatch.setattr(g, "BLOCK_BYTES", 32 * 1024)
    assert len(list(grid.blocks(m, 2))) >= 3
    assert dump(pipeline.analyze_level(settings, grid)) == one


@pytest.mark.parametrize("surface, message", [
    ({"name": "no_such_chart"}, "unknown catalog surface 'no_such_chart'"),
    ({"name": "cylinder_cmc", "params": {"radius": -0.5}},
     "cylinder radius must be positive"),
    ({"name": "clifford_torus_patch", "ambient_dim": 3},
     "the Clifford torus needs ambient dimension >= 4"),
    ({"name": "synthetic_th4", "params": {"theta0": 2, "a": 2}},
     "need theta0 >= 1 and 0 <= a <= theta0 - 1"),
    ({"name": "inverted_catenoid", "params": {"scale": True}},
     "the inverted_catenoid params entry 'scale' is not a finite number"),
])
def test_bad_catalog_entry_refused_before_any_level(monkeypatch, surface,
                                                    message):
    def build_field(*args):
        raise AssertionError("a level was begun")

    monkeypatch.setattr(pipeline, "build_field", build_field)
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.run_pipeline({"surface": surface})
    assert err.value.stage == "surface"
    assert str(err.value.cause).startswith(message)


@pytest.mark.parametrize("with_potentials", [False, True])
def test_exterior_algebra_only_with_potentials(monkeypatch, with_potentials):
    # the flux and |grad n| come from the frame: only the potentials stage
    # runs the exterior-algebra kernel
    calls = Counter()
    _count(monkeypatch, calls, "bilinear", multivec._apply_bilinear,
           multivec, potentials)
    pipeline.run_pipeline({
        "surface": {"name": "inverted_catenoid", "ambient_dim": 8},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 48, "n_theta": 32},
        "with_potentials": with_potentials})
    assert (calls["bilinear"] > 0) == with_potentials


def test_verify_system_takes_four_divergences(monkeypatch):
    # grad g and grad G arrive cached and d(e1 ^ e2) comes from the frame;
    # the four divergences take one angular derivative per input (8) and no
    # full gradient, each on the rows of the reported annulus [0.15, 0.85]
    # and one halo row only
    calls = Counter()
    verify = potentials.verify_system
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    band = grid.band(0.15, 0.85)
    div_rows = []

    def div(grid, vx, vy):
        calls["div"] += 1
        div_rows.extend((grid.n_r, vx.shape[-2], vy.shape[-2]))
        return g.div(grid, vx, vy)

    def counted_verify(*args, **kwargs):
        calls["verify_system"] += 1
        with monkeypatch.context() as inside:
            _count(inside, calls, "grad", grad, potentials, g)
            inside.setattr(potentials, "div", div)
            _count(inside, calls, "dtheta", g.dtheta, g)
            return verify(*args, **kwargs)

    monkeypatch.setattr(pipeline, "verify_system", counted_verify)
    pipeline.analyze_level(
        pipeline.resolve({"surface": {"name": "inverted_catenoid",
                                      "ambient_dim": 8},
                          "with_potentials": True}),
        grid)
    assert calls == {"verify_system": 1, "div": 4, "dtheta": 8}
    assert band.n_r < grid.n_r // 4
    assert div_rows == [band.n_r] * 12


def test_report_norms_are_the_equation_norms():
    # the equation owns the annulus of its norms: the library call and the
    # report agree to the bit
    settings = pipeline.resolve(ONE_PASS_CONFIGS["zero_multiplier"])
    chart = pipeline.build_field(settings, settings.grids[0])
    field = surface.from_chart(chart.chart, chart.grid, chart.ambient_dim)
    frame = surface.frame_and_gauss(field, surface.conformal_factor(field))
    norms = residual.equation(curvature.curvature(field, frame), frame).norms
    doc = pipeline.run_pipeline(ONE_PASS_CONFIGS["zero_multiplier"])
    level = doc["levels"][0]
    assert level["strong_norms"] == norms["strong"]
    assert level["div_norms"] == norms["div"]
    assert level["equivalence_norms"] == norms["identity"]


@pytest.mark.parametrize("with_potentials", [False, True])
def test_csv_level_differentiates_once(tmp_path, monkeypatch,
                                       with_potentials):
    # grad Phi and its second derivatives (3 calls) at load, and no
    # gradient of the Gauss map
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    path = tmp_path / "samples.csv"
    surface.save_samples_csv(
        surface.catalog_surface("inverted_catenoid", {}, grid, 3), path)
    calls = Counter()
    _count(monkeypatch, calls, "grad", grad, surface)
    pipeline.analyze_level(
        pipeline.resolve({"surface": {"csv": str(path)},
                          "tolerances": {"defect_threshold": 0.1},
                          "with_potentials": with_potentials}),
        grid)
    assert calls == {"grad": 3}


def test_run_pipeline_resolves_config_once(monkeypatch):
    # three levels: one resolve, and no level sees the raw config
    calls, received = Counter(), []
    _count(monkeypatch, calls, "resolve", pipeline.resolve, pipeline)
    analyze_level = pipeline.analyze_level

    def seen(settings, grid):
        received.append(settings)
        return analyze_level(settings, grid)

    monkeypatch.setattr(pipeline, "analyze_level", seen)
    pipeline.run_pipeline({
        "surface": {"name": "inverted_catenoid"},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 24, "n_theta": 32},
        "levels": 3, "with_expansion": False})
    assert calls == {"resolve": 1}
    assert len(received) == 3
    assert all(isinstance(s, pipeline.Settings) for s in received)


def test_degenerate_windings_reported_as_nan():
    doc = pipeline.run_pipeline({
        "surface": {"name": "inverted_catenoid"},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 48, "n_theta": 32},
        "levels": 2})
    raws = [(lv["winding_raw"], lv["winding_degenerate"])
            for lv in doc["levels"]]
    raws.append((doc["residues"]["diagnostics"]["winding_raw"],
                 doc["levels"][-1]["winding_degenerate"]))
    for raw, degenerate in raws:
        raw, degenerate = np.array(raw, dtype=float), np.array(degenerate)
        assert degenerate.any()
        assert np.all(np.isnan(raw[:, degenerate]))
        assert np.all(np.isfinite(raw[:, ~degenerate]))


def test_recorded_mode_follows_the_spec_not_its_spelling():
    # a spec flagged zero is the zero multiplier: it records mode "zero",
    # and everything but the config equals the null run's report
    def run(mult):
        doc = pipeline.run_pipeline({
            "surface": {"name": "inverted_catenoid"},
            "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 24, "n_theta": 32},
            "multiplier": mult, "with_expansion": False})
        del doc["config"], doc["elapsed_seconds"]
        return doc
    flagged = run({"zero": True})
    assert flagged["levels"][0]["multiplier"]["mode"] == "zero"
    assert json.dumps(flagged) == json.dumps(run(None))


def test_profile_csv_bytes_match_csv_writer(tmp_path):
    import csv
    r = np.geomspace(1e-3, 1.0, 7)
    cols = [r, list(np.sin(r) * 1e-300), [1, 2, 3, -0.0, np.nan, np.inf, 5e17],
            np.float32([0.1] * 7)]
    header = ["r", "abs_W_1", "abs_W_2", "abs_W_3"]
    surface.write_csv(tmp_path / "got.csv", header, cols)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*cols):
            w.writerow([repr(float(v)) for v in row])
    assert ((tmp_path / "got.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


# a planted branch point conformal only asymptotically, refused by a gate
# tighter than its outer rows' defect
SYNTH_PARAMS = {"theta0": 2, "a": 1, "gamma0": [0, 0, 0.25, 0],
                "E_a": [[0, 0], [0, 0], [1.0, 0.5], [0, 0]]}
SYNTH_STRICT = {"surface": {"name": "synthetic_th4", "ambient_dim": 4,
                            "params": SYNTH_PARAMS},
                "tolerances": {"defect_threshold": 1e-3}}


@pytest.mark.filterwarnings("error")
def test_defect_gate_refuses_before_the_frame():
    # one block: the whole grid's worst defect, in the message the gate
    # gave when it read a whole-grid defect plane; no frame of the
    # refused samples is formed, so no RuntimeWarning either
    settings = pipeline.resolve(SYNTH_STRICT)
    grid = settings.grids[0]
    assert len(list(grid.blocks(4, 2))) == 1
    field = surface.catalog_surface("synthetic_th4", SYNTH_PARAMS, grid, 4)
    worst = float(np.max(surface.conformal_factor(field)[1]))
    assert worst > 1e-3
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.run_pipeline(SYNTH_STRICT)
    assert err.value.stage == "frame_and_gauss"
    assert str(err.value.cause) == (f"conformal defect {worst:.3e} exceeds "
                                    "threshold 1.0e-03")


def test_defect_gate_refuses_in_row_blocks(monkeypatch):
    monkeypatch.setattr(g, "BLOCK_BYTES", 32 * 1024)
    assert len(list(pipeline.resolve(SYNTH_STRICT).grids[0].blocks(4, 2))) > 2
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.run_pipeline(SYNTH_STRICT)
    assert err.value.stage == "frame_and_gauss"
    assert str(err.value.cause).startswith("conformal defect ")


def test_non_integral_slope_refused_at_branch_order(tmp_path):
    # phi = r^(1/2) (x, y, 0) is not conformal (a loose gate lets it in),
    # and its lam rises as (1/2) log r: no integral branch order
    grid = PolarGrid()
    phi = np.sqrt(grid.rr) * np.stack([grid.x, grid.y, np.zeros_like(grid.x)])
    path = tmp_path / "samples.csv"
    surface.save_samples_csv(surface.from_samples(grid, phi), path)
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.run_pipeline({"surface": {"csv": str(path)},
                               "tolerances": {"defect_threshold": 1.0}})
    assert err.value.stage == "branch_order"
    assert "farther than 0.2 from an integer" in str(err.value.cause)


@pytest.mark.parametrize("budget", [None, 16 * 1024])
def test_vanishing_gradient_refused_at_conformal_factor(monkeypatch, budget):
    # (z - z0)^2 with z0 a node: grad Phi is exactly zero there, in a late
    # row block when the level is cut into several
    if budget:
        monkeypatch.setattr(g, "BLOCK_BYTES", budget)
    grid = PolarGrid()
    x0, y0 = grid.x[80, 5], grid.y[80, 5]

    def chart(x, y):
        u, v = x - x0, y - y0
        return [u * u - v * v, 2.0 * u * v, 0.0 * u]

    monkeypatch.setitem(surface.CATALOG, "plane", lambda params, m: chart)
    settings = pipeline.resolve({"surface": {"name": "plane"}})
    n_blocks = len(list(grid.blocks(3, 2)))
    assert n_blocks > 2 if budget else n_blocks == 1
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.analyze_level(settings, settings.grids[0])
    assert err.value.stage == "conformal_factor"
    assert "|grad Phi| vanishes at a node" in str(err.value.cause)

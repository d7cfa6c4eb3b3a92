import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from willmore import pipeline, surface
from willmore.cli import main
from willmore.pipeline import run_pipeline, PipelineError
from willmore.grid import GRID_KEYS, PolarGrid
from willmore.multiplier import SPEC_KEYS, MultiplierSpec
from willmore.residues import RESIDUE_KEYS
from willmore.surface import (catalog_surface, load_samples_csv,
                              save_samples_csv)

from report_bytes import BRANCHED_PLANE_SPEC, CSV_CHART, SPHERE_CSV


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PLANE = {
    "surface": {"name": "plane", "ambient_dim": 3},
    "grid": {"r_min": 0.01, "r_max": 1.0, "n_r": 48, "n_theta": 64},
}

INVCAT = {
    "surface": {"name": "inverted_catenoid", "ambient_dim": 3},
    "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 96, "n_theta": 64},
}

# planted branch point theta0 = 2, a = 1; conformal only asymptotically
SYNTH_TH2 = {
    "surface": {"name": "synthetic_th4", "ambient_dim": 4,
                "params": {"theta0": 2, "a": 1,
                           "E_a": [[0, 0], [0, 0], [1.0, 0.5], [0, 0]],
                           "gamma0": [0, 0, 0.25, 0]}},
    "grid": {"r_min": 1e-2, "r_max": 1.0, "n_r": 96, "n_theta": 64},
}


def test_generate_writes_csv(tmp_path):
    cfg = write_config(tmp_path, PLANE)
    out = tmp_path / "samples.csv"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    field = load_samples_csv(out)
    assert field.phi.shape == (3, 48, 64)


def test_generate_samples_the_whole_grid(tmp_path):
    # generate writes the catalog chart's samples of the whole grid, on a
    # grid of one row block and on one that PolarGrid.blocks splits in 7
    surf = SYNTH_TH2["surface"]
    for grid, n_blocks in ((SYNTH_TH2["grid"], 1),
                           ({**SYNTH_TH2["grid"], "n_r": 385,
                             "n_theta": 256}, 7)):
        g = PolarGrid.from_json(grid)
        assert len(list(g.blocks(surf["ambient_dim"], 0))) == n_blocks
        cfg = write_config(tmp_path, {**SYNTH_TH2, "grid": grid})
        out, want = tmp_path / "samples.csv", tmp_path / "want.csv"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        save_samples_csv(catalog_surface(surf["name"], surf["params"], g,
                                         surf["ambient_dim"]), want)
        assert out.read_bytes() == want.read_bytes()


def test_analyze_plane(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANE)
    code = main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")])
    assert code == 0
    text = capsys.readouterr().out
    assert "regular_point_smooth" in text
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["classification"]["verdict"] == "regular_point_smooth"
    for name in ("delta_profile.csv", "w_profile.csv", "energy_profile.csv",
                 "residual_profile.csv"):
        assert (tmp_path / "rep" / name).exists()


def test_analyze_inverted_catenoid_not_smooth(tmp_path, capsys):
    cfg = write_config(tmp_path, INVCAT)
    code = main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")])
    assert code == 0
    doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert doc["classification"]["verdict"] == "c_one_alpha_worst_case"
    beta0 = np.array(doc["residues"]["beta0"])
    assert np.linalg.norm(beta0) > 1.5


def test_residues_command(tmp_path, capsys):
    cfg = write_config(tmp_path, INVCAT)
    out = tmp_path / "residues.json"
    assert main(["residues", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["theta0"] == 1
    assert abs(doc["beta0"][2] - 2.0) < 1e-3


def test_energy_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "surface": {"name": "sphere_stereographic", "ambient_dim": 3,
                    "params": {"R": 1.0}},
        "grid": {"r_min": 1e-4, "r_max": 1.0, "n_r": 128, "n_theta": 64},
    })
    assert main(["energy", "--config", cfg]) == 0
    text = capsys.readouterr().out
    w = float(text.strip().rsplit(" ", 1)[-1])
    assert abs(w - 2 * np.pi) < 1e-5  # one chart covers half the sphere


def test_fit_command(tmp_path):
    cfg = write_config(tmp_path, SYNTH_TH2)
    out = tmp_path / "fit.json"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    g0 = doc["expansion"]["gamma0_fit"]
    assert abs(g0[2] - 0.25) < 1e-6


def test_classify_from_saved_report(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANE)
    main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")])
    capsys.readouterr()
    report = str(tmp_path / "rep" / "report.json")
    assert main(["classify", "--report", report]) == 0
    assert "regular_point_smooth" in capsys.readouterr().out
    # --tol-zero 0 leaves only the measured spread in the zero gate
    assert main(["classify", "--report", report, "--tol-zero", "0"]) == 0
    gate = json.loads(capsys.readouterr().out)["conditions"]["zero_gate"]
    spread = json.loads(Path(report).read_text())["residues"]["rho_spread"]
    assert gate == 10.0 * spread < 1e-6


# the residues of a flat plane as ``ResidueReport.to_json`` writes them
PLANE_RESIDUES = {"theta0": 1, "u0": 0.0, "A": [[1.0, 0.0], [0.0, 1.0],
                                                [0.0, 0.0]],
                  "beta0": [0.0] * 3, "rho_spread": 0.0, "gamma0": [0.0] * 3,
                  "gamma": [0] * 3, "a": 0}


@pytest.mark.parametrize("doc, message", [
    ({"config": PLANE}, "the report has no 'residues' entry"),
    ({"config": PLANE, "residues": {"theta0": 1}},
     "the report has no 'u0' entry"),
    ([PLANE], "a report is a JSON mapping, got list"),
    ({"config": PLANE, "residues": [1]},
     "the report's 'residues' entry is a JSON mapping, got list"),
    ({"config": PLANE, "residues": {}, "classification": [1]},
     "the report's 'classification' entry is a JSON mapping, got list"),
    ({"config": PLANE, "residues": PLANE_RESIDUES,
      "classification": {"conditions": [1]}},
     "the report's 'classification.conditions' entry is a JSON mapping, "
     "got list"),
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "A": [1, 0, 0]}},
     "the report's residues entry 'A' is not a list of [re, im] pairs"),
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "theta0": "x"}},
     "the report's residues entry 'theta0' is not an integer"),
    # non-integral or bool residues are refused, not truncated
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "theta0": 1.9, "a": 0.5,
                                    "gamma": [0.7, 0, 0]}},
     "the report's residues entry 'theta0' is not an integer"),
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "a": 0.5}},
     "the report's residues entry 'a' is not an integer"),
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "gamma": [0.7, 0, 0]}},
     "the report's residues entry 'gamma' is not a list of integers"),
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "theta0": True}},
     "the report's residues entry 'theta0' is not an integer"),
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "a": False}},
     "the report's residues entry 'a' is not an integer"),
    ({"config": PLANE, "residues": {**PLANE_RESIDUES, "gamma": [0, True, 0]}},
     "the report's residues entry 'gamma' is not a list of integers"),
    ({"residues": PLANE_RESIDUES}, "the report has no 'config' entry"),
])
def test_classify_malformed_report_named(tmp_path, capsys, doc, message):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    assert main(["classify", "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_classify_reads_integral_floats(tmp_path, capsys):
    # 1.0 is the integer 1: only a fraction is refused
    doc = {"config": PLANE, "residues": {**PLANE_RESIDUES, "theta0": 1.0,
                                         "a": 0.0, "gamma": [0.0, 0, 0]}}
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    assert main(["classify", "--report", str(report)]) == 0
    assert "regular_point_smooth" in capsys.readouterr().out


def analyze_report(tmp_path, cfg, capsys) -> dict:
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")]) == 0
    capsys.readouterr()
    return json.loads((tmp_path / "rep" / "report.json").read_text())


def test_classify_uses_saved_tolerances(tmp_path, capsys):
    # tol_zero 10 swallows |gamma0| = 2 of the inverted catenoid: smooth
    cfg = write_config(tmp_path, {**INVCAT, "tolerances": {"tol_zero": 10}})
    doc = analyze_report(tmp_path, cfg, capsys)
    assert doc["classification"]["verdict"] == "smooth"
    report = str(tmp_path / "rep" / "report.json")
    assert main(["classify", "--report", report]) == 0
    assert json.loads(capsys.readouterr().out) == doc["classification"]


def test_energy_honours_default_tolerances(tmp_path, capsys):
    cfg = write_config(tmp_path, SYNTH_TH2)
    doc = analyze_report(tmp_path, cfg, capsys)
    assert main(["energy", "--config", cfg]) == 0
    w = doc["levels"][0]["willmore_energy"]
    assert capsys.readouterr().out.split()[-1] == f"{w:.12g}"


@pytest.mark.parametrize("command", ["generate", "energy"])
def test_unknown_surface_names_stage(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"surface": {"name": "not_a_surface"}})
    argv = [command, "--config", cfg]
    if command == "generate":
        argv += ["--out", str(tmp_path / "samples.csv")]
    assert main(argv) == 1
    assert "stage 'surface'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "energy", "classify"])
def test_truncated_json_names_file_and_position(tmp_path, capsys, command):
    path = tmp_path / "doc.json"
    path.write_text('{"surface": ')
    flag = "--report" if command == "classify" else "--config"
    assert main([command, flag, str(path)]) == 1
    message = (f"{path} is not valid JSON: Expecting value: line 1 column 13 "
               "(char 12)")
    if command != "classify":
        message = f"stage 'config' failed: {message}"
    assert capsys.readouterr().err == f"error: {message}\n"


# two refinement levels: every command reports the last one
INVCAT_TWO_LEVELS = {
    "surface": {"name": "inverted_catenoid", "ambient_dim": 3},
    "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 48, "n_theta": 32},
    "levels": 2,
}


# one config of each multiplier kind beyond the zero one: pmc mode over
# three levels, a spec at mu = theta0 - 2 with an f0 tail
# (``BRANCHED_PLANE_SPEC``), and CSV samples (``SPHERE_CSV``)
CYLINDER_PMC = {
    "surface": {"name": "cylinder_cmc", "params": {"radius": 0.75}},
    "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 24, "n_theta": 32},
    "multiplier": {"mode": "pmc"}, "levels": 3,
}


def test_cli_commands_agree_with_analyze(tmp_path, capsys, monkeypatch):
    # residues, fit, energy and classify each print their part of the
    # report, for every multiplier kind and for CSV samples
    configs = (INVCAT, SYNTH_TH2, INVCAT_TWO_LEVELS, CYLINDER_PMC,
               BRANCHED_PLANE_SPEC, SPHERE_CSV)
    for i, config in enumerate(configs):
        run = tmp_path / str(i)
        run.mkdir()
        monkeypatch.chdir(run)  # the CSV config names its samples relatively
        if "csv" in config["surface"]:
            chart, m, grid = CSV_CHART
            save_samples_csv(catalog_surface(chart, {}, PolarGrid(*grid), m),
                             run / config["surface"]["csv"])
        cfg = write_config(run, config)
        doc = analyze_report(run, cfg, capsys)
        outputs = {}
        for command in ("residues", "fit"):
            out = run / f"{command}.json"
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            outputs[command] = json.loads(out.read_text())
        level = doc["levels"][-1]
        np.testing.assert_equal(outputs["residues"], doc["residues"])
        np.testing.assert_equal(outputs["fit"], {
            k: level[k] for k in ("expansion", "expansion_H", "constants")})
        capsys.readouterr()
        assert main(["energy", "--config", cfg]) == 0
        energy = capsys.readouterr().out.split()[-1]
        assert energy == f"{level['willmore_energy']:.12g}"
        report = str(run / "rep" / "report.json")
        assert main(["classify", "--report", report]) == 0
        assert json.loads(capsys.readouterr().out) == doc["classification"]


def test_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "surface": {"name": "not_a_surface"},
        "grid": {"r_min": 0.01, "r_max": 1.0, "n_r": 48, "n_theta": 64},
    })
    assert main(["analyze", "--config", cfg]) == 1
    assert "stage 'surface'" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_levels_below_one_exit_code(tmp_path, capsys, levels):
    cfg = write_config(tmp_path, PLANE)
    assert main(["analyze", "--config", cfg, "--levels", levels]) == 1
    assert "stage 'levels'" in capsys.readouterr().err


def _no_level_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a level ran on a malformed config")
    monkeypatch.setattr(pipeline, "analyze_level", refuse)


@pytest.mark.parametrize("levels", ["two", 1.5, True, None, float("nan")])
def test_malformed_levels_named_before_work(monkeypatch, levels):
    _no_level_work(monkeypatch)
    with pytest.raises(PipelineError) as err:
        run_pipeline({**PLANE, "levels": levels})
    assert err.value.stage == "levels"


@pytest.mark.parametrize("stage, entry", [
    ("multiplier", {"multiplier": {"mu": -2, "a_mu": [1.0, 0.0]}}),
    ("multiplier", {"multiplier": {"mu": 0}}),
    ("multiplier", {"multiplier": {"mode": "pmc", "sign": "x"}}),
    ("multiplier", {"multiplier": {"mode": "pmc", "sign": 0}}),
    ("multiplier", {"multiplier": "pmc"}),
    ("surface", {"surface": "plane"}),
    ("surface", {"surface": {"params": {}}}),
    ("tolerances", {"tolerances": {"tol_zero": "small"}}),
    ("tolerances", {"tolerances": {"tol_zeros": 1e-6}}),
    ("tolerances", {"tolerances": [1e-6]}),
    ("multiplier", {"multiplier": {"mu": 0.5, "a_mu": [1.0, 0.0]}}),
    ("multiplier", {"multiplier": {"mu": True, "a_mu": [1.0, 0.0]}}),
    ("multiplier", {"multiplier": {"mu": "1", "a_mu": [1.0, 0.0]}}),
    ("tolerances", {"tolerances": {"tol_zero": float("nan")}}),
    ("tolerances", {"tolerances": {"winding_gate": -1.0}}),
    ("tolerances", {"tolerances": {"defect_threshold": float("inf")}}),
    ("regular", {"regular": "false"}),
    ("with_potentials", {"with_potentials": "no"}),
    ("with_expansion", {"with_expansion": "false"}),
    ("config", {"levles": 2}),
    ("surface", {"surface": {"name": "plane", "ambient_dim": 3.7}}),
    ("surface", {"surface": {"name": "plane", "ambient_dim": 9}}),
    ("surface", {"surface": {"name": "plane", "params": [1.0]}}),
    ("surface", {"surface": {"name": "plane",
                             "params": {"ambient_dim": 4}}}),
    ("surface", {"surface": {"csv": 5}}),
    ("surface", {"surface": {"name": ["plane"]}}),
    ("grid", {"grid": {**PLANE["grid"], "n_r": 48.7}}),
    ("grid", {"grid": {**PLANE["grid"], "n_theta": 64.9}}),
    ("grid", {"grid": {**PLANE["grid"], "r_min": "0.01"}}),
    ("grid", {"grid": {**PLANE["grid"], "r_max": True}}),
    ("grid", {"grid": {**PLANE["grid"], "n_r": 100_000}}),
    ("levels", {"levels": 12}),
    ("levels", {"levels": 10 ** 400}),
    ("grid", {"grid": {**PLANE["grid"], "n_r": 10 ** 400}}),
])
def test_malformed_config_named_before_work(monkeypatch, stage, entry):
    _no_level_work(monkeypatch)
    with pytest.raises(PipelineError) as err:
        run_pipeline({**PLANE, **entry})
    assert err.value.stage == stage


@pytest.mark.parametrize("entry, key", [
    ({"a_mu": [1.0, 0.0]}, "mu"),
    ({"mu": 0}, "a_mu"),
    ({"mode": "bogus"}, "mode"),
    ({"mu": 0, "a_mu": 5}, "a_mu"),
    ({"mu": 0, "a_mu": [1.0, 0.0, 0.0]}, "a_mu"),
    ({"mu": 0, "a_mu": [float("nan"), 0.0]}, "a_mu"),
    ({"mu": 0, "a_mu": [1.0, float("inf")]}, "a_mu"),
    ({"mu": 1, "a_mu": [1.0, 0.0], "f0": [1]}, "f0"),
    ({"mu": 0, "a_mu": [1.0, 0.0], "f0": [[0.0, 0.0], [True, 0.0]]}, "f0"),
    ({"mu": 1, "a_mu": [1.0, 0.0], "f0": {"2": [1.0, 0.0]}}, "f0"),
    ({"zero": "yes"}, "zero"),
    ({"zero": 1}, "zero"),
    ({"zero": "false", "mu": 0, "a_mu": [1.0, 0.0]}, "zero"),
    ({"mu": 0, "a_mu": [1.0, 0.0], "a_nu": [1.0, 0.0]}, "a_nu"),
    ({"mode": "pmc", "sgn": -1}, "sgn"),
])
def test_malformed_multiplier_entry_names_its_key(monkeypatch, entry, key):
    _no_level_work(monkeypatch)
    with pytest.raises(PipelineError) as err:
        run_pipeline({**PLANE, "multiplier": entry})
    assert err.value.stage == "multiplier"
    assert re.search(rf"\b{key}\b", str(err.value)), str(err.value)


@pytest.mark.parametrize("surf, key", [
    ({"name": "branched_plane", "params": {"theta0": 2.5}}, "theta0"),
    ({"name": "synthetic_th4", "params": {"theta0": 3, "a": 1.5},
      "ambient_dim": 4}, "a"),
    ({"name": "cylinder_cmc", "params": {"radus": 0.6}}, "radus"),
    ({"name": "inverted_catenoid", "params": {"scael": 2}}, "scael"),
])
def test_malformed_catalog_params_refused_at_surface(surf, key):
    with pytest.raises(PipelineError) as err:
        run_pipeline({**PLANE, "surface": surf})
    assert err.value.stage == "surface"
    assert re.search(rf"\b{key}\b", str(err.value)), str(err.value)


def test_unknown_key_lists_accepted_keys():
    with pytest.raises(PipelineError) as err:
        pipeline.resolve({**PLANE, "levles": 2})
    assert "levles" in str(err.value)
    assert all(key in str(err.value) for key in pipeline.CONFIG_KEYS)


def test_readme_documents_every_config_key():
    # the rows of the key table in README's config section
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)` \|", section, re.M))
    assert documented == set(pipeline.CONFIG_KEYS)
    for key in documented:
        # an accepted key gets past the key check to its own entry's check
        with pytest.raises(PipelineError) as err:
            pipeline.resolve({key: object()})
        assert err.value.stage != "config", key


def test_readme_documents_every_key_table():
    # the rows of the entry and chart tables under "Entry keys"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("#### Entry keys", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, re.M))
    tables = {"surface": pipeline.SURFACE_KEYS, "grid": GRID_KEYS,
              "tolerances": pipeline.TOLERANCE_KEYS, "multiplier": SPEC_KEYS,
              "pmc": pipeline.PMC_KEYS, "residues": RESIDUE_KEYS,
              **surface.CATALOG_PARAMS}
    assert documented == {(entry, key) for entry, table in tables.items()
                          for key in table}
    assert all(f"| `{chart}` |" in section for chart in surface.CATALOG)


@pytest.mark.parametrize("sign", [1, -1])
def test_pmc_sign_accepts_plus_or_minus_one(sign):
    s = pipeline.resolve({**PLANE,
                          "multiplier": {"mode": "pmc", "sign": sign}})
    assert (s.spec, s.pmc_sign) == (MultiplierSpec.zero_spec(), sign)


@pytest.mark.parametrize("grid", [
    {**PLANE["grid"], "n_theta": 33},
    {k: v for k, v in PLANE["grid"].items() if k != "r_min"},
    "fine",
])
def test_malformed_grid_named_before_work(monkeypatch, grid):
    _no_level_work(monkeypatch)
    with pytest.raises(PipelineError) as err:
        run_pipeline({**PLANE, "grid": grid})
    assert err.value.stage == "grid"


def test_malformed_grid_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {**PLANE, "grid": {"r_min": 0.01}})
    assert main(["analyze", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "stage 'grid'" in err and "n_r, n_theta" in err


@pytest.mark.parametrize("command", ["residues", "fit"])
def test_tol_zero_refused_where_unread(tmp_path, command):
    # neither command prints anything that reads tol_zero
    cfg = write_config(tmp_path, PLANE)
    with pytest.raises(SystemExit) as err:
        main([command, "--config", cfg, "--tol-zero", "5"])
    assert err.value.code == 2


def test_tol_zero_override_on_malformed_tolerances_exit_code(tmp_path,
                                                             capsys):
    cfg = write_config(tmp_path, {**PLANE, "tolerances": [1e-6]})
    assert main(["analyze", "--config", cfg, "--tol-zero", "1e-6"]) == 1
    assert "stage 'tolerances'" in capsys.readouterr().err


def test_csv_surface_single_level(tmp_path):
    cfg = write_config(tmp_path, PLANE)
    out = tmp_path / "samples.csv"
    main(["generate", "--config", cfg, "--out", str(out)])
    with pytest.raises(PipelineError):
        run_pipeline({"surface": {"csv": str(out)},
                      "grid": PLANE["grid"], "levels": 2})


def test_csv_too_coarse_for_stencil_named(tmp_path):
    # 16 rows pass the grid's own minimum but not the stencil's
    cfg = write_config(tmp_path, {**PLANE, "grid": {**PLANE["grid"],
                                                    "n_r": 16}})
    out = tmp_path / "samples.csv"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    # a gate loose enough that the stencil's own defect would pass it
    with pytest.raises(PipelineError) as err:
        run_pipeline({"surface": {"csv": str(out)}, "regular": True,
                      "with_expansion": False,
                      "tolerances": {"defect_threshold": 0.1}})
    assert err.value.stage == "surface"
    assert "too coarse" in str(err.value)


def test_generate_copies_csv_samples_without_stencils(tmp_path):
    # a CSV too coarse for the stencils goes through generate as it is:
    # generate writes its own samples again, with the same phi columns
    cfg = write_config(tmp_path, {**PLANE, "grid": {**PLANE["grid"],
                                                    "n_r": 16, "n_theta": 32}})
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main(["generate", "--config", cfg, "--out", str(first)]) == 0
    cfg = write_config(tmp_path, {"surface": {"csv": str(first)}}, "csv.json")
    assert main(["generate", "--config", cfg, "--out", str(again)]) == 0

    def columns(path):
        header, *lines = path.read_text().splitlines()
        return header, [line.split(",")[2:] for line in lines]
    header, phi = columns(again)
    assert header == "r,theta,phi_1,phi_2,phi_3" and len(phi) == 16 * 32
    assert (header, phi) == columns(first)


@pytest.mark.parametrize("m", [2, 9])
def test_csv_column_count_refused_at_surface(tmp_path, m):
    # r, theta and m coordinates of a plane; m outside [3, 8] is refused
    # when the samples load, before any derived field is formed
    path = tmp_path / "samples.csv"
    grid = PolarGrid(1e-3, 1.0, 24, 32)
    phi = np.zeros((grid.n_r, grid.n_theta, m))
    phi[..., 0], phi[..., 1] = grid.x, grid.y
    surface.write_csv(path, ["r", "theta"] + [f"phi_{k + 1}" for k in range(m)],
                      [np.repeat(grid.r, grid.n_theta),
                       np.tile(grid.theta, grid.n_r)]
                      + list(phi.reshape(-1, m).T))
    with pytest.raises(PipelineError, match=f"{m + 2} columns") as err:
        run_pipeline({"surface": {"csv": str(path)}})
    assert err.value.stage == "surface"
    assert isinstance(err.value.cause, surface.SurfaceError)


def test_csv_without_rows_refused_at_surface(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("r,theta,phi_1,phi_2,phi_3\r\n")
    with pytest.raises(PipelineError, match="no sample rows") as err:
        run_pipeline({"surface": {"csv": str(path)}})
    assert err.value.stage == "surface"
    assert isinstance(err.value.cause, surface.SurfaceError)


def test_csv_short_row_refused_at_surface(tmp_path):
    # one row of a saved 24 x 32 plane cut to four fields: the refusal
    # names the line and the header's field count
    path = tmp_path / "samples.csv"
    save_samples_csv(catalog_surface("plane", {}, PolarGrid(1e-3, 1.0, 24, 32),
                                     3), path)
    lines = path.read_text().splitlines()
    lines[7] = ",".join(lines[7].split(",")[:4])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PipelineError, match="CSV line 8: 4 fields, not 5") \
            as err:
        run_pipeline({"surface": {"csv": str(path)}})
    assert err.value.stage == "surface"
    assert isinstance(err.value.cause, surface.SurfaceError)


def test_csv_roundtrip_through_pipeline(tmp_path):
    cfg = write_config(tmp_path, PLANE)
    out = tmp_path / "samples.csv"
    main(["generate", "--config", cfg, "--out", str(out)])
    # imported samples differentiate discretely: defect is stencil-limited
    doc = run_pipeline({"surface": {"csv": str(out)}, "levels": 1,
                        "regular": True, "with_expansion": False,
                        "tolerances": {"defect_threshold": 1e-2}})
    assert doc["classification"]["verdict"] == "regular_point_smooth"


def test_pipeline_synthetic_planted_verdict():
    # planted (theta0 = 2, a = 1): sobolev_limited with exponent 3 and the
    # report reproduces the planted quantities
    doc = run_pipeline(SYNTH_TH2)
    assert doc["classification"]["verdict"] == "sobolev_limited"
    assert doc["classification"]["sobolev_exponent"] == 3
    res = doc["residues"]
    assert res["theta0"] == 2 and res["a"] == 1
    assert res["gamma"] == [0, 0, 1, 0]
    fit = doc["levels"][-1]["expansion"]
    assert abs(fit["gamma0_fit"][2] - 0.25) < 1e-6
    assert abs(fit["E_a"][2][0] - 1.0) < 1e-4
    assert abs(fit["E_a"][2][1] - 0.5) < 1e-4


def test_rescale_invariance_of_classification():
    # z -> rho z leaves theta0, gamma and zero-ness of gamma0 unchanged
    base = {
        "surface": {"name": "synthetic_th4", "ambient_dim": 4,
                    "params": {"theta0": 2, "a": 1,
                               "E_a": [[0, 0], [0, 0], [1.0, 0.0], [0, 0]],
                               "gamma0": [0, 0, 0.3, 0]}},
        "grid": {"r_min": 1e-2, "r_max": 1.0, "n_r": 96, "n_theta": 64},
        "with_expansion": False,
    }
    doc1 = run_pipeline(base)
    import copy
    scaled = copy.deepcopy(base)
    # rescaling the chart = sampling the same template on a shrunken annulus
    scaled["grid"] = {"r_min": 0.5e-2, "r_max": 0.5, "n_r": 96, "n_theta": 64}
    doc2 = run_pipeline(scaled)
    assert doc1["residues"]["theta0"] == doc2["residues"]["theta0"]
    assert doc1["residues"]["gamma"] == doc2["residues"]["gamma"]
    assert (doc1["classification"]["verdict"]
            == doc2["classification"]["verdict"])


def test_entry_points_load_no_scipy():
    # the package needs numpy alone; a scipy import would be paid in start-up
    # time and memory by every run
    src = str(Path(pipeline.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import willmore.cli, willmore.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _numpy_ma_after_run(config) -> str:
    """numpy.ma modules loaded by one run_pipeline call in a fresh process."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from willmore.pipeline import run_pipeline; "
            f"run_pipeline({config!r}); "
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_run_pipeline_imports_no_numpy_ma():
    # numpy.ma costs about 20 ms of every cold start; no stage needs it
    config = {"surface": {"name": "synthetic_th4", "ambient_dim": 4,
                          "params": {"theta0": 2, "a": 1,
                                     "E_a": [0, 0, 0.2, 0.1j],
                                     "gamma0": [0, 0, 0.5, 0]}},
              "grid": {"r_min": 0.01, "r_max": 1.0, "n_r": 48, "n_theta": 32},
              "with_potentials": True}
    assert _numpy_ma_after_run(config) == "[]"


def test_csv_run_imports_no_numpy_ma(tmp_path):
    # the CSV loader dedupes the node coordinates without np.unique
    path = tmp_path / "samples.csv"
    save_samples_csv(catalog_surface("inverted_catenoid", {},
                                     PolarGrid(1e-3, 1.0, 48, 32), 3), path)
    assert _numpy_ma_after_run({"surface": {"csv": str(path)},
                                "tolerances": {"defect_threshold": 0.1},
                                "with_potentials": True}) == "[]"

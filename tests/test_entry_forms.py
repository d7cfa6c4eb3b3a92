"""Every key of every JSON key table is refused by name, at its stage, when
its value is of a wrong JSON type.

The form each key expects is stated here, apart from the tables in
``src``, and each table must have exactly the keys stated: a key whose
form is dropped or loosened, or read with ``float()`` again, fails here.
"""

import json

import pytest

from willmore import pipeline
from willmore.cli import main
from willmore.grid import GRID_KEYS
from willmore.multiplier import SPEC_KEYS
from willmore.pipeline import (CONFIG_KEYS, PMC_KEYS, SURFACE_KEYS,
                               TOLERANCE_KEYS, PipelineError)
from willmore.residues import RESIDUE_KEYS
from willmore.surface import CATALOG_PARAMS

NAN, INF = float("nan"), float("inf")

#: JSON values of a wrong type for each form: bools, strings, lists and
#: mappings where they do not belong, null, NaN and Infinity where the form
#: is finite, and a fraction where an integer is expected.  List entries
#: sit among good ones, so that only their form is wrong.
WRONG = {
    "integer": [True, False, "2", [2], {"n": 2}, None, 2.5, NAN, INF],
    "number": [True, "abc", "1", [1], {"x": 1}, None, NAN, INF, -INF],
    "non-negative": [True, "1", [1], {}, None, NAN, INF, -1.0],
    "bool": [1, 0, "true", "false", [True], {}, None],
    "string": [1, True, ["x"], {}, None],
    "mapping": [1, True, "x", [1], None],
    "dimension": [True, "4", [4], None, 4.5, NAN, 2, 9],
    "multiplier": [1, True, 1.5, "pmc", [1]],
    "mode": [1, True, None, ["pmc"], {}, "PMC"],
    "pair": [1, True, "x", None, {}, [1.0], [1.0, 0.0, 0.0], [True, 0.0],
             [NAN, 0.0], [0.0, INF], ["1", 0.0]],
    "pairs": [1, "x", {}, None, [1.0, 0.0], [[True, 0.0]], [[NAN, 0.0]],
              [[1.0, 0.0, 0.0]], [[0.0, 0.0], "x"]],
    "integers": [1, "x", {}, None, [True, 0, 0], [0.5, 0, 0], [NAN, 0, 0],
                 ["0", 0, 0], [[0], 0, 0]],
    "numbers": [1, "x", {}, None, [0, 0, True, 0.5], [0, "0", 0, 0],
                [NAN, 0, 0, 0], [0, INF, 0, 0], [[0], 0, 0, 0]],
    "complexes": [1, "x", {}, None, [0, 0, True, 0], [0, 0, [True, 0], 0],
                  [0, 0, [NAN, 0.0], 0], [0, 0, INF, 0], [0, 0, "1", 0],
                  [0, 0, [1.0, 0.0, 0.0], 0]],
    "vectors": [1, "x", {}, None, [0, 0, 0, 0], [[0, 0, True, 0]],
                [[0, 0, [NAN, 0.0], 0]]],
}

#: the form of every key, per table
FORMS = {
    "config": {"surface": "mapping", "grid": "mapping", "levels": "integer",
               "multiplier": "multiplier", "tolerances": "mapping",
               "regular": "bool", "with_potentials": "bool",
               "with_expansion": "bool"},
    "surface": {"csv": "string", "name": "string", "params": "mapping",
                "ambient_dim": "dimension"},
    "grid": {"r_min": "number", "r_max": "number", "n_r": "integer",
             "n_theta": "integer"},
    "tolerances": {key: "non-negative" for key in
                   ("tol_zero", "defect_threshold")},
    "pmc": {"mode": "mode"},
    "spec": {"mu": "integer", "a_mu": "pair", "f0": "pairs", "zero": "bool"},
    "residues": {"theta0": "integer", "u0": "number", "A": "pairs",
                 "beta0": "numbers", "rho_spread": "number",
                 "gamma0": "numbers", "gamma": "integers", "a": "integer",
                 "diagnostics": "mapping"},
}
CHARTS = {
    "plane": {},
    "branched_plane": {"theta0": "integer", "A": "complexes",
                       "scale": "number"},
    "sphere_stereographic": {"R": "number"},
    "catenoid_end": {"scale": "number"},
    "inverted_catenoid": {"scale": "number"},
    "cylinder_cmc": {"radius": "number"},
    "clifford_torus_patch": {"scale": "number"},
    "synthetic_th4": {"theta0": "integer", "a": "integer", "A": "complexes",
                      "scale": "number", "B": "vectors", "E_a": "complexes",
                      "gamma0": "numbers", "xi": "complexes"},
}
TABLES = {"config": CONFIG_KEYS, "surface": SURFACE_KEYS, "grid": GRID_KEYS,
          "tolerances": TOLERANCE_KEYS, "pmc": PMC_KEYS, "spec": SPEC_KEYS,
          "residues": RESIDUE_KEYS}

#: what a refusal must never show: Python's own words for a bad value
INTERNAL = ("could not convert", "argument must be", "object is not",
            "has no attribute", "unsupported operand", "invalid literal",
            "not supported between", "Traceback")

GRID = {"r_min": 0.01, "r_max": 1.0, "n_r": 16, "n_theta": 32}
PLANE = {"surface": {"name": "plane"}, "grid": GRID}
SPEC = {"mu": 1, "a_mu": [1.0, 0.0], "f0": [], "zero": False}
# the residues of a flat plane as a report holds them
RESIDUES = {"theta0": 1, "u0": 0.0, "A": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            "beta0": [0.0] * 3, "rho_spread": 0.0, "gamma0": [0.0] * 3,
            "gamma": [0] * 3, "a": 0, "diagnostics": {}}


#: where each table's entry sits in a good config, which is also the stage
#: that refuses it, and the rest of the entry
ENTRIES = {"surface": ("surface", {"name": "plane"}), "grid": ("grid", GRID),
           "tolerances": ("tolerances", {}),
           "pmc": ("multiplier", {"mode": "pmc"}),
           "spec": ("multiplier", SPEC)}


def _config(table, key, value):
    """A good config with ``value`` at ``key`` of its ``table`` entry, and
    the stage that must refuse it."""
    if table == "config":
        return {**PLANE, key: value}, key
    stage, entry = ENTRIES[table]
    return {**PLANE, stage: {**entry, key: value}}, stage


def _refusal(run) -> PipelineError:
    with pytest.raises(PipelineError) as err:
        run()
    return err.value


def _check_message(message: str, key: str, value):
    assert f"'{key}'" in message, (key, value, message)
    assert not any(text in message for text in INTERNAL), (value, message)


def test_tables_have_the_stated_keys():
    for name, table in TABLES.items():
        assert list(table) == list(FORMS[name]), name
    assert {name: list(t) for name, t in CATALOG_PARAMS.items()} == {
        name: list(t) for name, t in CHARTS.items()}


@pytest.mark.parametrize("table, key", [
    (table, key) for table in ("config", "surface", "grid", "tolerances",
                               "pmc", "spec") for key in FORMS[table]])
def test_config_entry_of_wrong_type_refused_by_name(table, key):
    for value in WRONG[FORMS[table][key]]:
        config, stage = _config(table, key, value)
        err = _refusal(lambda: pipeline.resolve(config))
        assert err.stage == stage, (value, str(err))
        _check_message(str(err.cause), key, value)


@pytest.mark.parametrize("table", ["surface", "grid", "tolerances", "pmc",
                                   "spec"])
def test_config_entry_with_unknown_key_lists_accepted_keys(table):
    config, stage = _config(table, "bogus", 1)
    err = _refusal(lambda: pipeline.resolve(config))
    assert err.stage == stage
    assert all(key in str(err.cause) for key in ["bogus", *TABLES[table]])


@pytest.mark.parametrize("chart, key", [
    (chart, key) for chart, keys in CHARTS.items() for key in keys])
def test_catalog_param_of_wrong_type_refused_by_name(chart, key):
    # refused by resolve, which reads the params on no grid
    for value in WRONG[CHARTS[chart][key]]:
        config = {"surface": {"name": chart, "ambient_dim": 4,
                              "params": {key: value}}, "grid": GRID}
        err = _refusal(lambda: pipeline.resolve(config))
        assert err.stage == "surface", (value, str(err))
        _check_message(str(err.cause), key, value)


@pytest.mark.parametrize("key", list(FORMS["residues"]))
def test_saved_residue_of_wrong_type_refused_by_name(tmp_path, capsys, key):
    report = tmp_path / "report.json"
    for value in WRONG[FORMS["residues"][key]]:
        report.write_text(json.dumps({"config": PLANE, "residues": {
            **RESIDUES, key: value}}))
        assert main(["classify", "--report", str(report)]) == 1, value
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        _check_message(err, key, value)


@pytest.mark.parametrize("entry, key", [
    ({"zero": True, "mu": 3, "a_mu": [2.0, 0.0]}, "mu"),
    ({"zero": True, "a_mu": [2.0, 0.0]}, "a_mu"),
    ({"zero": True, "a_mu": [0.0, 0.5]}, "a_mu"),
    ({"zero": True, "f0": [[0.0, 0.0], [1.0, 0.0]]}, "f0"),
])
def test_zero_spec_with_an_order_or_coefficient_refused(entry, key):
    err = _refusal(lambda: pipeline.resolve({**PLANE, "multiplier": entry}))
    assert err.stage == "multiplier"
    _check_message(str(err.cause), key, entry)

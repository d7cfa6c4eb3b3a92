"""Golden-report regression: three small runs against checked-in reports.

The reports under ``tests/golden/`` were last written by ``run_pipeline``
when the flux term star(grad n ^ H) and |grad n| moved from stencil
derivatives of the Gauss map to the frame's second fundamental form; kernel
changes may move floats by rounding only.  Integers, strings, bools and non-finite floats
must match exactly; every other float must satisfy
|a - b| <= 1e-8 max(|a|, |b|) + 1e-12.  The one exception is the raw winding
of a component flagged ``winding_degenerate``: such a component has no pole,
so its unwrapped phase is rounding noise and is not compared.

Regenerate (only when a change of numbers is intended) with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
import math
from pathlib import Path

import pytest

from willmore.pipeline import run_pipeline

GOLDEN = Path(__file__).parent / "golden"
REL, ABS = 1e-8, 1e-12


def _grid(r_min, n_r, n_theta):
    return {"r_min": r_min, "r_max": 1.0, "n_r": n_r, "n_theta": n_theta}


CONFIGS = {
    "inverted_catenoid_m8": {
        "surface": {"name": "inverted_catenoid", "ambient_dim": 8},
        "grid": _grid(1e-3, 48, 32), "levels": 1, "with_potentials": True},
    "cylinder_cmc_pmc": {
        "surface": {"name": "cylinder_cmc", "ambient_dim": 3,
                    "params": {"radius": 0.75}},
        "grid": _grid(1e-3, 96, 64), "levels": 1,
        "multiplier": {"mode": "pmc"}},
    "synthetic_th4_theta3": {
        "surface": {"name": "synthetic_th4", "ambient_dim": 4,
                    "params": {"theta0": 3, "a": 1,
                               "E_a": [[0.0, 0.0], [0.0, 0.0],
                                       [0.2, 0.1], [-0.15, 0.12]],
                               "gamma0": [0.0, 0.0, 0.6, -0.5]}},
        "grid": _grid(1e-2, 48, 32), "levels": 1},
}


def report(name: str) -> dict:
    """The run's report.json document without its wall time."""
    doc = run_pipeline(CONFIGS[name])
    doc.pop("elapsed_seconds")
    # through JSON, so tuples and lists compare alike
    return json.loads(json.dumps(doc))


def _drop_degenerate(raw, degenerate):
    """Raw windings with the columns of degenerate components blanked."""
    return [[None if deg else w for w, deg in zip(row, degenerate)]
            for row in raw]


def _blank_noise(doc: dict) -> dict:
    for level in doc["levels"]:
        level["winding_raw"] = _drop_degenerate(level["winding_raw"],
                                                level["winding_degenerate"])
    diag = doc["residues"]["diagnostics"]
    diag["winding_raw"] = _drop_degenerate(
        diag["winding_raw"], doc["levels"][-1]["winding_degenerate"])
    return doc


def mismatches(got, want, path="") -> list:
    """Paths where ``got`` breaks the golden rule against ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [bad for k in want
                for bad in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [bad for i, (g, w) in enumerate(zip(got, want))
                for bad in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if not (math.isfinite(want) and math.isfinite(got)):
            same = (math.isnan(want) and math.isnan(got)) or got == want
            return [] if same else [f"{path}: {got!r} != {want!r}"]
        if abs(got - want) <= REL * max(abs(got), abs(want)) + ABS:
            return []
        return [f"{path}: {got!r} vs {want!r}"]
    # ints, strings, bools and None: exact, and of the same type
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    bad = mismatches(_blank_noise(report(name)), _blank_noise(want))
    assert not bad, "\n".join(bad[:20])


def test_rule_rejects_drift():
    base = {"x": [1.0, float("nan")], "n": 3, "v": "smooth"}
    assert not mismatches({"x": [1.0 + 5e-9, float("nan")], "n": 3,
                           "v": "smooth"}, base)
    assert mismatches({"x": [1.0 + 2e-8, float("nan")], "n": 3,
                       "v": "smooth"}, base)
    assert mismatches({"x": [1.0, 0.0], "n": 3, "v": "smooth"}, base)
    assert mismatches({"x": [1.0, float("nan")], "n": 3.0, "v": "smooth"},
                      base)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for key in CONFIGS:
        (GOLDEN / f"{key}.json").write_text(
            json.dumps(report(key), indent=1) + "\n")

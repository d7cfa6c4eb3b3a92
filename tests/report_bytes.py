"""Byte-identity check of the pipeline's reports between two source trees.

    PYTHONPATH=src python tests/report_bytes.py write DIR
    python tests/report_bytes.py compare A B
    PYTHONPATH=src python tests/report_bytes.py compare --rel A B

``write`` runs thirteen configs through ``run_pipeline``: the benchmark
workloads fine_m3, codim6_potentials, branch_th3 and pmc_cylinder at seeds
1 and 2 (from ``perfbench/workloads.make_case``), the three golden configs
of ``test_golden_reports.py``, a spec multiplier at the order
mu = theta0 - 2 with an ``f0`` tail, and a CSV run.  Each run writes
``DIR/<name>/``: its ``report.json`` without ``elapsed_seconds``, its four
profile CSVs, and what the other commands that compute write, each made
through ``cli.main`` from the run's ``config.json``: ``generate.csv``
(``willmore generate``) and ``energy.txt`` (the line ``willmore energy``
prints).  The CSV run first samples ``CSV_CHART`` into its directory as
``samples.csv``; every run works inside its directory, so the CSV config
names that file by a relative path and records the same config in every
tree.
``compare`` lists every file that differs between two such directories, or
exists in only one, and exits 1 if there is any.  ``compare --rel`` holds
every file to the rule of ``test_golden_reports.py`` instead of byte
equality (ints, strings and bools exact, floats within
1e-8 max(|a|, |b|) + 1e-12, the raw winding of a degenerate component not
compared; CSV cells are read as floats; ``config.json`` and
``energy.txt`` are compared as text, exactly), prints the worst relative
difference among floats more than 1e-12 apart per file, then per key path
(the file name and the path inside it, array indices collapsed to ``[]``,
over every run, with the run where the worst one sits), then the first
breaches, and exits 1 if any file breaks the rule or exists on one side
only.

To check a change, write DIR once with ``src`` of the old tree on
``PYTHONPATH`` and once with the new one, then compare.  The file is not
named ``test_*`` so that pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fine_m3", "codim6_potentials", "branch_th3", "pmc_cylinder")
SEEDS = (1, 2)

#: the chart, ambient dimension and grid sampled for the CSV run
CSV_CHART = ("sphere_stereographic", 3, (1e-2, 1.0, 48, 32))

# theta0 = mu + 2: the modified-residue correction, F_mu and the tail
BRANCHED_PLANE_SPEC = {
    "surface": {"name": "branched_plane", "params": {"theta0": 2}},
    "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 48, "n_theta": 32},
    "multiplier": {"mu": 0, "a_mu": [0.5, -0.25],
                   "f0": [[0.0, 0.0], [0.2, 0.1]]}}
# the defect gate of test_cli's CSV round trip: stencil-limited samples
SPHERE_CSV = {"surface": {"csv": "samples.csv"},
              "tolerances": {"defect_threshold": 1e-2}}


def configs() -> dict:
    """Run name -> ``run_pipeline`` config, for the thirteen runs."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    sys.path.insert(0, str(HERE))
    from test_golden_reports import CONFIGS
    from workloads import make_case
    runs = {f"{name}-seed{seed}": make_case(name, seed).config
            for name in WORKLOADS for seed in SEEDS}
    runs.update(CONFIGS, branched_plane_spec=BRANCHED_PLANE_SPEC,
                sphere_csv=SPHERE_CSV)
    return runs


def _cli(*argv: str) -> str:
    """What ``willmore argv`` prints; a failed command raises."""
    from willmore.cli import main
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(list(argv))
    if code:
        raise RuntimeError(f"willmore {argv[0]} exited with {code} in "
                           f"{Path.cwd()}")
    return printed.getvalue()


def write(out: Path) -> None:
    from willmore.grid import PolarGrid
    from willmore.pipeline import run_pipeline
    from willmore.surface import catalog_surface, save_samples_csv
    out = out.resolve()
    for name, config in configs().items():
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in config["surface"]:
            chart, m, grid = CSV_CHART
            save_samples_csv(catalog_surface(chart, {}, PolarGrid(*grid), m),
                             run_dir / config["surface"]["csv"])
        with contextlib.chdir(run_dir):
            doc = run_pipeline(copy.deepcopy(config), ".")
            Path("config.json").write_text(json.dumps(config))
            _cli("generate", "--config", "config.json", "--out",
                 "generate.csv")
            Path("energy.txt").write_text(
                _cli("energy", "--config", "config.json"))
        doc.pop("elapsed_seconds")
        (run_dir / "report.json").write_text(json.dumps(doc, indent=1))
        print(f"wrote {run_dir}")


def compare(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ or exist on one side only."""
    files = lambda root: {p.relative_to(root) for p in root.rglob("*")
                          if p.is_file()}
    in_a, in_b = files(a), files(b)
    return sorted(str(p) for p in in_a | in_b
                  if p not in in_a or p not in in_b
                  or (a / p).read_bytes() != (b / p).read_bytes())


def _read(path: Path):
    """A report as ``test_golden_reports`` compares it, a CSV's columns by
    their header names, or any other file's text (compared exactly)."""
    from test_golden_reports import _blank_noise
    if path.name == "report.json":
        return _blank_noise(json.loads(path.read_text()))
    if path.suffix != ".csv":
        return path.read_text()
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return {name: [float(row[k]) for row in rows]
            for k, name in enumerate(header)}


def _diffs(want, got, path=""):
    """(key path, relative difference) of every pair of finite floats that
    differ by more than the rule's absolute term, array indices collapsed to
    ``[]`` in the path."""
    from test_golden_reports import ABS
    if isinstance(want, dict) and isinstance(got, dict):
        for k in want.keys() & got.keys():
            yield from _diffs(want[k], got[k], f"{path}.{k}")
    elif isinstance(want, list) and isinstance(got, list):
        for x, y in zip(want, got):
            yield from _diffs(x, y, path + "[]")
    elif (isinstance(want, float) and isinstance(got, float)
          and math.isfinite(want) and math.isfinite(got)
          and abs(want - got) > ABS):
        yield path, abs(want - got) / max(abs(want), abs(got))


def compare_rel(a: Path, b: Path) -> tuple[dict, dict, list[str]]:
    """Worst relative float difference per file and per key path (file
    name and the path inside it, over every run), and the rule's breaches."""
    sys.path.insert(0, str(HERE))
    from test_golden_reports import mismatches
    files = lambda root: {p.relative_to(root) for p in root.rglob("*")
                          if p.is_file()}
    in_a, in_b = files(a), files(b)
    worst, keys = {}, {}
    bad = [f"{p}: on one side only" for p in sorted(in_a ^ in_b)]
    for p in sorted(in_a & in_b):
        want, got = _read(a / p), _read(b / p)
        bad += [f"{p}{m}" for m in mismatches(got, want)]
        worst[str(p)] = 0.0
        for path, rel in _diffs(want, got, p.name):
            worst[str(p)] = max(worst[str(p)], rel)
            if rel > keys.get(path, (0.0,))[0]:
                keys[path] = (rel, str(p.parent))
    return worst, keys, bad

def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        bad = compare(Path(argv[1]), Path(argv[2]))
        print("\n".join(bad) if bad else "all files identical")
        return 1 if bad else 0
    if len(argv) == 4 and argv[:2] == ["compare", "--rel"]:
        worst, keys, bad = compare_rel(Path(argv[2]), Path(argv[3]))
        for name, rel in worst.items():
            print(f"{name}  worst relative difference {rel:.3g}")
        for path, (rel, run) in sorted(keys.items()):
            print(f"{path}  worst relative difference {rel:.3g} in {run}")
        print("\n".join(bad[:20]) if bad else "all files within the rule")
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

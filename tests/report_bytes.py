"""Byte-identity check of the pipeline's reports between two source trees.

    PYTHONPATH=src python tests/report_bytes.py write DIR
    python tests/report_bytes.py compare A B

``write`` runs eleven configs through ``run_pipeline``: the benchmark
workloads fine_m3, codim6_potentials, branch_th3 and pmc_cylinder at seeds
1 and 2 (from ``perfbench/workloads.make_case``) and the three golden
configs of ``test_golden_reports.py``.  Each run writes ``DIR/<name>/``:
its ``report.json`` without ``elapsed_seconds`` and its four profile CSVs.
``compare`` lists every file that differs between two such directories, or
exists in only one, and exits 1 if there is any.

To check a change, write DIR once with ``src`` of the old tree on
``PYTHONPATH`` and once with the new one, then compare.  The file is not
named ``test_*`` so that pytest does not collect it.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fine_m3", "codim6_potentials", "branch_th3", "pmc_cylinder")
SEEDS = (1, 2)


def configs() -> dict:
    """Run name -> ``run_pipeline`` config, for the eleven runs."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    sys.path.insert(0, str(HERE))
    from test_golden_reports import CONFIGS
    from workloads import make_case
    runs = {f"{name}-seed{seed}": make_case(name, seed).config
            for name in WORKLOADS for seed in SEEDS}
    runs.update(CONFIGS)
    return runs


def write(out: Path) -> None:
    from willmore.pipeline import run_pipeline
    for name, config in configs().items():
        doc = run_pipeline(copy.deepcopy(config), out / name)
        doc.pop("elapsed_seconds")
        (out / name / "report.json").write_text(json.dumps(doc, indent=1))
        print(f"wrote {out / name}")


def compare(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ or exist on one side only."""
    files = lambda root: {p.relative_to(root) for p in root.rglob("*")
                          if p.is_file()}
    in_a, in_b = files(a), files(b)
    return sorted(str(p) for p in in_a | in_b
                  if p not in in_a or p not in in_b
                  or (a / p).read_bytes() != (b / p).read_bytes())


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        bad = compare(Path(argv[1]), Path(argv[2]))
        print("\n".join(bad) if bad else "all files identical")
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

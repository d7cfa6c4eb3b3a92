"""One fresh interpreter of an end-to-end run; prints one JSON line.

    python3 perfbench/child.py <workload> <seed> <smoke> <out_dir> \
        <min_warm> <until>

Imports ``willmore.cli`` and ``willmore.pipeline`` (``setup_s``), makes the
first ``run_pipeline`` call (the cold call), reads the process's peak
resident memory, then makes warm calls until the epoch time ``<until>`` has
passed and at least ``<min_warm>`` of them are done.  Every call is timed
and checked against the workload's reference.  ``<smoke>`` is 1 for the
reduced-grid instance, else 0.

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and one BLAS thread.
"""

import copy
import json
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    Not ``ru_maxrss``: Linux carries the maximum across exec, so a child
    started from the large benchmark process would report the parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    from workloads import check, make_case
    case = make_case(argv[0], int(argv[1]), argv[2] == "1")
    out_dir, min_warm, until = argv[3], int(argv[4]), float(argv[5])
    t0 = time.perf_counter()
    import willmore.cli  # noqa: F401
    import willmore.pipeline
    out = {"setup_s": time.perf_counter() - t0, "calls": []}

    def call():
        """Append [seconds, errors] for one checked call."""
        config = copy.deepcopy(case.config)
        t0 = time.perf_counter()
        try:
            doc = willmore.pipeline.run_pipeline(config, out_dir)
        except Exception as exc:
            elapsed = time.perf_counter() - t0
            errors = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            errors = check(case, doc)
        out["calls"].append([elapsed, errors])

    call()
    out["peak_rss_mb"] = peak_rss_mb()
    while len(out["calls"]) <= min_warm or time.time() < until:
        call()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

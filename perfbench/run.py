#!/usr/bin/env python3
"""Closed-loop benchmark of ``willmore.pipeline.run_pipeline``.

Run from the repository root:

    python3 perfbench/run.py --workload pmc_cylinder --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

One caller: each call starts only after the previous one has returned, with
one BLAS/OpenMP thread.  ``--trace 0`` reports the end-to-end metrics,
measured in fresh interpreters started one after another (``child.py``);
``--trace 1`` reports the per-layer metrics of a separate traced run in
this process.  Every call's result is checked against the workload's analytic
reference.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a stamped copy
goes to ``perfbench/results/``.  ``perfbench/README.md`` defines the metrics.
"""

from __future__ import annotations

import os

# before numpy is loaded, here or in any child interpreter
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check, make_case

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
MIN_WARM = TAIL_BEYOND + 1
MIN_TRACED = 3          # per side of the traced run
CHILD_TIMEOUT = 150


class Tally:
    """Calls attempted and failed (raised, or failed the reference check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append("; ".join(errors))
        return not errors


def timed_call(run_pipeline, case, out_dir, tally):
    """One analysis call; returns its wall time, or None if it failed."""
    config = copy.deepcopy(case.config)
    t0 = time.perf_counter()
    try:
        doc = run_pipeline(config, out_dir)
    except Exception as exc:
        tally.record([f"{type(exc).__name__}: {exc}"])
        return None
    elapsed = time.perf_counter() - t0
    return elapsed if tally.record(check(case, doc)) else None


def closed_loop(seconds, min_calls, call) -> list[float]:
    """Call back to back for ``seconds``, and at least ``min_calls`` times."""
    times, attempts = [], 0
    start = time.perf_counter()
    while time.perf_counter() < start + seconds or attempts < min_calls:
        attempts += 1
        dt = call()
        if dt is not None:
            times.append(dt)
    if not times:
        raise SystemExit("every call failed; no timing to report")
    return times


def child(*args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = [str(a) for a in args]
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"child {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples beyond it, and its
    percentile (share of samples at or below it)."""
    xs = sorted(samples)
    k = max(len(xs) - 1 - TAIL_BEYOND, 0)   # fewer only if calls failed
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(case, seed, smoke, seconds, out_dir, tally, notes):
    """Every sample comes from ``case.interpreters`` fresh interpreters, run
    one after another, each owning an equal slice of ``seconds``.

    Each one's first call is a cold sample and its later calls are warm
    samples.  A process keeps much the same speed for its whole life, and
    that speed differs from process to process by as much as a quarter, so
    warm calls are pooled over many processes rather than drawn from one.
    """
    n = case.interpreters
    min_warm = -(-MIN_WARM // n)                        # ceil
    start = time.time()
    setup, cold, warm, rss = [], [], [], []
    for i in range(n):
        res = child(case.workload, seed, int(smoke), out_dir, min_warm,
                    start + seconds * (i + 1) / n)
        setup.append(res["setup_s"])
        rss.append(res["peak_rss_mb"])
        for j, (dt, errors) in enumerate(res["calls"]):
            if tally.record(errors):
                (warm if j else cold).append(dt)
    if not cold or not warm:
        raise SystemExit("every cold or every warm call failed; no timing "
                         "to report")
    tail_s, pct = tail(warm)
    notes.update(warm_s=warm, cold_s=cold, setup_s_samples=setup,
                 peak_rss_mb_samples=rss, tail_percentile=pct)
    notes["analysis_s"] = (f"median of n={len(warm)} warm calls in "
                           f"{n} interpreters")
    notes["analysis_s_tail"] = (f"p{pct:.1f} of n={len(warm)}: "
                                f"{TAIL_BEYOND} calls beyond it")
    for name in ("cold_analysis_s", "setup_s", "peak_rss_mb"):
        notes[name] = f"median of {n} fresh interpreters"
    return {"analysis_s": statistics.median(warm), "analysis_s_tail": tail_s,
            "cold_analysis_s": statistics.median(cold),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(case, seconds, pipeline, out_dir, tally, notes, spans_path):
    from spans import Tracer

    def call():
        return timed_call(pipeline.run_pipeline, case, out_dir, tally)

    call()                                              # warm-up
    plain = closed_loop(seconds / 2, MIN_TRACED, call)
    tracer = Tracer()
    with tracer:
        def traced_call():
            tracer.call_id = tally.attempted
            return call()
        traced = closed_loop(seconds / 2, MIN_TRACED, traced_call)
    tracer.dump(spans_path)
    out = tracer.summary(case.config["levels"])
    out["trace.overhead_frac"] = (statistics.median(traced)
                                  / statistics.median(plain) - 1.0)
    notes.update(untraced_calls=len(plain), traced_calls=len(traced),
                 spans=len(tracer.spans), spans_file=str(spans_path))
    return out


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(case, seed, trace) -> dict:
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "workload": case.workload, "seed": seed,
            "trace": trace, "params": case.params, "config": case.config,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def declared_metrics(trace) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, smoke) -> int:
    if not (SRC / "willmore" / "pipeline.py").is_file():
        print(f"no willmore sources under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    units = declared_metrics(trace)
    sys.path.insert(0, str(SRC))
    import willmore.pipeline as pipeline
    if not Path(pipeline.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"willmore was imported from {pipeline.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    case = make_case(workload, seed, smoke)
    out_dir = WORK / workload
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    tally, notes = Tally(), {}
    if trace:
        values = per_layer(case, seconds, pipeline, out_dir, tally, notes,
                           RESULTS / f"{stem}.spans.jsonl")
    else:
        values = end_to_end(case, seed, smoke, seconds, out_dir, tally,
                            notes)
    if set(values) != set(units):
        raise SystemExit(f"measured {sorted(values)}, but BENCHMARK.json "
                         f"declares {sorted(units)}")

    params = ", ".join(f"{k}={v}" for k, v in case.params.items())
    print(f"workload {workload}, seed {seed}: {params}")
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:36s} {values[name]:>14.6g} {unit:12s} {note}")
    if not trace:
        print(f"  {'failed_frac':36s} {tally.failed / tally.attempted:>14.6g} "
              f"{'fraction':12s} {tally.failed} of {tally.attempted} calls")
    for err in tally.errors[:5]:
        print(f"  FAILED: {err}", file=sys.stderr)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record = dict(result, stamp=stamp(case, seed, trace), notes=notes,
                  failed_frac=tally.failed / tally.attempted,
                  errors=tally.errors)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace) -> int:
    """Every workload in its own interpreter; prints each one's table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{workload}.{k}": v
                                  for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grids and levels, for perfbench/"
                             "test_smoke.py; not comparable with full runs")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace,
                   args.smoke)


if __name__ == "__main__":
    sys.exit(main())

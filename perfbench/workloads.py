"""Seeded workloads for the ``run_pipeline`` benchmark and their reference checks.

Each workload turns a seed into one ``run_pipeline`` config plus the analytic
values the result must reproduce.  The library only ever sees the config;
the drawn parameters and the expected values stay on the benchmark's side.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# relative tolerance on beta0 (catenoids) and gamma0 (planted branch point)
REL_TOL = 1e-3


@dataclass
class Case:
    """One drawn instance of a workload."""

    workload: str
    config: dict
    params: dict            # the drawn parameters, as recorded in results
    expect: dict            # reference values for ``check``
    # fresh interpreters per end-to-end run: more where calls are cheap,
    # fewer where they are dear, so that every run fits its time budget
    interpreters: int = 6


def _grid(r_min, n_r, n_theta):
    return {"r_min": r_min, "r_max": 1.0, "n_r": n_r, "n_theta": n_theta}


def _catenoid(name, rng, m, grid, levels, with_potentials):
    scale = rng.uniform(0.8, 1.25)
    config = {"surface": {"name": "inverted_catenoid", "ambient_dim": m,
                          "params": {"scale": scale}},
              "grid": grid, "levels": levels, "multiplier": None,
              "with_potentials": with_potentials, "with_expansion": True}
    beta0 = [0.0] * m
    beta0[2] = 2.0 * scale
    return Case(name, config, {"scale": scale, "m": m},
                {"verdict": "c_one_alpha_worst_case", "theta0": 1, "a": 0,
                 "gamma": [0] * m, "beta0": beta0})


def fine_m3(rng, smoke=False):
    grid = _grid(1e-3, 96, 64) if smoke else _grid(1e-3, 385, 256)
    return _catenoid("fine_m3", rng, 3, grid, 1, False)


def codim6_potentials(rng, smoke=False):
    grid = _grid(1e-3, 48, 32) if smoke else _grid(1e-3, 96, 64)
    case = _catenoid("codim6_potentials", rng, 8, grid, 1 if smoke else 2,
                     True)
    case.interpreters = 4
    return case


def branch_th3(rng, smoke=False):
    # E_a and gamma0 live in the normal plane (e3, e4) of A = e1 + i e2.
    # Over these ranges the modified residue matches the planted gamma0 to
    # at most 4.1e-4 relative (150 draws), inside REL_TOL with margin.
    E_a = [[0.0, 0.0], [0.0, 0.0]]
    gamma0 = [0.0, 0.0]
    for _ in range(2):
        rho, phase = rng.uniform(0.1, 0.3), rng.uniform(0.0, 2.0 * math.pi)
        E_a.append([rho * math.cos(phase), rho * math.sin(phase)])
        gamma0.append(rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 0.8))
    config = {"surface": {"name": "synthetic_th4", "ambient_dim": 4,
                          "params": {"theta0": 3, "a": 1, "E_a": E_a,
                                     "gamma0": gamma0}},
              "grid": _grid(1e-2, 48, 32) if smoke else _grid(1e-2, 96, 64),
              "levels": 1 if smoke else 2, "multiplier": None,
              "with_expansion": True}
    live = [int(re != 0.0 or im != 0.0) for re, im in E_a]
    return Case("branch_th3", config, {"E_a": E_a, "gamma0": gamma0},
                {"verdict": "sobolev_limited", "theta0": 3, "a": 1,
                 "gamma": live, "gamma0": gamma0}, interpreters=11)


def pmc_cylinder(rng, smoke=False):
    radius = rng.uniform(0.6, 0.9)
    # no smaller grid: below 96x64 the discretisation error alone exceeds
    # the pmc gate, so the smoke instance only drops levels
    config = {"surface": {"name": "cylinder_cmc", "ambient_dim": 3,
                          "params": {"radius": radius}},
              "grid": _grid(1e-3, 96, 64),
              "levels": 1 if smoke else 3, "multiplier": {"mode": "pmc"},
              "with_expansion": True}
    return Case("pmc_cylinder", config, {"radius": radius},
                {"verdict": "smooth", "pmc": True})


WORKLOADS = {f.__name__: f for f in
             (fine_m3, codim6_potentials, branch_th3, pmc_cylinder)}


def make_case(workload: str, seed: int, smoke: bool = False) -> Case:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)


def _rel_err(got, want) -> float:
    diff = math.sqrt(sum((g - w) ** 2 for g, w in zip(got, want)))
    return diff / math.sqrt(sum(w * w for w in want))


def check(case: Case, doc: dict) -> list[str]:
    """Compare a ``run_pipeline`` result with the analytic reference.

    Returns the list of mismatches; an empty list means the call is correct.
    """
    exp = case.expect
    res, verdict = doc["residues"], doc["classification"]["verdict"]
    bad = []
    if verdict != exp["verdict"]:
        bad.append(f"verdict {verdict!r}, expected {exp['verdict']!r}")
    for key in ("theta0", "a", "gamma"):
        if key in exp and res[key] != exp[key]:
            bad.append(f"{key} {res[key]}, expected {exp[key]}")
    for key in ("beta0", "gamma0"):
        if key in exp:
            err = _rel_err(res[key], exp[key])
            if not err <= REL_TOL:
                bad.append(f"{key} off by {err:.2e} relative")
    if exp.get("pmc") and not all(lv["pmc_detect"]["pmc"]
                                  for lv in doc["levels"]):
        bad.append("pmc_detect did not flag parallel mean curvature")
    return bad

"""End-to-end analysis: surface -> curvature -> multiplier -> equation
(strong form and flux) -> residues -> potentials (optional) -> expansion ->
classification.

``resolve`` reads a config once, before any work, into a frozen
``Settings``: the surface entry, the level grids, the tolerances, the
multiplier and the ``regular``, ``with_potentials`` and ``with_expansion``
flags.  A malformed or unknown entry, or a grid over ``MAX_NODES`` nodes,
fails there, as a ``PipelineError`` that names its stage.  ``run_pipeline``
resolves its config, executes the chain on every refinement level with
those settings, aggregates convergence orders, and writes a versioned JSON
report plus CSV radial profiles.  Any stage failure is re-raised with the
stage named.

Report files (schema_version 1):
    report.json            config, per-level records, convergence orders,
                           residues, classification
    delta_profile.csv      columns r, delta
    energy_profile.csv     columns r, energy_density (circle mean)
    residual_profile.csv   columns r, strong_rms, div_rms (circle rms)
    w_profile.csv          columns r, abs_W_1 .. abs_W_m (circle means)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NoReturn, Optional

import numpy as np

from willmore.classify import PMC_THRESHOLD, TOL_ZERO, classify, pmc_detect
from willmore.curvature import (curvature, delta_profile, gauss_bonnet_check,
                                gauss_map_energy_density, weingarten_constant,
                                willmore_energy)
from willmore.expansion import fit_H, fit_phi, verify_constants
from willmore.grid import (PolarGrid, circle_mean, fit_order, integrate,
                           is_integer, jsonable)
from willmore.multiplier import MultiplierSpec, pmc_multiplier, special_fields
from willmore.multivec import MAX_DIM, MIN_DIM
from willmore.potentials import potential_set, verify_system
from willmore.residual import equation
from willmore.residues import (WINDING_GATE, ResidueReport, branch_order,
                               first_residue, modified_residue, potential_L,
                               second_residue, tangent_vector, w_field)
from willmore.surface import (DEFECT_THRESHOLD, REGULAR_ENTRIES,
                              catalog_surface, conformal_factor,
                              frame_and_gauss, load_samples_csv, write_csv)

SCHEMA_VERSION = 1

#: the top-level config keys; any other key is refused at stage ``config``
CONFIG_KEYS = ("surface", "grid", "levels", "multiplier", "tolerances",
               "regular", "with_potentials", "with_expansion")

#: the most nodes any level's grid may have: 43 times the 385x256 grid, and
#: five levels of the default 96x64 grid; a larger grid or deeper refinement
#: is refused before any work
MAX_NODES = 2 ** 22


class PipelineError(RuntimeError):
    def __init__(self, stage: str, exc: Exception):
        super().__init__(f"stage {stage!r} failed: {exc}")
        self.stage = stage
        self.cause = exc


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _refuse(stage: str, message: str) -> NoReturn:
    raise PipelineError(stage, ValueError(message))


@dataclass(frozen=True)
class Settings:
    """What a config asks of a run, checked once by ``resolve``.

    ``surface`` is ``{"csv": path}`` or ``{"name", "params",
    "ambient_dim"}``; ``grids`` are the refinement levels, coarsest first;
    ``pmc_sign`` is None unless the run is in pmc mode, where ``spec`` is
    the zero spec.
    """

    surface: Mapping
    grids: tuple[PolarGrid, ...]
    tolerances: Mapping[str, float]
    spec: MultiplierSpec
    pmc_sign: Optional[int]
    regular: bool
    with_potentials: bool
    with_expansion: bool


def _surface_entry(surf) -> dict:
    """The checked surface entry: a CSV path, or a catalog name with its
    params and ambient dimension."""
    if not isinstance(surf, dict) or not ("csv" in surf or "name" in surf):
        _refuse("surface", "surface must be a mapping with a name or a csv, "
                f"got {surf!r}")
    if "csv" in surf:
        if not isinstance(surf["csv"], str):
            _refuse("surface", f"csv must be a path, got {surf['csv']!r}")
        return {"csv": surf["csv"]}
    if not isinstance(surf["name"], str):
        _refuse("surface", f"name must be a string, got {surf['name']!r}")
    params, m = surf.get("params", {}), surf.get("ambient_dim", 3)
    if not isinstance(params, dict) or "ambient_dim" in params:
        _refuse("surface", "params must be a mapping without ambient_dim "
                f"(set it on the surface), got {params!r}")
    if not is_integer(m) or not MIN_DIM <= m <= MAX_DIM:
        _refuse("surface", f"ambient_dim must be an integer in [{MIN_DIM}, "
                f"{MAX_DIM}], got {m!r}")
    return {"name": surf["name"], "params": params, "ambient_dim": int(m)}


def _base_grid(doc) -> PolarGrid:
    """The config's grid entry, refused rather than coerced: the counts
    must be integers, the radii real numbers, and the grid within
    ``MAX_NODES``."""
    if isinstance(doc, dict):
        for key in ("n_r", "n_theta"):
            if key in doc and not is_integer(doc[key]):
                _refuse("grid", f"{key} must be an integer, got {doc[key]!r}")
        for key in ("r_min", "r_max"):
            v = doc.get(key, 1.0)
            if isinstance(v, bool) or not isinstance(v, Real):
                _refuse("grid", f"{key} must be a real number, got {v!r}")
    grid = _stage("grid", PolarGrid.from_json, doc)
    if grid.n_r * grid.n_theta > MAX_NODES:
        _refuse("grid", f"a {grid.n_r}x{grid.n_theta} grid exceeds the "
                f"budget of {MAX_NODES} nodes")
    return grid


def _multiplier(doc) -> tuple[MultiplierSpec, Optional[int]]:
    """(spec, pmc sign or None) of the config's multiplier entry."""
    if doc is None or doc == "zero":
        return MultiplierSpec.zero_spec(), None
    if not isinstance(doc, dict):
        _refuse("multiplier", "multiplier must be null, a spec or "
                f"{{'mode': 'pmc'}}, got {doc!r}")
    if "mode" in doc:
        if doc["mode"] != "pmc":
            _refuse("multiplier", f"mode must be 'pmc', got {doc['mode']!r}")
        unknown = sorted(map(str, set(doc) - {"mode", "sign"}))
        if unknown:
            _refuse("multiplier", f"unknown pmc multiplier keys "
                    f"{', '.join(unknown)}; accepted keys: mode, sign")
        sign = doc.get("sign", +1)
        if isinstance(sign, bool) or sign not in (1, -1):
            _refuse("multiplier", f"pmc sign must be +1 or -1, got {sign!r}")
        return MultiplierSpec.zero_spec(), int(sign)
    return _stage("multiplier", MultiplierSpec.from_json, doc), None


def resolve(config) -> Settings:
    """The settings of ``config``; a malformed or unknown entry fails here,
    before any work, with the stage named after its key (``config`` for
    the keys themselves)."""
    if not isinstance(config, dict):
        _refuse("config", f"config must be a mapping, got {config!r}")
    unknown = sorted(map(str, set(config) - set(CONFIG_KEYS)))
    if unknown:
        _refuse("config", f"unknown keys {', '.join(unknown)}; accepted "
                f"keys: {', '.join(CONFIG_KEYS)}")
    surface = _surface_entry(config.get("surface"))
    # the two defaults below still follow the catalog name as given
    name = config["surface"].get("name")

    grids = [_base_grid(config["grid"]) if "grid" in config
             else PolarGrid()]
    n_levels = config.get("levels", 1)
    if not is_integer(n_levels) or n_levels < 1:
        _refuse("levels", f"levels must be a positive integer, got "
                f"{n_levels!r}")
    if "csv" in surface and n_levels > 1:
        _refuse("surface", "CSV-imported samples cannot be refined; use "
                "levels = 1")
    for _ in range(int(n_levels) - 1):
        grids.append(grids[-1].refined())
        fine = grids[-1]
        if fine.n_r * fine.n_theta > MAX_NODES:
            _refuse("levels", f"levels = {n_levels} refines the grid to "
                    f"{fine.n_r}x{fine.n_theta} nodes or more, over the "
                    f"budget of {MAX_NODES}")

    tol = {"tol_zero": TOL_ZERO, "defect_threshold": DEFECT_THRESHOLD,
           "pmc_threshold": PMC_THRESHOLD, "winding_gate": WINDING_GATE}
    if name == "synthetic_th4":
        # the planted template is conformal only asymptotically; its outer
        # rows carry an O(1) defect by construction. The measured defect is
        # still recorded in every level of the report.
        tol["defect_threshold"] = 2.0
    given = config.get("tolerances", {})
    if not isinstance(given, dict) or any(
            k not in tol or isinstance(v, bool) or not isinstance(v, Real)
            or not 0.0 <= v < float("inf") for k, v in given.items()):
        _refuse("tolerances", f"tolerances may set {', '.join(tol)} to "
                f"finite non-negative numbers, got {given!r}")
    tol.update(given)
    spec, pmc_sign = _multiplier(config.get("multiplier"))

    flags = {"regular": config.get("regular", name in REGULAR_ENTRIES),
             "with_potentials": config.get("with_potentials", False),
             "with_expansion": config.get("with_expansion", True)}
    for key, value in flags.items():
        if not isinstance(value, bool):
            _refuse(key, f"{key} must be true or false, got {value!r}")
    return Settings(MappingProxyType(surface), tuple(grids),
                    MappingProxyType(tol), spec, pmc_sign, **flags)


def build_field(settings: Settings, grid: PolarGrid):
    """The configured surface: CSV samples or a catalog chart on ``grid``."""
    surf = settings.surface
    if "csv" in surf:
        return load_samples_csv(surf["csv"])
    return catalog_surface(surf["name"], surf["params"], grid,
                           surf["ambient_dim"])


def level_geometry(settings: Settings, grid: PolarGrid):
    """Surface, frame, branch order, curvature and Willmore energy of a level.

    Returns the level record begun here and what the rest of the level
    reads: ``(level, field, frame, branch, curv)``.
    """
    field = _stage("surface", build_field, settings, grid)
    conformal = _stage("conformal_factor", conformal_factor, field)
    level = {"grid": field.grid.to_json(),
             "conformal_defect": float(np.max(conformal[1]))}
    frame = _stage("frame_and_gauss", frame_and_gauss, field, conformal,
                   settings.tolerances["defect_threshold"])

    br = _stage("branch_order", branch_order, frame)
    level["theta0"] = br.theta0
    level["slope_raw"] = br.slope
    level["u0"] = br.u0

    curv = _stage("curvature", curvature, field, frame)
    level["willmore_energy"] = _stage("energy", willmore_energy, curv)
    return level, field, frame, br, curv


def analyze_level(settings: Settings,
                  grid: PolarGrid) -> tuple[dict, ResidueReport]:
    """One refinement level of the full chain: the level record and the
    level's residues."""
    tol, spec, pmc_sign = settings.tolerances, settings.spec, settings.pmc_sign
    level, field, frame, br, curv = level_geometry(settings, grid)
    grid = field.grid
    # the Gauss-map energy is recorded, never silently rescaled away
    gm_energy = _stage("gauss_map_energy", integrate, grid,
                       gauss_map_energy_density(frame))
    level["gauss_map_energy"] = gm_energy
    level["warnings"] = []
    if gm_energy > 4.0 * np.pi:
        level["warnings"].append(
            f"Gauss-map energy {gm_energy:.3f} exceeds 4 pi: the smallness "
            "normalization behind the asymptotics is not met on this annulus")
    prof = _stage("delta_profile", delta_profile, frame)
    level["delta_square_integral"] = prof["square_integral"]
    level["delta_profile"] = {"r": prof["r"], "delta": prof["delta"]}
    level["energy_profile"] = circle_mean(curv.energy_density)
    level["liouville"] = _stage("gauss_bonnet", gauss_bonnet_check, curv, br)
    del curv.K, curv.energy_density  # read last by the two stages above
    level["weingarten_constant"] = weingarten_constant(curv, frame)

    td = _stage("tangent_vector", tangent_vector, field, frame, br)
    level["A"] = td.A
    level["A_isotropy_defect"] = td.isotropy_defect
    level["A_normal_defect"] = td.normal_defect

    pmc = _stage("pmc_multiplier", pmc_multiplier, curv, frame, pmc_sign or 1)
    if pmc_sign is not None:
        f_field = pmc["f_pmc"]
        level["multiplier"] = {"mode": "pmc", "sign": pmc_sign,
                               "antiholomorphy_defect":
                                   pmc["antiholomorphy_defect"]}
    else:
        f_field = _stage("multiplier", spec.evaluate, grid.z)
        level["multiplier"] = {"mode": "zero" if spec.zero else "spec",
                               "spec": spec.to_json()}

    eq = _stage("equation", equation, curv, frame, f_field, field)
    del curv.H0, frame  # read last by the equation pass
    fl, pmc_defect, sq = eq.flux, eq.pmc_defect, eq.squares
    level["strong_norms"] = eq.norms["strong"]
    level["div_norms"] = eq.norms["div"]
    level["residual_profile"] = {
        "r": grid.r, "strong_rms": np.sqrt(circle_mean(sq["strong"])),
        "div_rms": np.sqrt(circle_mean(sq["div"]))}
    level["equivalence_norms"] = eq.norms["identity"]
    del eq, sq  # the squared norms are read only above

    fr = _stage("first_residue", first_residue, fl)
    beta0 = fr["beta0"]
    level["beta0"] = beta0
    level["rho_spread"] = fr["rho_spread"]
    gamma0 = _stage("modified_residue", modified_residue, beta0, br.theta0,
                    spec, td.A, br.u0)
    level["gamma0"] = gamma0

    L, ldef = _stage("potential_L", potential_L, fl, beta0)
    level["loop_defect"] = ldef
    del fl  # the flux is read only by the two residue stages above

    F_mu = None
    if not spec.zero:
        sf = _stage("special_fields", special_fields, spec, br, td.A, field,
                    curv.lam)
        F_mu = sf.F_mu
        level["special_fields_mismatch"] = sf.mismatch
    W = _stage("w_field", w_field, L, curv.H, beta0, F_mu, grid)
    srw = _stage("second_residue", second_residue, W, grid,
                 ldef["noise_profile"], tol["winding_gate"])
    level["gamma"] = srw.gamma
    level["a"] = srw.a
    level["winding_raw"] = srw.raw
    level["winding_degenerate"] = srw.degenerate
    level["w_profile"] = {"r": grid.r,  # one row per circle
                          "abs_mean": circle_mean(np.abs(W)).T}
    del W  # read only by the winding stage and the profile above

    report = ResidueReport(
        br.theta0, br.u0, td.A, beta0, fr["rho_spread"], gamma0,
        srw.gamma, srw.a,
        diagnostics={"per_circle_beta0": fr["per_circle"],
                     "circle_radii": fr["radii"],
                     "winding_raw": srw.raw})
    level["pmc_detect"] = _stage("pmc_detect", pmc_detect, pmc_defect,
                                 pmc["antiholomorphy_defect"], report,
                                 tol["pmc_threshold"], tol["tol_zero"])

    if settings.with_potentials:
        pots = _stage("potentials", potential_set, L, beta0, field, curv,
                      grid.band(0.15, 0.85))  # the rows verify_system reads
        del L  # read last here
        level["potential_loop_defects"] = pots.loop_defects
        level["system_residuals"] = _stage("verify_system", verify_system,
                                           pots, field)

    if settings.with_expansion:
        fit = _stage("fit_phi", fit_phi, field, br.theta0, srw.a, br.u0)
        hfit = _stage("fit_H", fit_H, curv, br.theta0, srw.a, br.u0)
        level["expansion"] = fit.to_json()
        level["expansion_H"] = {
            "E_a": hfit["E_a"], "gamma0": hfit["gamma0"],
            "eta_exponent": hfit["eta_exponent"],
            "at_floor": hfit["at_floor"]}
        level["constants"] = _stage(
            "verify_constants", verify_constants, fit, br.theta0, srw.a,
            br.u0, gamma0, hfit["E_a"])

    return level, report


def run_pipeline(config: dict, out_dir=None) -> dict:
    """Full analysis across refinement levels; writes report and profiles."""
    t0 = time.time()
    settings = resolve(config)
    runs = [analyze_level(settings, grid) for grid in settings.grids]
    levels = [level for level, _ in runs]

    convergence = {}
    if len(levels) >= 2:
        hs = [lv["grid"]["n_r"] for lv in levels]
        hs = [1.0 / h for h in hs]
        for key, label in (("strong_norms", "strong_order"),
                           ("div_norms", "div_order"),
                           ("equivalence_norms", "equivalence_order")):
            errs = [lv[key]["rms"] for lv in levels]
            convergence[label] = fit_order(hs, errs)
        convergence["beta0_drift"] = float(np.linalg.norm(
            np.asarray(levels[-1]["beta0"]) - np.asarray(levels[-2]["beta0"])))

    final, report = runs[-1]
    pmc_flag = bool(settings.pmc_sign is not None
                    and final["pmc_detect"]["pmc"])
    verdict = classify(report, settings.spec, pmc=pmc_flag,
                       regular=settings.regular,
                       tol_zero=settings.tolerances["tol_zero"])

    doc = jsonable({
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "elapsed_seconds": time.time() - t0,
        "levels": levels,
        "convergence": convergence,
        "residues": report.to_json(),
        "classification": verdict.to_json(),
    })

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            fh.write(json.dumps(doc, indent=1))
        _write_profiles(out, final)
    return doc


def _write_profiles(out: Path, level: dict) -> None:
    dp, rp, wp = level["delta_profile"], level["residual_profile"], level["w_profile"]
    abs_mean = np.asarray(wp["abs_mean"])
    write_csv(out / "delta_profile.csv", ["r", "delta"], [dp["r"], dp["delta"]])
    write_csv(out / "w_profile.csv",
              ["r"] + [f"abs_W_{j + 1}" for j in range(abs_mean.shape[-1])],
              [wp["r"]] + list(abs_mean.T))
    write_csv(out / "energy_profile.csv", ["r", "energy_density"],
              [dp["r"], level["energy_profile"]])
    write_csv(out / "residual_profile.csv", ["r", "strong_rms", "div_rms"],
              [rp["r"], rp["strong_rms"], rp["div_rms"]])


def exit_code(doc: dict) -> int:
    return 2 if doc["classification"]["verdict"] == "inconsistent" else 0

"""End-to-end analysis: surface -> curvature -> multiplier -> equation
(strong form and flux) -> residues -> potentials (optional) -> expansion ->
classification.

``resolve`` reads a config once, before any work, by its key tables into a
frozen ``Settings``; a malformed or unknown entry, or a grid over
``MAX_NODES`` nodes, fails there with its stage named.  ``run_pipeline``
resolves its config, executes the chain on every refinement level with
those settings, aggregates convergence orders, and writes a versioned JSON
report plus CSV radial profiles.  Any stage failure is re-raised with the
stage named.  Each level runs its sampling, frame, curvature, multiplier
and equation in one pass over its row blocks (``level_pass``).

Report files (schema_version 1):
    report.json            config, per-level records, convergence orders,
                           residues, classification
    delta_profile.csv      columns r, delta
    energy_profile.csv     columns r, energy_density (circle mean)
    residual_profile.csv   columns r, strong_rms, div_rms (circle rms)
    w_profile.csv          columns r, abs_W_1 .. abs_W_m (circle means)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NoReturn, Optional

import numpy as np

from willmore.classify import PMC_THRESHOLD, TOL_ZERO, classify, pmc_detect
from willmore.curvature import (CurvatureField, curvature, delta_profile,
                                gauss_bonnet_check, gauss_map_energy_density,
                                weingarten_constant, willmore_energy)
from willmore.expansion import fit_H, fit_phi, verify_constants
from willmore.grid import (BOOL, INTEGER, MAPPING, NON_NEGATIVE, REQUIRED,
                           STRING, Form, PolarGrid, circle_mean, fit_order,
                           integrate, is_integer, json_text, jsonable,
                           read_json)
from willmore.multiplier import (MultiplierSpec, antiholomorphy_defect,
                                 pmc_multiplier, special_fields)
from willmore.multivec import MAX_DIM, MIN_DIM
from willmore.potentials import potential_set, verify_system
from willmore.residual import Equation, FluxField, equation
from willmore.residues import (WINDING_GATE, ResidueReport, branch_order,
                               first_residue, modified_residue, potential_L,
                               second_residue, tangent_vector, w_field)
from willmore.surface import (DEFECT_THRESHOLD, REGULAR_ENTRIES,
                              ImmersionField, catalog_chart, conformal_factor,
                              frame_and_gauss, load_samples_csv, write_csv)

SCHEMA_VERSION = 1

#: the top-level config keys with their forms and defaults; an unknown key is
#: refused at stage ``config``, a malformed entry at the stage of its key
CONFIG_KEYS = {
    "surface": (MAPPING, REQUIRED), "grid": (MAPPING, None),
    "levels": (INTEGER, 1),
    "multiplier": (Form('null, "zero", a spec or a pmc entry',
                        lambda v: v is None or v == "zero"
                        or isinstance(v, dict)), None),
    "tolerances": (MAPPING, {}), "regular": (BOOL, None),
    "with_potentials": (BOOL, False), "with_expansion": (BOOL, True)}

#: a surface entry: a CSV path, or a catalog chart and its ambient dimension
SURFACE_KEYS = {"csv": (STRING, None), "name": (STRING, None),
                "params": (MAPPING, {}),
                "ambient_dim": (Form(f"an integer in [{MIN_DIM}, {MAX_DIM}]",
                                     lambda v: is_integer(v)
                                     and MIN_DIM <= v <= MAX_DIM, int), 3)}

#: the tolerances, each defaulting to a constant of the module that applies it
TOLERANCE_KEYS = {"tol_zero": (NON_NEGATIVE, TOL_ZERO),
                  "defect_threshold": (NON_NEGATIVE, DEFECT_THRESHOLD),
                  "pmc_threshold": (NON_NEGATIVE, PMC_THRESHOLD),
                  "winding_gate": (NON_NEGATIVE, WINDING_GATE)}

#: a pmc multiplier entry
PMC_KEYS = {"mode": (Form("'pmc'", lambda v: v == "pmc"), REQUIRED),
            "sign": (Form("+1 or -1", lambda v: not isinstance(v, bool)
                          and v in (1, -1), int), 1)}

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


def _surface_entry(surf: dict) -> dict:
    """The checked surface entry: a CSV path, or a catalog name with its
    params and ambient dimension."""
    entry = _stage("surface", read_json, surf, SURFACE_KEYS, "the surface")
    csv = entry.pop("csv")
    if csv is not None:
        return {"csv": csv}
    if entry["name"] is None:
        _refuse("surface", f"surface needs a name or a csv, got {surf!r}")
    if "ambient_dim" in entry["params"]:
        _refuse("surface", "set ambient_dim on the surface, not in params")
    # the chart's params and domain, checked on no grid
    _stage("surface", catalog_chart, entry["name"], entry["params"],
           entry["ambient_dim"])
    return entry


def _multiplier(doc) -> tuple[MultiplierSpec, Optional[int]]:
    """(spec, pmc sign or None) of the config's multiplier entry."""
    if doc is None or doc == "zero":
        return MultiplierSpec.zero_spec(), None
    if "mode" not in doc:
        return _stage("multiplier", MultiplierSpec.from_json, doc), None
    pmc = _stage("multiplier", read_json, doc, PMC_KEYS, "the pmc multiplier")
    return MultiplierSpec.zero_spec(), pmc["sign"]


def resolve(config) -> Settings:
    """The settings of ``config``; a malformed or unknown entry fails here,
    before any work, with the stage named after its key (``config`` for
    the keys themselves)."""
    c = read_json(config, CONFIG_KEYS, "the config", lambda msg, key:
                  PipelineError(key or "config", ValueError(msg)))
    surface = _surface_entry(c["surface"])
    # the two defaults below still follow the catalog name as given
    name = surface.get("name")

    n_levels = c["levels"]
    if n_levels < 1:
        _refuse("levels", f"levels must be a positive integer, got {n_levels}")
    if "csv" in surface and n_levels > 1:
        _refuse("surface", "CSV-imported samples cannot be refined; use "
                "levels = 1")
    grids = [PolarGrid() if c["grid"] is None
             else _stage("grid", PolarGrid.from_json, c["grid"])]
    for level in range(n_levels):
        if level:
            grids.append(grids[-1].refined())
        g = grids[-1]
        if g.n_r * g.n_theta > MAX_NODES:
            _refuse("levels" if level else "grid", f"level {level + 1} of "
                    f"{n_levels} has a {g.n_r}x{g.n_theta} grid, over the "
                    f"budget of {MAX_NODES} nodes")

    tol_keys = TOLERANCE_KEYS
    if name == "synthetic_th4":
        # the planted template is conformal only asymptotically; its outer
        # rows carry an O(1) defect by construction. The measured defect is
        # still recorded in every level of the report.
        tol_keys = {**tol_keys, "defect_threshold": (NON_NEGATIVE, 2.0)}
    tol = _stage("tolerances", read_json, c["tolerances"], tol_keys,
                 "the tolerances")
    spec, pmc_sign = _multiplier(c["multiplier"])
    regular = (name in REGULAR_ENTRIES if c["regular"] is None
               else c["regular"])
    return Settings(MappingProxyType(surface), tuple(grids),
                    MappingProxyType(tol), spec, pmc_sign, regular,
                    c["with_potentials"], c["with_expansion"])


def build_field(settings: Settings, grid: PolarGrid) -> ImmersionField:
    """CSV samples, or a catalog chart's field that is sampled one row
    block at a time (``ImmersionField.on``)."""
    surf = settings.surface
    if "csv" in surf:
        return load_samples_csv(surf["csv"])
    m = surf["ambient_dim"]
    return ImmersionField(grid, np.empty((3, m) + grid.rr.shape),
                          chart=catalog_chart(surf["name"], surf["params"], m))


def level_pass(settings: Settings, field: ImmersionField):
    """``(curv, pmc, eq, defect)`` of a level, from one pass over its row
    blocks (``PolarGrid.blocks``, two halo rows: grad H, then the
    divergences); ``defect`` is the largest conformal defect per circle.

    Each block samples its rows (``ImmersionField.on``), gates its own rows'
    defect and runs ``curvature``, ``pmc_multiplier`` and ``equation`` on its
    frame; every term is per node or a stencil inside the halo, so each kept
    row equals a one-block pass bit for bit.  The level keeps the blocks' own
    rows of what later stages read (phi, d1, lam; no d2, H0 or f_pmc): a
    one-block level keeps the block's arrays themselves.
    """
    grid, m = field.grid, field.ambient_dim
    spec, sign = settings.spec, settings.pmc_sign
    level = {}
    if next(grid.blocks(m, 2)).n_r < grid.n_r:  # below the blocks' in the heap
        level = {key: np.empty(lead + grid.rr.shape) for key, lead in (
            ("lam", ()), ("H", (m,)), ("K", ()), ("energy_density", ()),
            ("dn_norm", ()), ("eH0_norm", ()), ("flux", (2, m)),
            ("strong", ()), ("div", ()), ("identity", ()))}
        level.update((key, np.empty(grid.n_r)) for key in (
            "defect", "abs_max", "dz_max", "parallel", "scale"))

    def keep(band, **arrays):
        """Keeps ``band``'s own rows of arrays (axis -2, or -1 per circle)."""
        for key, a in arrays.items():
            own = (slice(None),) * (a.ndim > 1)
            if key in level:
                level[key][(..., band.kept, *own)] = a[(..., band.keep, *own)]
            else:  # the level's one block, all of whose rows are its own
                level[key] = a

    for band in grid.blocks(m, 2):
        part = _stage("surface", field.on, band)
        lam, dfct = _stage("conformal_factor", conformal_factor, part)
        keep(band, lam=lam, defect=np.max(dfct, axis=-1))
        frame = _stage("frame_and_gauss", frame_and_gauss, part,
                       (lam, dfct[band.keep]),
                       settings.tolerances["defect_threshold"])  # gates kept rows
        cb = _stage("curvature", curvature, part, frame)
        del frame.II, frame.gram, part.d2  # read last by curvature, with nu
        keep(band, H=cb.H, K=cb.K, energy_density=cb.energy_density,
             dn_norm=cb.dn_norm, eH0_norm=cb.eH0_norm)
        del cb.K, cb.energy_density, cb.dn_norm, cb.eH0_norm  # kept above

        pb = _stage("pmc_multiplier", pmc_multiplier, cb, frame, sign or 1)
        keep(band, abs_max=pb["abs_max"], dz_max=pb["dz_max"])
        if sign is not None:
            f = pb["f_pmc"]
        elif not spec.zero:
            f = _stage("multiplier", spec.evaluate, band.z)
        else:
            f = None
        del pb

        eb = _stage("equation", equation, cb, frame, f, part)
        del part, frame, cb, f, lam  # before the next block's are formed
        keep(band, flux=eb.flux.raw, parallel=eb.parallel, scale=eb.scale,
             **eb.squares)
        del eb
    curv = CurvatureField(grid, *(level[key] for key in (
        "lam", "H", "K", "energy_density", "dn_norm", "eH0_norm")))
    eq = Equation(FluxField(grid, level["flux"]),
                  {key: level[key] for key in ("strong", "div", "identity")},
                  level["parallel"], level["scale"])
    return curv, {key: level[key] for key in ("abs_max", "dz_max")}, eq, level["defect"]


def analyze_level(settings: Settings,
                  grid: PolarGrid) -> tuple[dict, ResidueReport]:
    """One refinement level of the full chain, from its samples on: the
    level record and the level's residues."""
    tol, spec, pmc_sign = settings.tolerances, settings.spec, settings.pmc_sign
    field = _stage("surface", build_field, settings, grid)
    grid = field.grid  # CSV samples bring their own
    curv, pmc, eq, defect = level_pass(settings, field)
    level = {"grid": grid.to_json(), "conformal_defect": float(np.max(defect))}
    br = _stage("branch_order", branch_order, grid, curv.lam)
    level.update(theta0=br.theta0, slope_raw=br.slope, u0=br.u0)
    level["willmore_energy"] = _stage("energy", willmore_energy, curv)
    # the Gauss-map energy is recorded, never silently rescaled away
    gm_energy = _stage("gauss_map_energy", integrate, grid,
                       gauss_map_energy_density(curv))
    level.update(gauss_map_energy=gm_energy, warnings=[])
    if gm_energy > 4.0 * np.pi:
        level["warnings"].append(
            f"Gauss-map energy {gm_energy:.3f} exceeds 4 pi: the smallness "
            "normalization behind the asymptotics is not met on this annulus")
    prof = _stage("delta_profile", delta_profile, curv)
    level["delta_square_integral"] = prof["square_integral"]
    level["delta_profile"] = {"r": prof["r"], "delta": prof["delta"]}
    level["energy_profile"] = circle_mean(curv.energy_density)
    level["liouville"] = _stage("gauss_bonnet", gauss_bonnet_check, curv, br)
    del curv.K, curv.energy_density  # read last by the two stages above
    level["weingarten_constant"] = weingarten_constant(curv)
    del curv.dn_norm, curv.eH0_norm  # read last by the stages above

    td = _stage("tangent_vector", tangent_vector, field, br)
    level.update(A=td.A, A_isotropy_defect=td.isotropy_defect,
                 A_normal_defect=td.normal_defect)

    anti = antiholomorphy_defect(grid, pmc)
    if pmc_sign is not None:
        level["multiplier"] = {"mode": "pmc", "sign": pmc_sign,
                               "antiholomorphy_defect": anti}
    else:
        level["multiplier"] = {"mode": "zero" if spec.zero else "spec",
                               "spec": spec.to_json()}

    fl, pmc_defect, sq, norms = eq.flux, eq.pmc_defect, eq.squares, eq.norms
    level.update(strong_norms=norms["strong"], div_norms=norms["div"])
    level["residual_profile"] = {
        "r": grid.r, "strong_rms": np.sqrt(circle_mean(sq["strong"])),
        "div_rms": np.sqrt(circle_mean(sq["div"]))}
    level["equivalence_norms"] = norms["identity"]
    del eq, sq  # the squared norms are read only above

    fr = _stage("first_residue", first_residue, fl)
    beta0 = fr["beta0"]
    level.update(beta0=beta0, rho_spread=fr["rho_spread"])
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
    level.update(gamma=srw.gamma, a=srw.a, winding_raw=srw.raw,
                 winding_degenerate=srw.degenerate)
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
                                 anti, report,
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
        hs = [1.0 / lv["grid"]["n_r"] for lv in levels]
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
        (out / "report.json").write_text(json_text(doc))
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

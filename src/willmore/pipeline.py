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

import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NoReturn

import numpy as np

from willmore.classify import TOL_ZERO, classify, pmc_detect
from willmore.curvature import (CurvatureField, curvature, delta_profile,
                                gauss_bonnet_check, weingarten_constant,
                                willmore_energy)
from willmore.expansion import _fit_rows, fit_H, fit_phi, verify_constants
from willmore.grid import (BOOL, INTEGER, MAPPING, NON_NEGATIVE, REQUIRED,
                           STRING, Form, PolarGrid, annulus_mask, circle_mean,
                           fit_order, integrate_means, is_integer, jsonable,
                           read_json)
from willmore.multiplier import (MultiplierSpec, antiholomorphy_defect,
                                 pmc_multiplier, special_fields)
from willmore.multivec import MAX_DIM, MIN_DIM
from willmore.potentials import potential_set, verify_system
from willmore.residual import NORM_ANNULUS, Equation, FluxField, equation
from willmore.residues import (ResidueReport, _inner_rows, branch_order,
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
    "multiplier": (Form("null, a spec or a pmc entry",
                        lambda v: v is None or isinstance(v, dict)), None),
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
                  "defect_threshold": (NON_NEGATIVE, DEFECT_THRESHOLD)}

#: a pmc multiplier entry
PMC_KEYS = {"mode": (Form("'pmc'", lambda v: v == "pmc"), REQUIRED)}

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
    ``pmc`` is true when the run is in pmc mode, where ``spec`` is the zero
    spec.
    """

    surface: Mapping
    grids: tuple[PolarGrid, ...]
    tolerances: Mapping[str, float]
    spec: MultiplierSpec
    pmc: bool
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


def _multiplier(doc) -> tuple[MultiplierSpec, bool]:
    """(spec, whether in pmc mode) of the config's multiplier entry."""
    if doc is None:
        return MultiplierSpec.zero_spec(), False
    if "mode" not in doc:
        return _stage("multiplier", MultiplierSpec.from_json, doc), False
    _stage("multiplier", read_json, doc, PMC_KEYS, "the pmc multiplier")
    return MultiplierSpec.zero_spec(), True


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
    if "csv" in surface and c["grid"] is not None:
        _refuse("grid", "CSV-imported samples bring their own grid; drop "
                "the grid entry")
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
    spec, pmc = _multiplier(c["multiplier"])
    regular = (name in REGULAR_ENTRIES if c["regular"] is None
               else c["regular"])
    return Settings(MappingProxyType(surface), tuple(grids),
                    MappingProxyType(tol), spec, pmc, regular,
                    c["with_potentials"], c["with_expansion"])


def build_field(settings: Settings, grid: PolarGrid,
                level: bool = True) -> ImmersionField:
    """A level's field (CSV samples differentiated once, or a catalog chart
    sampled one row block at a time by ``ImmersionField.on``), or with
    ``level`` false the samples ``willmore generate`` writes.  Without
    potentials or a spec multiplier, a level keeps phi and grad phi on the
    rows of ``_fit_rows`` and ``_inner_rows`` alone, their only readers."""
    surf = settings.surface
    if "csv" in surf:
        return load_samples_csv(surf["csv"], level)
    m, every = surf["ambient_dim"], settings.with_potentials or not level
    n_r = (grid.n_r if every or not settings.spec.zero
           else max(_fit_rows(grid).stop, _inner_rows(grid).stop))
    return ImmersionField(grid, np.empty((3, m, n_r, grid.n_theta)),
                          chart=catalog_chart(surf["name"], surf["params"], m))


def level_pass(settings: Settings, field: ImmersionField):
    """``(curv, eq, circles)`` of a level, from one pass over its row
    blocks (``PolarGrid.blocks``, two halo rows: grad H, then the
    divergences).

    Each block samples its rows (``ImmersionField.on``), gates its own rows'
    defect and runs ``curvature``, ``pmc_multiplier`` and ``equation`` on its
    frame; every term is per node or a stencil inside the halo, so each kept
    row equals a one-block pass bit for bit.  The level keeps the blocks' own
    rows of what later stages read: lam, H, K, |grad n|, e^lam |H0| and the
    flux per node, the squared norms on the ``NORM_ANNULUS`` rows alone,
    and in ``circles`` per circle the largest conformal defect, the maxima
    and the means of the others (no d2, H0, f_pmc or energy density per
    node); a one-block level keeps the block's node arrays themselves.
    """
    grid, m = field.grid, field.ambient_dim
    spec = settings.spec
    ann, level, circles, squares = annulus_mask(grid, *NORM_ANNULUS), {}, {}, {}
    if next(grid.blocks(m, 2)).n_r < grid.n_r:  # below the blocks' in the heap
        level = {key: np.empty(lead + grid.rr.shape) for key, lead in (
            ("lam", ()), ("H", (m,)), ("K", ()), ("dn_norm", ()),
            ("eH0_norm", ()), ("flux", (2, m)))}

    def keep(band, **arrays):
        """Keeps ``band``'s own rows of arrays: per node (axis -2) in the
        level's, per circle (axis -1) in ``circles``."""
        for key, a in arrays.items():
            if a.ndim == 1:
                circles.setdefault(key, []).append(a[band.keep])
            elif key in level:
                level[key][..., band.kept, :] = a[..., band.keep, :]
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
        keep(band, H=cb.H, K=cb.K, dn_norm=cb.dn_norm, eH0_norm=cb.eH0_norm,
             **cb.means)
        del cb.K, cb.energy_density, cb.dn_norm, cb.eH0_norm  # kept above

        pb = _stage("pmc_multiplier", pmc_multiplier, cb, frame)
        keep(band, abs_max=pb["abs_max"], dz_max=pb["dz_max"])
        if settings.pmc:
            f = pb["f_pmc"]
        elif not spec.zero:
            f = _stage("multiplier", spec.evaluate, band.z)
        else:
            f = None
        del pb

        eb = _stage("equation", equation, cb, frame, f, part)
        del part, frame, cb, f, lam  # before the next block's are formed
        keep(band, flux=eb.flux.raw, parallel=eb.parallel, scale=eb.scale,
             **{key: circle_mean(sq) for key, sq in eb.squares.items()})
        for key, sq in eb.squares.items():
            squares.setdefault(key, []).append(sq[band.keep][ann[band.kept]])
        del eb
    c, squares = ({key: np.concatenate(v) for key, v in d.items()}
                  for d in (circles, squares))
    curv = CurvatureField(grid, *(level[key] for key in (
        "lam", "H", "K", "dn_norm", "eH0_norm")),
        {key: c[key] for key in ("energy", "gauss_map")})
    eq = Equation(FluxField(grid, level["flux"]), squares, slice(None),
                  c["parallel"], c["scale"])
    return curv, eq, c


def analyze_level(settings: Settings,
                  grid: PolarGrid) -> tuple[dict, ResidueReport]:
    """One refinement level of the full chain, from its samples on: the
    level record and the level's residues."""
    tol, spec = settings.tolerances, settings.spec
    field = _stage("surface", build_field, settings, grid)
    grid = field.grid  # CSV samples bring their own
    curv, eq, circles = level_pass(settings, field)
    level = {"grid": grid,
             "conformal_defect": float(np.max(circles["defect"]))}
    br = _stage("branch_order", branch_order, grid, curv.lam)
    level.update(theta0=br.theta0, slope_raw=br.slope, u0=br.u0)
    level["willmore_energy"] = _stage("energy", willmore_energy, curv)
    # the Gauss-map energy is recorded, never silently rescaled away
    gm_energy = _stage("gauss_map_energy", integrate_means, grid,
                       curv.means["gauss_map"])  # flat measure
    level.update(gauss_map_energy=gm_energy, warnings=[])
    if gm_energy > 4.0 * np.pi:
        level["warnings"].append(
            f"Gauss-map energy {gm_energy:.3f} exceeds 4 pi: the smallness "
            "normalization behind the asymptotics is not met on this annulus")
    prof = _stage("delta_profile", delta_profile, curv)
    level["delta_square_integral"] = prof["square_integral"]
    level["delta_profile"] = {"r": prof["r"], "delta": prof["delta"]}
    level["energy_profile"] = curv.means["energy"]
    level["liouville"] = _stage("gauss_bonnet", gauss_bonnet_check, curv, br)
    level["weingarten_constant"] = weingarten_constant(curv)
    del curv.K, curv.dn_norm, curv.eH0_norm  # read last by the stages above

    td = _stage("tangent_vector", tangent_vector, field, br)
    level.update(A=td.A, A_isotropy_defect=td.isotropy_defect,
                 A_normal_defect=td.normal_defect)

    anti = antiholomorphy_defect(grid, circles)
    if settings.pmc:
        level["multiplier"] = {"mode": "pmc", "antiholomorphy_defect": anti}
    else:
        level["multiplier"] = {"mode": "zero" if spec.zero else "spec",
                               "spec": spec}

    fl, pmc_defect, norms = eq.flux, eq.pmc_defect, eq.norms
    level.update(strong_norms=norms["strong"], div_norms=norms["div"])
    level["residual_profile"] = {
        "r": grid.r, "strong_rms": np.sqrt(circles["strong"]),
        "div_rms": np.sqrt(circles["div"])}
    level["equivalence_norms"] = norms["identity"]
    del eq  # the flux's other holder

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
                 ldef["noise_profile"])
    level.update(gamma=srw.gamma, a=srw.a, winding_raw=srw.raw,
                 winding_degenerate=srw.degenerate)
    level["w_profile"] = {"r": grid.r,  # one row per circle
                          "abs_mean": circle_mean(np.abs(W)).T}
    del W  # read only by the winding stage and the profile above

    report = ResidueReport(
        br.theta0, br.u0, td.A, beta0, fr["rho_spread"], gamma0, srw.gamma,
        srw.a, diagnostics={"per_circle_beta0": fr["per_circle"],
                            "circle_radii": fr["radii"],
                            "winding_raw": srw.raw})
    level["pmc_detect"] = _stage("pmc_detect", pmc_detect, pmc_defect, anti,
                                 report, tol["tol_zero"])

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
        level["expansion"] = fit
        level["expansion_H"] = hfit  # E_a, gamma0, eta_exponent, at_floor
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
        hs = [1.0 / lv["grid"].n_r for lv in levels]
        for key, label in (("strong_norms", "strong_order"),
                           ("div_norms", "div_order"),
                           ("equivalence_norms", "equivalence_order")):
            errs = [lv[key]["rms"] for lv in levels]
            convergence[label] = fit_order(hs, errs)
        convergence["beta0_drift"] = float(np.linalg.norm(
            np.asarray(levels[-1]["beta0"]) - np.asarray(levels[-2]["beta0"])))

    final, report = runs[-1]
    verdict = classify(report, settings.spec,
                       pmc=settings.pmc and final["pmc_detect"]["pmc"],
                       regular=settings.regular,
                       tol_zero=settings.tolerances["tol_zero"])

    doc = jsonable({
        "schema_version": SCHEMA_VERSION, "config": config,
        "elapsed_seconds": time.time() - t0, "levels": levels,
        "convergence": convergence, "residues": report,
        "classification": verdict})

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(doc, allow_nan=False))
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

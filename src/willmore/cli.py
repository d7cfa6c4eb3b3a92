"""Command-line interface.

Subcommands:
    generate   sample a catalog surface to CSV (r, theta, phi_1..phi_m)
    analyze    full pipeline: residues, expansions, classification, report
    residues   residue extraction only, JSON to stdout or --out
    energy     Willmore energy of the configured surface
    fit        expansion fit only
    classify   re-derive the verdict from a saved report.json

Configs are JSON documents.  Their keys, each with its form and default,
are the tables ``pipeline.CONFIG_KEYS`` (with ``SURFACE_KEYS``,
``TOLERANCE_KEYS`` and ``PMC_KEYS``), ``grid.GRID_KEYS``,
``multiplier.SPEC_KEYS`` and ``surface.CATALOG_PARAMS``; README's Config
section lists them.

Every command reads its config (after its flags) through
``pipeline.resolve``, so an unknown key or a malformed entry is refused,
with its stage named, before any work.  ``residues``, ``fit`` and
``energy`` run ``analyze`` (without potentials; ``residues`` and ``energy``
also without expansions) and print its last level, so each prints what
``analyze`` reports and fails where it fails; ``generate`` samples the first
level's chart one row block at a time, as a level does, or copies CSV
samples with no stencil; ``classify`` re-derives the verdict with the
report's saved config.  A config or report that is not JSON is refused
with its file and the position named (a config at stage ``config``).
``--tol-zero`` replaces ``tol_zero`` on the two commands whose output
reads it, ``analyze`` and ``classify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _read_json(path):
    """The JSON document in the file ``path``; a malformed one is refused
    with the file and the position named."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_config(path) -> dict:
    from willmore.pipeline import PipelineError

    try:
        return _read_json(path)
    except ValueError as exc:
        raise PipelineError("config", exc) from exc


def _apply_overrides(config, args) -> dict:
    """The config with the command's flags applied; an entry that is not a
    mapping is left as it is, for ``resolve`` to refuse."""
    if not isinstance(config, dict):
        return config
    if getattr(args, "levels", None) is not None:
        config["levels"] = args.levels
    if getattr(args, "tol_zero", None) is not None:
        tol = config.setdefault("tolerances", {})
        if isinstance(tol, dict):
            tol["tol_zero"] = args.tol_zero
    if getattr(args, "with_potentials", False):
        config["with_potentials"] = True
    return config


def _analyze(args, with_expansion: bool) -> dict:
    """The ``analyze`` report of the configured run, without potentials."""
    from willmore.pipeline import run_pipeline

    config = _apply_overrides(_load_config(args.config), args)
    if isinstance(config, dict):
        config.update(with_potentials=False, with_expansion=with_expansion)
    return run_pipeline(config)


def _write_json(doc, out) -> int:
    text = json.dumps(doc, indent=1, allow_nan=False)
    if out:
        Path(out).write_text(text)
    else:
        print(text)
    return 0


def cmd_generate(args) -> int:
    from willmore.pipeline import _stage, build_field, resolve
    from willmore.surface import save_samples_csv

    settings = resolve(_load_config(args.config))
    field = _stage("surface", build_field, settings, settings.grids[0], False)
    for band in field.grid.blocks(field.ambient_dim, 0) if field.chart else ():
        _stage("surface", field.on, band)  # samples a chart in place
    save_samples_csv(field, args.out)
    print(f"wrote {field.grid.n_r * field.grid.n_theta} samples to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    from willmore.pipeline import exit_code, run_pipeline

    config = _apply_overrides(_load_config(args.config), args)
    doc = run_pipeline(config, out_dir=args.out)
    verdict = doc["classification"]
    print(f"theta0 = {doc['residues']['theta0']}, a = {doc['residues']['a']}")
    print(f"beta0 = {doc['residues']['beta0']} "
          f"(spread {doc['residues']['rho_spread']:.2e})")
    print(f"gamma = {doc['residues']['gamma']}")
    print(f"verdict: {verdict['verdict']}")
    for cite in verdict["citations"]:
        print(f"  - {cite}")
    if args.out:
        print(f"report written to {Path(args.out) / 'report.json'}")
    return exit_code(doc)


def cmd_residues(args) -> int:
    return _write_json(_analyze(args, with_expansion=False)["residues"],
                       args.out)


def cmd_energy(args) -> int:
    level = _analyze(args, with_expansion=False)["levels"][-1]
    print("willmore energy over the sampled annulus: "
          f"{level['willmore_energy']:.12g}")
    return 0


def cmd_fit(args) -> int:
    level = _analyze(args, with_expansion=True)["levels"][-1]
    return _write_json({k: level[k] for k in
                        ("expansion", "expansion_H", "constants")}, args.out)


def cmd_classify(args) -> int:
    from willmore.classify import classify
    from willmore.grid import jsonable
    from willmore.pipeline import exit_code, resolve
    from willmore.residues import ResidueReport

    doc = _read_json(args.report)
    if not isinstance(doc, dict):
        raise ValueError(f"a report is a JSON mapping, got {type(doc).__name__}")
    for key in ("residues", "classification"):
        if not isinstance(doc.get(key, {}), dict):
            raise ValueError(f"the report's {key!r} entry is a JSON mapping, "
                             f"got {type(doc[key]).__name__}")
    # pmc is measured on the last level, so it is read from the report
    cond = doc.get("classification", {}).get("conditions", {})
    if not isinstance(cond, dict):
        raise ValueError("the report's 'classification.conditions' entry is "
                         f"a JSON mapping, got {type(cond).__name__}")
    pmc = cond.get("pmc", False)
    if not isinstance(pmc, bool):
        raise ValueError("the report's 'classification.conditions.pmc' entry "
                         f"is not true or false, got {json.dumps(pmc)}")
    try:
        report = ResidueReport.from_json(doc["residues"])
    except KeyError as exc:
        raise ValueError(f"the report has no {exc} entry") from exc
    if "config" not in doc:
        raise ValueError("the report has no 'config' entry")
    settings = resolve(_apply_overrides(doc["config"], args))
    verdict = classify(report, settings.spec, pmc=pmc,
                       regular=settings.regular,
                       tol_zero=settings.tolerances["tol_zero"])
    out = jsonable(verdict)
    _write_json(out, None)
    return exit_code({"classification": out})


_CONFIG = {"--config": {"required": True}}
#: each command's help, handler and flags
COMMANDS = {
    "generate": ("sample a catalog surface to CSV", cmd_generate,
                 {**_CONFIG, "--out": {"required": True}}),
    "analyze": ("full pipeline with report", cmd_analyze,
                {**_CONFIG, "--levels": {"type": int}, "--out": {},
                 "--tol-zero": {"type": float},
                 "--with-potentials": {"action": "store_true"}}),
    "residues": ("residue extraction only", cmd_residues,
                 {**_CONFIG, "--out": {}}),
    "energy": ("Willmore energy of the sampled annulus", cmd_energy, _CONFIG),
    "fit": ("asymptotic expansion fit", cmd_fit, {**_CONFIG, "--out": {}}),
    "classify": ("re-classify from a saved report", cmd_classify,
                 {"--report": {"required": True},
                  "--tol-zero": {"type": float}}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="willmore",
        description="Branch-point analysis of conformal immersions: "
                    "residues, expansions, removability")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

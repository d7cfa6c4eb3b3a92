"""Command-line interface.

Subcommands:
    generate   sample a catalog surface to CSV (r, theta, phi_1..phi_m)
    analyze    full pipeline: residues, expansions, classification, report
    residues   residue extraction only, JSON to stdout or --out
    energy     Willmore energy of the configured surface
    fit        expansion fit only
    classify   re-derive the verdict from a saved report.json

Configs are JSON documents:
    {"surface": {"name": ..., "params": {...}, "ambient_dim": m},
     "grid": {"r_min": ..., "r_max": ..., "n_r": ..., "n_theta": ...},
     "multiplier": null | {"mu": ..., "a_mu": [re, im], "f0": [[re, im], ...],
                           "zero": false} | {"mode": "pmc", "sign": 1},
     "levels": 1, "with_potentials": false,
     "tolerances": {"tol_zero": 1e-6, "defect_threshold": 1e-6,
                    "pmc_threshold": 5e-3, "winding_gate": 0.2}}

``residues`` and ``fit`` run ``analyze`` (without potentials; ``residues``
also without expansions) and print its last level, and ``energy`` runs the
last level's stages up to the energy, with the same tolerances;
``classify`` re-derives the verdict with the report's saved tolerances
unless ``--tol-zero`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(config, args) -> dict:
    if getattr(args, "levels", None) is not None:
        config["levels"] = args.levels
    if getattr(args, "tol_zero", None) is not None:
        config.setdefault("tolerances", {})["tol_zero"] = args.tol_zero
    if getattr(args, "with_potentials", False):
        config["with_potentials"] = True
    return config


def _analyze(args, with_expansion: bool) -> dict:
    """The ``analyze`` report of the configured run, without potentials."""
    from willmore.pipeline import run_pipeline

    config = _apply_overrides(_load_config(args.config), args)
    return run_pipeline({**config, "with_potentials": False,
                         "with_expansion": with_expansion})


def _write_json(doc, out) -> int:
    text = json.dumps(doc, indent=1)
    if out:
        Path(out).write_text(text)
    else:
        print(text)
    return 0


def cmd_generate(args) -> int:
    from willmore.pipeline import _stage, build_field, config_grid
    from willmore.surface import save_samples_csv

    config = _load_config(args.config)
    field = _stage("surface", build_field, config, config_grid(config))
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
    from willmore.pipeline import level_geometry, level_grids

    config = _load_config(args.config)
    level, *_ = level_geometry(config, level_grids(config)[-1])
    print("willmore energy over the sampled annulus: "
          f"{level['willmore_energy']:.12g}")
    return 0


def cmd_fit(args) -> int:
    level = _analyze(args, with_expansion=True)["levels"][-1]
    return _write_json({k: level[k] for k in
                        ("expansion", "expansion_H", "constants")}, args.out)


def cmd_classify(args) -> int:
    from willmore.classify import classify
    from willmore.pipeline import (_default_tolerances, _resolve_multiplier,
                                   exit_code)
    from willmore.residues import ResidueReport

    with open(args.report) as fh:
        doc = json.load(fh)
    config = doc.get("config", {})
    spec, _, _ = _resolve_multiplier(config)
    tol_zero = (args.tol_zero if args.tol_zero is not None
                else _default_tolerances(config)["tol_zero"])
    cond = doc.get("classification", {}).get("conditions", {})
    verdict = classify(ResidueReport.from_json(doc["residues"]), spec,
                       pmc=bool(cond.get("pmc", False)),
                       regular=bool(cond.get("regular", False)),
                       tol_zero=tol_zero)
    out = verdict.to_json()
    print(json.dumps(out, indent=1))
    return exit_code({"classification": out})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="willmore",
        description="Branch-point analysis of conformal immersions: "
                    "residues, expansions, removability")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a catalog surface to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze", help="full pipeline with report")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--tol-zero", dest="tol_zero", type=float, default=None)
    p.add_argument("--with-potentials", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("residues", help="residue extraction only")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol-zero", dest="tol_zero", type=float, default=None)
    p.set_defaults(fn=cmd_residues)

    p = sub.add_parser("energy", help="Willmore energy of the sampled annulus")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("fit", help="asymptotic expansion fit")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol-zero", dest="tol_zero", type=float, default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("classify", help="re-classify from a saved report")
    p.add_argument("--report", required=True)
    p.add_argument("--tol-zero", dest="tol_zero", type=float, default=None)
    p.set_defaults(fn=cmd_classify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

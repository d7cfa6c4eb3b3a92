"""Point-removability verdicts from the measured residues.

The decision table: with both residues zero, the immersion is smooth when
the multiplier decays fast enough (theta0 < mu + 2) and regains only
C^{theta0+1,alpha} at the borderline theta0 = mu + 2; a regular point
(equation valid across the origin) is smooth for regular multipliers and
C^{2,alpha} for the singular order mu = -1; parallel mean curvature is
smooth outright; otherwise the Sobolev scale W^{theta0+2-a,p} rules, with
the theta0 = 1 worst case pinned at C^{1,alpha}.  Numerical zero-tests use
a configured tolerance with the measured circulation spread as scale, and
both gates are reported next to the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from willmore.multiplier import MultiplierSpec
from willmore.residues import ResidueReport, pole_order_range

#: default ``tol_zero``, the floor of the residue zero gate
TOL_ZERO = 1e-6
#: the largest parallelism defect read as pmc
PMC_THRESHOLD = 5e-3

VERDICTS = ("smooth", "c_theta_plus_one_alpha", "sobolev_limited",
            "c_one_alpha_worst_case", "regular_point_smooth",
            "regular_point_c2alpha", "inconsistent")


@dataclass(eq=False)
class Classification:
    verdict: str
    conditions: dict
    citations: list
    sobolev_exponent: Optional[int] = None
    diagnostics: dict = dfield(default_factory=dict)


def _zero_gate(tol_zero: float, spread: float) -> float:
    return max(tol_zero, 10.0 * spread)


def decide(theta0: int, a: int, gamma0_zero: bool, gamma_zero: bool,
           mu: Optional[int], pmc: bool, regular: bool,
           range_ok: bool) -> tuple[str, list, Optional[int]]:
    """Pure decision table; mu is None for an identically zero multiplier."""
    if not range_ok:
        return "inconsistent", ["pole order outside the admissible range"], None
    if pmc:
        return "smooth", ["parallel mean curvature: smooth across regular "
                          "points and branch points alike"], None
    if regular:
        if mu is None or mu >= 0:
            return "regular_point_smooth", [
                "regular point, regular multiplier: smooth across the "
                "singularity"], None
        return "regular_point_c2alpha", [
            "regular point, singular multiplier (mu = -1): C^{2,alpha}"], None
    if gamma0_zero and gamma_zero:
        if mu is None or theta0 < mu + 2:
            cite = ("Willmore (f = 0) with vanishing residues: smooth"
                    if mu is None else
                    "vanishing residues and theta0 < mu + 2: smooth")
            return "smooth", [cite], None
        if theta0 == mu + 2:
            return "c_theta_plus_one_alpha", [
                "vanishing residues at the borderline theta0 = mu + 2: "
                "H in W^{2,(2,inf)}, Phi in C^{theta0+1,alpha}"], None
        return "inconsistent", [
            "gamma = 0 forces a = 0, impossible for theta0 > mu + 2"], None
    exponent = theta0 + 2 - a
    if theta0 == 1:
        return "c_one_alpha_worst_case", [
            "nonvanishing residue at a simple branch point: the immersion "
            "may be no better than C^{1,alpha}"], exponent
    return "sobolev_limited", [
        f"nonvanishing residues: W^{{{exponent},p}} regularity scale, "
        "C^{2,alpha} in the worst case"], exponent


def classify(report: ResidueReport, spec: MultiplierSpec,
             pmc: bool = False, regular: bool = False,
             tol_zero: float = TOL_ZERO) -> Classification:
    gate = _zero_gate(tol_zero, report.rho_spread)
    gamma0_zero = bool(np.linalg.norm(report.gamma0) <= gate)
    gamma_zero = bool(np.all(np.asarray(report.gamma) == 0))
    mu = None if spec.zero else spec.mu
    lo, hi = pole_order_range(report.theta0, spec)
    range_ok = lo <= report.a <= hi
    verdict, citations, exponent = decide(
        report.theta0, report.a, gamma0_zero, gamma_zero, mu, pmc, regular,
        range_ok)
    conditions = dict(
        gamma0_zero=gamma0_zero, gamma_zero=gamma_zero,
        gamma0_norm=float(np.linalg.norm(report.gamma0)), zero_gate=gate,
        theta0=report.theta0, a=report.a, mu=mu, pmc=pmc, regular=regular,
        range_ok=range_ok, willmore=mu is None)
    diagnostics = {}
    if not range_ok:
        diagnostics["admissible_a"] = [lo, hi]
    if pmc and not (gamma0_zero and gamma_zero):
        diagnostics["pmc_residue_conflict"] = (
            "parallel mean curvature requires vanishing residues but the "
            "measured ones are nonzero")
    return Classification(verdict, conditions, citations, exponent,
                          diagnostics)


def pmc_detect(defect: float, antiholomorphy_defect: float,
               report: ResidueReport, tol_zero: float = TOL_ZERO) -> dict:
    """Parallelism test |pi_n grad H| with the residue cross-check.

    ``defect`` is the parallelism defect of ``residual.equation``, read as
    pmc below ``PMC_THRESHOLD``, and ``antiholomorphy_defect`` that of
    ``multiplier.pmc_multiplier``.  A surface flagged
    parallel-mean-curvature must also show vanishing residues;
    disagreement is reported, not silently resolved.
    """
    is_pmc = bool(defect < PMC_THRESHOLD)
    result = {"pmc": is_pmc, "defect": defect,
              "antiholomorphy_defect": antiholomorphy_defect}
    if is_pmc:
        gate = _zero_gate(tol_zero, report.rho_spread)
        residues_zero = (np.linalg.norm(report.beta0) <= gate
                         and np.all(np.asarray(report.gamma) == 0))
        result["residues_vanish"] = bool(residues_zero)
        if not residues_zero:
            result["conflict"] = ("parallelism holds numerically but the "
                                  "measured residues are nonzero")
    return result

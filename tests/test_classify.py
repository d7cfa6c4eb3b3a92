from itertools import product

import numpy as np

from willmore.classify import VERDICTS, classify, decide, pmc_detect
from willmore.curvature import curvature
from willmore.grid import PolarGrid, jsonable
from willmore.multiplier import (MultiplierSpec, antiholomorphy_defect,
                                 pmc_multiplier)
from willmore.residual import equation
from willmore.residues import ResidueReport
from willmore.surface import catalog_surface, conformal_factor, frame_and_gauss


def make_report(theta0=1, a=0, beta0=None, gamma0=None, gamma=None,
                spread=1e-9, m=3):
    beta0 = np.zeros(m) if beta0 is None else np.asarray(beta0, float)
    gamma0 = beta0 if gamma0 is None else np.asarray(gamma0, float)
    gamma = np.zeros(m, int) if gamma is None else np.asarray(gamma, int)
    return ResidueReport(theta0, 0.0, np.array([1, 1j, 0], complex)[:m],
                         beta0, spread, gamma0, gamma, a)


def test_decision_table_total():
    # every condition combination yields exactly one known verdict
    for theta0, gamma0_zero, gamma_zero, mu, pmc, regular, range_ok in product(
            (1, 2, 3), (True, False), (True, False), (None, -1, 0, 1, 3),
            (True, False), (True, False), (True, False)):
        for a in range(0, theta0):
            verdict, citations, exponent = decide(
                theta0, a, gamma0_zero, gamma_zero, mu, pmc, regular, range_ok)
            assert verdict in VERDICTS
            assert citations
            if verdict == "sobolev_limited":
                assert exponent == theta0 + 2 - a


def test_scenario_smooth_fast_multiplier():
    rep = make_report(theta0=1)
    out = classify(rep, MultiplierSpec(mu=0, a_mu=1.0))
    assert out.verdict == "smooth"


def test_scenario_borderline_multiplier():
    rep = make_report(theta0=2, a=0)
    out = classify(rep, MultiplierSpec(mu=0, a_mu=1.0))
    assert out.verdict == "c_theta_plus_one_alpha"


def test_scenario_regular_singular_multiplier():
    rep = make_report(theta0=1)
    out = classify(rep, MultiplierSpec(mu=-1, a_mu=1.0), regular=True)
    assert out.verdict == "regular_point_c2alpha"


def test_scenario_regular_smooth():
    rep = make_report(theta0=1)
    out = classify(rep, MultiplierSpec(mu=0, a_mu=1.0), regular=True)
    assert out.verdict == "regular_point_smooth"
    out2 = classify(rep, MultiplierSpec.zero_spec(), regular=True)
    assert out2.verdict == "regular_point_smooth"


def test_scenario_pmc_smooth():
    rep = make_report(theta0=2, a=0)
    out = classify(rep, MultiplierSpec.zero_spec(), pmc=True)
    assert out.verdict == "smooth"
    assert any("parallel" in c for c in out.citations)


def test_scenario_inverted_catenoid_not_smooth():
    rep = make_report(theta0=1, a=0, beta0=[0, 0, 2.0], spread=1e-4)
    out = classify(rep, MultiplierSpec.zero_spec())
    assert out.verdict == "c_one_alpha_worst_case"
    assert not out.conditions["gamma0_zero"]


def test_willmore_smooth_when_residues_vanish():
    rep = make_report(theta0=3, a=0)
    out = classify(rep, MultiplierSpec.zero_spec())
    assert out.verdict == "smooth"


def test_sobolev_limited_with_exponent():
    rep = make_report(theta0=3, a=2, beta0=[0, 0, 1.0],
                      gamma=[0, 0, 2], spread=1e-6)
    rep = ResidueReport(3, 0.0, rep.A, rep.beta0, rep.rho_spread,
                        rep.gamma0, np.array([0, 0, 2]), 2)
    out = classify(rep, MultiplierSpec.zero_spec())
    assert out.verdict == "sobolev_limited"
    assert out.sobolev_exponent == 3 + 2 - 2


def test_range_violation_is_inconsistent():
    # mu = -1 with theta0 = 3 forces a >= 2; a = 0 is inconsistent
    rep = make_report(theta0=3, a=0)
    out = classify(rep, MultiplierSpec(mu=-1, a_mu=1.0))
    assert out.verdict == "inconsistent"
    assert "admissible_a" in out.diagnostics


def test_zero_gate_uses_spread():
    # gamma0 below 10x the measured spread counts as zero
    rep = make_report(theta0=1, beta0=[0, 0, 5e-6], spread=1e-6)
    out = classify(rep, MultiplierSpec.zero_spec(), tol_zero=1e-9)
    assert out.conditions["gamma0_zero"]
    rep2 = make_report(theta0=1, beta0=[0, 0, 5e-6], spread=1e-8)
    out2 = classify(rep2, MultiplierSpec.zero_spec(), tol_zero=1e-9)
    assert not out2.conditions["gamma0_zero"]


def test_pmc_conflict_reported():
    rep = make_report(theta0=1, beta0=[0, 0, 2.0], spread=1e-6)
    out = classify(rep, MultiplierSpec.zero_spec(), pmc=True)
    assert out.verdict == "smooth"  # the flag wins, but the conflict is loud
    assert "pmc_residue_conflict" in out.diagnostics


def test_pmc_detect_on_catalog():
    grid = PolarGrid(0.05, 1.0, 48, 64)
    for name, params, expect in (("cylinder_cmc", {"radius": 0.75}, True),
                                 ("sphere_stereographic", {}, True)):
        field = catalog_surface(name, params, grid, 3)
        frame = frame_and_gauss(field, conformal_factor(field))
        curv = curvature(field, frame)
        out = pmc_detect(equation(curv, frame).pmc_defect,
                         antiholomorphy_defect(grid,
                                               pmc_multiplier(curv, frame)),
                         make_report(theta0=1))
        assert out["pmc"] == expect, name


def test_pmc_detect_cross_checks_residues():
    grid = PolarGrid(0.05, 1.0, 48, 64)
    field = catalog_surface("cylinder_cmc", {"radius": 0.75}, grid, 3)
    frame = frame_and_gauss(field, conformal_factor(field))
    curv = curvature(field, frame)
    rep = make_report(theta0=1)
    pmc = (equation(curv, frame).pmc_defect,
           antiholomorphy_defect(grid, pmc_multiplier(curv, frame)))
    out = pmc_detect(*pmc, rep)
    assert out["pmc"] and out["residues_vanish"]
    bad = make_report(theta0=1, beta0=[0, 0, 2.0], spread=1e-8)
    out2 = pmc_detect(*pmc, bad)
    assert "conflict" in out2


def test_classification_serialization():
    rep = make_report(theta0=1)
    out = classify(rep, MultiplierSpec.zero_spec())
    import json
    doc = json.dumps(jsonable(out))
    assert "verdict" in doc

import numpy as np
import pytest

from willmore.grid import PolarGrid
from willmore.curvature import curvature
from willmore.expansion import ExpansionError, fit_H, fit_phi, verify_constants
from willmore.residues import branch_order
from willmore.surface import catalog_surface, conformal_factor, frame_and_gauss

from oracles import radial_log_laplacian_oracle


def prepared(params, m=4, r_min=1e-2, n_r=96, n_theta=64, name="synthetic_th4"):
    grid = PolarGrid(r_min, 1.0, n_r, n_theta)
    field = catalog_surface(name, params, grid, m)
    conformal = conformal_factor(field)
    thr = max(1e-6, 2.0 * float(np.max(conformal[1])))
    frame = frame_and_gauss(field, conformal, defect_threshold=thr)
    br = branch_order(field.grid, frame.lam)
    return field, frame, br


PLANT = {
    "A": np.array([1.1, 1.1j, 0, 0], dtype=complex),
    "B": [np.array([0.2, 0.1j, -0.3, 0.05], dtype=complex),
          np.array([0.0, 0.0, 0.2j, 0.1], dtype=complex)],
    "E_a": np.array([0, 0, 0.8 + 0.3j, -0.25], dtype=complex),
    "gamma0": np.array([0, 0, 0.4, -0.15]),
    "xi": np.array([0.3, 0, 0.2j, 0], dtype=complex),
}


def test_log_laplacian_oracle_prefers_cubic():
    # Lap(r^{2t}(t log r - 1)) = 4 t^3 r^{2t-2} log r: the cubic coefficient
    # is the consistent one (the quadratic variant fails for t >= 2)
    for t in (2, 3, 4):
        o = radial_log_laplacian_oracle(t)
        assert o["cubic_error"] < 1e-5
        assert o["quadratic_error"] > 1.0


def test_round_trip_theta3_a1():
    theta0, a = 3, 1
    params = dict(PLANT, theta0=theta0, a=a)
    field, frame, br = prepared(params)
    assert br.theta0 == theta0
    fit = fit_phi(field, theta0, a, br.u0)
    assert np.max(np.abs(fit.A - PLANT["A"])) < 1e-6
    for bf, bp in zip(fit.B, PLANT["B"]):
        assert np.max(np.abs(bf - bp)) < 1e-4
    assert np.max(np.abs(fit.E_a - PLANT["E_a"])) < 1e-4
    assert np.max(np.abs(fit.gamma0_fit - PLANT["gamma0"])) < 1e-6
    # remainder planted at the expansion's decay order 2 theta0 - a + 1 = 6
    assert abs(fit.remainder_exponent_phi - 6.0) < 0.05

    curv = curvature(field, frame)
    hf = fit_H(curv, theta0, a, br.u0)
    assert np.max(np.abs(hf["E_a"] - PLANT["E_a"])) < 1e-4
    assert np.max(np.abs(hf["gamma0"] - PLANT["gamma0"])) < 1e-4
    assert hf["eta_exponent"] >= (1 - a) - 0.1

    vc = verify_constants(fit, theta0, a, br.u0, PLANT["gamma0"], hf["E_a"])
    assert vc["C_defect"] < 1e-4
    assert vc["C_theta_a_defect"] < 1e-4


@pytest.mark.parametrize("theta0,a", [(2, 0), (2, 1), (4, 2)])
def test_round_trip_other_orders(theta0, a):
    E = PLANT["E_a"].copy()
    if a == 0:
        E = E.real.astype(complex)  # only Re identifiable when the pole merges
    params = {"theta0": theta0, "a": a, "A": PLANT["A"],
              "B": PLANT["B"][: theta0 - a], "E_a": E,
              "gamma0": PLANT["gamma0"]}
    field, frame, br = prepared(params)
    fit = fit_phi(field, theta0, a, br.u0)
    assert np.max(np.abs(fit.A - PLANT["A"])) < 1e-6
    for bf, bp in zip(fit.B, params["B"]):
        assert np.max(np.abs(bf - bp)) < 1e-4
    if a == 0:
        assert np.max(np.abs(fit.E_a.real - E.real)) < 1e-4
    else:
        assert np.max(np.abs(fit.E_a - E)) < 1e-4
    assert np.max(np.abs(fit.gamma0_fit - PLANT["gamma0"])) < 1e-6


def test_branched_plane_all_zero():
    grid_params = {"theta0": 3, "scale": 0.7}
    field, frame, br = prepared(grid_params, m=3, name="branched_plane")
    fit = fit_phi(field, 3, 0, br.u0)
    assert all(np.max(np.abs(b)) < 1e-8 for b in fit.B)
    assert np.max(np.abs(fit.C_vec)) < 1e-8
    assert np.max(np.abs(fit.E_a)) < 1e-8
    assert fit.at_floor  # exact monomial: residual at machine floor


def test_plane_fit_H_trivial():
    field, frame, br = prepared({}, m=3, name="plane")
    curv = curvature(field, frame)
    hf = fit_H(curv, 1, 0, br.u0)
    assert np.max(np.abs(hf["E_a"])) < 1e-12
    assert np.max(np.abs(hf["gamma0"])) < 1e-12


def test_sphere_fit_H_constant_curvature():
    R = 1.3
    field, frame, br = prepared({"R": R}, m=3, r_min=1e-3,
                                name="sphere_stereographic")
    curv = curvature(field, frame)
    hf = fit_H(curv, 1, 0, br.u0)
    # a = 0: E_0 is the (real) value of H at the puncture, |H| = 1/R
    assert np.linalg.norm(hf["E_a"].real) == pytest.approx(1.0 / R, rel=1e-6)
    assert np.max(np.abs(hf["gamma0"])) < 1e-8
    assert hf["eta_exponent"] >= 1.0 - 0.1 or hf["at_floor"]


def test_inverted_catenoid_log_coefficient_parallel_to_gamma0():
    # f = 0 so gamma0 = beta0 = 2 e3; the fitted log coefficient of Phi
    # must align with it
    field, frame, br = prepared({}, m=3, r_min=1e-3, n_r=128,
                                name="inverted_catenoid")
    fit = fit_phi(field, br.theta0, 0, br.u0)
    c = fit.C_vec
    direction = c / np.linalg.norm(c)
    assert np.linalg.norm(c) > 1e-4
    assert abs(abs(direction[2]) - 1.0) < 1e-3
    gamma0 = np.array([0.0, 0.0, 2.0])
    expect = np.exp(2 * br.u0) / (2.0) * gamma0  # theta0 = 1: e^{2u0}/2 g0
    assert np.linalg.norm(fit.C_vec - expect) / np.linalg.norm(expect) < 0.05


def test_fit_H_rejects_bad_pole_order():
    field, frame, br = prepared({}, m=3, name="plane")
    curv = curvature(field, frame)
    with pytest.raises(ExpansionError):
        fit_H(curv, 1, 1, br.u0)


def test_verify_constants_zero_gamma0():
    params = {"theta0": 2, "a": 1, "A": PLANT["A"],
              "B": [PLANT["B"][0]], "E_a": PLANT["E_a"],
              "gamma0": np.zeros(4)}
    field, frame, br = prepared(params)
    fit = fit_phi(field, 2, 1, br.u0)
    hf = fit_H(curvature(field, frame), 2, 1, br.u0)
    vc = verify_constants(fit, 2, 1, br.u0, np.zeros(4), hf["E_a"])
    # gamma0 = 0: the defect reduces to |C_vec| itself, expected ~ 0
    assert vc["C_defect"] == pytest.approx(np.linalg.norm(fit.C_vec))
    assert vc["C_defect"] < 1e-8

import json

import numpy as np
import pytest

from willmore import grid as g
from willmore import multiplier
from willmore.grid import PolarGrid
from willmore.curvature import curvature
from willmore.multiplier import (
    MultiplierError, MultiplierSpec, matrix_field, pmc_multiplier,
    special_fields,
)
from willmore.residual import equation
from willmore.surface import (BranchData, catalog_surface, conformal_factor,
                              frame_and_gauss)

from oracles import antiholomorphy_defect, codazzi_defect

RNG = np.random.default_rng(99)


def make_grid(n_r=48, n_theta=64, r_min=0.05):
    return PolarGrid(r_min=r_min, n_r=n_r, n_theta=n_theta)


def rand_spec():
    mu = int(RNG.integers(-1, 4))
    extra = int(RNG.integers(0, 3))
    f0 = [0j] * (mu + 1) + [complex(*RNG.standard_normal(2)) for _ in range(extra)]
    return MultiplierSpec(mu=mu, a_mu=complex(*RNG.standard_normal(2)), f0=f0)


def test_zero_spec():
    spec = MultiplierSpec.zero_spec()
    grid = make_grid()
    f = spec.evaluate(grid.z)
    M = matrix_field(f)
    assert not np.any(f) and not np.any(M)


def test_mu_below_minus_one_rejected():
    with pytest.raises(MultiplierError):
        MultiplierSpec(mu=-2, a_mu=1.0)


def test_zero_a_mu_rejected():
    with pytest.raises(MultiplierError):
        MultiplierSpec(mu=0, a_mu=0.0)


def test_low_order_tail_rejected():
    with pytest.raises(MultiplierError):
        MultiplierSpec(mu=1, a_mu=1.0, f0=(0.5, 0.0))


def test_singular_monomial_at_one():
    # f = 1/zbar: M_f at z = 1 is [[0, 1], [1, 0]]
    spec = MultiplierSpec(mu=-1, a_mu=1.0)
    val = spec.evaluate(np.array(1.0 + 0j))
    assert val == pytest.approx(1.0)
    M = matrix_field(np.array(val))
    assert np.allclose(M, [[0.0, 1.0], [1.0, 0.0]])


def test_matrix_symmetric_trace_free():
    grid = make_grid()
    for _ in range(5):
        spec = rand_spec()
        M = matrix_field(spec.evaluate(grid.z))
        assert np.allclose(M, np.swapaxes(M, 0, 1))
        assert np.allclose(np.trace(M, axis1=0, axis2=1), 0.0)


def test_sampled_f_is_antiholomorphic():
    grid = make_grid(n_r=96)
    for _ in range(5):
        spec = rand_spec()
        # analytic sampling: defect at rounding level
        assert antiholomorphy_defect(spec, grid) < 1e-8
        # discrete stencils: discretization-limited but still small
        assert antiholomorphy_defect(spec, grid, discrete=True) < 5e-3


def test_json_round_trip():
    spec = MultiplierSpec(mu=1, a_mu=2.0 - 1.0j, f0=(0, 0, 0.5 + 0.25j))
    doc = json.loads(json.dumps(spec.to_json()))
    back = MultiplierSpec.from_json(doc)
    assert back == spec
    assert MultiplierSpec.from_json({"zero": True}).zero


def test_zero_spec_json_round_trip():
    # the spec that to_json writes, and the shortest zero spec
    written = MultiplierSpec.zero_spec().to_json()
    assert written == {"mu": 0, "a_mu": [0.0, 0.0], "f0": [], "zero": True}
    for doc in (written, {"zero": True}):
        spec = MultiplierSpec.from_json(json.loads(json.dumps(doc)))
        assert spec == MultiplierSpec.zero_spec()
        assert spec.to_json() == written


def _branch_frame(field, theta0, u0):
    frame = frame_and_gauss(field, conformal_factor(field))
    u = frame.lam - (theta0 - 1) * np.log(field.grid.rr)
    return frame, BranchData(theta0, theta0 - 1.0, u, u0)


def test_special_fields_zero_multiplier():
    grid = make_grid()
    field = catalog_surface("branched_plane", {"theta0": 2}, grid, 3)
    frame, br = _branch_frame(field, 2, np.log(2.0))
    sf = special_fields(MultiplierSpec.zero_spec(), br,
                        np.array([1, 1j, 0]), field, frame.lam)
    assert not np.any(sf.F_mu) and not np.any(sf.J)


def test_special_fields_branched_plane_J_vanishes():
    # monomial chart: the centered bracket vanishes identically
    theta0 = 3
    grid = make_grid()
    field = catalog_surface("branched_plane", {"theta0": theta0}, grid, 3)
    A = np.array([1.0, 1j, 0.0])
    u0 = float(np.log(theta0))
    frame, br = _branch_frame(field, theta0, u0)
    for mu in (-1, 0, theta0 - 2, 2):
        spec = MultiplierSpec(mu=mu, a_mu=1.3 - 0.4j)
        sf = special_fields(spec, br, A, field, frame.lam)
        assert np.max(np.abs(sf.J)) < 1e-10, f"mu={mu}"
        assert sf.mismatch < 1e-10


def test_special_fields_log_branch_case():
    # mu = theta0 - 2 flips F_mu onto the logarithmic template
    theta0, mu = 2, 0
    grid = make_grid()
    field = catalog_surface("branched_plane", {"theta0": theta0}, grid, 3)
    A = np.array([1.0, 1j, 0.0])
    u0 = float(np.log(theta0))
    frame, br = _branch_frame(field, theta0, u0)
    spec = MultiplierSpec(mu=mu, a_mu=2.0)
    sf = special_fields(spec, br, A, field, frame.lam)
    expect = (0.5 * theta0 * np.exp(-2 * u0) * 2.0 * A[:, None, None]
              * 2.0 * np.log(grid.rr))
    assert np.allclose(sf.F_mu, expect, atol=1e-12)


def test_special_fields_synthetic_log_branch_two_routes():
    # mu = theta0 - 2 on the synthetic template: F_mu picks the log branch
    # and the two J evaluations agree to discretization accuracy, improving
    # under refinement
    theta0, mu = 2, 0
    spec = MultiplierSpec(mu=mu, a_mu=0.8 - 0.5j)
    A = np.array([1.0, 1j, 0.0, 0.0])
    mism, hs = [], []
    for n in (48, 96, 192):
        grid = PolarGrid(1e-3, 1.0, n, 64)
        field = catalog_surface(
            "synthetic_th4",
            {"theta0": theta0, "a": 1, "E_a": [0, 0, 0.3, 0.1j],
             "gamma0": [0, 0, 0.2, 0]}, grid, 4)
        lam, _ = conformal_factor(field)
        u = lam - (theta0 - 1) * np.log(grid.rr)
        u0 = float(u[0, 0])
        br = BranchData(theta0, theta0 - 1.0, u, u0)
        sf = special_fields(spec, br, A, field, lam)
        # logarithmic template: angular mean of |F_mu| grows like |log r|
        prof = g.circle_mean(np.abs(sf.F_mu[0]))
        assert prof[0] > 2.0 * prof[-2]
        mism.append(sf.mismatch)
        hs.append(grid.ds)
    # both routes evaluate from analytic derivatives, so they agree to
    # rounding on every grid (stronger than the O(h^2) requirement)
    assert max(mism) < 1e-10


def test_special_fields_decay_rate():
    # J = O(|z|^{mu + 2 - theta0}): measured log-log slope is not lower
    theta0, mu = 2, 1
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    field = catalog_surface(
        "synthetic_th4",
        {"theta0": theta0, "a": 1, "E_a": [0, 0, 1.0], "gamma0": [0, 0, 0.2]},
        grid, 3)
    lam, _ = conformal_factor(field)
    u = lam - (theta0 - 1) * np.log(grid.rr)
    br = BranchData(theta0, theta0 - 1.0, u, float(u[0, 0]))
    spec = MultiplierSpec(mu=mu, a_mu=1.0)
    A = np.array([1.0, 1j, 0.0])
    sf = special_fields(spec, br, A, field, lam)
    prof = np.sqrt(g.circle_mean(np.sum(np.abs(sf.J) ** 2, axis=0)))
    sel = grid.r < 0.1
    slope = g.fit_order(grid.r[sel], prof[sel])
    assert slope >= mu + 2 - theta0 - 0.1


def _pmc_setup(name, params=None, m=3, grid=None):
    grid = grid or make_grid()
    field = catalog_surface(name, params, grid, m)
    frame = frame_and_gauss(field, conformal_factor(field))
    return frame, curvature(field, frame)


def test_pmc_multiplier_sphere_trivial():
    frame, curv = _pmc_setup("sphere_stereographic")
    out = pmc_multiplier(curv, frame)
    assert np.max(np.abs(out["f_pmc"])) < 1e-12
    # grad H is discrete, so parallelism holds to stencil accuracy
    assert equation(curv, frame).pmc_defect < 5e-3


def test_pmc_multiplier_catenoid_trivial():
    frame, curv = _pmc_setup("catenoid_end")
    assert np.max(np.abs(pmc_multiplier(curv, frame)["f_pmc"])) < 1e-8


def test_pmc_multiplier_cylinder():
    rho = 0.75
    frame, curv = _pmc_setup("cylinder_cmc", {"radius": rho})
    out = pmc_multiplier(curv, frame)
    assert np.allclose(out["f_pmc"], -1.0 / (2 * rho ** 2), atol=1e-9)
    assert multiplier.antiholomorphy_defect(curv.grid, out) < 1e-8
    assert equation(curv, frame).pmc_defect < 5e-3
    # the opposite sign convention stays available
    flipped = pmc_multiplier(curv, frame, sign=-1)
    assert np.allclose(flipped["f_pmc"], 1.0 / (2 * rho ** 2), atol=1e-9)


def test_codazzi_defect_refines():
    defects, hs = [], []
    for n in (32, 64, 128):
        grid = PolarGrid(0.05, 1.0, n, max(32, n))
        frame, curv = _pmc_setup("inverted_catenoid", grid=grid)
        defects.append(codazzi_defect(curv, frame))
        hs.append(grid.ds)
    assert g.fit_order(hs, defects) >= 1.5

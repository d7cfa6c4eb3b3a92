import numpy as np
import pytest

from willmore import grid as g
from willmore.grid import PolarGrid
from willmore.curvature import curvature
from willmore.multiplier import MultiplierSpec
from willmore.residual import FluxField, equation
from willmore.residues import (
    ResidueError, ResidueReport, _cumtheta, branch_order, first_residue,
    integrate_curl_potential, loop_defects, modified_residue, pole_order_range,
    potential_L, radial_extrapolate, second_residue, tangent_vector, w_field,
)
from willmore.surface import (catalog_surface, conformal_factor,
                              frame_and_gauss, from_chart, CATALOG)

from oracles import rotated_chart

RNG = np.random.default_rng(1234)


def analyzed_frame(field):
    conformal = conformal_factor(field)
    thr = max(1e-6, 2.0 * float(np.max(conformal[1])))
    frame = frame_and_gauss(field, conformal, defect_threshold=thr)
    br = branch_order(field.grid, frame.lam)
    return frame, br


# -- angular antiderivative ---------------------------------------------------

@pytest.mark.parametrize("z", [1.0, -2.5])
def test_cumtheta_on_trig_polynomial(z):
    # the Nyquist term has no paired mode and no antiderivative: it is dropped
    grid = PolarGrid(0.05, 1.0, 24, 64)
    th, n = grid.tt, grid.n_theta
    vals = z * (np.cos(3 * th) + 2.0 * np.sin(5 * th) - 0.4
                + 0.9 * np.cos(n // 2 * th))
    want = z * (np.sin(3 * th) / 3.0 + 0.4 * (1.0 - np.cos(5 * th)) - 0.4 * th)
    out, holonomy = _cumtheta(vals, n)
    assert np.iscomplexobj(out) == np.iscomplexobj(vals)
    assert np.max(np.abs(out - want)) < 1e-12
    assert np.allclose(holonomy, -0.8 * np.pi * z, rtol=0, atol=1e-12)


# -- branch order -------------------------------------------------------------

def test_branch_order_plane():
    grid = PolarGrid(0.01, 1.0, 64, 64)
    field = catalog_surface("plane", {}, grid, 3)
    _, br = analyzed_frame(field)
    assert br.theta0 == 1
    assert abs(br.slope) < 1e-10
    assert np.max(np.abs(br.u)) < 1e-10


@pytest.mark.parametrize("theta0", [2, 3, 4])
def test_branch_order_branched_plane(theta0):
    grid = PolarGrid(0.01, 1.0, 64, 64)
    field = catalog_surface("branched_plane", {"theta0": theta0, "scale": 0.5},
                            grid, 3)
    _, br = analyzed_frame(field)
    assert br.theta0 == theta0
    assert br.u0 == pytest.approx(np.log(theta0 * 0.5), abs=1e-9)
    assert np.ptp(br.u) < 1e-9  # u is constant for the exact monomial


def test_branch_order_inverted_catenoid():
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    field = catalog_surface("inverted_catenoid", {}, grid, 3)
    _, br = analyzed_frame(field)
    assert br.theta0 == 1
    assert abs(br.slope) < 0.05
    assert br.u0 == pytest.approx(np.log(2.0), abs=1e-3)


def test_branch_order_rejects_non_integer_slope():
    grid = PolarGrid(0.01, 1.0, 64, 64)
    field = catalog_surface("plane", {}, grid, 3)
    frame = frame_and_gauss(field, conformal_factor(field))
    half = frame.lam + 0.5 * np.log(grid.rr)  # slope 1/2: not a branch
    with pytest.raises(ResidueError):
        branch_order(grid, half)


# -- tangent vector -----------------------------------------------------------

def test_tangent_vector_planted():
    grid = PolarGrid(0.01, 1.0, 64, 64)
    A = np.array([0.3 + 0.4j, 0.4 - 0.3j, 0.5j])  # isotropic by construction?
    # make it exactly isotropic: A = c (u + i v), u.v = 0, |u| = |v|
    u = np.array([1.0, 0.2, -0.3])
    v = np.array([-0.2, 1.0, 0.0])
    v = v - (v @ u) * u / (u @ u)
    v *= np.linalg.norm(u) / np.linalg.norm(v)
    A = 0.8 * (u + 1j * v)
    field = catalog_surface("branched_plane", {"theta0": 3, "A": A}, grid, 3)
    frame, br = analyzed_frame(field)
    td = tangent_vector(field, br)
    assert np.max(np.abs(td.A - A)) < 1e-8
    assert td.isotropy_defect < 1e-10
    assert td.normal_defect < 1e-8


def test_tangent_vector_sphere_norm():
    # theta0 = 1: |A^1| = |A^2| = e^{u(0)} = 2R
    R = 1.25
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    field = catalog_surface("sphere_stereographic", {"R": R}, grid, 3)
    frame, br = analyzed_frame(field)
    td = tangent_vector(field, br)
    assert np.linalg.norm(td.A.real) == pytest.approx(2 * R, rel=1e-6)
    assert np.linalg.norm(td.A.imag) == pytest.approx(2 * R, rel=1e-6)
    assert np.exp(br.u0) == pytest.approx(2 * R, rel=1e-6)
    assert td.isotropy_defect < 1e-8


def test_tangent_vector_synthetic_recovery():
    grid = PolarGrid(1e-5, 1.0, 96, 64)
    A = np.zeros(4, complex)
    A[0], A[1] = 0.9, 0.9j
    E = np.zeros(4, complex)
    E[2] = 0.7 - 0.2j
    field = catalog_surface("synthetic_th4",
                            {"theta0": 2, "a": 1, "A": A, "E_a": E,
                             "gamma0": [0, 0, 0.1, 0]}, grid, 4)
    frame, br = analyzed_frame(field)
    td = tangent_vector(field, br)
    assert np.max(np.abs(td.A - A)) < 1e-6


# -- first residue ------------------------------------------------------------

def _planted_flux(grid, beta0, m=3):
    """X = 2 beta0 grad log|x| + grad_perp psi with band-limited psi.

    psi components: Re(z^3), x y, Im(z^2); exact gradients
    (3 Re z^2, -3 Im z^2), (y, x), (Im 2z, Re 2z).
    """
    px = np.stack([3 * (grid.z ** 2).real, grid.y, (2 * grid.z).imag])[:m]
    py = np.stack([-3 * (grid.z ** 2).imag, grid.x, (2 * grid.z).real])[:m]
    r2 = grid.rr ** 2
    vx = 2 * beta0[:, None, None] * grid.x / r2 - py
    vy = 2 * beta0[:, None, None] * grid.y / r2 + px
    raw = np.stack([vx, vy])
    return FluxField(grid, raw)


def test_first_residue_planted_recovery():
    grid = PolarGrid(0.02, 1.0, 64, 64)
    beta0 = np.array([0.8, -1.3, 2.2])
    fl = _planted_flux(grid, beta0)
    out = first_residue(fl)
    assert np.max(np.abs(out["beta0"] - beta0)) < 1e-10
    assert out["rho_spread"] < 1e-10


def test_first_residue_plane_zero():
    grid = PolarGrid(0.02, 1.0, 64, 64)
    field = catalog_surface("plane", {}, grid, 3)
    frame, _ = analyzed_frame(field)
    out = first_residue(equation(curvature(field, frame), frame).flux)
    assert np.max(np.abs(out["beta0"])) < 1e-12
    assert out["rho_spread"] < 1e-12


def test_first_residue_inverted_catenoid_stable():
    vals = []
    for n_r, n_theta in ((96, 64), (192, 128)):
        grid = PolarGrid(1e-3, 1.0, n_r, n_theta)
        field = catalog_surface("inverted_catenoid", {}, grid, 3)
        frame, _ = analyzed_frame(field)
        out = first_residue(equation(curvature(field, frame), frame).flux)
        vals.append(out["beta0"])
        assert out["rho_spread"] < 5e-3
    a, b = (np.linalg.norm(v) for v in vals)
    assert a > 1.0  # bounded away from zero
    assert abs(a - b) / b < 1e-3  # stable to 3 significant digits


# -- modified residue ---------------------------------------------------------

def test_modified_residue_indicator():
    beta0 = np.array([0.1, 0.2, 0.0])
    A = np.array([1.0, 1j, 0.0])
    spec_hit = MultiplierSpec(mu=0, a_mu=2.0 + 1.0j)
    spec_miss = MultiplierSpec(mu=1, a_mu=2.0 + 1.0j)
    # theta0 = 2: mu = 0 activates the correction, mu = 1 does not
    g_hit = modified_residue(beta0, 2, spec_hit, A, u0=0.3)
    g_miss = modified_residue(beta0, 2, spec_miss, A, u0=0.3)
    assert np.array_equal(g_miss, beta0)
    expect = beta0 - 0.5 * 2 * np.exp(-0.6) * np.real((2.0 + 1.0j) * A)
    assert np.allclose(g_hit, expect, atol=1e-14)
    assert np.array_equal(
        modified_residue(beta0, 2, MultiplierSpec.zero_spec(), A, 0.3), beta0)


def test_modified_residue_hand_value():
    # theta0 = 2, mu = 0: |gamma0 - beta0| = e^{-2u0} |Re(a0 A)| exactly
    beta0 = np.zeros(3)
    A = np.array([0.5, 0.5j, 0.0])
    a0 = 1.0 - 2.0j
    got = modified_residue(beta0, 2, MultiplierSpec(mu=0, a_mu=a0), A, u0=0.0)
    assert np.allclose(got, -np.real(a0 * A), atol=1e-15)


def test_modified_residue_cancels_multiplier_circulation():
    # the observable anchor for the correction's sign: switching on a
    # multiplier of order mu = theta0 - 2 shifts the measured circulation
    # by exactly the correction term, so gamma0 is multiplier-independent
    theta0 = 2
    spec = MultiplierSpec(mu=theta0 - 2, a_mu=0.7 - 0.4j)
    grid = PolarGrid(1e-3, 1.0, 128, 64)
    field = catalog_surface(
        "synthetic_th4",
        {"theta0": theta0, "a": 1, "E_a": [0, 0, 0.5, 0.2j],
         "gamma0": [0, 0, 0.3, -0.1]}, grid, 4)
    frame, br = analyzed_frame(field)
    curv = curvature(field, frame)
    td = tangent_vector(field, br)
    b_plain = first_residue(equation(curv, frame).flux)["beta0"]
    f_field = spec.evaluate(grid.z)
    b_with_f = first_residue(equation(curv, frame, f_field,
                                      field).flux)["beta0"]
    assert np.linalg.norm(b_with_f - b_plain) > 0.1  # the flux does shift
    g0 = modified_residue(b_with_f, theta0, spec, td.A, br.u0)
    assert np.linalg.norm(g0 - b_plain) < 1e-3


def test_second_residue_with_log_multiplier():
    # with mu = theta0 - 2 the F_mu block of W cancels the multiplier's log
    # content, so the planted pole winds cleanly
    from willmore.multiplier import special_fields
    theta0, a = 2, 1
    spec = MultiplierSpec(mu=theta0 - 2, a_mu=0.7 - 0.4j)
    grid = PolarGrid(1e-4, 1.0, 96, 64)
    field = catalog_surface(
        "synthetic_th4",
        {"theta0": theta0, "a": a, "E_a": [0, 0, 1.0, 0.4j],
         "gamma0": [0, 0, 0.25, 0]}, grid, 4)
    frame, br = analyzed_frame(field)
    curv = curvature(field, frame)
    td = tangent_vector(field, br)
    f_field = spec.evaluate(grid.z)
    fl = equation(curv, frame, f_field, field).flux
    beta0 = first_residue(fl)["beta0"]
    L, ldef = potential_L(fl, beta0)
    sf = special_fields(spec, br, td.A, field, frame.lam)
    W = w_field(L, curv.H, beta0, sf.F_mu, grid)
    sr = second_residue(W, grid, ldef["noise_profile"])
    assert sr.a == a
    assert list(sr.gamma[2:]) == [a, a]
    live = ~sr.degenerate
    assert np.nanmax(np.abs(sr.raw[:, live] - np.rint(sr.raw[:, live]))) < 0.05


# -- potential L --------------------------------------------------------------

def test_potential_zero_field():
    grid = PolarGrid(0.02, 1.0, 64, 64)
    z = np.zeros((3, grid.n_r, grid.n_theta))
    P, part = integrate_curl_potential(grid, z, z)
    defect = loop_defects(part)
    assert np.max(np.abs(P)) == 0.0
    assert defect["defect"] == 0.0


def test_potential_planted_stream_function():
    errs, hs = [], []
    for n in (48, 96, 192):
        grid = PolarGrid(0.05, 1.0, n, 64)
        psi = (grid.z ** 3).real + grid.x * grid.y
        px = 3 * (grid.z ** 2).real + grid.y
        py = -3 * (grid.z ** 2).imag + grid.x
        P, part = integrate_curl_potential(grid, -py, px)
        defect = loop_defects(part)
        errs.append(np.max(np.abs(P - (psi - psi[-1, 0]))))
        hs.append(grid.ds)
        assert defect["holonomy"] < 1e-12
    assert g.fit_order(hs, errs) >= 1.9


def test_potential_requires_beta0_subtraction():
    # the raw flux has circulation 4 pi beta0: only the corrected one closes
    grid = PolarGrid(0.02, 1.0, 64, 64)
    beta0 = np.array([0.8, -1.3, 2.2])
    fl = _planted_flux(grid, beta0)
    # potential_L corrects the flux in place, so it is given a copy
    _, defect = potential_L(FluxField(grid, fl.raw.copy()), beta0)
    assert defect["holonomy"] < 1e-12
    _, raw_defect = potential_L(fl, 0)
    assert abs(raw_defect["holonomy"] - 4 * np.pi * 2.2) < 1e-10


@pytest.mark.parametrize("m", [3, 8])
def test_potential_L_is_the_per_component_integration(m):
    # one call over all m components gives each component's own L, and the
    # loop defects of the m parts merged, bit for bit
    grid = PolarGrid(1e-3, 1.0, 48, 32)
    field = catalog_surface("inverted_catenoid", {}, grid, m)
    frame, _ = analyzed_frame(field)
    fl = equation(curvature(field, frame), frame).flux
    beta0 = first_residue(fl)["beta0"]
    # potential_L corrects the flux in place, so it is given a copy
    L, defects = potential_L(FluxField(grid, fl.raw.copy()), beta0)
    parts = []
    for j in range(m):
        X = FluxField(grid, fl.raw[:, j]).corrected(beta0[j])
        L_j, part = integrate_curl_potential(grid, X[0], X[1])
        assert L[j].tobytes() == L_j.tobytes(), j
        parts.append(part)
    want = loop_defects(*parts)
    assert defects.keys() == want.keys()
    for key, v in want.items():
        assert np.asarray(defects[key]).tobytes() == np.asarray(v).tobytes(), key


def test_potential_L_defect_refines_on_inverted_catenoid():
    defs, hs = [], []
    for n in (48, 96, 192):
        grid = PolarGrid(1e-3, 1.0, n, 64)
        field = catalog_surface("inverted_catenoid", {}, grid, 3)
        frame, _ = analyzed_frame(field)
        curv = curvature(field, frame)
        fl = equation(curv, frame).flux
        beta0 = first_residue(fl)["beta0"]
        _, defect = potential_L(fl, beta0)
        defs.append(defect["relative_defect"])
        hs.append(grid.ds)
    assert g.fit_order(hs, defs) >= 1.5


# -- second residue -----------------------------------------------------------

def test_winding_exact_on_monomials():
    grid = PolarGrid(0.01, 1.0, 64, 64)
    W = np.empty((3, grid.n_r, grid.n_theta), dtype=complex)
    W[0] = (2.0 + 1.0j) * grid.z ** -3
    W[1] = 0.7
    W[2] = 1e-12
    sr = second_residue(W, grid, np.zeros(grid.n_r))
    assert list(sr.gamma) == [3, 0, 0]
    assert sr.a == 3
    assert sr.degenerate[2] and not sr.degenerate[0]
    assert np.nanmax(np.abs(sr.raw[:, :2] - np.rint(sr.raw[:, :2]))) < 1e-12


def test_degenerate_windings_are_nan():
    # a component without a pole has no measured winding, only phase noise
    grid = PolarGrid(0.01, 1.0, 64, 64)
    W = np.empty((2, grid.n_r, grid.n_theta), dtype=complex)
    W[0] = grid.z ** -1
    W[1] = 1e-12 * np.exp(0.3j)
    sr = second_residue(W, grid, np.zeros(grid.n_r))
    assert list(sr.degenerate) == [False, True]
    assert np.all(np.isfinite(sr.raw[:, 0])) and np.all(np.isnan(sr.raw[:, 1]))
    # noise-dominated W: every component degenerate, every winding NaN
    noise = RNG.normal(size=W.shape) + 1j * RNG.normal(size=W.shape)
    sr = second_residue(1e-9 * noise, grid, np.full(grid.n_r, 2e-6))
    assert np.all(sr.degenerate) and np.all(np.isnan(sr.raw))


def test_noise_floor_reads_the_inner_quarter_of_the_profile():
    # the floor is half the largest noise_profile entry on the inner
    # max(4, n_r // 4) circles; a component under 3x the floor is degenerate
    grid = PolarGrid(0.01, 1.0, 64, 64)
    W = np.empty((2, grid.n_r, grid.n_theta), dtype=complex)
    W[0] = grid.z ** -1
    W[1] = 1e-3
    inner = grid.n_r // 4
    edge = np.zeros(grid.n_r)
    edge[inner - 1] = 1e-3       # 3 x 0.5e-3 above the second component
    sr = second_residue(W, grid, edge)
    assert list(sr.degenerate) == [False, True] and list(sr.gamma) == [1, 0]
    beyond = np.zeros(grid.n_r)
    beyond[inner:] = 1.0
    sr = second_residue(W, grid, beyond)
    assert not np.any(sr.degenerate) and list(sr.gamma) == [1, 0]


def test_winding_gate_rejects_non_integer():
    grid = PolarGrid(0.01, 1.0, 64, 64)
    W = np.empty((1, grid.n_r, grid.n_theta), dtype=complex)
    # half-integer winding: |z|^{1/2} phase structure
    W[0] = np.exp(0.5j * grid.tt) * (1.0 + 0.0j)
    with pytest.raises(ResidueError):
        second_residue(W, grid, np.zeros(grid.n_r))


def test_gauge_invariance_of_gamma():
    # adding a constant to L leaves gamma unchanged where the pole dominates
    grid = PolarGrid(1e-4, 1.0, 96, 64)
    E = np.zeros(4, complex)
    E[2] = 1.0 + 0.5j
    field = catalog_surface("synthetic_th4",
                            {"theta0": 3, "a": 2, "E_a": E,
                             "gamma0": [0, 0, 0.2, 0]}, grid, 4)
    frame, br = analyzed_frame(field)
    curv = curvature(field, frame)
    fl = equation(curv, frame).flux
    beta0 = first_residue(fl)["beta0"]
    L, ldef = potential_L(fl, beta0)
    noise = ldef["noise_profile"]
    sr1 = second_residue(w_field(L, curv.H, beta0, None, grid), grid, noise)
    shift = RNG.standard_normal(4)[:, None, None]
    sr2 = second_residue(w_field(L + shift, curv.H, beta0, None, grid), grid,
                         noise)
    assert np.array_equal(sr1.gamma, sr2.gamma)


@pytest.mark.parametrize("theta0,a", [(1, 0), (2, 0), (2, 1), (3, 1), (4, 3)])
def test_synthetic_pipeline_recovers_gamma(theta0, a):
    grid = PolarGrid(1e-4, 1.0, 96, 64)
    m = 4
    E = np.zeros(m, complex)
    E[2] = 1.0 + 0.5j
    E[3] = -0.3
    if a == 0:
        E = E.real.astype(complex)
    g0 = np.zeros(m)
    g0[2] = 0.25
    field = catalog_surface("synthetic_th4",
                            {"theta0": theta0, "a": a, "E_a": E, "gamma0": g0},
                            grid, m)
    frame, br = analyzed_frame(field)
    assert br.theta0 == theta0
    curv = curvature(field, frame)
    fl = equation(curv, frame).flux
    out = first_residue(fl)
    L, _ = potential_L(fl, out["beta0"])
    W = w_field(L, curv.H, out["beta0"], None, grid)
    # no noise floor, so every component of E_a has a measured winding
    sr = second_residue(W, grid, np.zeros(grid.n_r))
    assert sr.a == a
    expect = np.where(np.abs(E) > 0, a, 0)
    assert np.array_equal(sr.gamma, expect)
    live = ~sr.degenerate
    assert np.nanmax(np.abs(sr.raw[:, live] - np.rint(sr.raw[:, live]))) < 0.05
    lo, hi = pole_order_range(theta0, MultiplierSpec.zero_spec())
    assert lo <= sr.a <= hi


def test_rotation_equivariance():
    # ambient rotation rotates beta0 and A, leaves theta0, gamma, a unchanged
    theta0, a = 2, 1
    m = 4
    E = np.zeros(m, complex)
    E[2] = 1.0
    g0 = np.zeros(m)
    g0[2] = 0.3
    params = {"theta0": theta0, "a": a, "E_a": E, "gamma0": g0}
    q, _ = np.linalg.qr(RNG.standard_normal((m, m)))
    grid = PolarGrid(1e-4, 1.0, 96, 64)

    def chain(chart):
        field = from_chart(chart, grid, m)
        frame, br = analyzed_frame(field)
        curv = curvature(field, frame)
        fl = equation(curv, frame).flux
        out = first_residue(fl)
        td = tangent_vector(field, br)
        L, ldef = potential_L(fl, out["beta0"])
        sr = second_residue(w_field(L, curv.H, out["beta0"], None, grid), grid,
                            ldef["noise_profile"])
        return br, td, out, sr

    base = CATALOG["synthetic_th4"](dict(params), m)
    br1, td1, out1, sr1 = chain(base)
    br2, td2, out2, sr2 = chain(rotated_chart(base, q))
    assert br1.theta0 == br2.theta0
    assert sr1.a == sr2.a
    assert np.allclose(q @ out1["beta0"], out2["beta0"], atol=1e-6)
    assert np.allclose(q @ td1.A, td2.A, atol=1e-6)


def test_report_serialization():
    rep = ResidueReport(
        theta0=2, u0=0.1, A=np.array([1.0 + 0j, 1j, 0j]),
        beta0=np.array([0.0, 0.0, 0.3]), rho_spread=1e-8,
        gamma0=np.array([0.0, 0.0, 0.3]), gamma=np.array([0, 0, 1]), a=1,
        diagnostics={"note": "test", "radii": np.array([0.1, 0.2])})
    doc = g.jsonable(rep)
    assert doc["theta0"] == 2 and doc["a"] == 1
    assert doc["gamma"] == [0, 0, 1]
    import json
    json.dumps(doc)  # must be JSON-clean
    back = ResidueReport.from_json(json.loads(json.dumps(doc)))
    np.testing.assert_equal(g.jsonable(back), doc)
    assert np.array_equal(back.A, rep.A) and back.gamma.dtype.kind == "i"
    spec = MultiplierSpec(mu=0, a_mu=1.0)

    def range_violation(report, spec):
        lo, hi = pole_order_range(report.theta0, spec)
        return not lo <= report.a <= hi

    assert not range_violation(rep, MultiplierSpec.zero_spec())
    assert not range_violation(rep, spec)
    bad = ResidueReport(2, 0.1, rep.A, rep.beta0, 0.0, rep.gamma0,
                        np.array([0, 0, 2]), 2, {})
    assert range_violation(bad, MultiplierSpec.zero_spec())  # a = 2 > 1
    # mu = -1 with theta0 = 2 forces a >= 1: a = 0 violates
    low = ResidueReport(2, 0.1, rep.A, rep.beta0, 0.0, rep.gamma0,
                        np.zeros(3, dtype=int), 0, {})
    assert range_violation(low, MultiplierSpec(mu=-1, a_mu=1.0))


def test_radial_extrapolate_exact_on_quadratic():
    grid = PolarGrid(0.01, 1.0, 64, 64)
    rings = 1.7 - 0.3 * grid.r + 2.0 * grid.r ** 2
    assert radial_extrapolate(grid, rings) == pytest.approx(1.7, abs=1e-10)

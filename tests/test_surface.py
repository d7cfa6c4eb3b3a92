import numpy as np
import pytest

from willmore import grid as g
from willmore import surface
from willmore.curvature import curvature
from willmore.grid import PolarGrid
from willmore.multivec import wedge
from willmore.pipeline import build_field, resolve
from willmore.surface import (
    SurfaceError, catalog_surface, conformal_factor, frame_and_gauss,
    from_chart, from_samples, load_samples_csv, save_samples_csv,
    synthetic_th4_coefficients, CATALOG, CATALOG_PARAMS,
)

from oracles import (ext_wedge, gauss_map, hodge_star, inverted_chart,
                     rotated_chart, synthetic_th4_per_component)

GEOMETRIC = ["plane", "branched_plane", "sphere_stereographic", "catenoid_end",
             "inverted_catenoid", "cylinder_cmc", "clifford_torus_patch"]


def make_grid(n_r=48, n_theta=64, r_min=0.01):
    return PolarGrid(r_min=r_min, n_r=n_r, n_theta=n_theta)


def build(name, params=None, grid=None, m=None):
    grid = grid or make_grid()
    if m is None:
        m = 4 if name == "clifford_torus_patch" else 3
    return catalog_surface(name, params, grid, m)


def test_unknown_name_raises():
    with pytest.raises(SurfaceError):
        build("moebius_strip")


@pytest.mark.parametrize("name, params, key", [
    ("branched_plane", {"theta0": 2.5}, "theta0"),
    ("branched_plane", {"theta0": True}, "theta0"),
    ("synthetic_th4", {"theta0": 3, "a": 1.5}, "a"),
    ("synthetic_th4", {"theta0": "3"}, "theta0"),
    ("plane", {"scale": 2.0}, "scale"),
    ("sphere_stereographic", {"radius": 2.0}, "radius"),
])
def test_malformed_catalog_params_name_their_key(name, params, key):
    with pytest.raises(SurfaceError, match=rf"\b{key}\b"):
        build(name, params, m=4)


def test_integral_params_and_accepted_keys():
    # an integral float is its integer; every entry lists the keys it reads
    assert set(CATALOG_PARAMS) == set(CATALOG)
    want = build("synthetic_th4", {"theta0": 3, "a": 1}, m=4)
    got = build("synthetic_th4", {"theta0": 3.0, "a": 1.0}, m=4)
    assert got.first.tobytes() == want.first.tobytes()
    assert got.d2.tobytes() == want.d2.tobytes()


def test_plane_lambda_and_defect():
    field = build("plane")
    lam, defect = conformal_factor(field)
    assert np.max(np.abs(lam)) < 1e-12
    assert np.max(defect) < 1e-12


@pytest.mark.parametrize("name", GEOMETRIC)
def test_catalog_charts_are_conformal(name):
    field = build(name)
    _, defect = conformal_factor(field)
    assert np.max(defect) < 1e-10, f"{name} defect too large"


def test_branched_plane_conformal_factor():
    theta0 = 3
    field = build("branched_plane", {"theta0": theta0, "scale": 0.7})
    lam, _ = conformal_factor(field)
    shifted = lam - (theta0 - 1) * np.log(field.grid.rr)
    expect = np.log(theta0 * 0.7)
    assert np.max(np.abs(shifted - expect)) < 1e-10


def test_sphere_conformal_factor_closed_form():
    R = 1.3
    field = build("sphere_stereographic", {"R": R})
    lam, _ = conformal_factor(field)
    expect = np.log(2 * R / (1 + field.grid.rr ** 2))
    assert np.max(np.abs(lam - expect)) < 1e-12


def test_sphere_normal_is_radial():
    field = build("sphere_stereographic", {"R": 1.0})
    frame = frame_and_gauss(field, conformal_factor(field))
    # m = 3: n = star(e1 ^ e2) is already a 1-vector, the sphere normal up
    # to sign, and II = pi_n d2 Phi lies along it
    radial = field.phi / np.linalg.norm(field.phi, axis=0, keepdims=True)
    align = np.abs(np.sum(gauss_map(frame) * radial, axis=0))
    assert np.min(align) > 1 - 1e-10
    II = frame.II
    tang = II - np.sum(II * radial, axis=1, keepdims=True) * radial
    assert np.max(np.abs(tang)) < 1e-10 * np.max(np.abs(II))


def test_plane_gauss_map_constant():
    field = build("plane")
    frame = frame_and_gauss(field, conformal_factor(field))
    expect = np.zeros(3)
    expect[2] = 1.0
    assert np.allclose(np.abs(g.dot(gauss_map(frame), expect)), 1.0,
                       atol=1e-12)
    # the constant map has no derivative: II and |grad n| vanish
    assert np.max(np.abs(frame.II)) < 1e-12
    assert np.max(curvature(field, frame).dn_norm) < 1e-12


@pytest.mark.parametrize("name", GEOMETRIC)
def test_hodge_frame_identities_nodewise(name):
    field = build(name)
    frame = frame_and_gauss(field, conformal_factor(field))
    m = field.ambient_dim
    n = gauss_map(frame)
    raw = hodge_star(m, 2, wedge(frame.e1, frame.e2))  # unit without normalizing
    assert np.max(np.abs(np.linalg.norm(raw, axis=0) - 1.0)) < 1e-12
    n_e = lambda e: hodge_star(m, m - 1, ext_wedge(m, m - 2, n, 1, e))
    assert np.max(np.abs(n_e(frame.e1) - frame.e2)) < 1e-9
    assert np.max(np.abs(n_e(frame.e2) + frame.e1)) < 1e-9
    # II is normal: pi_n d2 Phi has no part along e1 or e2
    scale = max(float(np.max(np.abs(field.d2))), 1.0)
    for e in (frame.e1, frame.e2):
        assert np.max(np.abs(np.sum(frame.II * e, axis=1))) < 1e-12 * scale


def test_frame_rejects_nonconformal():
    grid = make_grid()

    def skew_chart(x, y):
        from willmore.jets import Jet
        zero = Jet(np.zeros_like(np.asarray(x.f)))
        return [x + 0.5 * y, y, zero]

    field = from_chart(skew_chart, grid, 3)
    with pytest.raises(SurfaceError):
        frame_and_gauss(field, conformal_factor(field))


@pytest.mark.parametrize("theta0", [1, 2, 3])
def test_branch_scaling_law(theta0):
    # circle means of log|grad Phi| against log r have slope theta0 - 1
    field = build("branched_plane", {"theta0": theta0})
    d1 = field.d1
    mag = np.linalg.norm(d1[0], axis=0) ** 2 + np.linalg.norm(d1[1], axis=0) ** 2
    ring = np.log(np.sqrt(g.circle_mean(mag)))
    s = field.grid.s
    inner_third = slice(0, field.grid.n_r // 3)
    slope = np.polyfit(s[inner_third], ring[inner_third], 1)[0]
    assert abs(slope - (theta0 - 1)) < 0.05


def test_analytic_monomial_derivative_exact():
    field = build("branched_plane", {"theta0": 4})
    d1 = field.d1
    dz_phi = 0.5 * (d1[0] - 1j * d1[1])
    z = field.grid.z
    A = np.array([1.0, 1j, 0.0])
    expect = 2.0 * A[:, None, None] * z ** 3
    assert np.max(np.abs(dz_phi - expect)) < 1e-10


def test_discrete_derivatives_converge_order_two():
    errs, hs = [], []
    for n_r in (32, 64, 128):
        grid = make_grid(n_r=n_r, r_min=0.05)
        field = build("sphere_stereographic", grid=grid)
        bare = from_samples(grid, field.phi)  # stencil derivatives only
        diff = bare.d1
        err = max(g.annulus_norms(grid, diff[i] - field.d1[i])["max"]
                  for i in range(2))
        errs.append(err)
        hs.append(grid.ds)
    assert g.fit_order(hs, errs) >= 1.9


def test_second_derivatives_available():
    field = build("inverted_catenoid")
    h = field.d2
    assert h.shape == (3, 3, field.grid.n_r, field.grid.n_theta)
    assert np.all(np.isfinite(h))


def test_synthetic_template_coefficients_and_defect():
    m = 4
    params = {
        "theta0": 2, "a": 1,
        "E_a": [0, 0, 1.0, 0.5j],
        "gamma0": [0, 0, 0.3, -0.2],
        "B": [[0.1, 0.1j, 0.05, 0]],
    }
    co = synthetic_th4_coefficients(params, m)
    assert co["u0"] == pytest.approx(np.log(2.0))
    grid = make_grid(r_min=1e-3)
    field = catalog_surface("synthetic_th4", params, grid, m)
    _, defect = conformal_factor(field)
    # conformal only asymptotically: defect shrinks toward the branch point
    inner = defect[: grid.n_r // 4].max()
    outer = defect[-grid.n_r // 4:].max()
    assert inner < 0.02 * max(outer, 1e-12) or inner < 1e-8


def _planted(theta0, a, m, with_B, with_xi, rng):
    params = {"theta0": theta0, "a": a}
    if m == 4:  # pole and log terms in the normal plane (e3, e4) of A
        params["E_a"] = [0, 0, 0.2 + 0.1j, -0.15 + 0.12j]
        params["gamma0"] = [0, 0, 0.6, -0.5]
    pair = lambda: (rng.standard_normal(m) + 1j * rng.standard_normal(m)).tolist()
    if with_B:  # a live B_1, then all-zero vectors
        params["B"] = [pair()] + [[0j] * m] * (theta0 - a - 1)
    if with_xi:
        params["xi"] = pair()
    return params


@pytest.mark.parametrize("theta0", [1, 2, 3, 4])
def test_synthetic_chart_matches_per_component_oracle_bitwise(theta0):
    # the slotwise vector chart reproduces the product-rule chart to the
    # last bit, signed zeros included
    rng = np.random.default_rng(theta0)
    grid = PolarGrid(r_min=0.01, n_r=24, n_theta=32)
    for a in range(theta0):
        for m in (3, 4):
            for with_B in (False, True):
                for with_xi in (False, True):
                    params = _planted(theta0, a, m, with_B, with_xi, rng)
                    new = catalog_surface("synthetic_th4", params, grid, m)
                    old = from_chart(synthetic_th4_per_component(params, m),
                                     grid, m)
                    for name in ("phi", "d1", "d2"):
                        got, want = getattr(new, name), getattr(old, name)
                        assert np.array_equal(got.view(np.int64),
                                              want.view(np.int64)), \
                            (name, a, m, with_B, with_xi)


@pytest.mark.parametrize("name", GEOMETRIC + ["synthetic_th4"])
def test_strips_sample_the_chart_bit_for_bit(name, monkeypatch):
    # a chart is evaluated one row strip at a time: strips of one row, and
    # strips of unequal size, equal one strip over all rows to the last bit,
    # signed zeros included
    params = (_planted(3, 1, 4, True, True, np.random.default_rng(0))
              if name == "synthetic_th4" else None)
    m = 4 if name in ("clifford_torus_patch", "synthetic_th4") else 3
    grid = make_grid(n_r=23, n_theta=32)
    chart = surface.catalog_chart(name, params, m)
    row = grid.n_theta * 8
    fields = []
    for rows, n_strips in ((grid.n_r, 1), (1, grid.n_r), (7, 4)):
        monkeypatch.setattr(g, "STRIP_BYTES", rows * row)
        strips = grid.strips()
        assert len(strips) == n_strips
        assert strips[0].start == 0 and strips[-1].stop == grid.n_r
        fields.append(from_chart(chart, grid, m))
    assert {s.stop - s.start for s in strips} == {5, 6}  # the last budget's
    whole = fields[0]
    for field in fields[1:]:
        for key in ("phi", "d1", "d2"):
            assert np.array_equal(getattr(field, key).view(np.int64),
                                  getattr(whole, key).view(np.int64)), key


@pytest.mark.parametrize("name", GEOMETRIC + ["synthetic_th4"])
def test_chart_fields_are_c_contiguous(name):
    # the rounding of the angular FFTs depends on the memory layout
    field = build(name)
    for arr in (field.phi, field.d1, field.d2):
        assert arr.flags.c_contiguous


def test_synthetic_rejects_tangential_pole():
    params = {"theta0": 2, "a": 1, "E_a": [1.0, 0, 0]}
    with pytest.raises(SurfaceError):
        synthetic_th4_coefficients(params, 3)


def test_inverted_plane_is_sphere_like():
    # inversion of the flat plane about an off-surface center is a sphere patch
    grid = make_grid()
    base = CATALOG["plane"]({}, 3)
    chart = inverted_chart(base, center=[0.0, 0.0, 2.0])
    field = from_chart(chart, grid, 3)
    _, defect = conformal_factor(field)
    assert np.max(defect) < 1e-10
    # image lies on the sphere |p - c'|^2 = 1/16 with c' = (0,0,-1/4) + center adj
    p = field.phi - np.array([0, 0, -0.25])[:, None, None]
    rad = np.linalg.norm(p, axis=0)
    assert np.max(np.abs(rad - 0.25)) < 1e-12


def test_rotated_chart_rotates_samples():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    grid = make_grid()
    base = CATALOG["sphere_stereographic"]({}, 3)
    field = from_chart(base, grid, 3)
    rot = from_chart(rotated_chart(base, q), grid, 3)
    assert np.allclose(rot.phi, np.tensordot(q, field.phi, 1), atol=1e-12)


def test_surface_json_and_csv_round_trip(tmp_path):
    doc = {"name": "sphere_stereographic", "params": {"R": 1.0},
           "ambient_dim": 3}
    level = build_field(resolve({"surface": doc}), PolarGrid.from_json(
        {"r_min": 0.05, "r_max": 1.0, "n_r": 24, "n_theta": 32}), False)
    # the chart's field that generate writes, sampled here on the whole grid
    assert level.phi.shape == (3, 24, 32) and level.d2 is None
    field = from_chart(level.chart, level.grid, 3)
    path = tmp_path / "samples.csv"
    save_samples_csv(field, path)
    # one line per node, r-major and theta-minor, the coordinates in order
    header, *lines = path.read_bytes().decode().split("\r\n")[:-1]
    assert header == "r,theta,phi_1,phi_2,phi_3"
    assert len(lines) == 24 * 32
    grid = field.grid
    for n, line in enumerate(lines):
        i, j = divmod(n, 32)
        assert line == ",".join(map(repr, [float(grid.r[i]),
                                           float(grid.theta[j])]
                                    + field.phi[:, i, j].tolist()))
    loaded = load_samples_csv(path)
    assert loaded.grid.n_r == 24 and loaded.grid.n_theta == 32
    assert np.array_equal(loaded.phi, field.phi)  # repr round-trips
    assert np.array_equal(loaded.d1, np.stack(g.grad(loaded.grid, loaded.phi)))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_non_finite_coordinate_refused(tmp_path, bad):
    grid = PolarGrid(0.05, 1.0, 24, 32)
    path = tmp_path / "samples.csv"
    save_samples_csv(catalog_surface("plane", {}, grid, 3), path)
    lines = path.read_text().splitlines()
    for col in (0, 1):
        row = lines[5].split(",")
        row[col] = bad
        path.write_text("\n".join(lines[:5] + [",".join(row)] + lines[6:]))
        with pytest.raises(SurfaceError, match="^CSV line 6: node coordinates "
                                               "must be finite$"):
            load_samples_csv(path)


def plane_csv(tmp_path):
    """A 48x32 plane chart saved as CSV: its path and its lines."""
    grid = PolarGrid(0.05, 1.0, 48, 32)
    path = tmp_path / "samples.csv"
    save_samples_csv(catalog_surface("plane", {}, grid, 3), path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("col, bad, message", [
    (2, "abc", "CSV line 7: could not convert string to float: 'abc'"),
    (0, "abc", "CSV line 7: could not convert string to float: 'abc'"),
    (3, "inf", "CSV line 7: samples must be finite"),
    (4, "nan", "CSV line 7: samples must be finite"),
])
def test_csv_bad_value_refused_with_its_line(tmp_path, monkeypatch, col,
                                             bad, message):
    path, lines = plane_csv(tmp_path)
    row = lines[6].split(",")
    row[col] = bad
    path.write_text("\n".join(lines[:6] + [",".join(row)] + lines[7:]))
    # refused as it is read: nothing is differentiated
    monkeypatch.setattr(surface, "from_samples", None)
    with pytest.raises(SurfaceError) as err:
        load_samples_csv(path)
    assert str(err.value) == message


def test_csv_repeated_node_refused_with_both_lines(tmp_path, monkeypatch):
    # line 10 takes line 7's node, so line 10's own node has no sample
    path, lines = plane_csv(tmp_path)
    r, theta = lines[6].split(",")[:2]
    row = [r, theta] + lines[9].split(",")[2:]
    path.write_text("\n".join(lines[:9] + [",".join(row)] + lines[10:]))
    monkeypatch.setattr(surface, "from_samples", None)
    with pytest.raises(SurfaceError) as err:
        load_samples_csv(path)
    assert str(err.value) == (f"CSV line 10: node r = {float(r)!r}, "
                              f"theta = {float(theta)!r} repeats line 7")

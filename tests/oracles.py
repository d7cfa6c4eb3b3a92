"""Closed-form oracles, chart transforms, curvature norms and identity
cross-checks that only the tests use, among them both anti-holomorphy
checks of the multiplier, the grade-general exterior algebra (wedge, Hodge
star, interior product and the contraction tables it implies), and the
Gauss map n = star(e1 ^ e2) with the two forms of the flux term
star(grad n ^ H) that the frame form replaced."""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from willmore import jets
from willmore.grid import annulus_norms, dot, dz, dzbar, grad, laplacian
from willmore.jets import Jet
from willmore.multivec import _apply_bilinear, wedge
from willmore.potentials import _solve_modes
from willmore.surface import normal_projector, synthetic_th4_coefficients


def radial_log_laplacian_oracle(theta0: int, n: int = 4000) -> dict:
    """High-resolution check that Lap(r^{2t}(t log r - 1)) = 4 t^3 r^{2t-2} log r.

    Settles the cubic-vs-quadratic discrepancy in the closed-form log
    coefficient by direct finite differencing of the radial profile.
    """
    r = np.linspace(0.25, 0.75, n)
    h = r[1] - r[0]
    t = float(theta0)
    f = r ** (2 * t) * (t * np.log(r) - 1.0)
    lap = np.empty_like(f)
    lap[1:-1] = ((f[2:] - 2 * f[1:-1] + f[:-2]) / h ** 2
                 + (f[2:] - f[:-2]) / (2 * h * r[1:-1]))
    lap[0] = lap[1]
    lap[-1] = lap[-2]
    cubic = 4.0 * t ** 3 * r ** (2 * t - 2) * np.log(r)
    quad = 4.0 * t ** 2 * r ** (2 * t - 2) * np.log(r)
    mid = slice(1, -1)
    return {
        "cubic_error": float(np.max(np.abs(lap[mid] - cubic[mid]))),
        "quadratic_error": float(np.max(np.abs(lap[mid] - quad[mid]))),
    }


def H_norm(curv) -> np.ndarray:
    """|H| per node of a ``CurvatureField``."""
    return np.linalg.norm(curv.H, axis=0)


def bending_energy_density(field, frame) -> np.ndarray:
    """|II|^2_g in the induced metric times the area factor e^{2 lam}, from
    h_ij = e^{-2 lam} pi_n (d2 Phi / dx_i dx_j)."""
    pi_n = normal_projector(frame)
    e2l = np.exp(2.0 * frame.lam)
    h11, h12, h22 = (pi_n(d) / e2l for d in field.d2)
    sq = (np.sum(h11 ** 2, axis=0) + 2.0 * np.sum(h12 ** 2, axis=0)
          + np.sum(h22 ** 2, axis=0))
    return sq * e2l


def inverted_chart(chart, center):
    """Compose a chart with the sphere inversion p -> (p - c)/|p - c|^2."""
    center = np.asarray(center, dtype=float)

    def new_chart(x, y):
        comps = chart(x, y)
        shifted = [ci - center[k] for k, ci in enumerate(comps)]
        norm2 = shifted[0] * shifted[0]
        for s in shifted[1:]:
            norm2 = norm2 + s * s
        return [s / norm2 for s in shifted]
    return new_chart


def branched_chart(chart, k: int):
    """Compose a chart with the domain map w = z^k / k, branched to order k
    at the origin.  A multiplier f pulls back to (f o w) conj(w')^2, so a
    constant a becomes a zbar^{2k - 2}."""
    def new_chart(x, y):
        w = (x + 1j * y) ** k / k
        part = lambda fn: Jet(*(fn(getattr(w, s)) for s in Jet.__slots__))
        return chart(part(np.real), part(np.imag))
    return new_chart


def rotated_chart(chart, Q: np.ndarray):
    """Compose a chart with an ambient orthogonal map."""
    Q = np.asarray(Q, dtype=float)

    def new_chart(x, y):
        comps = chart(x, y)
        return [sum(Q[i, j] * comps[j] for j in range(len(comps)))
                for i in range(Q.shape[0])]
    return new_chart


def tangential_H_defect(curv, frame) -> float:
    """max |pi_T H| / max(|H|, eps): vanishes on exactly conformal input."""
    pi_n = normal_projector(frame)
    tang = curv.H - pi_n(curv.H)
    scale = max(float(np.max(np.linalg.norm(curv.H, axis=0))), 1e-30)
    return float(np.max(np.linalg.norm(tang, axis=0))) / scale


def gauss_curvature_from_liouville(curv, branch) -> np.ndarray:
    """K via -Lap u = e^{2 lam} K; cross-validates the det(II) route."""
    return -laplacian(curv.grid, branch.u) * np.exp(-2.0 * curv.lam)


def codazzi_defect(curv, frame) -> float:
    """Residual of the Codazzi identity tying H, H0 and the conformal factor.

    In the Weingarten convention used here (H0 from dz(e^{-lam} e_z)) the
    identity reads e^{-2lam} dzbar(e^{2lam} H.H0) = H.dz H + H0.dzbar H;
    it is why the parallel-mean-curvature multiplier is anti-holomorphic.
    """
    grid = frame.grid
    e2l = np.exp(2.0 * frame.lam)
    lhs = dzbar(grid, e2l * dot(curv.H, curv.H0)) / e2l
    dzH = dz(grid, curv.H)
    dzbH = dzbar(grid, curv.H)
    rhs = dot(curv.H, dzH) + dot(curv.H0, dzbH)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-30)
    return annulus_norms(grid, lhs - rhs)["max"] / scale


def antiholomorphy_defect(spec, grid, discrete: bool = False) -> float:
    """Relative norm of dz f (vanishes for a function of zbar alone).

    With analytic sampling (the default) f is evaluated on coordinate jets
    and the defect sits at rounding level; ``discrete=True`` instead applies
    the grid stencils to the sampled values, which is discretization-limited.
    """
    if discrete:
        f = spec.evaluate(grid.z)
        scale = max(float(np.max(np.abs(f))), 1e-30)
        return annulus_norms(grid, dz(grid, f))["max"] / scale
    xj, yj = Jet.seed(grid.x, grid.y)
    zb = xj - 1j * yj  # conjugate coordinate jet
    one = Jet(np.ones_like(grid.x))
    # jets take positive powers only: zbar^0 is 1 and zbar^-1 is 1 / zbar
    power = lambda d: one / zb if d == -1 else one if d == 0 else zb ** d
    out = Jet(np.zeros_like(grid.x, dtype=complex))
    if not spec.zero:
        out = out + spec.a_mu * power(spec.mu)
        for d, c in enumerate(spec.f0):
            if c != 0:
                out = out + c * power(d)
    dz_f = 0.5 * (out.fx - 1j * out.fy)
    scale = max(float(np.max(np.abs(out.f))), 1e-30)
    return float(np.max(np.abs(dz_f))) / scale


def antiholomorphy_identity_norms(curv, frame, f_field, field,
                                  r_lo=None, r_hi=None) -> dict:
    """Annulus norms of dz(e^{-2 lam} f dz Phi) - H0 f / 2.

    Since H0 = 2 dz(e^{-2 lam} dz Phi), the identity holds exactly when
    dz f = 0, i.e. for an anti-holomorphic multiplier.
    """
    grid = curv.grid
    e2l = np.exp(2.0 * frame.lam)
    dz_phi = 0.5 * (field.d1[0] - 1j * field.d1[1])
    lhs = dz(grid, f_field * dz_phi / e2l)
    rhs = 0.5 * curv.H0 * f_field
    return annulus_norms(grid, lhs - rhs, r_lo, r_hi)


def synthetic_th4_per_component(params, m):
    """The planted template chart evaluated one component at a time, each
    coefficient entering as a constant jet through the product rule: the
    reference that ``surface``'s slot-by-slot chart must match bit for bit."""
    c = synthetic_th4_coefficients(params, m)
    theta0, a = c["theta0"], c["a"]

    def chart(x, y):
        z = x + 1j * y
        r2 = x * x + y * y
        hol = [Jet(c["A"][k]) * z ** theta0 for k in range(m)]
        for j, Bj in enumerate(c["B"], start=1):
            zp = z ** (theta0 + j)
            hol = [h + Jet(Bj[k]) * zp for k, h in enumerate(hol)]
        pole = z ** (theta0 - a) * z.conj() ** theta0
        hol = [h + Jet(c["C_pole"][k]) * pole for k, h in enumerate(hol)]
        if np.any(c["xi"]):
            rem = z ** (2 * theta0 - a + 1)
            hol = [h + Jet(c["xi"][k]) * rem for k, h in enumerate(hol)]
        logterm = r2 ** theta0 * (0.5 * theta0 * jets.log(r2) - 1.0)
        return [hol[k]._map(np.real) - c["C_log"][k] * logterm
                for k in range(m)]
    return chart


def gG_per_component(beta0, field):
    """(g, G) solved from their own sources, one Poisson problem per
    component: Lap g = grad(Gamma) . grad(Phi) and
    Lap G = grad(Gamma) ^ grad(Phi) with Gamma = 2 beta0 log|x|, assembled
    from the two components of grad(Gamma) as written."""
    grid, d1 = field.grid, field.d1
    r2 = grid.rr ** 2
    beta0 = np.asarray(beta0)[:, None, None]
    gam_x = 2.0 * grid.x * beta0 / r2
    gam_y = 2.0 * grid.y * beta0 / r2
    rhs_g = dot(gam_x, d1[0]) + dot(gam_y, d1[1])
    rhs_G = wedge(gam_x, d1[0]) + wedge(gam_y, d1[1])
    return _solve_modes(grid, rhs_g), _solve_modes(grid, rhs_G)


# ---------------------------------------------------------------------------
# the grade-general exterior algebra
# ---------------------------------------------------------------------------
# A grade-k element of Lambda^k R^m is one coefficient per strictly
# increasing k-subset of {1..m}, subsets ordered lexicographically, stored
# coefficient-major as in ``willmore.multivec``; every grade is passed.

@lru_cache(maxsize=None)
def _masks(m: int, k: int) -> tuple:
    # bitmask per sorted k-subset of {1..m}; bit (i-1) set means index i present
    return tuple(sum(1 << (i - 1) for i in combo)
                 for combo in combinations(range(1, m + 1), k))


@lru_cache(maxsize=None)
def _positions(m: int, k: int) -> dict:
    return {mask: pos for pos, mask in enumerate(_masks(m, k))}


def _wedge_sign(mask_a: int, mask_b: int) -> int:
    # parity of moving every index of b past the larger indices of a
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        above = mask_a & ~(2 * low - 1)
        if bin(above).count("1") % 2:
            sign = -sign
        b ^= low
    return sign


@lru_cache(maxsize=None)
def wedge_table(m: int, p: int, q: int) -> tuple:
    out_pos = _positions(m, p + q)
    return tuple((ia, ib, out_pos[ma | mb], _wedge_sign(ma, mb))
                 for ia, ma in enumerate(_masks(m, p))
                 for ib, mb in enumerate(_masks(m, q)) if not ma & mb)


def ext_wedge(m: int, p: int, a, q: int, b) -> np.ndarray:
    """a ^ b of a grade-p and a grade-q element."""
    return _apply_bilinear(wedge_table(m, p, q), a, b, comb(m, p + q))


@lru_cache(maxsize=None)
def _star_table(m: int, k: int):
    full = (1 << m) - 1
    out_pos = _positions(m, m - k)
    inv = np.empty(comb(m, k), dtype=np.intp)
    sgn = np.empty(comb(m, k), dtype=np.int8)
    for i, mask in enumerate(_masks(m, k)):
        compl = full ^ mask
        inv[out_pos[compl]] = i
        sgn[i] = _wedge_sign(mask, compl)
    return inv, sgn


@lru_cache(maxsize=None)
def _interior_table(m: int, q: int, p: int):
    # e_I . e_J = sign(J, I\J) e_{I\J} when J subset of I, else 0
    out_pos = _positions(m, q - p)
    table = []
    for ia, mi in enumerate(_masks(m, q)):
        for ib, mj in enumerate(_masks(m, p)):
            if mj & ~mi:
                continue
            rest = mi ^ mj
            table.append((ia, ib, out_pos[rest], _wedge_sign(mj, rest)))
    return tuple(table)


def hodge_star(m: int, k: int, a) -> np.ndarray:
    """Hodge dual of a grade-k element for the standard orientation:
    star e_I = sign(I, I^c) e_{I^c}."""
    inv, sgn = _star_table(m, k)
    return (a * sgn.reshape(sgn.shape + (1,) * (a.ndim - 1)))[inv]


def interior(m: int, q: int, gamma, p: int, beta) -> np.ndarray:
    """Interior multiplication of a grade-q gamma by a grade-p beta (p <= q),
    <gamma . beta, alpha> = <gamma, beta ^ alpha>."""
    return _apply_bilinear(_interior_table(m, q, p), gamma, beta, comb(m, q - p))


@lru_cache(maxsize=None)
def bullet_table(m: int, q: int) -> tuple:
    """Terms of a bivector bullet a grade-q element (q = 1 or 2), from the
    interior product and the wedge: alpha . e_b is the interior product and
    alpha . (e_b ^ e_c) = (alpha . e_b) ^ e_c - (alpha . e_c) ^ e_b for
    b < c; ordered by alpha's basis element, then e_B's, then the output's."""
    vec = np.eye(m, dtype=int)
    table = []
    for ia, alpha in enumerate(np.eye(comb(m, 2), dtype=int)):
        for ib, mask in enumerate(_masks(m, q)):
            b, *c = (vec[i] for i in range(m) if mask >> i & 1)
            out = interior(m, 2, alpha, 1, b)
            if c:
                out = (ext_wedge(m, 1, out, 1, c[0])
                       - ext_wedge(m, 1, interior(m, 2, alpha, 1, c[0]), 1, b))
            table += [(ia, ib, io, int(s)) for io, s in enumerate(out) if s]
    return tuple(table)


# ---------------------------------------------------------------------------
# the Gauss map and the flux term star(grad n ^ H)
# ---------------------------------------------------------------------------

def gauss_map(frame) -> np.ndarray:
    """n = star(e1 ^ e2) of a ``FrameField``, normalized per node: an
    (m - 2)-vector."""
    m = frame.e1.shape[0]
    n = hodge_star(m, 2, wedge(frame.e1, frame.e2))
    return n / np.sqrt(dot(n, n))


def star_dn_wedge_algebra(frame, H, i) -> np.ndarray:
    """star(d_i n ^ H) with the exterior-algebra operators, from the exact
    derivative d_i n = star(nu1_i ^ e2 + e1 ^ nu2_i)."""
    m = H.shape[0]
    nu1, nu2 = frame.nu[i]
    d = wedge(nu1, frame.e2) + wedge(frame.e1, nu2)
    return star_dn_wedge_stencil(hodge_star(m, 2, d), H)


def stencil_dn(frame) -> tuple:
    """(d_x n, d_y n): the grid stencils applied to the sampled Gauss map."""
    return grad(frame.grid, gauss_map(frame))


def star_dn_wedge_stencil(dn_i, H) -> np.ndarray:
    """star(d_i n ^ H) from a stencil derivative ``dn_i`` of the Gauss map."""
    m = H.shape[0]
    return hodge_star(m, m - 1, ext_wedge(m, m - 2, dn_i, 1, H))

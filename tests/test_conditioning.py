"""Exact finite-N conditioning: derivative covariances against finite
differences of the base kernel, closed-form band law against brute-force
Schur conditioning, sphere reduction, and the constrained-overlap system."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinglass.conditioning import (
    BandGeometry,
    ConditioningEvent,
    band_kernel,
    chain_constraint_values,
    conditioning_matrix,
    covariance_csv,
    derivative_covariances,
    fp_conditioning,
    hessian_decomposition,
    reduce_to_sphere,
    schur_condition,
    section_vector,
    tau_mix,
    _chain_functionals,
    _pair_cov,
)
from spinglass.errors import (
    BadInputError,
    RegimeMismatchError,
    SingularBlockError,
    SingularMatrixError,
)
from spinglass.landscape import ground_state_point
from spinglass.mixtures import Mixture, pure

MIX = Mixture({2: 0.4, 3: 1.0})
MIX3 = Mixture({2: 0.3, 3: 1.0, 4: 0.25})


# ------------------------------------------------------------ geometry


def test_canonical_anchor_gram_matches_ladder():
    geo = BandGeometry((0.2, 0.5, 0.8), 12)
    gram = geo.anchors @ geo.anchors.T / geo.n
    want = np.minimum.outer(np.array(geo.ladder), np.array(geo.ladder))
    assert np.max(np.abs(gram - want)) < 1e-14
    assert geo.depth == 3 and geo.q_top == 0.8
    # chain increments live on the leading axes only
    assert np.all(geo.anchors[:, 3:] == 0.0)


def test_geometry_validation():
    with pytest.raises(BadInputError):
        BandGeometry((0.5, 0.3), 10)
    with pytest.raises(BadInputError):
        BandGeometry((0.0, 0.3), 10)
    with pytest.raises(BadInputError):
        BandGeometry((0.3, 1.2), 10)
    with pytest.raises(BadInputError):
        BandGeometry((0.2, 0.5, 0.8), 2)
    # explicit anchors must reproduce the ladder inner products
    bad = np.zeros((1, 10))
    bad[0, 0] = 1.0
    with pytest.raises(BadInputError):
        BandGeometry((0.5,), 10, anchors=bad)


def test_on_slice():
    geo = BandGeometry((0.3, 0.6), 8)
    y = geo.anchors[-1].copy()
    y[2:] += 0.37
    assert geo.on_slice(y)
    y[0] += 0.05
    assert not geo.on_slice(y)


def test_event_validation_and_window():
    geo = BandGeometry((0.3, 0.6), 8)
    with pytest.raises(BadInputError):
        ConditioningEvent((0.1,), (0.2, 0.3), geo)
    ev = ConditioningEvent((0.1, 0.2), (0.3, 0.4), geo, E=1.0)
    assert ev.in_window(1.0005, (0.1, 0.2), (0.3, 0.4), eps=1e-3)
    assert not ev.in_window(1.01, (0.1, 0.2), (0.3, 0.4), eps=1e-3)
    assert not ev.in_window(1.0, (0.1, 0.21), (0.3, 0.4), eps=1e-3)
    with pytest.raises(BadInputError):
        ev.in_window(1.0, (0.1, 0.2), (0.3, 0.4), eps=0.0)


# --------------------------------------- derivative covariance closed forms


def test_value_pair_covariance():
    n = 10
    x = np.zeros(n)
    x[0] = math.sqrt(n)
    y = np.zeros(n)
    y[0] = 0.4 * math.sqrt(n)
    y[1] = math.sqrt(n * (1 - 0.16))
    cov = derivative_covariances(MIX, np.vstack([x, y]), [("value", 0), ("value", 1)])
    assert abs(cov[0, 1] - n * MIX(0.4)) < 1e-12
    assert abs(cov[0, 0] - n * MIX(1.0)) < 1e-12


def test_value_deriv_orthogonal_direction_vanishes():
    n = 10
    x = np.zeros(n)
    x[0] = math.sqrt(n)
    u = np.zeros(n)
    u[1] = 1.0
    cov = derivative_covariances(MIX, x[None, :], [("value", 0), ("deriv", 0, u)])
    assert abs(cov[0, 1]) < 1e-14


def test_orthonormal_tangential_gradient_is_isotropic():
    # derivative pair covariance at one point in directions orthogonal to it
    n, q = 12, 0.7
    x = np.zeros(n)
    x[0] = math.sqrt(n * q)
    eye = np.eye(n)
    which = [("deriv", 0, eye[j]) for j in range(1, 5)]
    cov = derivative_covariances(MIX, x[None, :], which)
    xp = MIX.eval(q, 1)
    assert np.max(np.abs(cov - xp * np.eye(4))) < 1e-14


def test_same_point_first_derivative_pair_display():
    # Cov(d_u1 H(x1), d_u2 H(x1)) = xi'(q) <u1,u2> + xi''(q) <x1,u1><x1,u2>/n
    rng = np.random.default_rng(5)
    n, q = 9, 0.55
    x = rng.normal(size=n)
    x *= math.sqrt(n * q) / np.linalg.norm(x)
    u1, u2 = rng.normal(size=n), rng.normal(size=n)
    cov = derivative_covariances(
        MIX3, x[None, :], [("deriv", 0, u1), ("deriv", 0, u2)]
    )
    want = MIX3.eval(q, 1) * (u1 @ u2) + MIX3.eval(q, 2) * (x @ u1) * (x @ u2) / n
    assert abs(cov[0, 1] - want) < 1e-12


def _base_kernel(m, n, a, b):
    return n * m(float(a @ b) / n)


def test_first_order_formulas_match_finite_differences():
    # directional derivatives of the base kernel n xi(<a,b>/n), central step
    rng = np.random.default_rng(7)
    n = 12
    m = Mixture({2: 0.4, 3: 1.0, 5: 0.3})
    x = rng.normal(size=n) * 0.4
    y = rng.normal(size=n) * 0.4
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    h = 1e-5
    pts = np.vstack([x, y])
    fd_10 = (_base_kernel(m, n, x + h * u, y) - _base_kernel(m, n, x - h * u, y)) / (2 * h)
    got_10 = derivative_covariances(m, pts, [("deriv", 0, u), ("value", 1)])[0, 1]
    assert abs(got_10 - fd_10) < 5e-7 * max(1.0, abs(fd_10))
    fd_11 = (
        _base_kernel(m, n, x + h * u, y + h * v)
        - _base_kernel(m, n, x + h * u, y - h * v)
        - _base_kernel(m, n, x - h * u, y + h * v)
        + _base_kernel(m, n, x - h * u, y - h * v)
    ) / (4 * h * h)
    got_11 = derivative_covariances(m, pts, [("deriv", 0, u), ("deriv", 1, v)])[0, 1]
    assert abs(got_11 - fd_11) < 5e-7 * max(1.0, abs(fd_11))


def test_second_order_formulas_match_richardson_stencils():
    # high-order stencils need a coarse step; two steps + Richardson in h^2
    rng = np.random.default_rng(7)
    n = 12
    m = Mixture({2: 0.4, 3: 1.0, 5: 0.3})
    x = rng.normal(size=n) * 0.4
    y = rng.normal(size=n) * 0.4
    u1, u2, v1, v2 = (rng.normal(size=n) for _ in range(4))
    pts = np.vstack([x, y])

    def d2x(a_dirs, b_point, h):
        p, q_ = a_dirs
        k = lambda a, b: _base_kernel(m, n, a, b)
        return (
            k(x + h * p + h * q_, b_point)
            - k(x + h * p - h * q_, b_point)
            - k(x - h * p + h * q_, b_point)
            + k(x - h * p - h * q_, b_point)
        ) / (4 * h * h)

    def stencil_21(h):
        return (d2x((u1, u2), y + h * v1, h) - d2x((u1, u2), y - h * v1, h)) / (2 * h)

    def stencil_22(h):
        return (
            d2x((u1, u2), y + h * v1 + h * v2, h)
            - d2x((u1, u2), y + h * v1 - h * v2, h)
            - d2x((u1, u2), y - h * v1 + h * v2, h)
            + d2x((u1, u2), y - h * v1 - h * v2, h)
        ) / (4 * h * h)

    rich_21 = (4 * stencil_21(0.04) - stencil_21(0.08)) / 3
    got_21 = derivative_covariances(m, pts, [("deriv2", 0, u1, u2), ("deriv", 1, v1)])[0, 1]
    assert abs(got_21 - rich_21) < 2e-5 * max(1.0, abs(rich_21))
    rich_22 = (4 * stencil_22(0.04) - stencil_22(0.08)) / 3
    got_22 = derivative_covariances(m, pts, [("deriv2", 0, u1, u2), ("deriv2", 1, v1, v2)])[0, 1]
    assert abs(got_22 - rich_22) < 2e-5 * max(1.0, abs(rich_22))


def _pair_cov_closed_forms(m, n, x, y, us, vs):
    """Hand-expanded covariances for up to two directions per slot: the
    reference the general pairing rule is checked against."""
    c = float(x @ y) / n
    a, b = len(us), len(vs)
    if a == 0 and b == 0:
        return n * m.eval(c)
    if a == 1 and b == 0:
        return m.eval(c, 1) * float(us[0] @ y)
    if a == 0 and b == 1:
        return m.eval(c, 1) * float(x @ vs[0])
    if a == 1 and b == 1:
        return (
            m.eval(c, 1) * float(us[0] @ vs[0])
            + m.eval(c, 2) * float(us[0] @ y) * float(x @ vs[0]) / n
        )
    if a == 2 and b == 0:
        return m.eval(c, 2) * float(us[0] @ y) * float(us[1] @ y) / n
    if a == 0 and b == 2:
        return m.eval(c, 2) * float(x @ vs[0]) * float(x @ vs[1]) / n
    if a == 2 and b == 1:
        u1y, u2y = float(us[0] @ y), float(us[1] @ y)
        return (
            m.eval(c, 2) * (float(us[0] @ vs[0]) * u2y + float(us[1] @ vs[0]) * u1y) / n
            + m.eval(c, 3) * u1y * u2y * float(x @ vs[0]) / n**2
        )
    if a == 1 and b == 2:
        return _pair_cov_closed_forms(m, n, y, x, vs, us)
    u1y, u2y = float(us[0] @ y), float(us[1] @ y)
    xv1, xv2 = float(x @ vs[0]), float(x @ vs[1])
    d11, d12 = float(us[0] @ vs[0]), float(us[0] @ vs[1])
    d21, d22 = float(us[1] @ vs[0]), float(us[1] @ vs[1])
    return (
        m.eval(c, 2) * (d11 * d22 + d12 * d21) / n
        + m.eval(c, 3)
        * (d11 * u2y * xv2 + d12 * u2y * xv1 + d21 * u1y * xv2 + d22 * u1y * xv1)
        / n**2
        + m.eval(c, 4) * u1y * u2y * xv1 * xv2 / n**3
    )


def test_pairing_rule_matches_the_closed_forms():
    rng = np.random.default_rng(2024)
    m = Mixture({2: 0.3, 3: 1.0, 4: 0.25, 6: 0.1})
    n = 6
    worst = 0.0
    for _ in range(300):
        pts = rng.standard_normal((2, n))
        pts *= np.sqrt(n * rng.uniform(0.05, 1.0, size=(2, 1))) / np.linalg.norm(
            pts, axis=1, keepdims=True
        )
        x, y = pts
        dirs = rng.standard_normal((4, n))
        for a in range(3):
            for b in range(3):
                us, vs = tuple(dirs[:a]), tuple(dirs[2 : 2 + b])
                ref = _pair_cov_closed_forms(m, n, x, y, us, vs)
                got = _pair_cov(m, n, x, y, us, vs)
                worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-14


def test_points_outside_ball_rejected():
    x = np.full(4, 2.0)
    with pytest.raises(BadInputError):
        derivative_covariances(MIX, x[None, :], [("value", 0)])
    with pytest.raises(BadInputError):
        derivative_covariances(MIX, np.zeros((1, 4)), [("value", 3)])
    with pytest.raises(BadInputError):
        derivative_covariances(MIX, np.zeros((1, 4)), [("deriv", 0, np.ones(3))])


# ------------------------------------------------- Schur conditioning basics


def test_schur_identity_covariance():
    mean, cov = schur_condition(np.eye(2), [0], [5.0])
    assert mean[0] == 0.0 and cov[0, 0] == 1.0


def test_schur_block_diagonal_leaves_independent_block_untouched():
    blk = np.zeros((4, 4))
    blk[:2, :2] = np.array([[2.0, 0.3], [0.3, 1.0]])
    blk[2:, 2:] = np.array([[1.5, 0.2], [0.2, 0.9]])
    mean, cov = schur_condition(blk, [0], [1.0])
    # free coordinates are (1, 2, 3); the independent pair keeps its law
    assert np.max(np.abs(cov[1:, 1:] - blk[2:, 2:])) < 1e-14
    assert abs(mean[1]) < 1e-14 and abs(mean[2]) < 1e-14
    assert abs(mean[0] - 0.3 / 2.0) < 1e-14


def test_schur_iterated_equals_block():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(8, 8))
    cov = b @ b.T + 0.5 * np.eye(8)
    vals = rng.normal(size=3)
    mean_blk, cov_blk = schur_condition(cov, [1, 4, 6], vals)
    cur_cov, cur_mean, live = cov.copy(), np.zeros(8), list(range(8))
    for i_obs, val in zip([1, 4, 6], vals):
        pos = live.index(i_obs)
        mm, cc = schur_condition(cur_cov, [pos], [val - cur_mean[i_obs]])
        live = [j for j in live if j != i_obs]
        for a, j in enumerate(live):
            cur_mean[j] += mm[a]
        cur_cov = cc
    assert np.max(np.abs(cur_mean[live] - mean_blk)) < 1e-10
    assert np.max(np.abs(cur_cov - cov_blk)) < 1e-10


def test_schur_singular_block_and_pseudo_inverse():
    with pytest.raises(SingularBlockError):
        schur_condition(np.zeros((2, 2)), [0], [1.0])
    mean, cov = schur_condition(np.zeros((2, 2)), [0], [1.0], pseudo_inverse=True)
    assert mean[0] == 0.0 and cov[0, 0] == 0.0


def test_schur_input_validation():
    with pytest.raises(BadInputError):
        schur_condition(np.ones((2, 3)), [0], [1.0])
    skew = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(BadInputError):
        schur_condition(skew, [0], [1.0])
    with pytest.raises(BadInputError):
        schur_condition(np.eye(3), [0, 0], [1.0, 1.0])
    with pytest.raises(BadInputError):
        schur_condition(np.eye(3), [0, 1], [1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_schur_conditioning_never_inflates_variances(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(6, 6))
    cov = b @ b.T + 0.1 * np.eye(6)
    _, cond = schur_condition(cov, [0, 3], rng.normal(size=2))
    free = [1, 2, 4, 5]
    for a, j in enumerate(free):
        assert cond[a, a] <= cov[j, j] + 1e-10
    assert float(np.linalg.eigvalsh(cond).min()) > -1e-9 * float(np.max(np.abs(cov)))


# --------------------------------------------------- chain functionals / CSV


def test_chain_functional_labels():
    geo = BandGeometry((0.3, 0.6), 4)
    _, labels = _chain_functionals(geo)
    assert labels == [
        "H@x1", "dR@x1", "gperp2@x1", "gperp3@x1", "gperp4@x1",
        "H@x2", "dR@x2", "gperp3@x2", "gperp4@x2",
    ]


def test_chain_constraint_values_scaling():
    geo = BandGeometry((0.3, 0.6), 4)
    ev = ConditioningEvent((0.5, 0.8), (1.1, 1.3), geo)
    vals = chain_constraint_values(geo, ev)
    assert vals[0] == 4 * 0.5 and vals[5] == 4 * 0.8
    assert abs(vals[1] - 4 * 0.3 * 1.1) < 1e-14
    assert abs(vals[6] - 4 * 0.3 * 1.3) < 1e-14
    assert np.all(vals[2:5] == 0.0) and np.all(vals[7:] == 0.0)


def test_covariance_csv_round_trip():
    mat = np.array([[1.0, 0.25], [0.25, 2.0]])
    text = covariance_csv(["H@x1", "dR@x1"], mat)
    lines = text.strip().split("\n")
    assert lines[0] == "H@x1,dR@x1"
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.max(np.abs(back - mat)) < 1e-12
    with pytest.raises(BadInputError):
        covariance_csv(["a"], mat)


# ------------------------------------------------------- band law oracle


def test_band_kernel_two_spin_closed_form():
    geo = BandGeometry((0.5,), 20)
    ev = ConditioningEvent((0.3,), (0.2,), geo)
    for t in (0.55, 0.7, 0.9, 1.0):
        mean, cov = band_kernel(pure(2), geo, t, t, event=ev)
        assert mean == 0.3
        assert abs(cov - (t - 0.5) ** 2) < 1e-15
    mean, _ = band_kernel(pure(2), geo, 0.7, 0.7)
    assert mean == 0.0


def test_band_kernel_explicit_points_agree_with_scalar_mode():
    geo = BandGeometry((0.3, 0.6), 10)
    rng = np.random.default_rng(4)
    ys = []
    for _ in range(2):
        y = geo.anchors[-1].copy()
        tail = rng.normal(size=8)
        tail *= math.sqrt(10 * 0.4 * 0.8) / np.linalg.norm(tail)
        y[2:] += tail
        ys.append(y)
    t = float(ys[0] @ ys[1]) / 10
    m1, c1 = band_kernel(MIX3, geo, ys[0], ys[1])
    m2, c2 = band_kernel(MIX3, geo, t, t)
    assert m1 == m2 and abs(c1 - c2) < 1e-14
    off = ys[0].copy()
    off[0] += 0.3
    with pytest.raises(BadInputError):
        band_kernel(MIX3, geo, off, ys[1])
    with pytest.raises(BadInputError):
        band_kernel(MIX3, geo, 0.7, 0.8)


def test_band_kernel_equals_full_schur_conditioning():
    # master check: closed-form band law == brute-force conditioning on the
    # whole chain constraint set (values, increment slopes, tangential
    # gradients), for several depths and ambient dimensions
    rng = np.random.default_rng(2026)
    for depth, n in [(1, 20), (2, 20), (3, 20), (1, 50), (2, 50), (3, 50)]:
        degs = rng.choice(np.arange(2, 9), size=2, replace=False)
        m = Mixture({int(p): float(rng.uniform(0.2, 1.2)) for p in degs})
        qs = np.sort(rng.uniform(0.15, 0.85, size=depth))
        while np.any(np.diff(qs) < 0.05):
            qs = np.sort(rng.uniform(0.15, 0.85, size=depth))
        geo = BandGeometry(tuple(qs), n)
        ev = ConditioningEvent(
            tuple(rng.normal(0, 0.5, depth)), tuple(rng.normal(0, 0.5, depth)), geo
        )
        ys = []
        for _ in range(2):
            tail = rng.normal(size=n - depth)
            tail *= math.sqrt(n * (1 - geo.q_top) * rng.uniform(0.5, 1.0))
            tail /= np.linalg.norm(tail) / math.sqrt(1.0)
            y = geo.anchors[-1].copy()
            y[depth:] += tail * math.sqrt(1.0)
            ys.append(y)
        funcs, _ = _chain_functionals(geo)
        base = len(funcs)
        pts = np.vstack([geo.anchors, ys[0], ys[1]])
        which = funcs + [("value", depth), ("value", depth + 1)]
        joint = derivative_covariances(m, pts, which)
        mean, cov = schur_condition(joint, range(base), chain_constraint_values(geo, ev))
        bk_mean, bk_cov = band_kernel(m, geo, ys[0], ys[1], event=ev)
        _, bk_var = band_kernel(m, geo, ys[0], ys[0], event=ev)
        scale = max(1.0, abs(bk_cov))
        assert abs(mean[0] / n - bk_mean) < 1e-8 * scale
        assert abs(mean[1] / n - bk_mean) < 1e-8 * scale
        assert abs(cov[0, 1] / n - bk_cov) < 1e-8 * scale
        assert abs(cov[0, 0] / n - bk_var) < 1e-8 * scale


# ------------------------------------------------------- sphere reduction


def test_reduction_covariance_consistency():
    geo = BandGeometry((0.3, 0.55), 30)
    ev = ConditioningEvent((0.4, 0.7), (0.9, 1.2), geo)
    reduced, tr = reduce_to_sphere(MIX3, geo, ev)
    rng = np.random.default_rng(3)
    d = geo.n - geo.depth
    for _ in range(6):
        z1 = rng.normal(size=d)
        z1 *= math.sqrt(d * rng.uniform(0.2, 1.0)) / np.linalg.norm(z1)
        z2 = rng.normal(size=d)
        z2 *= math.sqrt(d * rng.uniform(0.2, 1.0)) / np.linalg.norm(z2)
        _, cov_band = band_kernel(MIX3, geo, tr.point_map(z1), tr.point_map(z2), event=ev)
        # extensive covariances: n * band kernel == (1/prefactor^2) * (n - depth) * reduced
        lhs = geo.n * cov_band
        rhs = (geo.n - geo.depth) * reduced(float(z1 @ z2) / d) / tr.prefactor**2
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_reduction_round_trip_and_prefactor():
    geo = BandGeometry((0.2, 0.5), 100)
    ev = ConditioningEvent((0.1, 0.2), (0.3, 0.4), geo)
    reduced, tr = reduce_to_sphere(MIX, geo, ev)
    assert abs(tr.prefactor - math.sqrt(98 / 100)) < 1e-15
    e, r = tr.inverse(*tr.forward(0.83, 1.7))
    assert abs(e - 0.83) < 1e-14 and abs(r - 1.7) < 1e-14
    assert tr.forward(ev.e_vec[-1], 0.0) == (0.0, 0.0)
    assert abs(tr.gap - 0.5) < 1e-15
    # reduced mixture is the shift-restricted law rescaled to unit radius
    shifted, _, _ = MIX.shift_restrict(0.5)
    assert abs(reduced(1.0) - shifted(0.5)) < 1e-14
    with pytest.raises(BadInputError):
        tr.point_map(np.zeros(5))
    with pytest.raises(BadInputError):
        reduce_to_sphere(MIX, geo, ev, q_next=0.4)
    other = BandGeometry((0.2, 0.5), 50)
    with pytest.raises(BadInputError):
        reduce_to_sphere(MIX, other, ev)


def test_hessian_decomposition_parameters():
    lev = MIX3.shift_restrict(0.55)[0].scale_domain(0.45)
    hd = hessian_decomposition(lev, 2, 30)
    sig = lev.sigma_xi()
    assert np.max(np.abs(hd.sigma_u - sig / 28)) < 1e-15
    assert abs(hd.grad_var - lev.eval(1.0, 1)) < 1e-15
    assert abs(hd.goe_scale - (1 - 1 / 28) * lev.eval(1.0, 2)) < 1e-15
    assert hd.goe_dim == 27 and not hd.sigma_singular
    assert hessian_decomposition(pure(3), 1, 20).sigma_singular
    with pytest.raises(BadInputError):
        hessian_decomposition(MIX, 5, 6)
    with pytest.raises(BadInputError):
        hessian_decomposition(MIX, -1, 6)


# --------------------------------------- constrained-overlap conditioning


def test_conditioning_matrix_entries():
    q1 = 0.6
    c = conditioning_matrix(MIX, q1)
    assert abs(c[0, 3] - math.sqrt(1 - q1) * MIX.eval(q1, 1)) < 1e-15
    assert abs(c[0, 0] - MIX(1.0)) < 1e-15
    assert abs(c[2, 2] - (MIX.eval(q1, 2) + MIX.eval(q1, 1) / q1)) < 1e-15
    assert np.max(np.abs(c - c.T)) == 0.0
    with pytest.raises(BadInputError):
        conditioning_matrix(MIX, 1.0)


def test_conditioning_matrix_from_derivative_covariances():
    # the 4x4 pinned covariance is the normalized joint law of the field at
    # the reference point and the anchor with the two anchor derivatives
    n, q1 = 40, 0.6
    x1 = np.zeros(n)
    x1[0] = math.sqrt(n * q1)
    s1 = x1.copy()
    s1[1] = math.sqrt(n * (1 - q1))
    eye = np.eye(n)
    raw = derivative_covariances(
        MIX,
        np.vstack([s1, x1]),
        [("value", 0), ("value", 1), ("deriv", 1, eye[0]), ("deriv", 1, eye[1])],
    )
    d = np.diag([1 / n, 1 / n, 1 / math.sqrt(n * q1), 1 / math.sqrt(n)])
    assert np.max(np.abs(d @ raw @ d - conditioning_matrix(MIX, q1) / n)) < 1e-14


def test_section_vector_zero_at_origin():
    v = section_vector(MIX, 0.6, 0.0, 0.0)
    assert np.max(np.abs(v)) == 0.0


def test_fp_conditioning_schur_oracle():
    # brute-force conditioning of the field at an explicit section point on
    # the pinned 4-vector plus the full tangential gradient reproduces the
    # closed-form conditional mean and covariance
    n, q1, r, rho = 40, 0.6, 0.3, 0.25
    c = conditioning_matrix(MIX, q1)
    v = section_vector(MIX, q1, r, rho)
    tau = tau_mix(q1, r, rho)
    x1 = np.zeros(n)
    x1[0] = math.sqrt(n * q1)
    s1 = x1.copy()
    s1[1] = math.sqrt(n * (1 - q1))
    sp = np.zeros(n)
    sp[0] = math.sqrt(n) * rho / math.sqrt(q1)
    sp[1] = math.sqrt(n) * (r - rho) / math.sqrt(1 - q1)
    rng = np.random.default_rng(11)
    tail = rng.normal(size=n - 2)
    tail *= math.sqrt(n * (1 - tau)) / np.linalg.norm(tail)
    sp[2:] = tail
    assert abs(sp @ s1 / n - r) < 1e-12 and abs(sp @ x1 / n - rho) < 1e-12
    eye = np.eye(n)
    which = [("value", 0), ("value", 1), ("value", 2), ("deriv", 2, eye[0]), ("deriv", 2, eye[1])]
    which += [("deriv", 2, eye[j]) for j in range(2, n)]
    joint = derivative_covariances(MIX, np.vstack([sp, s1, x1]), which)
    e_ref, e1, r1 = 0.9, 0.8, 1.1
    w = np.zeros(n + 2)
    w[:4] = [n * e_ref, n * e1, math.sqrt(n * q1) * r1, 0.0]
    mean, cov = schur_condition(joint, range(1, n + 3), w)
    mean_pred = float(v @ np.linalg.solve(c, np.array([e_ref, e1, r1, 0.0])))
    var_pred = (
        MIX(1.0)
        - MIX.eval(rho, 1) ** 2 / MIX.eval(q1, 1) * (1 - tau)
        - float(v @ np.linalg.solve(c, v))
    )
    assert abs(mean[0] / n - mean_pred) < 1e-10
    assert abs(cov[0, 0] / n - var_pred) < 1e-10


def test_fp_conditioning_two_point_kernel():
    # two section points with the same pinned overlaps: conditional
    # covariance is the rescaled band mixture plus the two constant terms
    n, q1, r, rho = 40, 0.6, 0.3, 0.25
    c = conditioning_matrix(MIX, q1)
    v = section_vector(MIX, q1, r, rho)
    tau = tau_mix(q1, r, rho)
    x1 = np.zeros(n)
    x1[0] = math.sqrt(n * q1)
    s1 = x1.copy()
    s1[1] = math.sqrt(n * (1 - q1))
    rng = np.random.default_rng(11)
    sps = []
    for _ in range(2):
        sp = np.zeros(n)
        sp[0] = math.sqrt(n) * rho / math.sqrt(q1)
        sp[1] = math.sqrt(n) * (r - rho) / math.sqrt(1 - q1)
        tail = rng.normal(size=n - 2)
        tail *= math.sqrt(n * (1 - tau)) / np.linalg.norm(tail)
        sp[2:] = tail
        sps.append(sp)
    t_red = float(sps[0][2:] @ sps[1][2:]) / (n * (1 - tau))
    eye = np.eye(n)
    which = [("value", 0), ("value", 1), ("value", 2), ("value", 3)]
    which += [("deriv", 3, eye[0]), ("deriv", 3, eye[1])]
    which += [("deriv", 3, eye[j]) for j in range(2, n)]
    joint = derivative_covariances(MIX, np.vstack([*sps, s1, x1]), which)
    w = np.zeros(n + 2)
    w[:4] = [n * 0.9, n * 0.8, math.sqrt(n * q1) * 1.1, 0.0]
    _, cov = schur_condition(joint, range(2, n + 4), w)
    const = float(v @ np.linalg.solve(c, v))
    kern = (
        MIX(tau + (1 - tau) * t_red)
        - MIX.eval(rho, 1) ** 2 / MIX.eval(q1, 1) * (1 - tau) * t_red
        - const
    )
    assert abs(cov[0, 1] / n - kern) < 1e-10


def test_fp_conditioning_fields_and_determinism():
    fpc = fp_conditioning(MIX, 3.0, 0.6, 0.3, 0.25)
    e1, r1, _ = ground_state_point(MIX, 0.6)
    f_prime = e1 + 3.0 * (MIX(1.0) - MIX(0.6) - MIX.eval(0.6, 1) * 0.4)
    c = conditioning_matrix(MIX, 0.6)
    u = np.linalg.solve(c, np.array([f_prime, e1, r1, 0.0]))
    assert np.max(np.abs(fpc.u - u)) < 1e-12
    assert abs(fpc.cond_mean_coeff - float(fpc.v @ u)) < 1e-14
    assert abs(fpc.cond_mean_coeff - 0.109594249434) < 1e-9
    assert abs(fpc.tau - tau_mix(0.6, 0.3, 0.25)) < 1e-15
    assert abs(fpc.cond_cov_constants[0] - MIX(fpc.tau)) < 1e-14
    assert abs(fpc.cond_cov_constants[1] - float(fpc.v @ np.linalg.solve(c, fpc.v))) < 1e-12
    assert not fpc.reduced


def test_fp_conditional_kernel_is_psd():
    q1, r = 0.6, 0.3
    slack = math.sqrt(q1 - q1 * q1) * math.sqrt(1 - r * r)
    ts = np.linspace(-1, 1, 25)
    for rho in (r * q1 - 0.9 * slack, r * q1, r * q1 + 0.9 * slack):
        tau = tau_mix(q1, r, rho)
        c = conditioning_matrix(MIX, q1)
        v = section_vector(MIX, q1, r, rho)
        const = float(v @ np.linalg.solve(c, v))
        tt = np.outer(ts, ts)
        kern = (
            MIX(tau + (1 - tau) * tt)
            - MIX.eval(rho, 1) ** 2 / MIX.eval(q1, 1) * (1 - tau) * tt
            - const
        )
        assert float(np.linalg.eigvalsh(kern).min()) > -1e-9


def test_fp_conditioning_pure_paths():
    with pytest.raises(SingularMatrixError):
        fp_conditioning(pure(3), 2.0, 0.6, 0.3, 0.25)
    fpp = fp_conditioning(pure(3), 2.0, 0.6, 0.3, 0.25, pure_reduced=True)
    assert fpp.C.shape == (3, 3) and fpp.v.shape == (3,) and fpp.reduced
    # dropped row: remaining matrix is the pinned covariance without the
    # dependent radial derivative
    full = conditioning_matrix(pure(3), 0.6)
    assert np.max(np.abs(fpp.C - full[np.ix_([0, 1, 3], [0, 1, 3])])) == 0.0


def test_fp_conditioning_window_and_input_gates():
    with pytest.raises(RegimeMismatchError):
        fp_conditioning(MIX, 2.0, 0.6, 0.3, 0.95)
    with pytest.raises(BadInputError):
        fp_conditioning(MIX, 2.0, 0.6, 1.0, 0.3)
    with pytest.raises(BadInputError):
        fp_conditioning(MIX, 2.0, 0.0, 0.3, 0.25)
    # boundary of the admissible interval is accepted
    slack = math.sqrt(0.6 - 0.36) * math.sqrt(1 - 0.09)
    fp_conditioning(MIX, 2.0, 0.6, 0.3, 0.18 + slack)

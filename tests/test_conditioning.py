"""Exact finite-N conditioning: derivative covariances against finite
differences of the base kernel, closed-form band law against brute-force
Schur conditioning, and the pinned system of the constrained-overlap
potential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinglass.conditioning import (
    BandGeometry,
    ConditioningEvent,
    FPConditioning,
    band_kernel,
    chain_constraint_set,
    derivative_covariances,
    fp_conditioning,
    hessian_decomposition,
    schur_condition,
    _fp_pinned_cov,
    _independent_rows,
    _pair_cov,
)
from spinglass.errors import BadInputError, SingularBlockError
from spinglass.landscape import ground_state_point
from spinglass.mixtures import Mixture, pure, section_half_width
from spinglass.mixtures import tau as section_tau

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
    with pytest.raises(BadInputError):
        BandGeometry((0.5,), 2.5)


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
    ev = ConditioningEvent((0.1, 0.2), (0.3, 0.4), geo)
    assert ev.e_vec == (0.1, 0.2) and ev.r_vec == (0.3, 0.4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["e_vec", "r_vec"])
def test_event_rejects_non_finite_targets(slot, bad):
    geo = BandGeometry((0.3, 0.6), 8)
    targets = {"e_vec": (0.1, 0.2), "r_vec": (0.3, 0.4)}
    targets[slot] = (bad, 0.2)
    with pytest.raises(BadInputError):
        ConditioningEvent(geometry=geo, **targets)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["point", "direction"])
def test_derivative_covariances_rejects_non_finite_inputs(slot, bad):
    points, u = np.zeros((1, 4)), np.eye(4)[0]
    if slot == "point":
        points[0, 1] = bad
    else:
        u[1] = bad
    with pytest.raises(BadInputError):
        derivative_covariances(MIX, points, [("value", 0), ("deriv", 0, u)])


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["diagonal", "off_diagonal", "observed"])
def test_schur_rejects_non_finite_inputs(slot, bad):
    cov, vals = np.eye(3), np.array([1.0, 2.0])
    if slot == "diagonal":
        cov[0, 0] = bad
    elif slot == "off_diagonal":
        cov[0, 2] = cov[2, 0] = bad
    else:
        vals[1] = bad
    for pinv in (False, True):
        with pytest.raises(BadInputError):
            schur_condition(cov, [0, 1], vals, pseudo_inverse=pinv)


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


# --------------------------------------------------------- chain functionals


def test_chain_functional_labels():
    geo = BandGeometry((0.3, 0.6), 4)
    _, labels, _ = chain_constraint_set(geo, ConditioningEvent((0.5, 0.8), (1.1, 1.3), geo))
    assert labels == [
        "H@x1", "dR@x1", "gperp2@x1", "gperp3@x1", "gperp4@x1",
        "H@x2", "dR@x2", "gperp3@x2", "gperp4@x2",
    ]


def test_chain_constraint_values_scaling():
    geo = BandGeometry((0.3, 0.6), 4)
    ev = ConditioningEvent((0.5, 0.8), (1.1, 1.3), geo)
    _, _, vals = chain_constraint_set(geo, ev)
    assert vals[0] == 4 * 0.5 and vals[5] == 4 * 0.8
    assert abs(vals[1] - 4 * 0.3 * 1.1) < 1e-14
    assert abs(vals[6] - 4 * 0.3 * 1.3) < 1e-14
    assert np.all(vals[2:5] == 0.0) and np.all(vals[7:] == 0.0)


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


def test_band_kernel_rejects_an_event_built_for_another_chain():
    geo = BandGeometry((0.5,), 6)
    band_kernel(pure(3), geo, 0.7, 0.7, ConditioningEvent((0.1,), (0.2,), BandGeometry((0.5,), 6)))
    # the other chain's top energy 0.9 came back as the mean
    for other in (ConditioningEvent((0.1, 0.9), (0.2, 0.3), BandGeometry((0.3, 0.6), 6)),
                  ConditioningEvent((0.1,), (0.2,), BandGeometry((0.5,), 7))):
        with pytest.raises(BadInputError):
            band_kernel(pure(3), geo, 0.7, 0.7, other)


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
    # two slice points of a one-point ladder at 0.5 have overlap in [0, 1]
    half = BandGeometry((0.5,), 4)
    for t in (0.0, 1.0):
        band_kernel(Mixture({2: 0.5, 3: 0.5}), half, t, t)
    for t in (3.0, math.nan, math.inf, -1.0, -1e-9):
        with pytest.raises(BadInputError):
            band_kernel(Mixture({2: 0.5, 3: 0.5}), half, t, t)


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
        funcs, _, vals = chain_constraint_set(geo, ev)
        base = len(funcs)
        pts = np.vstack([geo.anchors, ys[0], ys[1]])
        which = funcs + [("value", depth), ("value", depth + 1)]
        joint = derivative_covariances(m, pts, which)
        mean, cov = schur_condition(joint, range(base), vals)
        bk_mean, bk_cov = band_kernel(m, geo, ys[0], ys[1], event=ev)
        _, bk_var = band_kernel(m, geo, ys[0], ys[0], event=ev)
        scale = max(1.0, abs(bk_cov))
        assert abs(mean[0] / n - bk_mean) < 1e-8 * scale
        assert abs(mean[1] / n - bk_mean) < 1e-8 * scale
        assert abs(cov[0, 1] / n - bk_cov) < 1e-8 * scale
        assert abs(cov[0, 0] / n - bk_var) < 1e-8 * scale


# ------------------------------------------------------ Hessian decomposition


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
    with pytest.raises(BadInputError):
        hessian_decomposition(MIX, 1, 10.5)


# --------------------------------------- constrained-overlap conditioning


def _conditioning_matrix(m: Mixture, q1: float) -> np.ndarray:
    """Covariance of the pinned vector at the anchor pair: energies at the
    reference point and anchor, then the radial and in-plane anchor
    derivatives, each per site or per square-root-site."""
    if not 0.0 < q1 < 1.0:
        raise BadInputError(f"anchor overlap must be in (0,1), got {q1}")
    x1, x1p = m.eval(q1), m.eval(q1, 1)
    root = math.sqrt(1.0 - q1)
    return np.array(
        [
            [m.eval(1.0), x1, x1p, root * x1p],
            [x1, x1, x1p, 0.0],
            [x1p, x1p, m.eval(q1, 2) + x1p / q1, 0.0],
            [root * x1p, 0.0, 0.0, x1p],
        ]
    )


def _section_vector(m: Mixture, q1: float, r: float, rho: float) -> np.ndarray:
    """Covariance of the field at a section point with the pinned vector."""
    rhop = m.eval(rho, 1)
    return np.array(
        [
            m.eval(r),
            m.eval(rho),
            rhop * rho / q1,
            rhop * (r - rho) / math.sqrt(1.0 - q1),
        ]
    )


def test_conditioning_matrix_entries():
    q1 = 0.6
    c = _conditioning_matrix(MIX, q1)
    assert abs(c[0, 3] - math.sqrt(1 - q1) * MIX.eval(q1, 1)) < 1e-15
    assert abs(c[0, 0] - MIX(1.0)) < 1e-15
    assert abs(c[2, 2] - (MIX.eval(q1, 2) + MIX.eval(q1, 1) / q1)) < 1e-15
    assert np.max(np.abs(c - c.T)) == 0.0
    with pytest.raises(BadInputError):
        _conditioning_matrix(MIX, 1.0)


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
    assert np.max(np.abs(d @ raw @ d - _conditioning_matrix(MIX, q1) / n)) < 1e-14


def test_section_vector_zero_at_origin():
    v = _section_vector(MIX, 0.6, 0.0, 0.0)
    assert np.max(np.abs(v)) == 0.0


def test_fp_conditioning_schur_oracle():
    # brute-force conditioning of the field at an explicit section point on
    # the pinned 4-vector plus the full tangential gradient reproduces the
    # closed-form conditional mean and covariance
    n, q1, r, rho = 40, 0.6, 0.3, 0.25
    c = _conditioning_matrix(MIX, q1)
    v = _section_vector(MIX, q1, r, rho)
    tau = section_tau(q1, r, rho)
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
    c = _conditioning_matrix(MIX, q1)
    v = _section_vector(MIX, q1, r, rho)
    tau = section_tau(q1, r, rho)
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
    fpc = fp_conditioning(MIX, 3.0, 0.6)
    e1, r1, _ = ground_state_point(MIX, 0.6)
    f_prime = e1 + 3.0 * (MIX(1.0) - MIX(0.6) - MIX.eval(0.6, 1) * 0.4)
    c = _conditioning_matrix(MIX, 0.6)
    u = np.linalg.solve(c, np.array([f_prime, e1, r1, 0.0]))
    assert np.max(np.abs(fpc.u - u)) < 1e-12
    assert np.max(np.abs(fpc.C - c)) <= 1e-13 * np.max(np.abs(c))
    coeff = fpc.mean_coeff(0.3, 0.25)
    closed = float(_section_vector(MIX, 0.6, 0.3, 0.25) @ fpc.u)
    assert abs(coeff - closed) <= 1e-13 * abs(closed)
    assert abs(coeff - 0.109594249434) < 1e-9


def test_fp_conditional_kernel_is_psd():
    q1, r = 0.6, 0.3
    slack = math.sqrt(q1 - q1 * q1) * math.sqrt(1 - r * r)
    ts = np.linspace(-1, 1, 25)
    for rho in (r * q1 - 0.9 * slack, r * q1, r * q1 + 0.9 * slack):
        tau = section_tau(q1, r, rho)
        c = _conditioning_matrix(MIX, q1)
        v = _section_vector(MIX, q1, r, rho)
        const = float(v @ np.linalg.solve(c, v))
        tt = np.outer(ts, ts)
        kern = (
            MIX(tau + (1 - tau) * tt)
            - MIX.eval(rho, 1) ** 2 / MIX.eval(q1, 1) * (1 - tau) * tt
            - const
        )
        assert float(np.linalg.eigvalsh(kern).min()) > -1e-9


def test_fp_conditioning_pure_paths():
    # a single-degree mixture drops the anchor's radial derivative, whose
    # row makes the pinned covariance singular
    fpp = fp_conditioning(pure(3), 2.0, 0.6)
    assert fpp.C.shape == (3, 3) and fpp.u.shape == (3,)
    full = _conditioning_matrix(pure(3), 0.6)
    kept = full[np.ix_([0, 1, 3], [0, 1, 3])]
    assert np.max(np.abs(fpp.C - kept)) <= 1e-13 * np.max(np.abs(kept))
    v = _section_vector(pure(3), 0.6, 0.3, 0.25)[[0, 1, 3]]
    closed = float(v @ fpp.u)
    assert abs(fpp.mean_coeff(0.3, 0.25) - closed) <= 1e-13 * abs(closed)


def test_fp_conditioning_window_and_input_gates():
    for q1 in (0.0, 1.0):
        with pytest.raises(BadInputError):
            fp_conditioning(MIX, 2.0, q1)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_fp_conditioning_rejects_beta_outside_the_half_line(beta):
    with pytest.raises(BadInputError):
        fp_conditioning(MIX, beta, 0.6)


# the closed forms above are the oracle for the pinned system built from
# derivative_covariances; the mixtures cover pure, linear and high degrees
_ORACLE_MIXES = [
    pure(3),
    pure(2),
    pure(4),
    Mixture({3: 1.0, 4: 0.3}),
    Mixture({2: 0.4, 3: 1.0}),
    Mixture({2: 0.5, 3: 0.5}),
    Mixture({1: 0.2, 3: 1.0}),
    Mixture({3: 0.5, 30: 0.5}),
]
_ORACLE_Q1 = (0.05, 0.2, 0.5, 0.62, 0.9, 0.99)


def _section_grid(q1):
    # both endpoints of each admissible interval, its centre and two
    # interior points, over overlaps r of either sign and r = +-1
    for r in (-1.0, -0.7, 0.0, 0.3, 0.95, 1.0):
        half = section_half_width(q1, r)
        for s in (-1.0, -0.4, 0.0, 0.55, 1.0):
            yield r, r * q1 + s * half


@pytest.mark.parametrize("m", _ORACLE_MIXES, ids=repr)
def test_pinned_builder_matches_the_closed_forms(m):
    for q1 in _ORACLE_Q1:
        cov = _fp_pinned_cov(m, q1)
        want = _conditioning_matrix(m, q1)
        assert np.max(np.abs(cov - want)) <= 1e-13 * np.max(np.abs(want))
        for r, rho in _section_grid(q1):
            full = _fp_pinned_cov(m, q1, (r, rho))
            assert np.max(np.abs(full[:4, :4] - cov)) == 0.0
            want = np.append(_section_vector(m, q1, r, rho), m(1.0))
            scale = np.max(np.abs(want))
            assert np.max(np.abs(full[-1] - want)) <= 1e-13 * scale


@pytest.mark.parametrize("m", _ORACLE_MIXES, ids=repr)
def test_mean_coeff_matches_the_section_row_of_the_full_builder(m):
    # mean_coeff builds only the section row, from the kept functionals;
    # the full pinned covariance with the section point last is the oracle
    rng = np.random.default_rng(3)
    for q1 in _ORACLE_Q1:
        cov = _fp_pinned_cov(m, q1)
        rows = _independent_rows(cov)
        u = rng.standard_normal(len(rows))
        fpc = FPConditioning(m=m, q1=q1, C=cov[np.ix_(rows, rows)], u=u, rows=tuple(rows))
        for r, rho in _section_grid(q1):
            row = _fp_pinned_cov(m, q1, (r, rho))[-1, rows]
            want = float(row @ u)
            assert abs(fpc.mean_coeff(r, rho) - want) <= 1e-13 * float(np.abs(row) @ np.abs(u))


def test_rank_rule_drops_only_the_radial_row_of_a_pure_mixture():
    for m in _ORACLE_MIXES:
        for q1 in _ORACLE_Q1:
            kept = _independent_rows(_fp_pinned_cov(m, q1))
            if m.is_pure:
                assert kept == [0, 1, 3], (m, q1)
            elif m != Mixture({3: 0.5, 30: 0.5}):
                assert kept == [0, 1, 2, 3], (m, q1)
    # the degree-30 part adds nothing a double can see below q1 ~ 0.3
    wide = Mixture({3: 0.5, 30: 0.5})
    sizes = [len(_independent_rows(_fp_pinned_cov(wide, q1))) for q1 in _ORACLE_Q1]
    assert sizes == [3, 3, 4, 4, 4, 4]
    assert fp_conditioning(pure(4), 2.0, 0.5).rows == (0, 1, 3)
    assert fp_conditioning(MIX, 2.0, 0.5).rows == (0, 1, 2, 3)


def test_fp_conditioning_of_a_numerically_rank_deficient_mixture():
    # the radial row of {3:.5,30:.5} at q1=0.2 is a multiple of its energy
    # row to about 1e-19, so the full 4x4 system does not factor; the rank
    # rule keeps three rows and agrees with pseudo-inverse conditioning on
    # all four at the centre of each section interval. Off the centre the
    # two part by up to 3e-9: the certified slope r1 leaves the rank-one
    # relation by 4e-10, and the pseudo-inverse spreads that over two rows
    m, beta, q1 = Mixture({3: 0.5, 30: 0.5}), 3.0, 0.2
    fpc = fp_conditioning(m, beta, q1)
    assert fpc.rows == (0, 1, 3)
    e1, r1, _ = ground_state_point(m, q1)
    f_prime = e1 + beta * (m(1.0) - m(q1) - m.eval(q1, 1) * (1.0 - q1))
    for r in (-0.3, 0.0, 0.3):
        cov = _fp_pinned_cov(m, q1, (r, r * q1))
        mean, _ = schur_condition(cov, range(4), [f_prime, e1, r1, 0.0], pseudo_inverse=True)
        assert abs(mean[0] - fpc.mean_coeff(r, r * q1)) <= 1e-11


def test_mean_coeff_is_defined_on_the_admissible_interval_only():
    q1, r = 0.5, 0.3
    fpc = fp_conditioning(Mixture({2: 0.5, 3: 0.5}), 2.0, q1)
    half = section_half_width(q1, r)
    for rho in (r * q1 - half, r * q1 + half, r * q1 + half + 5e-13):
        assert math.isfinite(fpc.mean_coeff(r, rho))
    for rho in (r * q1 - half - 1e-9, r * q1 + half + 1e-9, 5.0, math.nan):
        with pytest.raises(BadInputError):
            fpc.mean_coeff(r, rho)
    for r_bad in (1.5, math.nan):
        with pytest.raises(BadInputError):
            fpc.mean_coeff(r_bad, 0.0)

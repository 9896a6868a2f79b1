"""Variational layer: quadrature oracles, gradients, solver regressions."""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import root as scipy_root
from scipy.sparse.linalg import eigsh

from spinglass.errors import (
    BadInputError,
    NotBracketedError,
    RegimeMismatchError,
    SolverFailedError,
)
from spinglass import rsb
from spinglass._rng import STREAM_SOLVER, stream
from spinglass.franz_parisi import FPQuery
from spinglass.landscape import ground_state_point
from spinglass.mixtures import Mixture, pure
from spinglass.rsb import (
    Q_CAP,
    ZT_K_MAX,
    OptimalityCertificate,
    OrderParameter,
    SolverConfig,
    ZeroTempOrder,
    beta_c,
    cs_minimize,
    cs_value,
    pushforward_check,
    rs_value,
    talagrand_certificate,
    zero_temp_certificate,
    zt_minimize,
    zt_value,
)

# Frozen solver outputs; recomputing them must stay inside the stated bands.
T3_BETA = 1.8
T3_VALUE = 1.4983267828978375
T3_Q1 = 0.7841933007791007
T3_X0 = 0.5000198999394742

TWO_RSB_MIX = {3: 0.5, 30: 0.5}
TWO_RSB_BETA = 3.4126426522529024  # twice the critical point of that mixture
TWO_RSB_VALUE = 4.9074543783358155
TWO_RSB_QS = (0.7190855495035938, 0.9876775805630663)
TWO_RSB_LEVELS = (0.4256873975998687, 0.5787266706034774)

T3_GS = 1.6569983635274732
T3_GS_SLOPE = 0.6250208221069993
T3_GS_C = 0.34399251380682466

BETA_C_T3 = 1.2065557512021616


def clear_solver_caches():
    """Forget memoised solves, so that the next call recomputes."""
    rsb._solve.cache_clear()
    rsb._beta_c.cache_clear()


def random_mixture(rng, max_terms=3):
    degs = rng.choice(np.arange(2, 13), size=rng.integers(1, max_terms + 1), replace=False)
    return Mixture({int(p): float(rng.uniform(0.1, 1.5)) for p in degs})


def random_order(rng, k=None, min_gap=0.02):
    if k is None:
        k = int(rng.integers(0, 4))
    while True:
        qs = np.sort(rng.uniform(0.05, 0.92, size=k))
        if k < 2 or np.min(np.diff(qs)) >= min_gap:
            break
    xs = np.sort(rng.uniform(0.05, 0.95, size=k))
    while k >= 2 and np.min(np.diff(xs)) < min_gap:
        xs = np.sort(rng.uniform(0.05, 0.95, size=k))
    return OrderParameter(tuple(qs), tuple(xs))


def random_zt_order(rng, k=None):
    if k is None:
        k = int(rng.integers(0, 4))
    while True:
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.9, size=k))])
        if k < 2 or np.min(np.diff(breaks)) >= 0.02:
            break
    vals = np.cumsum(rng.uniform(0.05, 0.8, size=k + 1))
    c = float(rng.uniform(0.05, 1.5))
    return ZeroTempOrder(tuple(zip(breaks, vals)), c)


def cs_by_quadrature(m, beta, x):
    # Direct numerical integration of the defining functional, no reuse of
    # the closed-form segment algebra.
    qh = x.q_hat
    pts = list(x.qs) or None
    slope_term, _ = quad(
        lambda t: x.cdf(t) * m.eval(t, 1), 0.0, 1.0, points=pts, limit=200,
        epsabs=1e-13, epsrel=1e-13,
    )
    inv_term = 0.0
    if qh > 0.0:
        inner_pts = [q for q in x.qs if q < qh] or None
        inv_term, _ = quad(
            lambda t: 1.0 / x.tail_integral(t), 0.0, qh, points=inner_pts,
            limit=200, epsabs=1e-13, epsrel=1e-13,
        )
    return 0.5 * (beta * beta * slope_term + inv_term + np.log1p(-qh))


def zt_by_quadrature(m, order):
    # Pre-integration-by-parts form: the double integral is evaluated with
    # the running integral of alpha written as total minus tail.
    total = order.tail_integral(0.0)
    pts = [q for q in order.breakpoints if 0.0 < q < 1.0] or None
    mid, _ = quad(
        lambda t: m.eval(t, 2) * (total - order.tail_integral(t)), 0.0, 1.0,
        points=pts, limit=200, epsabs=1e-13, epsrel=1e-13,
    )
    last, _ = quad(
        lambda t: 1.0 / (order.tail_integral(t) + order.c), 0.0, 1.0,
        points=pts, limit=200, epsabs=1e-13, epsrel=1e-13,
    )
    return 0.5 * (m.eval(1.0, 1) * (total + order.c) - mid + last)


# ------------------------------------------------------------ order parameters


def test_order_parameter_validation():
    OrderParameter((0.3, 0.7), (0.2, 0.5))
    with pytest.raises(BadInputError):
        OrderParameter((0.7, 0.3), (0.2, 0.5))
    with pytest.raises(BadInputError):
        OrderParameter((0.3, 1.0), (0.2, 0.5))
    with pytest.raises(BadInputError):
        OrderParameter((0.5,), (1.0,))
    with pytest.raises(BadInputError):
        OrderParameter((0.3, 0.7), (0.5, 0.2))
    with pytest.raises(BadInputError):
        OrderParameter((0.3,), (0.2, 0.5))


def test_order_parameter_accessors():
    x = OrderParameter((0.3, 0.7), (0.2, 0.5))
    assert x.k == 2
    assert x.q_hat == 0.7
    assert x.atoms == ((0.3, 0.2), (0.7, 0.5))
    assert x.measure_atoms() == ((0.0, 0.2), (0.3, 0.3), (0.7, 0.5))
    assert x.support() == (0.0, 0.3, 0.7)
    rs = OrderParameter.rs()
    assert rs.k == 0 and rs.q_hat == 0.0
    assert rs.measure_atoms() == ((0.0, 1.0),)
    # an atom carrying zero mass is dropped from the support
    y = OrderParameter((0.3, 0.7), (0.2, 0.2))
    assert y.support() == (0.0, 0.7)


def test_order_parameter_cdf_and_tail():
    x = OrderParameter((0.3, 0.7), (0.2, 0.5))
    assert x.cdf(0.1) == 0.2
    assert x.cdf(0.3) == 0.5
    assert x.cdf(0.69) == 0.5
    assert x.cdf(0.7) == 1.0
    np.testing.assert_allclose(x.cdf([0.1, 0.5, 0.9]), [0.2, 0.5, 1.0])
    assert x.tail_integral(1.0) == 0.0
    for t in (0.0, 0.15, 0.3, 0.55, 0.7, 0.95):
        ref, _ = quad(x.cdf, t, 1.0, points=[0.3, 0.7], limit=100)
        assert x.tail_integral(t) == pytest.approx(ref, abs=1e-12)


@st.composite
def order_params(draw):
    k = draw(st.integers(0, 3))
    qs = sorted(draw(st.lists(st.floats(0.02, 0.97), min_size=k, max_size=k, unique=True)))
    assume(all(b - a > 1e-3 for a, b in zip(qs, qs[1:])))
    xs = sorted(draw(st.lists(st.floats(0.0, 0.99), min_size=k, max_size=k)))
    return OrderParameter(tuple(qs), tuple(xs))


@settings(max_examples=100, deadline=None)
@given(order_params(), st.floats(0.0, 1.0))
def test_tail_integral_matches_cdf_quadrature(x, t):
    ref, _ = quad(x.cdf, t, 1.0, points=[q for q in x.qs if q > t] or None, limit=100)
    assert x.tail_integral(t) == pytest.approx(ref, abs=1e-10)


def test_zero_temp_order_validation():
    ZeroTempOrder(((0.0, 0.2), (0.4, 0.9)), 0.3)
    with pytest.raises(BadInputError):
        ZeroTempOrder(((0.0, 0.2),), 0.0)
    with pytest.raises(BadInputError):
        ZeroTempOrder(((0.0, 0.2),), -1.0)
    with pytest.raises(BadInputError):
        ZeroTempOrder(((0.1, 0.2),), 0.3)
    with pytest.raises(BadInputError):
        ZeroTempOrder(((0.0, 0.5), (0.4, 0.2)), 0.3)
    with pytest.raises(BadInputError):
        ZeroTempOrder(((0.0, -0.1),), 0.3)


@pytest.mark.parametrize(
    "steps, c",
    [
        (((0.0, 1.0),), float("nan")),
        (((0.0, 1.0),), float("inf")),
        (((0.0, float("nan")),), 1.0),
        (((0.0, float("inf")),), 1.0),
        (((0.0, 0.2), (float("nan"), 0.5)), 1.0),
        (((0.0, 0.2), (0.5, float("nan"))), 1.0),
    ],
)
def test_zero_temp_order_rejects_non_finite_values(steps, c):
    # once built, zt_value read NaN and the certificate a zero violation
    with pytest.raises(BadInputError):
        ZeroTempOrder(steps, c)


def test_step_values_are_right_continuous_at_every_breakpoint():
    x = OrderParameter((0.3, 0.7), (0.2, 0.5))
    ts = [-0.5, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5]
    assert x.cdf(ts).tolist() == [0.2, 0.2, 0.2, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]
    assert [x.cdf(t) for t in ts] == [0.2, 0.2, 0.2, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]
    assert OrderParameter.rs().cdf(ts).tolist() == [1.0] * len(ts)
    o = ZeroTempOrder(((0.0, 0.2), (0.4, 0.9), (0.8, 1.5)), 0.3)
    ts = [-0.5, 0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.5]
    assert o.alpha(ts).tolist() == [0.2, 0.2, 0.2, 0.9, 0.9, 1.5, 1.5, 1.5, 1.5]
    assert [o.alpha(t) for t in ts] == [0.2, 0.2, 0.2, 0.9, 0.9, 1.5, 1.5, 1.5, 1.5]


def test_zero_temp_order_accessors():
    o = ZeroTempOrder(((0.0, 0.2), (0.4, 0.9)), 0.3)
    assert o.k == 1
    assert o.breakpoints == (0.0, 0.4)
    assert o.values == (0.2, 0.9)
    assert o.support() == (0.0, 0.4)
    assert o.alpha(0.1) == 0.2 and o.alpha(0.4) == 0.9
    assert o.tail_integral(1.0) == 0.0
    for t in (0.0, 0.2, 0.4, 0.8):
        ref, _ = quad(o.alpha, t, 1.0, points=[0.4], limit=100)
        assert o.tail_integral(t) == pytest.approx(ref, abs=1e-12)
    flat = ZeroTempOrder.constant(0.0, 1.0)
    assert flat.k == 0 and flat.support() == ()


# ------------------------------------------------------- values vs quadrature


def test_cs_value_matches_quadrature():
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        m = random_mixture(rng)
        x = random_order(rng)
        beta = float(rng.uniform(0.3, 3.0))
        closed = cs_value(m, beta, x)
        direct = cs_by_quadrature(m, beta, x)
        assert closed == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_cs_value_constant_term_drops_out():
    x = OrderParameter((0.5,), (0.4,))
    a = cs_value(Mixture({3: 1.0}), 1.3, x)
    b = cs_value(Mixture({3: 1.0}, const_term=2.5), 1.3, x)
    assert a == b


def test_cs_value_at_rs_is_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_mixture(rng)
        beta = float(rng.uniform(0.1, 4.0))
        assert cs_value(m, beta, OrderParameter.rs()) == pytest.approx(
            rs_value(m, beta), rel=1e-14
        )
        assert rs_value(m, beta) == pytest.approx(0.5 * beta**2 * m(1.0), rel=1e-14)


def test_cs_value_rejects_bad_beta():
    with pytest.raises(BadInputError):
        cs_value(pure(3), 0.0, OrderParameter.rs())
    with pytest.raises(BadInputError):
        cs_value(pure(3), -1.0, OrderParameter.rs())


def test_zt_value_matches_quadrature():
    rng = np.random.default_rng(31415)
    for _ in range(20):
        m = random_mixture(rng)
        order = random_zt_order(rng)
        closed = zt_value(m, order)
        direct = zt_by_quadrature(m, order)
        assert closed == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_zt_value_flat_profile_closed_form():
    # With alpha identically zero the functional reduces to a one-variable
    # expression in c whose minimum is sqrt(slope at 1).
    m = pure(2)
    slope = m.eval(1.0, 1)
    for c in (0.3, 1.0 / np.sqrt(slope), 2.0):
        order = ZeroTempOrder.constant(0.0, c)
        assert zt_value(m, order) == pytest.approx(0.5 * (slope * c + 1.0 / c), rel=1e-13)
    assert zt_value(m, ZeroTempOrder.constant(0.0, 1.0 / np.sqrt(slope))) == pytest.approx(
        np.sqrt(slope), rel=1e-13
    )


def scaled(m, factor):
    """The mixture of factor * xi."""
    return Mixture({p: g * factor for p, g in m.coeffs.items()})


def test_scaling_identity_values():
    # Multiplying the covariance by s^2 is the same as heating beta -> s beta.
    rng = np.random.default_rng(99)
    for _ in range(20):
        m = random_mixture(rng)
        x = random_order(rng)
        beta = float(rng.uniform(0.3, 2.0))
        s = float(rng.uniform(0.3, 2.5))
        lhs = cs_value(scaled(m, s * s), beta, x)
        rhs = cs_value(m, s * beta, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_scaling_identity_minimizers():
    m = pure(3)
    s = 1.7
    a = cs_minimize(scaled(m, s * s), T3_BETA)
    b = cs_minimize(m, s * T3_BETA)
    assert a.value == pytest.approx(b.value, rel=1e-9)
    assert a.x_star.qs == pytest.approx(b.x_star.qs, abs=1e-6)


# ------------------------------------------------------------------- gradients


def fd_derivative(f, v, step):
    """Central difference of f at v; at a level within step of 0, where the
    order types reject the negative side, a second-order forward one."""
    if v - step < 0.0:
        return (-3.0 * f(v) + 4.0 * f(v + step) - f(v + 2 * step)) / (2 * step)
    return (f(v + step) - f(v - step)) / (2 * step)


def replaced(seq, i, v):
    out = np.array(seq)
    out[i] = v
    return tuple(out)


def fd_check_cs(m, beta, x, step=1e-5, rtol=1e-5):
    value, grad_q, grad_x, _ = rsb._step_value_grad(m, beta, *x.segments)
    # central differences coordinate by coordinate
    for i in range(x.k):
        fd = fd_derivative(
            lambda v: cs_value(m, beta, OrderParameter(replaced(x.qs, i, v), x.levels)), x.qs[i], step
        )
        assert grad_q[i] == pytest.approx(fd, rel=rtol, abs=1e-7)
        fd = fd_derivative(
            lambda v: cs_value(m, beta, OrderParameter(x.qs, replaced(x.levels, i, v))), x.levels[i], step
        )
        assert grad_x[i] == pytest.approx(fd, rel=rtol, abs=1e-7)
    return value


def fd_check_zt(m, order, step=1e-5, rtol=1e-5):
    _, grad_q, grad_a, grad_c = rsb._step_value_grad(m, None, *order.segments)
    breaks, vals, c = order.breakpoints, order.values, order.c

    def val(bk, vl, cc):
        return zt_value(m, ZeroTempOrder(tuple(zip(bk, vl)), cc))

    for i in range(1, len(breaks)):
        fd = fd_derivative(lambda v: val(replaced(breaks, i, v), vals, c), breaks[i], step)
        assert grad_q[i - 1] == pytest.approx(fd, rel=rtol, abs=1e-7)
    for l in range(len(vals)):
        fd = fd_derivative(lambda v: val(breaks, replaced(vals, l, v), c), vals[l], step)
        assert grad_a[l] == pytest.approx(fd, rel=rtol, abs=1e-7)
    fd = fd_derivative(lambda v: val(breaks, vals, v), c, step)
    assert grad_c == pytest.approx(fd, rel=rtol, abs=1e-7)


# depths beyond the first draws' 1-3, each also with a zero bottom level
DEEP_CASES = [(k, zero) for k in (0, 4, 5, 6) for zero in (False, True)]


def test_cs_gradient_matches_finite_differences():
    rng = np.random.default_rng(555)
    for _ in range(10):
        m = random_mixture(rng)
        x = random_order(rng, k=int(rng.integers(1, 4)), min_gap=0.05)
        beta = float(rng.uniform(0.4, 2.5))
        fd_check_cs(m, beta, x)
    for k, zero_bottom in DEEP_CASES:
        m = random_mixture(rng)
        x = random_order(rng, k=k, min_gap=0.05)
        if zero_bottom and k:
            x = OrderParameter(x.qs, (0.0, *x.levels[1:]))
        fd_check_cs(m, float(rng.uniform(0.4, 2.5)), x)


def test_zt_gradient_matches_finite_differences():
    rng = np.random.default_rng(777)
    for _ in range(10):
        fd_check_zt(random_mixture(rng), random_zt_order(rng, k=int(rng.integers(1, 4))))
    for k, zero_bottom in DEEP_CASES:
        m = random_mixture(rng)
        order = random_zt_order(rng, k=k)
        if zero_bottom:
            order = ZeroTempOrder(
                tuple(zip(order.breakpoints, np.subtract(order.values, order.values[0]))), order.c
            )
        fd_check_zt(m, order)


# --------------------------------------------------- raw-coordinate objective
# The array implementation the scalar objective replaced, kept as its
# reference: the scalar one must give the same values and gradients bit for
# bit, so that every solve takes the same L-BFGS path. The closed form it
# reads is a frozen copy of the kernel with one Mixture.eval per point and
# numpy gradients (only its helpers are renamed): the engine's scalar kernel
# must match it bit for bit as well.


def _frozen_seg_inverse_integral(a: float, ep: float, d: float):
    """Int over one segment of 1/L(t) for linear L with right value ep > 0,
    slope -a <= 0 and width d >= 0, plus partials in (a, ep, d).

    The value is log1p(a d / ep) / a, continued smoothly through a = 0.
    """
    el = ep + a * d
    u = a * d / ep
    if u < 1e-5:
        # series of log1p(u)/u and its a-derivative; exact forms cancel badly here
        val = (d / ep) * (1.0 - u / 2.0 + u * u / 3.0 - u**3 / 4.0 + u**4 / 5.0)
        dval_da = (d * d / (ep * ep)) * (-0.5 + 2.0 * u / 3.0 - 0.75 * u * u + 0.8 * u**3)
    else:
        val = math.log1p(u) / a
        dval_da = (d / el - val) / a
    return val, dval_da, -d / (el * ep), 1.0 / el


def _frozen_tail_breaks(qext: Sequence[float], levels: Sequence[float], tail: float) -> list[float]:
    """P_j = tail + Int_{q_j}^1 of the step function equal to levels[j] on
    [qext[j], qext[j+1]), for j = 0..len(levels); scalar arithmetic."""
    n = len(levels)
    p = [0.0] * (n + 1)
    p[n] = tail
    for j in range(n - 1, -1, -1):
        p[j] = p[j + 1] + levels[j] * (qext[j + 1] - qext[j])
    return p


def frozen_step_value_grad(
    m: Mixture, beta: float | None, qs: Sequence[float], levels: Sequence[float], tail: float
):
    """Closed-form value of either functional with its gradient in
    (q_1..q_k, levels, tail).

    levels holds one value per segment of [0, 1] cut at qs. With beta None
    this is the zero-temperature functional with c = tail, differentiated in
    all k + 1 levels. With beta set, levels[-1] is the pinned top level 1 and
    tail is 0; the top segment's divergent inverse integral is replaced by
    log(1 - q_hat), and only the k free levels are differentiated.
    """
    k = len(qs)
    qext = (0.0, *qs, 1.0)
    xi = [m.eval(t) for t in qext]
    xip = [m.eval(t, 1) for t in qext]

    a_term = sum(levels[l] * (xi[l + 1] - xi[l]) for l in range(k + 1))
    ga_q = [(levels[i - 1] - levels[i]) * xip[i] for i in range(1, k + 1)]
    ga_lev = [xi[l + 1] - xi[l] for l in range(k + 1)]

    p_break = _frozen_tail_breaks(qext, levels, tail)

    # segment j reads P_{j+1}, which contains lev_l d_l for every l > j. adj,
    # the sum of d t_term / d P_{j+1} over j < l, thus gives lev_l adj * d_l
    # and q_{l+1}, which widens d_l and narrows d_{l+1}, (lev_l - lev_{l+1}) * adj
    t_term = 0.0
    gt_q = [0.0] * k
    gt_lev = [0.0] * (k + 1)
    adj = 0.0
    for l in range(k + 1):
        d = qext[l + 1] - qext[l]
        gt_lev[l] = adj * d
        if l < k:
            gt_q[l] = (levels[l] - levels[l + 1]) * adj
        if beta is None or l < k:
            val, dval_da, dval_dep, dval_dd = _frozen_seg_inverse_integral(levels[l], p_break[l + 1], d)
            t_term += val
            gt_lev[l] += dval_da
            if l < k:
                gt_q[l] += dval_dd - levels[l + 1] * dval_dep
            if l:
                gt_q[l - 1] -= dval_dd
            adj += dval_dep

    if beta is None:
        xi1p = m.eval(1.0, 1)
        value = 0.5 * (xi1p * tail + a_term + t_term)
        grad_q = np.array([0.5 * (ga_q[i] + gt_q[i]) for i in range(k)])
        grad_lev = np.array([0.5 * (ga_lev[l] + gt_lev[l]) for l in range(k + 1)])
        return value, grad_q, grad_lev, 0.5 * (xi1p + adj)
    b2 = beta * beta
    value = 0.5 * (b2 * a_term + t_term + (math.log1p(-qext[k]) if k else 0.0))
    grad_q = np.array([0.5 * (b2 * ga_q[i] + gt_q[i]) for i in range(k)])
    if k:
        grad_q[k - 1] -= 0.5 / (1.0 - qext[k])
    grad_lev = np.array([0.5 * (b2 * ga_lev[l] + gt_lev[l]) for l in range(k)])
    return value, grad_q, grad_lev, 0.0


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("beta", [1.7, None], ids=["finite", "zero"])
def test_step_value_grad_is_bit_identical_to_the_frozen_oracle(beta):
    # random layouts at k = 0..8, with a degree-1 mixture, zero bottom levels
    # (the series branch) and numpy-float inputs as the Newton polish passes
    rng = np.random.default_rng(26)
    mixtures = [Mixture({1: 0.3, 2: 1.0}), Mixture({2: 0.5, 4: 0.5}), Mixture(TWO_RSB_MIX)]
    for n in range(1800):
        k = n % 9
        m = mixtures[n % 3] if n % 4 else random_mixture(rng)
        qs = tuple(np.sort(rng.uniform(0.0, Q_CAP, k)).tolist())
        levels = np.sort(rng.uniform(0.0, 1.0 if beta is not None else 3.0, k + 1))
        if n % 5 == 0:
            levels[0] = 0.0
        if beta is not None:
            levels[-1] = 1.0
        levels = tuple(levels.tolist())
        tail = 0.0 if beta is not None else float(rng.uniform(1e-3, 2.0))
        if n % 7 == 0:
            qs, levels = tuple(map(np.float64, qs)), tuple(map(np.float64, levels))
        got = rsb._step_value_grad(m, beta, qs, levels, tail)
        want = frozen_step_value_grad(m, beta, qs, levels, tail)
        assert [_bits(g) for g in got] == [_bits(w) for w in want], (n, k)



def _cum_softmax(raw):
    z = raw - raw.max()
    e = np.exp(z)
    p = e / e.sum()
    return p, np.cumsum(p)[:-1]


def _cum_softmax_vjp(p, partial, g):
    if len(g) == 0:
        return np.zeros_like(p)
    suffix = np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
    return p * (suffix - float(g @ partial))


def _cs_levels(raw):
    p, partial = _cum_softmax(raw)
    return (*partial, 1.0), 0.0, lambda g_lev, g_tail: _cum_softmax_vjp(p, partial, g_lev)


def _zt_levels(raw):
    incr = np.exp(np.clip(raw[:-1], -60.0, 60.0))
    c = float(np.exp(np.clip(raw[-1], -60.0, 60.0)))

    def pullback(g_lev, g_tail):
        return np.concatenate([incr * np.cumsum(g_lev[::-1])[::-1], [g_tail * c]])

    return tuple(np.cumsum(incr)), c, pullback


def reference_raw_objective(raw, m, k, beta):
    n_q = k + 1 if k else 0
    levels, tail, pull_levels = (_zt_levels if beta is None else _cs_levels)(raw[n_q:])
    qs = ()
    if k:
        p, partial = _cum_softmax(raw[:n_q])
        qs = tuple(Q_CAP * partial)
    value, gq, g_lev, g_tail = frozen_step_value_grad(m, beta, qs, levels, tail)
    grad = pull_levels(g_lev, g_tail)
    if k:
        grad = np.concatenate([Q_CAP * _cum_softmax_vjp(p, partial, gq), grad])
    return value, grad


@pytest.mark.parametrize("beta", [1.7, None], ids=["finite", "zero"])
def test_raw_objective_is_bit_identical_to_the_array_reference(beta):
    # k = 7, 8 put 8 and 9 terms under one softmax sum, where numpy sums
    # pairwise; scale 30 drives zero-temperature exponents past the +-60 clip
    rng = np.random.default_rng(2024)
    mixtures = [Mixture({2: 0.5, 4: 0.5}), Mixture({3: 1.0, 4: 0.3}), Mixture(TWO_RSB_MIX)]
    clipped = 0
    for n in range(2100):
        k, scale = n % 9, (1.0, 3.0, 30.0)[n % 3]
        size = (k + 1 if k else 0) + k + 1 + (0 if beta is not None else 1)
        raw = rng.normal(0.0, scale, size)
        clipped += bool(np.any(np.abs(raw) > 60.0))
        m = mixtures[n % len(mixtures)]
        value, grad = rsb._raw_objective(raw, m, k, beta)
        ref_value, ref_grad = reference_raw_objective(raw, m, k, beta)
        assert value == ref_value or (np.isnan(value) and np.isnan(ref_value))
        assert grad.dtype == ref_grad.dtype and np.array_equal(grad, ref_grad, equal_nan=True)
    assert clipped > 50


# ------------------------------------------------------------------ minimizers


def test_minimize_below_critical_is_rs():
    res = cs_minimize(pure(2), 0.5)
    assert res.x_star.k == 0
    assert res.value == pytest.approx(0.125, abs=1e-14)
    assert res.certificate.passes


def test_minimize_pure_cubic_one_step():
    res = cs_minimize(pure(3), T3_BETA)
    assert res.x_star.k == 1
    assert res.value == pytest.approx(T3_VALUE, rel=1e-9)
    assert res.x_star.qs[0] == pytest.approx(T3_Q1, abs=1e-6)
    assert res.x_star.levels[0] == pytest.approx(T3_X0, abs=1e-6)
    assert res.certificate.passes
    assert res.x_star.support() == pytest.approx((0.0, T3_Q1), abs=1e-6)


def test_minimize_two_step_regression():
    m = Mixture(TWO_RSB_MIX)
    res = cs_minimize(m, TWO_RSB_BETA, config=SolverConfig(k_max=3))
    assert res.x_star.k == 2
    assert res.value == pytest.approx(TWO_RSB_VALUE, rel=1e-9)
    assert res.x_star.qs == pytest.approx(TWO_RSB_QS, abs=1e-5)
    assert res.x_star.levels == pytest.approx(TWO_RSB_LEVELS, abs=1e-5)
    assert res.certificate.passes


def test_minimize_raises_when_no_level_certifies():
    # The two-step mixture cannot be certified with at most one step.
    with pytest.raises(SolverFailedError):
        cs_minimize(Mixture(TWO_RSB_MIX), TWO_RSB_BETA, config=SolverConfig(k_max=1))


def test_zero_temp_failure_reports_residuals():
    # {2:.8,4:.2} has no certified constant-alpha solution; the error must
    # say which optimality condition failed, not only the best value.
    with pytest.raises(SolverFailedError) as info:
        zt_minimize(Mixture({2: 0.8, 4: 0.2}), config=SolverConfig(k_max=0))
    msg = str(info.value)
    assert "zero_temp" in msg
    assert "residuals (" in msg
    assert "off-support violation" in msg and "edge residual" in msg


def test_minimize_monotone_in_allowed_steps():
    vals = [cs_minimize(pure(3), T3_BETA, config=SolverConfig(k_max=k)).value for k in (1, 2, 3)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-7
    assert vals[0] == pytest.approx(vals[-1], abs=1e-7)
    two = cs_minimize(Mixture(TWO_RSB_MIX), TWO_RSB_BETA, config=SolverConfig(k_max=2)).value
    three = cs_minimize(Mixture(TWO_RSB_MIX), TWO_RSB_BETA, config=SolverConfig(k_max=3)).value
    assert three <= two + 1e-7 and three == pytest.approx(two, abs=1e-7)


def test_minimize_deterministic_and_seed_stable():
    a = cs_minimize(pure(3), T3_BETA)
    clear_solver_caches()
    b = cs_minimize(pure(3), T3_BETA)
    assert a.value == b.value and a.x_star == b.x_star
    c = cs_minimize(pure(3), T3_BETA, config=SolverConfig(seed=2024))
    assert c.value == pytest.approx(a.value, abs=1e-9)


def test_zero_temp_minimize_pure_cubic():
    res = zt_minimize(pure(3))
    assert res.gs_energy == pytest.approx(T3_GS, rel=1e-9)
    assert res.order.k == 0
    assert res.order.values[0] == pytest.approx(T3_GS_SLOPE, abs=1e-6)
    assert res.order.c == pytest.approx(T3_GS_C, abs=1e-6)
    assert res.certificate.passes
    assert res.certificate.strictly_1rsb is True


def test_zero_temp_cubic_against_direct_search():
    # Independent oracle: with a single step starting at 0 the functional is
    # a two-variable smooth function minimized directly.
    def objective(z):
        a, c = np.exp(z)
        return 0.5 * (3.0 * c + a + np.log((a + c) / c) / a)

    best = scipy_minimize(objective, x0=[-0.5, -1.0], method="Nelder-Mead",
                          options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    assert best.fun == pytest.approx(T3_GS, rel=1e-9)
    assert zt_minimize(pure(3)).gs_energy == pytest.approx(best.fun, rel=1e-9)


def test_zero_temp_quadratic_matches_matrix_edge():
    # Independent oracle: largest eigenvalue of a symmetrized Gaussian matrix,
    # extrapolated in N^(-2/3) across three sizes.
    sizes = (500, 1000, 2000)
    means = []
    for n in sizes:
        acc = []
        for rep in range(3):
            rng = np.random.default_rng(1000 * n + rep)
            j = rng.standard_normal((n, n))
            top = eigsh((j + j.T) * 0.5, k=1, which="LA", return_eigenvectors=False)[0]
            acc.append(top / np.sqrt(n))
        means.append(np.mean(acc))
    design = np.vstack([np.ones(3), np.asarray(sizes, dtype=float) ** (-2 / 3)]).T
    coef, *_ = np.linalg.lstsq(design, np.asarray(means), rcond=None)
    res = zt_minimize(pure(2))
    assert res.gs_energy == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert abs(coef[0] - res.gs_energy) < 0.01
    assert res.certificate.passes
    assert res.certificate.strictly_1rsb is False


def test_zero_temp_monotone_in_allowed_steps():
    vals = [zt_minimize(pure(3), config=SolverConfig(k_max=k)).gs_energy for k in (0, 1, 2)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-7
    assert max(vals) - min(vals) < 1e-7


# ---------------------------------------------------------------- certificates


def test_certificate_passes_at_solver_output():
    res = cs_minimize(pure(3), T3_BETA)
    cert = talagrand_certificate(pure(3), T3_BETA, res.x_star)
    assert cert.passes
    assert cert.kind == "finite_beta"
    assert max(cert.residuals_at_support) <= 1e-6
    assert cert.max_offsupport_violation <= 1e-6


def test_certificate_rejects_perturbed_point():
    res = cs_minimize(pure(3), T3_BETA)
    q1, x0 = res.x_star.qs[0], res.x_star.levels[0]
    shifted = OrderParameter((q1 + 0.05,), (x0,))
    assert not talagrand_certificate(pure(3), T3_BETA, shifted).passes
    reweighted = OrderParameter((q1,), (min(x0 + 0.1, 0.99),))
    assert not talagrand_certificate(pure(3), T3_BETA, reweighted).passes


def test_certificate_rs_flips_at_critical_point():
    m = pure(3)
    rs = OrderParameter.rs()
    assert talagrand_certificate(m, 0.97 * BETA_C_T3, rs).passes
    assert not talagrand_certificate(m, 1.03 * BETA_C_T3, rs).passes


def test_certificate_mesh_floor():
    # both certificates read their profile on the fixed 2000-point grid plus
    # the refinement at the support
    assert rsb.CERT_MESH == 2000
    for top in (1.0 - 1e-9, 1.0):
        ts = rsb._certificate_mesh((0.5,), top)
        assert np.isin(np.linspace(0.0, top, 2000), ts).all()
        assert ts[0] == 0.0 and ts[-1] == top and 0.5 in ts


@pytest.mark.parametrize(
    "field, value",
    [("residuals_at_support", (0.0, float("nan"))), ("max_offsupport_violation", float("nan")),
     ("edge_residual", float("nan"))],
)
def test_certificate_with_a_nan_residual_does_not_pass(field, value):
    clean = dict(
        sup_phi=0.0, residuals_at_support=(0.0, 0.0), max_offsupport_violation=0.0,
        tolerance=1e-6, support=(0.0, 0.5), kind="zero_temp", edge_residual=0.0,
    )
    assert OptimalityCertificate(**clean).passes
    assert not OptimalityCertificate(**{**clean, field: value}).passes


@pytest.mark.parametrize("beta", [float("inf"), float("nan")])
def test_non_finite_beta_is_bad_input(beta):
    with pytest.raises(BadInputError):
        cs_minimize(pure(3), beta)
    with pytest.raises(BadInputError):
        talagrand_certificate(pure(3), beta, OrderParameter.rs())


@pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("inf"), float("nan")])
def test_certificates_reject_a_tolerance_outside_zero_to_infinity(tolerance):
    # an infinite tolerance passed the replica-symmetric point far above beta_c
    with pytest.raises(BadInputError):
        talagrand_certificate(pure(3), 5.0, OrderParameter.rs(), tolerance=tolerance)
    with pytest.raises(BadInputError):
        zero_temp_certificate(pure(3), ZeroTempOrder.constant(1.0, 0.5), tolerance=tolerance)


def test_zero_temp_certificate_rejects_flat_profile_for_cubic():
    # For the pure cubic the flat profile is not optimal at any c.
    slope = pure(3).eval(1.0, 1)
    flat = ZeroTempOrder.constant(0.0, 1.0 / np.sqrt(slope))
    cert = zero_temp_certificate(pure(3), flat)
    assert not cert.passes


def test_zero_temp_certificate_edge_condition():
    res = zt_minimize(pure(3))
    cert = res.certificate
    assert cert.kind == "zero_temp"
    assert cert.edge_residual is not None and cert.edge_residual <= 1e-6


# --------------------------------------------------------------- critical beta


def test_beta_c_quadratic_exact():
    assert beta_c(pure(2)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)


def test_beta_c_cubic_brackets_transition():
    bc = beta_c(pure(3))
    assert bc == pytest.approx(BETA_C_T3, abs=1e-7)
    below = cs_minimize(pure(3), 0.97 * bc)
    assert below.x_star.k == 0
    above = cs_minimize(pure(3), 1.05 * bc)
    assert above.x_star.k >= 1
    assert above.value < rs_value(pure(3), 1.05 * bc)


@pytest.mark.parametrize("coeffs", [{2: 1.0}, {3: 1.0, 4: 0.3}])
def test_beta_c_ignores_a_constant_term(coeffs):
    # the constant cancels in the replica-symmetric test, so neither beta_c
    # nor the regime it selects may depend on it
    bare, offset = Mixture(coeffs), Mixture(coeffs, const_term=0.5)
    assert beta_c(offset) == beta_c(bare)
    beta = 0.9 * beta_c(bare)
    assert FPQuery.detect(offset, beta, beta, 0.3).regime == "high"
    assert FPQuery.detect(bare, beta, beta, 0.3).regime == "high"


def test_beta_c_not_bracketed_cases():
    # beta_c of 1e-4 t^2 is 1/sqrt(2e-4) ~ 70.7, above the fixed bracket's 64
    with pytest.raises(NotBracketedError):
        beta_c(pure(2, 1e-4))
    with pytest.raises(NotBracketedError):
        beta_c(Mixture({1: 0.5, 3: 1.0}))


# ----------------------------------------------------------------- pushforward


def test_pushforward_at_top_atom():
    rep = pushforward_check(pure(3), T3_BETA, T3_Q1)
    assert rep.max_dev <= 5e-4
    assert rep.radial_solution is not None
    assert rep.alpha_l1_dev is not None and rep.c_dev is not None


def test_pushforward_snaps_to_nearby_atom():
    rep = pushforward_check(pure(3), T3_BETA, T3_Q1 + 1e-8)
    assert rep.q == pytest.approx(T3_Q1, abs=1e-6)
    assert rep.max_dev <= 5e-4


def test_pushforward_mid_atom_two_step():
    rep = pushforward_check(Mixture(TWO_RSB_MIX), TWO_RSB_BETA, TWO_RSB_QS[0])
    assert rep.max_dev <= 5e-4
    assert rep.band_solution.x_star.k == 1
    assert rep.radial_solution.order.k == 0


def test_pushforward_at_origin_is_identity():
    rep = pushforward_check(pure(2), 0.5, 0.0)
    assert rep.radial_solution is None and rep.alpha_l1_dev is None
    assert rep.max_dev <= 1e-9


def test_pushforward_rejects_off_support_point():
    with pytest.raises(BadInputError):
        pushforward_check(pure(3), T3_BETA, 0.3)


# ----------------------------------------------------------------------- memo


def test_equal_inputs_share_one_result():
    m = pure(2)
    assert cs_minimize(m, 2) is cs_minimize(m, 2.0, config=SolverConfig())
    assert zt_minimize(m) is zt_minimize(m, config=SolverConfig(k_max=ZT_K_MAX))
    assert beta_c(m) is beta_c(Mixture({2: 1.0}))


def test_a_different_seed_or_field_opt_in_is_a_new_solve():
    m = pure(2)
    base = cs_minimize(m, 0.5)
    misses = rsb._solve.cache_info().misses
    assert cs_minimize(m, 0.5, config=SolverConfig(seed=7)) is not base
    assert cs_minimize(m, 0.5, allow_field=True) is not base
    assert rsb._solve.cache_info().misses == misses + 2


def test_a_failing_solve_raises_on_every_call():
    m = Mixture({2: 0.8, 4: 0.2})
    errors = []
    for _ in range(2):
        with pytest.raises(SolverFailedError) as info:
            zt_minimize(m, config=SolverConfig(k_max=0))
        errors.append(info.value)
    assert errors[0] is not errors[1]


def test_threads_racing_for_one_memo_entry_get_equal_answers():
    # more threads than cores miss on the same keys at once
    m, cfg = pure(2), SolverConfig(starts=2, seed=911)
    betas = (0.4, 0.6) * 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(cs_minimize, m, beta, cfg) for beta in betas]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for beta, res in zip(betas, results):
        again = cs_minimize(m, beta, cfg)
        assert (res.value, res.x_star) == (again.value, again.x_star)


# ---------------------------------------------------------------- warm start


def _record_descents(monkeypatch):
    """Record every L-BFGS descent from here on as (k, raw start bytes)."""
    descents = []
    real_lbfgs = rsb._lbfgs

    def recording(x0, m, k, beta):
        descents.append((k, np.asarray(x0, dtype=float).tobytes()))
        return real_lbfgs(x0, m, k, beta)

    monkeypatch.setattr(rsb, "_lbfgs", recording)
    return descents


@pytest.mark.parametrize(
    "mix, beta, allow_field",
    [({3: 1.0}, T3_BETA, False), ({2: 0.5, 4: 0.5}, 2.0, False), (TWO_RSB_MIX, TWO_RSB_BETA, False),
     ({1: 0.5, 2: 1.0}, 0.5, True)],
)
def test_a_start_at_its_own_answer_takes_one_descent(monkeypatch, mix, beta, allow_field):
    m = Mixture(mix)
    cold = cs_minimize(m, beta, allow_field=allow_field)
    descents = _record_descents(monkeypatch)
    warm = cs_minimize(m, beta, allow_field=allow_field, start=cold.x_star)
    assert [k for k, _ in descents] == [cold.x_star.k]
    assert warm.certificate.passes
    assert warm.value == pytest.approx(cold.value, abs=1e-12)
    assert warm.x_star.qs == pytest.approx(cold.x_star.qs, abs=1e-6)
    assert warm.x_star.levels == pytest.approx(cold.x_star.levels, abs=1e-6)


def test_a_start_that_does_not_certify_falls_back_to_the_ladder(monkeypatch):
    # one atom cannot certify the two-atom answer of {2:.5,4:.5} at beta=2
    m = Mixture({2: 0.5, 4: 0.5})
    descents = _record_descents(monkeypatch)
    clear_solver_caches()
    cold = cs_minimize(m, 2.0)
    ladder = list(descents)
    descents.clear()
    warm = cs_minimize(m, 2.0, start=OrderParameter((0.5,), (0.5,)))
    assert descents[0][0] == 1 and descents[1:] == ladder
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize(
    "start, config",
    [(OrderParameter.rs(), SolverConfig()), (OrderParameter((0.3, 0.8), (0.2, 0.6)), SolverConfig(k_max=1))],
)
def test_a_start_without_a_level_to_continue_goes_straight_to_the_ladder(monkeypatch, start, config):
    # the replica-symmetric start has no breakpoint to descend over, and a
    # start above the atom cap would answer above it
    descents = _record_descents(monkeypatch)
    clear_solver_caches()
    cold = cs_minimize(pure(3), T3_BETA, config=config)
    ladder = list(descents)
    descents.clear()
    warm = cs_minimize(pure(3), T3_BETA, config=config, start=start)
    assert descents == ladder
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize("start", [ZeroTempOrder.constant(0.2, 0.5), (0.5,), {"qs": (0.5,)}, 0.5])
def test_a_start_that_is_not_an_order_parameter_is_bad_input(monkeypatch, start):
    descents = _record_descents(monkeypatch)
    with pytest.raises(BadInputError):
        cs_minimize(pure(3), T3_BETA, start=start)
    assert descents == []


def test_a_call_with_a_start_is_a_new_memo_entry():
    m = pure(3)
    cold = cs_minimize(m, T3_BETA)
    misses = rsb._solve.cache_info().misses
    warm = cs_minimize(m, T3_BETA, start=cold.x_star)
    assert warm is not cold
    assert rsb._solve.cache_info().misses == misses + 1
    # an equal start is an equal input
    again = cs_minimize(m, T3_BETA, start=OrderParameter(cold.x_star.qs, cold.x_star.levels))
    assert again is warm
    assert rsb._solve.cache_info().misses == misses + 1


def _spy_levels(monkeypatch):
    """Clear the memo and record every solve from here on, per atom level k
    in run order: each L-BFGS start as ("start", x0) and each certificate as
    ("cert", passes). A certificate joins the level of the last start (the
    replica-symmetric level 0 has none)."""
    levels = {}
    current = [0]
    real_lbfgs = rsb._lbfgs

    def recording(x0, m, k, beta):
        current[0] = k
        levels.setdefault(current[0], []).append(("start", np.array(x0, copy=True)))
        return real_lbfgs(x0, m, k, beta)

    def spying(real):
        def certificate(*args, **kwargs):
            cert = real(*args, **kwargs)
            levels.setdefault(current[0], []).append(("cert", cert.passes))
            return cert

        return certificate

    monkeypatch.setattr(rsb, "_lbfgs", recording)
    for name in ("talagrand_certificate", "zero_temp_certificate"):
        monkeypatch.setattr(rsb, name, spying(getattr(rsb, name)))
    rsb._solve.cache_clear()
    return levels


def _seeded_draw(cfg, beta, k, s, size):
    sub, scale = (0, 1.5) if beta is not None else (1 << 20, 1.0)
    return stream(cfg.seed, STREAM_SOLVER, sub | (k << 10) | s).normal(0.0, scale, size)


def _check_certify_first(levels, cfg, beta):
    """Every level runs seeded start 0 (and the warm split) and certifies;
    only a failed certificate escalates, to seeded starts 1 .. starts - 1,
    after which the level certifies at most once more. No start runs twice
    within a level. Returns each level's event shape ("s" start, "P"/"F"
    passing/failing certificate)."""
    shapes = {}
    for k, events in levels.items():
        shape = "".join(
            "s" if kind == "start" else ("P" if value else "F") for kind, value in events
        )
        escalated = f"Fs{{{cfg.starts - 1}}}[PF]?" if cfg.starts > 1 else "F"
        # the replica-symmetric level has no start and nothing to escalate to
        assert re.fullmatch(f"[PF]|s{{1,2}}(P|{escalated})", shape), (k, shape)
        x0s = [value for kind, value in events if kind == "start"]
        for i, x0 in enumerate(x0s):
            assert not any(np.array_equal(x0, other) for other in x0s[:i]), (k, i)
        if x0s:
            assert np.array_equal(x0s[0], _seeded_draw(cfg, beta, k, 0, x0s[0].size)), k
        shapes[k] = shape
    return shapes


def test_multistart_keys_are_pinned_per_temperature(monkeypatch):
    # every seeded start of level k, start s is the normal draw keyed by
    # (seed, STREAM_SOLVER, substream | k << 10 | s) at the temperature's
    # scale; a level runs seeded start 0 first, then the warm split of the
    # previous level's answer, then (only if it escalates) seeded starts 1, 2, ...
    starts_by_level = {}
    splits_by_level = {}
    real, real_split = rsb._lbfgs, rsb._split_widest_gap

    def recording(x0, m, k, beta):
        starts_by_level.setdefault(k, []).append(np.array(x0, copy=True))
        return real(x0, m, k, beta)

    def splitting(qs, *args):
        raw = real_split(qs, *args)
        splits_by_level[len(qs) + 1] = raw
        return raw

    monkeypatch.setattr(rsb, "_lbfgs", recording)
    monkeypatch.setattr(rsb, "_split_widest_gap", splitting)
    cfg = SolverConfig(k_max=1, starts=2)
    solves = [
        (lambda: cs_minimize(Mixture({2: 0.5, 4: 0.5}), 2.0, cfg), 2.0, [1]),
        (lambda: zt_minimize(Mixture({2: 0.8, 4: 0.2}), cfg), None, [0, 1]),
    ]
    for solve, beta, k_levels in solves:
        rsb._solve.cache_clear()
        starts_by_level.clear()
        splits_by_level.clear()
        try:
            solve()
        except SolverFailedError:
            pass  # the starts are drawn either way
        assert sorted(starts_by_level) == k_levels
        # the level above an answer with k - 1 breakpoints gets its warm split
        assert sorted(splits_by_level) == [k for k in k_levels if k]
        for k, x0s in starts_by_level.items():
            seeded = x0s
            if k in splits_by_level:
                assert np.array_equal(x0s[1], splits_by_level[k]), k
                seeded = x0s[:1] + x0s[2:]
            assert 1 <= len(seeded) <= cfg.starts
            for s, x0 in enumerate(seeded):
                assert np.array_equal(x0, _seeded_draw(cfg, beta, k, s, x0.size)), (k, s)


def test_a_level_stops_at_its_first_certified_candidate(monkeypatch):
    levels = _spy_levels(monkeypatch)
    res = cs_minimize(Mixture({2: 0.5, 4: 0.5}), 2.0)
    assert res.certificate.passes and res.x_star.k == 2
    shapes = _check_certify_first(levels, SolverConfig(), 2.0)
    # the answer's level certifies its cheap pair (start 0 and the warm
    # split), and no level above it runs
    assert shapes[2] == "ssP" and max(shapes) == 2


def test_a_failing_solve_escalates_every_level_to_all_seeded_starts(monkeypatch):
    levels = _spy_levels(monkeypatch)
    with pytest.raises(SolverFailedError):
        ground_state_point(Mixture({2: 0.8, 4: 0.2}), 1.0)
    cfg = SolverConfig(k_max=ZT_K_MAX)
    shapes = _check_certify_first(levels, cfg, None)
    assert sorted(shapes) == list(range(ZT_K_MAX + 1))
    for k, events in levels.items():
        assert "P" not in shapes[k]
        x0s = [value for kind, value in events if kind == "start"]
        for s in range(cfg.starts):
            draw = _seeded_draw(cfg, None, k, s, x0s[0].size)
            assert sum(np.array_equal(x0, draw) for x0 in x0s) == 1, (k, s)


def test_one_start_per_level_runs_each_start_once(monkeypatch):
    levels = _spy_levels(monkeypatch)
    cfg = SolverConfig(starts=1)
    res = cs_minimize(Mixture({2: 0.5, 4: 0.5}), 2.0, cfg)
    assert res.certificate.passes
    shapes = _check_certify_first(levels, cfg, 2.0)
    # the replica-symmetric level has no start; every other level runs its
    # cheap pair (seeded start 0 and the warm split) once and certifies once
    assert shapes[0] in ("P", "F")
    assert all(shapes[k] in ("ssP", "ssF") for k in range(1, max(shapes) + 1))


@pytest.mark.parametrize(
    "mix, beta, k_levels, exit_seen",
    [({2: 0.5, 4: 0.5}, 2.0, (1, 2, 3), "ABNORMAL"), ({2: 0.3, 3: 0.7}, None, (0, 1, 2, 3), "STOP")],
)
def test_lbfgs_driver_matches_scipy_minimize(mix, beta, k_levels, exit_seen):
    # the engine's L-BFGS-B driver and scipy's minimize with the same settings
    # take the same iterates from every start of every level, including starts
    # that end in a failed line search (ABNORMAL) or at the iteration limit (STOP)
    m, cfg = Mixture(mix), SolverConfig()
    options = {"maxcor": 10, "maxls": 20, "ftol": 1e-16, "gtol": 1e-12, "maxiter": 1000, "maxfun": 15000}
    exits = set()
    for k in k_levels:
        cheap, rest = rsb._level_starts(beta, k, cfg, None)
        for s, x0 in enumerate(cheap + rest):
            ref = scipy_minimize(
                rsb._raw_objective, x0, args=(m, k, beta), jac=True, method="L-BFGS-B", options=options
            )
            x, value, nit, nfev = rsb._lbfgs(x0, m, k, beta)
            assert x.tobytes() == ref.x.tobytes(), (k, s)
            assert (value, nit, nfev) == (ref.fun, ref.nit, ref.nfev), (k, s)
            exits.add(ref.message.split(":")[0])
    assert exit_seen in exits and "CONVERGENCE" in exits


@pytest.mark.parametrize(
    "beta, nit, nfev, value",
    [(2.0, 377, 492, 1.7589055627867116), (None, 297, 387, 1.656998363527511)],
    ids=["finite", "zero"],
)
def test_descent_trajectory_is_pinned(beta, nit, nfev, value):
    # {2:.5,4:.5} at k = 2 from seeded start 0: iteration and evaluation
    # counts and the exact final value, recorded from the array-reference
    # objective, move if any iterate of the descent moves
    raw0 = rsb._level_starts(beta, 2, SolverConfig(), None)[0][0]
    _, got, got_nit, got_nfev = rsb._lbfgs(raw0, Mixture({2: 0.5, 4: 0.5}), 2, beta)
    assert (got_nit, got_nfev, got) == (nit, nfev, value)


def test_polish_driver_matches_scipy_root(monkeypatch):
    # the polish's direct MINPACK driver and scipy's root(method="hybr",
    # tol=1e-13) reach the same point with the same verdict from every state
    # the golden solves settle, and from those of a solve that fails
    calls = []
    real = rsb._hybrd

    def recording(fun, v0):
        start = v0.copy()
        x, converged = real(fun, v0)
        # the driver must leave its start as it was
        assert v0.tobytes() == start.tobytes()
        calls.append((fun, start, x.copy(), converged))
        return x, converged

    monkeypatch.setattr(rsb, "_hybrd", recording)
    clear_solver_caches()
    cs_minimize(Mixture({3: 1.0}), T3_BETA)
    cs_minimize(Mixture(TWO_RSB_MIX), TWO_RSB_BETA, SolverConfig(k_max=3))
    for mix in ({2: 1.0}, {3: 1.0}, {2: 0.5, 3: 0.5}, TWO_RSB_MIX):
        zt_minimize(Mixture(mix))
    ground_state_point(Mixture({2: 0.5, 3: 0.5}), 0.4)
    with pytest.raises(SolverFailedError):
        ground_state_point(Mixture({2: 0.8, 4: 0.2}), 1.0)
    verdicts = set()
    for n, (fun, v0, x, converged) in enumerate(calls):
        ref = scipy_root(fun, v0, method="hybr", tol=1e-13)
        assert x.tobytes() == ref.x.tobytes(), n
        assert converged == ref.success, n
        verdicts.add(converged)
    assert len(calls) > 20 and verdicts == {True, False}


def test_step_table_h_at_a_float_is_bit_identical_to_its_array_path():
    # random tables at both temperatures (top level 1 and tail 0, or free
    # levels and a positive tail), read at random points, below 0, at every
    # breakpoint and just past it (the u < 1e-4 series branch), and at or
    # above 1, as Python floats and as numpy floats; far below 0 the series
    # branch has |u| > 1, where the rounding of its cube shows
    rng = np.random.default_rng(31)
    branches = {True: 0, False: 0}
    for n in range(600):
        k, finite = n % 5, n % 2 == 0
        qs = np.sort(rng.uniform(0.0, 1.0, k))
        levels = np.sort(rng.uniform(0.0, 1.0 if finite else 3.0, k + 1))
        if n % 3 == 0:
            levels[0] = 0.0
        if finite:
            levels[-1] = 1.0
        tail = 0.0 if finite else float(rng.uniform(1e-3, 2.0))
        table = rsb._StepTable(tuple(qs.tolist()), tuple(levels.tolist()), tail)
        ts = np.concatenate([
            rng.uniform(-0.2, 1.2, 12), [-40.0, -2.0, -1e-3, 0.0, 1e-7, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5],
            qs, qs + 1e-7, qs + 1e-3,
        ])
        with np.errstate(divide="ignore", invalid="ignore"):
            want = table.h(ts)
        j = table._locate(ts)
        u = table.levels[j] * (ts - table.qext[j]) / table.p_break[j]
        for i, t in enumerate(ts.tolist()):
            got = (table.h(t), table.h(np.float64(t)))
            assert [_bits(g) for g in got] == [_bits(want[i])] * 2, (n, t)
            branches[bool(u[i] < 1e-4)] += 1
    assert min(branches.values()) > 1000


def test_the_memo_is_bounded():
    for cached in (rsb._solve, rsb._beta_c):
        assert isinstance(cached.cache_info().maxsize, int)


# ------------------------------------------------------------- config and gate


@pytest.mark.parametrize(
    "kw",
    [{"k_max": -1}, {"starts": 0}, {"atom_tol": 0.0}, {"cert_tol": -1e-6}, {"cert_tol": float("nan")}, {"k_max": True},
     {"k_max": 2.5}, {"starts": 1.5}, {"seed": 4.5}, {"seed": True}, {"cert_tol": float("inf")},
     {"atom_tol": float("inf")}],
)
def test_solver_config_rejects_values_the_engine_cannot_run(kw):
    with pytest.raises(BadInputError):
        SolverConfig(**kw)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 42])
def test_solver_seeds_outside_64_bits_are_bad_input(seed):
    # the multistart streams read the seed's low 64 bits, so these would
    # alias -1 -> 2**64 - 1 and 2**64 + 42 -> 42
    with pytest.raises(BadInputError, match="seed"):
        SolverConfig(seed=seed)


def test_the_64_bit_seed_range_keys_distinct_starts():
    low, high = SolverConfig(seed=0), SolverConfig(seed=2**64 - 1)
    for beta in (2.0, None):
        starts = [rsb._level_starts(beta, 1, cfg, None) for cfg in (low, high)]
        assert not np.array_equal(starts[0][0][0], starts[1][0][0])


def test_field_component_requires_opt_in():
    m = Mixture({1: 0.5, 2: 1.0})
    with pytest.raises(RegimeMismatchError):
        cs_value(m, 1.0, OrderParameter.rs())
    with pytest.raises(RegimeMismatchError):
        zt_value(m, ZeroTempOrder.constant(0.2, 0.5))
    with pytest.raises(RegimeMismatchError):
        cs_minimize(m, 1.0)
    assert np.isfinite(cs_value(m, 1.0, OrderParameter.rs(), allow_field=True))


def test_field_minimizer_stationarity():
    # With a degree-1 component all overlap mass moves to a positive point
    # solving beta^2 xi'(q0) (1 - q0)^2 = q0.
    m = Mixture({1: 0.5, 2: 1.0})
    beta = 0.5
    res = cs_minimize(m, beta, allow_field=True)
    assert res.certificate.passes
    assert res.x_star.support() == (res.x_star.qs[0],)
    q0 = res.x_star.qs[0]
    assert beta**2 * m.eval(q0, 1) * (1 - q0) ** 2 == pytest.approx(q0, abs=1e-9)

"""Variational layer: quadrature oracles, gradients, solver regressions."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize as scipy_minimize
from scipy.sparse.linalg import eigsh

from spinglass.errors import (
    BadInputError,
    NotBracketedError,
    RegimeMismatchError,
    SolverFailedError,
)
from spinglass import rsb
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
    cs_value_with_grad,
    pushforward_check,
    rs_value,
    talagrand_certificate,
    zero_temp_certificate,
    zt_minimize,
    zt_value,
    zt_value_with_grad,
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


def test_scaling_identity_values():
    # Multiplying the covariance by s^2 is the same as heating beta -> s beta.
    rng = np.random.default_rng(99)
    for _ in range(20):
        m = random_mixture(rng)
        x = random_order(rng)
        beta = float(rng.uniform(0.3, 2.0))
        s = float(rng.uniform(0.3, 2.5))
        lhs = cs_value(m.scale(s * s), beta, x)
        rhs = cs_value(m, s * beta, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_scaling_identity_minimizers():
    m = pure(3)
    s = 1.7
    a = cs_minimize(m.scale(s * s), T3_BETA)
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
    value, grad_q, grad_x = cs_value_with_grad(m, beta, x)
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
    _, grad_q, grad_a, grad_c = zt_value_with_grad(m, order)
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
# bit, so that every solve takes the same L-BFGS path.


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
    value, gq, g_lev, g_tail = rsb._step_value_grad(m, beta, qs, levels, tail)
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
    with pytest.raises(BadInputError):
        talagrand_certificate(pure(3), 1.0, OrderParameter.rs(), mesh=50)
    with pytest.raises(BadInputError):
        zero_temp_certificate(pure(3), ZeroTempOrder.constant(0.5, 0.5), mesh=50)


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


@pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1.0}, {"beta_max": float("nan")}])
def test_beta_c_rejects_a_tolerance_or_cap_it_cannot_bisect_to(kw):
    # a zero or negative tol used to bisect forever, and beta_max=nan returned nan
    with pytest.raises(BadInputError):
        beta_c(pure(3), **kw)


def test_beta_c_stops_when_the_bracket_reaches_adjacent_floats():
    # a tol below one ulp of beta_c used to bisect forever
    assert beta_c(pure(2), tol=1e-300) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)


def test_beta_c_not_bracketed_cases():
    with pytest.raises(NotBracketedError):
        beta_c(pure(3), beta_max=1.0)
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
    assert beta_c(m) is beta_c(m, tol=1e-8, beta_max=64)


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


def test_the_memo_is_bounded():
    for cached in (rsb._solve, rsb._beta_c):
        assert isinstance(cached.cache_info().maxsize, int)


# ------------------------------------------------------------- config and gate


def test_solver_config_json_round_trip():
    cfg = SolverConfig(k_max=2, starts=4, seed=7)
    again = SolverConfig.from_json(cfg.to_json())
    assert again == cfg
    parsed = SolverConfig.from_json(
        '{"k_max": 3, "starts": 8, "atom_tol": 1e-7, "cert_tol": 1e-6, "seed": 42}'
    )
    assert parsed.k_max == 3 and parsed.starts == 8 and parsed.seed == 42
    assert parsed.atom_tol == 1e-7 and parsed.cert_tol == 1e-6
    partial = SolverConfig.from_json('{"k_max": 2}')
    assert partial.k_max == 2 and partial.starts == SolverConfig().starts
    with pytest.raises(BadInputError):
        SolverConfig.from_json("{not json")


@pytest.mark.parametrize("text", ["3", '["k_max"]', '{"k_max": "x"}', '{"atom_tol": true}'])
def test_solver_config_from_json_rejects_bad_input(text):
    with pytest.raises(BadInputError):
        SolverConfig.from_json(text)


@pytest.mark.parametrize(
    "kw",
    [{"k_max": -1}, {"starts": 0}, {"atom_tol": 0.0}, {"cert_tol": -1e-6}, {"cert_tol": float("nan")}, {"mesh": 50},
     {"k_max": 2.5}, {"starts": 1.5}, {"seed": 4.5}, {"mesh": 2000.5}, {"cert_tol": float("inf")},
     {"atom_tol": float("inf")}],
)
def test_solver_config_rejects_values_the_engine_cannot_run(kw):
    with pytest.raises(BadInputError):
        SolverConfig(**kw)
    with pytest.raises(BadInputError):
        SolverConfig.from_json(json.dumps(kw))


def test_solver_config_to_json_is_unchanged():
    assert SolverConfig().to_json() == (
        '{"atom_tol": 1e-07, "cert_tol": 1e-06, "k_max": 3, "mesh": 2000, "seed": 42, "starts": 8}'
    )


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

"""Complexity layer: log-potential oracle, rate symmetries, curve and
ladder identities, chain bounds, free-energy derivative."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spinglass.errors import (
    BadInputError,
    RegimeMismatchError,
    SingularMatrixError,
    SolverFailedError,
)
from spinglass import landscape, rsb
from spinglass.landscape import (
    ComplexityEval,
    GroundStateCurve,
    chain_bound,
    fprime_identity,
    ground_state_curve,
    ground_state_point,
    identity_esrs,
    omega,
    theta,
    theta_pure,
    theta_surface_csv,
)
from spinglass.mixtures import Mixture, pure
from spinglass.rsb import cs_minimize

# Frozen solver outputs; recomputing them must stay inside the stated bands.
T34_MIX = {3: 1.0, 4: 0.2}
T34_BETA_C = 1.1340578394520238
T3_GS = 1.6569983635274732  # full-radius ground state of the cubic model

TWO_RSB_MIX = {3: 0.5, 30: 0.5}
TWO_RSB_BETA_C = 1.7063213261264512

QUAD_MIX = {2: 0.5, 4: 1.0}  # positive curvature at the origin


def semicircle_log_potential(t):
    def integrand(lam):
        return math.sqrt(4.0 - lam * lam) / (2.0 * math.pi) * math.log(abs(t - lam))

    pts = [t] if abs(t) < 2.0 else None
    val, err = quad(integrand, -2.0, 2.0, points=pts, limit=200)
    assert err < 1e-7
    return val


# ------------------------------------------------------------ log potential


def test_omega_inside_closed_form():
    for t in (0.0, 0.5, -1.0, 2.0, -2.0):
        assert omega(t) == pytest.approx(t * t / 4.0 - 0.5, abs=1e-15)


def test_omega_matches_quadrature_both_branches():
    for t in (0.0, 0.7, 1.9, 2.3, 3.5, -2.7, 6.0):
        assert omega(t) == pytest.approx(semicircle_log_potential(t), abs=5e-8)


@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_omega_even(t):
    assert omega(t) == omega(-t)


def test_omega_continuous_and_one_sided_slopes_at_edge():
    assert abs(omega(2.0 + 1e-12) - omega(2.0 - 1e-12)) < 1e-10
    # the outer-branch slope has a square-root cusp, so a one-sided
    # difference at step h carries an O(sqrt(h)) term; h must sit well
    # below tol^2 for the matching one-sided derivatives to show through
    h = 1e-8
    left = (omega(2.0) - omega(2.0 - h)) / h
    right = (omega(2.0 + h) - omega(2.0)) / h
    assert abs(left - right) < 1e-4
    assert left == pytest.approx(1.0, abs=1e-6)


def test_omega_vectorized_matches_scalar():
    ts = np.array([-3.0, -1.2, 0.0, 1.2, 3.0])
    vals = omega(ts)
    assert vals.shape == ts.shape
    for t, v in zip(ts, vals):
        assert v == omega(float(t))


def test_omega_grows_like_log_far_out():
    # cancellation between the quadratic term and its correction leaves
    # absolute noise of order ulp(t^2/4), so the band is loose
    assert omega(1e6) == pytest.approx(math.log(1e6), abs=1e-3)


# ------------------------------------------------------------------- rates


def test_theta_origin_closed_form():
    m = Mixture({2: 1.0, 3: 1.0})
    ev = theta(m, 0.0, 0.0)
    assert ev.theta == pytest.approx(0.5 * math.log(8.0 / 5.0), abs=1e-14)
    assert ev.branch == "inner"


def test_theta_branch_tag():
    m = Mixture({2: 1.0, 3: 1.0})
    wide = theta(m, 0.0, 3.0 * math.sqrt(m.eval(1.0, 2)))
    assert wide.branch == "outer"


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    st.sampled_from([{2: 1.0, 3: 1.0}, {3: 1.0, 4: 0.2}, {2: 0.5, 4: 1.0, 7: 0.3}]),
)
def test_theta_sign_flip_symmetry(e, r, coeffs):
    m = Mixture(coeffs)
    assert theta(m, e, r).theta == pytest.approx(theta(m, -e, -r).theta, abs=1e-12)


def test_theta_rejects_pure():
    with pytest.raises(SingularMatrixError):
        theta(pure(3), 1.0, 3.0)


def test_theta_pure_input_gates():
    with pytest.raises(BadInputError):
        theta_pure(Mixture({3: 1.0, 4: 0.2}), 1.0)
    with pytest.raises(BadInputError):
        theta_pure(pure(2), 1.0)


def test_theta_pure_matches_small_ridge_limit():
    p3 = pure(3)
    ridge = Mixture({3: 1.0, 4: 1e-8})
    for e in (0.5, 1.0, 1.515):
        assert theta_pure(p3, e) == pytest.approx(theta(ridge, e, 3.0 * e).theta, abs=1e-6)


def test_theta_pure_vanishes_at_ground_state():
    assert abs(theta_pure(pure(3), T3_GS)) < 1e-9


def test_theta_pure_negative_above_ground_state():
    assert theta_pure(pure(3), T3_GS * 1.05) < -1e-4
    assert theta_pure(pure(3), T3_GS * 0.95) > 1e-4


# ----------------------------------------------------- ground-state curves


def test_ground_state_pure_scaling():
    e1, r1, _ = ground_state_point(pure(3), 1.0)
    assert e1 == pytest.approx(T3_GS, abs=1e-9)
    for q in (0.25, 0.49, 0.81):
        e, r, _ = ground_state_point(pure(3), q)
        assert e == pytest.approx(q**1.5 * T3_GS, abs=1e-9)
        # d/dq of q^{3/2} E1, doubled
        assert r == pytest.approx(3.0 * math.sqrt(q) * T3_GS, rel=1e-7)


def test_ground_state_point_rejects_bad_radius():
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(BadInputError):
            ground_state_point(pure(3), q)


def test_curve_monotone_and_slope_consistent():
    m = Mixture(T34_MIX)
    grid = (0.2, 0.4, 0.6, 0.8, 1.0)
    curve = ground_state_curve(m, grid)
    diffs = np.diff(curve.e_star)
    assert (diffs > -1e-6).all()
    assert curve.e_star[-1] > curve.e_star[0]
    # formula slope against a central difference of the energy column
    q = 0.6
    h = 1e-4
    e_up, _, _ = ground_state_point(m, q + h)
    e_dn, _, _ = ground_state_point(m, q - h)
    fd = 2.0 * (e_up - e_dn) / (2.0 * h)
    assert curve.r_star[2] == pytest.approx(fd, rel=1e-5)


def test_curve_workers_match_serial():
    m = Mixture(T34_MIX)
    grid = (0.3, 0.6, 0.9)
    serial = ground_state_curve(m, grid, workers=1)
    threaded = ground_state_curve(m, grid, workers=3)
    assert serial.e_star == threaded.e_star
    assert serial.r_star == threaded.r_star


def test_threaded_curve_recomputes_the_serial_rows():
    # Both runs start from empty solve caches, so the threaded rows are
    # solved in threads rather than read back from the serial run's memo.
    m = Mixture(T34_MIX)
    grid = (0.3, 0.6, 0.9)
    curves = []
    for workers in (3, 1):
        rsb._solve.cache_clear()
        rsb._beta_c.cache_clear()
        curves.append(ground_state_curve(m, grid, workers=workers))
        assert rsb._solve.cache_info().misses >= len(grid)
    threaded, serial = curves
    assert threaded.e_star == serial.e_star
    assert threaded.r_star == serial.r_star


@pytest.mark.parametrize("workers", [1, 3])
def test_curve_failure_carries_the_rows_solved_before_it(workers):
    m = Mixture({2: 0.5, 4: 0.5})  # no atomic order certifies at q = 0.3
    with pytest.raises(SolverFailedError) as info:
        ground_state_curve(m, (0.1, 0.2, 0.3), workers=workers)
    rows = info.value.rows
    assert [row[0] for row in rows] == [0.1, 0.2]
    for q, e, r in rows:
        e_ref, r_ref, _ = ground_state_point(m, q)
        assert (e, r) == (e_ref, r_ref)


@pytest.mark.parametrize("grid", [(0.5, 1.0, 1.5), (0.5, 0.4)])
def test_curve_rejects_its_grid_before_any_solve(grid, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved a grid point")

    monkeypatch.setattr(landscape, "zt_minimize", unreachable)
    with pytest.raises(BadInputError):
        ground_state_curve(pure(3), grid)


def test_curve_csv_round_trip():
    curve = ground_state_curve(pure(3), (0.5, 1.0))
    text = curve.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["q", "E_star", "R_star"]
    assert len(rows) == 3
    assert float(rows[2][1]) == pytest.approx(curve.e_star[1], rel=1e-11)


def test_curve_container_validation():
    with pytest.raises(BadInputError):
        GroundStateCurve((0.5, 0.4), (1.0, 1.1), (1.0, 1.0))
    with pytest.raises(BadInputError):
        GroundStateCurve((0.5, 1.0), (1.0, 0.5), (1.0, 1.0))
    with pytest.raises(BadInputError):
        GroundStateCurve((0.5,), (-1.0,), (1.0,))


def test_theta_surface_csv_shape():
    text = theta_surface_csv(Mixture(T34_MIX), (0.0, 1.0), (0.0, 2.0, 4.0))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["E", "R", "theta"]
    assert len(rows) == 1 + 2 * 3


# ------------------------------------------------------- ladder identities


def test_esrs_pure_bottom_row_is_exact():
    rep = identity_esrs(pure(3), 1.8)
    assert len(rep.ladder) == 1
    row = rep.rows[0]
    assert row.m == 0
    assert row.e_dev < 1e-12
    assert row.r_base is None  # no curvature at the origin
    assert row.r_dev_next < 1e-9


def test_esrs_needs_positive_atoms():
    with pytest.raises(RegimeMismatchError):
        identity_esrs(pure(3), 0.8)


def test_esrs_interior_row_picks_right_endpoint():
    # Interior ladder rows (both endpoints atoms) satisfy the energy
    # identity at any beta, and the radial identity with the slope taken
    # at the right endpoint; the left-endpoint variant misses by O(1).
    m = Mixture(TWO_RSB_MIX)
    rep = identity_esrs(m, 2.0 * TWO_RSB_BETA_C)
    assert len(rep.ladder) == 2
    interior = rep.rows[1]
    assert interior.m == 1
    assert interior.e_dev < 1e-12
    assert interior.r_dev_next < 1e-6
    assert interior.r_dev_base > 1.0
    top = rep.rows[2]
    assert top.e_dev < 2e-2  # finite-beta bias at the outer edge, decays as 1/beta


def test_esrs_top_row_bias_decays_with_beta():
    m = Mixture(T34_MIX)
    coarse = identity_esrs(m, 3.0 * T34_BETA_C).rows[-1].e_dev
    fine = identity_esrs(m, 12.0 * T34_BETA_C).rows[-1].e_dev
    assert fine < coarse / 3.0


def test_esrs_quadratic_origin_row():
    m = Mixture(QUAD_MIX)
    rep = identity_esrs(m, 16.0)
    bottom = rep.rows[0]
    assert bottom.e_dev < 1e-12
    assert bottom.r_base is not None  # origin slope defined here
    assert bottom.r_dev_base > 1.0
    assert bottom.r_dev_next < 1e-9
    assert rep.rows[1].e_dev < 1e-3
    assert min(rep.rows[1].r_dev_base, rep.rows[1].r_dev_next) < 5e-3


def test_esrs_report_bookkeeping():
    m = Mixture(T34_MIX)
    rep = identity_esrs(m, 1.5 * T34_BETA_C)
    assert rep.ladder == tuple(q for q in rep.base.x_star.support() if q > 0.0)
    assert [row.m for row in rep.rows] == list(range(len(rep.ladder) + 1))
    assert rep.rows[0].q_lo == 0.0
    assert rep.rows[-1].q_hi == 1.0
    assert rep.max_e_dev == max(row.e_dev for row in rep.rows)


# ------------------------------------------------------------- chain bound


def test_chain_pure_matches_restricted_sup():
    beta = 1.8
    value = chain_bound(pure(3), beta, eps=1e-3)
    res = cs_minimize(pure(3), beta)
    ladder = tuple(q for q in res.x_star.support() if q > 0.0)
    lev0 = pure(3).level_mixtures(ladder)[0][0]
    e_c, _, _ = ground_state_point(pure(3), ladder[0])
    es = np.linspace(e_c - 2e-3, e_c + 2e-3, 20001)
    oracle = max(theta_pure(lev0, e) for e in es)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_chain_monotone_in_eps_and_small_at_default():
    m = Mixture(T34_MIX)
    beta = 1.5 * T34_BETA_C
    res = cs_minimize(m, beta)
    ladder = tuple(q for q in res.x_star.support() if q > 0.0)
    vals = [chain_bound(m, beta, ladder=ladder, eps=e) for e in (1e-5, 1e-4, 1e-3, 4e-3)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi - lo >= -1e-12
    assert abs(vals[2]) <= 1e-2
    assert abs(vals[0]) <= 1e-4  # the level centers are zeros of the rate


def test_chain_two_rsb_center_variants():
    m = Mixture(TWO_RSB_MIX)
    beta = 2.0 * TWO_RSB_BETA_C
    res = cs_minimize(m, beta)
    ladder = tuple(q for q in res.x_star.support() if q > 0.0)
    lev = chain_bound(m, beta, ladder=ladder, eps=1e-3)
    assert abs(lev) <= 1e-2


def test_chain_base_center_detects_index_slip():
    # the left-endpoint slip itself shows in test_esrs_quadratic_origin_row
    level = chain_bound(Mixture(QUAD_MIX), 8.0, eps=1e-3)
    assert abs(level) <= 1e-2


def test_chain_input_gates():
    with pytest.raises(BadInputError):
        chain_bound(pure(3), 1.8, eps=0.0)
    with pytest.raises(RegimeMismatchError):
        chain_bound(pure(3), 0.5)


# ----------------------------------------------- free-energy derivative


def test_fprime_identity_one_rsb():
    rep = fprime_identity(Mixture(T34_MIX), 1.5 * T34_BETA_C)
    assert rep.q_top > 0.5
    assert rep.deviation < 1e-6


def test_fprime_identity_rs_regime():
    m = Mixture(T34_MIX)
    beta = 0.8 * T34_BETA_C
    rep = fprime_identity(m, beta)
    assert rep.q_top == 0.0
    assert rep.closed_form == pytest.approx(beta * m.eval(1.0), abs=1e-12)
    assert rep.deviation < 1e-9


def test_fprime_step_halving_is_second_order():
    m = Mixture(T34_MIX)
    beta = 1.5 * T34_BETA_C
    devs = [fprime_identity(m, beta, step=h).deviation for h in (8e-3, 4e-3, 2e-3)]
    assert 3.3 < devs[0] / devs[1] < 4.8
    assert 3.3 < devs[1] / devs[2] < 4.8


def test_fprime_rejects_bad_step():
    with pytest.raises(BadInputError):
        fprime_identity(pure(3), 1.8, step=0.0)
    with pytest.raises(BadInputError):
        fprime_identity(pure(3), 1.8, step=2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: identity_esrs(pure(3), float("nan")),
        lambda: fprime_identity(pure(3), 1.8, step=float("nan")),
        lambda: fprime_identity(pure(3), float("inf")),
        lambda: chain_bound(pure(3), 1.8, eps=float("nan")),
        lambda: chain_bound(pure(3), 1.8, eps=float("inf")),
    ],
    ids=["esrs-beta", "fprime-step", "fprime-beta", "chain-eps-nan", "chain-eps-inf"],
)
def test_non_finite_inputs_are_bad_input(call):
    with pytest.raises(BadInputError):
        call()


def test_complexity_eval_requires_finite_rate():
    with pytest.raises(BadInputError):
        ComplexityEval(0.0, 0.0, float("nan"), "inner")

"""Tests for the two-temperature overlap rate function.

Expected numbers fall in three groups: closed-form identities asserted at
machine precision, independently derivable limits (weak coupling, aligned
overlap, weak probe) asserted against their analytic targets, and frozen
regression values measured from this implementation at pinned solver
configurations.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from spinglass import franz_parisi, rsb
from spinglass.errors import (
    BadInputError,
    KMismatchError,
    RegimeMismatchError,
)
from spinglass.franz_parisi import (
    FPQuery,
    FPResult,
    FPTerms,
    fp_high,
    fp_low,
    fp_low_objective,
    fp_potential,
    j_interval,
    tau,
)
from spinglass.mixtures import Mixture
from spinglass.rsb import SolverConfig, cs_minimize

MIX_A = {2: 0.4, 3: 1.0}
BC_A = 0.9261989268085016  # symmetric phase boundary of MIX_A
MIX_B = {2: 0.5, 3: 0.5}
MIX_C = {2: 0.5, 4: 1.0}  # even mixture
TWO_ATOM_MIX = {3: 0.5, 30: 0.5}
TWO_ATOM_BC = 1.7063213261264512

# anchor overlap of MIX_A at twice its boundary temperature
Q1_A = 0.793271434670


# ---------------------------------------------------------------------------
# section geometry
# ---------------------------------------------------------------------------


class TestSectionGeometry:
    def test_tau_at_anchor_center_is_squared_overlap(self):
        for q1, r in [(0.5, 0.3), (0.79, -0.6), (0.2, 0.0), (0.93, 0.85)]:
            assert tau(q1, r, r * q1) == pytest.approx(r * r, abs=1e-15)

    def test_tau_at_interval_endpoints_is_one(self):
        for q1, r in [(0.5, 0.3), (0.79, -0.6), (0.31, 0.0)]:
            lo, hi = j_interval(q1, r)
            assert tau(q1, r, lo) == pytest.approx(1.0, abs=1e-12)
            assert tau(q1, r, hi) == pytest.approx(1.0, abs=1e-12)

    def test_tau_centered_example(self):
        # q1=1/2, r=0, rho=1/4: both squared legs contribute 1/8
        assert tau(0.5, 0.0, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_tau_two_forms_agree(self):
        # centered-quadratic form vs the two-legged squared-length form
        rng = np.random.default_rng(7)
        for _ in range(50):
            q1 = rng.uniform(0.05, 0.95)
            r = rng.uniform(-0.95, 0.95)
            lo, hi = j_interval(q1, r)
            rho = rng.uniform(lo, hi)
            direct = rho * rho / q1 + (r - rho) ** 2 / (1.0 - q1)
            assert tau(q1, r, rho) == pytest.approx(direct, abs=1e-13)

    def test_tau_rejects_bad_anchor(self):
        for q1 in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(BadInputError):
                tau(q1, 0.3, 0.1)

    def test_j_interval_examples(self):
        lo, hi = j_interval(0.5, 0.0)
        assert lo == pytest.approx(-0.5, abs=1e-15)
        assert hi == pytest.approx(0.5, abs=1e-15)
        # interval is centered on r*q1
        for q1, r in [(0.7, 0.4), (0.3, -0.8)]:
            lo, hi = j_interval(q1, r)
            assert (lo + hi) / 2.0 == pytest.approx(r * q1, abs=1e-14)
        # aligned overlap degenerates the interval to a point
        for r in (1.0, -1.0):
            lo, hi = j_interval(0.6, r)
            assert lo == pytest.approx(r * 0.6, abs=1e-12)
            assert hi == pytest.approx(r * 0.6, abs=1e-12)

    def test_j_interval_rejects_bad_inputs(self):
        with pytest.raises(BadInputError):
            j_interval(0.0, 0.3)
        with pytest.raises(BadInputError):
            j_interval(0.5, 1.2)


# ---------------------------------------------------------------------------
# query objects
# ---------------------------------------------------------------------------


class TestQuery:
    def test_validation(self):
        good = dict(beta=1.0, beta_prime=1.0, r=0.3, regime="high")
        FPQuery(**good)
        for bad in (
            dict(good, beta=0.0),
            dict(good, beta=-1.0),
            dict(good, beta_prime=0.0),
            dict(good, r=1.0),
            dict(good, r=-1.5),
            dict(good, regime="mid"),
        ):
            with pytest.raises(BadInputError):
                FPQuery(**bad)

    def test_detect_classifies_by_phase_boundary(self):
        mix = Mixture(MIX_A)
        assert FPQuery.detect(mix, 0.5, 1.0, 0.2).regime == "high"
        assert FPQuery.detect(mix, 2.0 * BC_A, 1.0, 0.2).regime == "low"

    def test_result_rejects_non_finite(self):
        terms = FPTerms(mean=math.nan, free_energy=0.0, volume=0.0)
        with pytest.raises(BadInputError):
            FPResult(value=math.nan, rho_star=None, terms=terms)


# ---------------------------------------------------------------------------
# symmetric regime
# ---------------------------------------------------------------------------


class TestHighRegime:
    def test_zero_overlap_matches_unconstrained_free_energy(self):
        mix = Mixture(MIX_A)
        res = fp_high(mix, 0.5, 1.3, 0.0)
        direct = cs_minimize(mix, 1.3)
        assert res.value == pytest.approx(direct.value, abs=1e-12)
        assert res.value == pytest.approx(1.126181765523, abs=1e-9)
        assert res.rho_star is None
        assert res.terms.mean == 0.0
        assert res.terms.volume == 0.0

    def test_value_approaches_aligned_limit(self):
        # as r -> 1 the section empties and the value tends to the pure
        # mean tilt beta*beta_prime
        mix = Mixture(MIX_B)
        devs = [
            abs(fp_high(mix, 0.5, 0.8, r).value - 0.5 * 0.8)
            for r in (0.9, 0.99, 0.999, 0.9999)
        ]
        assert devs[0] > devs[1] > devs[2] > devs[3]
        assert devs[3] < 1e-4

    def test_weak_coupling_closed_form(self):
        # at small temperatures the section free energy is its symmetric
        # quadratic value, so the whole rate has a closed form. The mean is
        # beta' xi(r)/xi(1) F'(beta), and F'(beta) = beta xi(1) in the
        # symmetric phase, so it is beta beta' xi(r) (xi(1) = 1.5 here)
        mix = Mixture(MIX_C)
        b, r = 0.1, 0.4
        closed = b * b * mix(r) + b * b * (mix(1.0) - mix(r * r)) / 2.0
        got = fp_high(mix, b, b, r).value
        assert got == pytest.approx(closed, abs=5e-6)

    def test_even_mixture_is_even_in_overlap(self):
        mix = Mixture(MIX_C)
        plus = fp_high(mix, 0.4, 0.7, 0.35).value
        minus = fp_high(mix, 0.4, 0.7, -0.35).value
        assert plus == pytest.approx(minus, abs=1e-12)
        # 0.378635178997 was the section free energy plus a mean of
        # beta beta' xi(r)/xi(1); the mean is beta beta' xi(r), larger by
        # 0.4 * 0.7 * xi(0.35) * (1 - 1/1.5) = 0.28 * 0.07625625 / 3 = 0.00711725
        assert plus == pytest.approx(0.378635178997 + 0.00711725, abs=1e-8)

    def test_nonzero_overlap_runs_in_field_mode(self):
        # the section at r != 0 carries a degree-1 term, which only a
        # field-mode solve accepts
        mix = Mixture(MIX_B)
        section = mix.band_section(0.3 * 0.3)
        assert section.has_linear
        res = fp_high(mix, 0.5, 0.8, 0.3)
        direct = cs_minimize(section, 0.8, allow_field=True)
        assert res.terms.free_energy == direct.value

    def test_rejects_cold_sampling_temperature(self):
        mix = Mixture(MIX_A)
        with pytest.raises(RegimeMismatchError):
            fp_high(mix, 2.0 * BC_A, 1.0, 0.3)
        # the gate can be disabled for side-by-side regime comparisons
        res = fp_high(mix, 2.0 * BC_A, 1.0, 0.3, check_regime=False)
        assert math.isfinite(res.value)
        # 0.768444634 carried a mean of beta beta' xi(r)/xi(1); the mean is
        # beta beta' xi(r) (xi(0.3) = 0.063, xi(1) = 1.4), larger by
        # 2 BC_A * 0.063 * (1 - 1/1.4) = 0.0333431614
        assert res.value == pytest.approx(0.768444634 + 2.0 * BC_A * 0.063 * (0.4 / 1.4), abs=1e-7)

    def test_rejects_bad_inputs(self):
        mix = Mixture(MIX_A)
        with pytest.raises(BadInputError):
            fp_high(mix, -0.5, 1.0, 0.3)
        with pytest.raises(BadInputError):
            fp_high(mix, 0.5, 0.0, 0.3)
        with pytest.raises(BadInputError):
            fp_high(mix, 0.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# conditioned regime
# ---------------------------------------------------------------------------


class TestLowRegime:
    def test_frozen_point(self):
        # regression point: maximizer is interior and sits above the
        # anchor-center position r*q1 (frozen from this implementation)
        mix = Mixture(MIX_A)
        res = fp_low(mix, 2.0 * BC_A, 1.0, 0.3, scan_points=16)
        assert res.value == pytest.approx(0.741810558633, abs=1e-9)
        assert res.rho_star == pytest.approx(0.29782027, abs=1e-6)
        assert res.rho_star > 0.3 * Q1_A
        assert res.terms.mean == pytest.approx(0.106718018, abs=1e-6)
        assert res.terms.free_energy == pytest.approx(0.647235814, abs=1e-6)
        assert res.terms.volume == pytest.approx(-0.012143274, abs=1e-6)
        assert res.value == pytest.approx(res.terms.total, abs=1e-15)

    def test_scan_mesh_insensitive(self):
        mix = Mixture(MIX_A)
        v12 = fp_low(mix, 2.0 * BC_A, 1.0, 0.3, scan_points=12, xtol=1e-8).value
        v20 = fp_low(mix, 2.0 * BC_A, 1.0, 0.3, scan_points=20, xtol=1e-8).value
        assert v12 == pytest.approx(v20, abs=1e-8)

    def test_weak_probe_sits_at_anchor_center(self):
        # as beta_prime -> 0 every term vanishes and the maximizer slides
        # to the zero-volume-penalty position r*q1
        mix = Mixture(MIX_A)
        res = fp_low(mix, 2.0 * BC_A, 1e-3, 0.3, scan_points=16)
        assert abs(res.value) < 3e-4
        assert abs(res.rho_star - 0.3 * Q1_A) < 3e-4

    def test_volume_vanishes_at_anchor_center(self):
        mix = Mixture(MIX_A)
        terms = fp_low_objective(mix, 2.0 * BC_A, 1.0, 0.3, 0.3 * Q1_A)
        assert terms.volume == pytest.approx(0.0, abs=1e-15)
        assert terms.mean > 0.0
        assert terms.free_energy > 0.0

    def test_objective_requires_interior_overlap(self):
        mix = Mixture(MIX_A)
        lo, hi = j_interval(Q1_A, 0.3)
        for rho in (lo, hi, lo - 0.1, hi + 0.1):
            with pytest.raises(RegimeMismatchError):
                fp_low_objective(mix, 2.0 * BC_A, 1.0, 0.3, rho)

    def test_rejects_multi_atom_support(self):
        mix = Mixture(TWO_ATOM_MIX)
        with pytest.raises(KMismatchError):
            fp_low(mix, 2.0 * TWO_ATOM_BC, 1.0, 0.3, scan_points=16)

    def test_rejects_warm_sampling_temperature(self):
        mix = Mixture(MIX_A)
        with pytest.raises(RegimeMismatchError):
            fp_low(mix, 0.5, 1.0, 0.3)

    def test_rejects_bad_scan_inputs(self, monkeypatch):
        # every bad input is rejected before the first solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting the input")

        monkeypatch.setattr(franz_parisi, "beta_c", no_solve)
        monkeypatch.setattr(franz_parisi, "cs_minimize", no_solve)
        mix = Mixture(MIX_A)
        bad = [{"scan_points": 2}, {"scan_points": 3.5}, {"scan_points": True}, {"xtol": 0.0},
               {"xtol": -1.0}, {"xtol": math.nan}, {"xtol": math.inf}]
        for kw in bad:
            with pytest.raises(BadInputError):
                fp_low(mix, 2.0 * BC_A, 1.0, 0.3, **kw)
        with pytest.raises(BadInputError):
            fp_low(mix, 2.0 * BC_A, 1.0, 1.0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_warm_query_routes_to_symmetric_evaluation(self):
        mix = Mixture(MIX_A)
        query, res = fp_potential(mix, 0.5, 1.3, 0.0)
        assert query.regime == "high"
        assert res.rho_star is None
        assert res.value == pytest.approx(1.126181765523, abs=1e-9)

    def test_cold_query_routes_to_conditioned_evaluation(self):
        mix = Mixture(MIX_A)
        query, res = fp_potential(mix, 2.0 * BC_A, 1e-3, 0.3)
        assert query.regime == "low"
        assert res.rho_star is not None
        assert abs(res.value) < 3e-4


# ---------------------------------------------------------------------------
# scale covariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "regime, coeffs, lam, beta, beta_prime, r",
    [
        ("high", {3: 1.0}, 2.0, 0.5, 0.7, 0.3),
        ("high", MIX_C, 0.5, 0.4, 0.7, -0.35),
        ("high", MIX_A, 3.0, 0.3, 0.9, 0.5),
        ("low", {3: 1.0}, 2.0, 1.1, 1.1, 0.3),
        ("low", MIX_A, 3.0, 1.0, 1.2, 0.4),
    ],
)
def test_potentials_are_scale_covariant(regime, coeffs, lam, beta, beta_prime, r):
    # H with covariance lam xi at (beta, beta') is sqrt(lam) H' with H' of
    # covariance xi, so it is the model xi at (sqrt(lam) beta, sqrt(lam) beta')
    scaled = Mixture({p: lam * g for p, g in coeffs.items()})
    s = math.sqrt(lam)
    if regime == "high":
        a = fp_high(scaled, beta, beta_prime, r)
        b = fp_high(Mixture(coeffs), s * beta, s * beta_prime, r)
        assert a.terms.mean == pytest.approx(b.terms.mean, rel=0.0, abs=1e-10)
    else:
        # the terms are read at rho_star, where the objective is flat, so
        # only the maximum itself is compared
        a = fp_low(scaled, beta, beta_prime, r, scan_points=8)
        b = fp_low(Mixture(coeffs), s * beta, s * beta_prime, r, scan_points=8)
    assert a.value == pytest.approx(b.value, rel=0.0, abs=1e-10)


@pytest.mark.parametrize(
    "coeffs, beta",
    [({3: 1.0}, 1.16), ({3: 1.0}, 1.18), ({3: 1.0}, 1.20), ({3: 1.0, 4: 0.3}, 1.0658),
     ({3: 1.0, 4: 0.3}, 1.0914), ({2: 0.2, 3: 0.8}, 1.1145), ({2: 0.2, 3: 0.8}, 1.1224)],
)
def test_fp_minimum_sits_at_the_m1_root(coeffs, beta):
    # Above the dynamical transition V(r) = -[FP(r) + log(1 - r^2)/2] at
    # beta' = beta has a secondary minimum at the upper root of the m=1
    # equation beta^2 xi'(q) (1 - q) = q (Franz-Parisi 1995); the lower root
    # is the barrier between it and r = 0.
    m = Mixture(coeffs)

    def m1_gap(q):
        return beta * beta * m.eval(q, 1) * (1.0 - q) / q - 1.0

    peak = minimize_scalar(lambda q: -m1_gap(q), bounds=(1e-3, 1.0 - 1e-3), method="bounded").x
    assert m1_gap(peak) > 0.0
    lower = brentq(m1_gap, 1e-3, peak, xtol=1e-14)
    upper = brentq(m1_gap, peak, 1.0 - 1e-9, xtol=1e-14)

    def potential(r):
        return -(fp_high(m, beta, beta, r).value + 0.5 * math.log(1.0 - r * r))

    found = minimize_scalar(potential, bounds=(lower, 0.95), method="bounded",
                            options={"xatol": 1e-10})
    assert found.x == pytest.approx(upper, rel=0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# continuation of the section solves
# ---------------------------------------------------------------------------

# the benchmark's low-regime case: 1.3 times the boundary of SWEEP_MIX
SWEEP_MIX = {3: 1.0, 4: 0.3}
SWEEP_BETA = 1.432


def _sweep_fp_low():
    return fp_low(Mixture(SWEEP_MIX), SWEEP_BETA, SWEEP_BETA, 0.3, SolverConfig(starts=1),
                  scan_points=3, xtol=1e-2)


class TestContinuation:
    def test_no_warm_section_value_exceeds_the_cold_ladder(self, monkeypatch):
        solves = []
        real = franz_parisi._low_terms

        def recording(fpc, beta_prime, r, rho, cfg, start=None):
            terms, x_star = real(fpc, beta_prime, r, rho, cfg, start)
            solves.append((fpc, beta_prime, r, rho, cfg, start, terms))
            return terms, x_star

        monkeypatch.setattr(franz_parisi, "_low_terms", recording)
        res = _sweep_fp_low()
        warm = [s for s in solves if s[5] is not None]
        # only the first scan point starts cold
        assert solves[0][5] is None and len(warm) == len(solves) - 1
        for fpc, beta_prime, r, rho, cfg, start, terms in warm:
            # the memo-free cold ladder at the same section
            cold = rsb._solve.__wrapped__(fpc.m.fp_mixtures(r, fpc.q1, rho), beta_prime, cfg, True)
            assert terms.free_energy <= cold.value + 1e-12, rho
        # the answer's terms come from the refinement, not from a new solve
        rhos = [s[3] for s in solves]
        assert rhos.count(res.rho_star) == 1
        assert solves[rhos.index(res.rho_star)][6] == res.terms

    def test_each_refined_section_is_solved_once(self, monkeypatch):
        # the golden search reads its bracket's middle point twice; the
        # second read reuses the first solve
        solves = []
        real = franz_parisi._low_terms

        def recording(fpc, beta_prime, r, rho, cfg, start=None):
            solves.append((rho, cfg))
            return real(fpc, beta_prime, r, rho, cfg, start)

        monkeypatch.setattr(franz_parisi, "_low_terms", recording)
        res = _sweep_fp_low()
        scan_cfg = solves[0][1]
        refined = [rho for rho, cfg in solves if cfg != scan_cfg]
        assert len(refined) > 3 and len(set(refined)) == len(refined)
        assert res.rho_star in refined

    def test_objective_evaluations_stay_within_budget(self, monkeypatch):
        rsb._solve.cache_clear()
        rsb._beta_c.cache_clear()
        calls = [0]
        real = rsb._objective

        def counting(*args):
            objective = real(*args)

            def counted(raw):
                calls[0] += 1
                return objective(raw)

            return counted

        monkeypatch.setattr(rsb, "_objective", counting)
        _sweep_fp_low()
        # the cold ladder at every section made 14 173
        assert calls[0] <= 4000

"""Tests for the Monte Carlo laboratory.

Oracles: contraction identities are checked against finite differences and
the exact Euler relation; sampled moments are checked against the analytic
covariance and the conditioning kernels within 3x CLT bands at fixed seeds;
the quadratic model's critical points are checked against its eigensystem.
"""

import itertools
import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from spinglass.conditioning import (
    BandGeometry,
    ConditioningEvent,
    band_kernel,
    chain_constraint_set,
    hessian_decomposition,
)
from spinglass.errors import BadInputError, CapacityExceededError, SingularBlockError
from spinglass import mclab
from spinglass.landscape import ground_state_point
from spinglass.mclab import (
    MCConfig,
    dump_samples,
    empirical_complexity,
    exact_conditional_sampler,
    find_critical_points,
    gibbs_mcmc,
    load_samples,
    overlap_statistics,
    sample_field,
    validate_kernels,
)
from spinglass.mixtures import Mixture

MIX_23 = {2: 0.5, 3: 0.5}


def sphere_point(rng, n, radius=None):
    x = rng.standard_normal(n)
    return x * ((radius if radius is not None else math.sqrt(n)) / np.linalg.norm(x))


def contract_tail(t, x, keep):
    """t contracted with x on every axis past the first keep."""
    while t.ndim > keep:
        t = np.tensordot(t, x, axes=([t.ndim - 1], [0]))
    return t


def reference_terms(field, x):
    """Per-degree (energy, gradient, Hessian) by plain tensordot contractions
    over every slot and ordered pair of slots, independent of the library."""
    out = {}
    for p, tensor in field.tensors.items():
        if p == 0:
            out[p] = (float(tensor), 0.0, 0.0)
            continue
        energy = float(contract_tail(tensor, x, 0))
        grad = sum(contract_tail(np.moveaxis(tensor, slot, 0), x, 1) for slot in range(p))
        pairs = [(a, b) for a in range(p) for b in range(p) if a != b]
        hess = sum(
            (contract_tail(np.moveaxis(tensor, ab, (0, 1)), x, 2) for ab in pairs),
            np.zeros((field.n, field.n)),
        )
        out[p] = (energy, grad, hess)
    return out


def relative_gap(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


class TestStreams:
    def test_deterministic_per_key(self):
        a = mclab._stream(7, 3, 1).standard_normal(8)
        b = mclab._stream(7, 3, 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = mclab._stream(7, 0, 0).standard_normal(8)
        for key in [(8, 0, 0), (7, 1, 0), (7, 0, 1)]:
            assert not np.array_equal(base, mclab._stream(*key).standard_normal(8))

    @pytest.mark.parametrize("key", [(-1, 0, 0), (7, -2, 0), (7, 0, -1)])
    def test_negative_keys_are_bad_input(self, key):
        with pytest.raises(BadInputError):
            mclab._stream(*key)

    def test_key_parts_of_2_to_the_32_or_more_are_bad_input(self):
        # SeedSequence splits such a part into 32-bit words: these two keys
        # would draw the same numbers. The seed stays unbounded
        for key in [(2**32 + 5, 7, mclab._CHAIN_LANE), (5, 1 + 7 * 2**32, mclab._CHAIN_LANE)]:
            with pytest.raises(BadInputError):
                mclab._stream(3, *key)
        with pytest.raises(BadInputError):
            sample_field(Mixture({3: 1.0}), 4, seed=1, field_index=2**32 + 5)
        mclab._stream(2**64, 2**32 - 1, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sample_field(Mixture({3: 1.0}), 8, seed=1.5),
            lambda: sample_field(Mixture({3: 1.0}), 8, seed=True),
            lambda: sample_field(Mixture({3: 1.0}), 8, seed=1, field_index=True),
            lambda: sample_field(Mixture({3: 1.0}), 8, seed=1, field_index=0.5),
            lambda: sample_field(Mixture({3: 1.0}), 8.0, seed=1),
            lambda: exact_conditional_sampler(
                Mixture({3: 1.0}), np.eye(4)[:1] * 2.0, [], [], [("value", 0)], 2.5, seed=0
            ),
            lambda: exact_conditional_sampler(
                Mixture({3: 1.0}), np.eye(4)[:1] * 2.0, [], [], [("value", 0)], 2, seed=0.7
            ),
        ],
        ids=["seed-float", "seed-bool", "field-index-bool", "field-index-float", "n-float",
             "n-draws-float", "sampler-seed-float"],
    )
    def test_a_non_integer_seed_or_count_is_bad_input(self, call):
        # these used to be truncated to integers, or to raise a bare TypeError
        with pytest.raises(BadInputError):
            call()

    @pytest.mark.parametrize("chain_index", [0, 1 << 16, (1 << 16) + 1])
    def test_chain_start_is_off_the_field_finder_and_bootstrap_streams(self, chain_index):
        # chain 0 against field 0's coefficients, 65536 against its finder
        # restarts, 65537 against the bootstrap; a 1e-12 step keeps the
        # first sample at the chain's start
        f = sample_field(Mixture({3: 1.0}), 8, seed=0)
        cfg = MCConfig(steps=1, burn_in=0, thin=1, step_size=1e-12, chain_index=chain_index)
        start = gibbs_mcmc(f, 0.0, cfg).samples[0]
        other = mclab._stream(0, 0, chain_index).standard_normal(8)
        assert not np.allclose(start, other * (math.sqrt(8) / np.linalg.norm(other)), atol=1e-6)

    def test_lane_keys_and_first_draws_are_pinned(self, monkeypatch):
        # (seed, spawn key, first two normal draws) of every stream the lab
        # opens, in call order: field (f, 0), chain (f, c, 1 << 17), finder
        # (f, 1 << 16), bootstrap (0, (1 << 16) + 1), sampler (0, 0, (1 << 17) + 1)
        pinned = [
            (5, (2, 0), [2.14531363898752, -0.8986451092959384]),
            (5, (2, 1, 131072), [1.4641235579007026, 0.7130358657997055]),
            (5, (2, 65536), [-0.2793851082596105, -1.762865892830405]),
            (5, (0, 0), [-0.4324286880180627, 1.092281102662813]),
            (5, (0, 65536), [-0.32059859275607133, 0.8501272558838965]),
            (5, (0, 65537), [0.6953263788525851, -0.9474698968555516]),
            (5, (0, 0, 131073), [-0.522453776482439, 0.5038425769375194]),
        ]
        seen = []
        real = mclab._stream

        def recording(seed, *key):
            seen.append((seed, key, real(seed, *key).standard_normal(2).tolist()))
            return real(seed, *key)

        monkeypatch.setattr(mclab, "_stream", recording)
        m = Mixture({3: 1.0})
        field = sample_field(m, 4, seed=5, field_index=2)
        gibbs_mcmc(field, 0.5, MCConfig(steps=1, burn_in=0, thin=1, chain_index=1))
        find_critical_points(field, restarts=1, max_iter=1)
        empirical_complexity(m, 4, 1.0, [-1, 1], [-1, 1], 1, seed=5, restarts=1, bootstrap=1)
        exact_conditional_sampler(m, np.eye(4)[:1] * 2.0, [], [], [("value", 0)], 1, seed=5)
        assert seen == pinned


# ---------------------------------------------------------------------------
# field samples
# ---------------------------------------------------------------------------


class TestFieldSample:
    def test_redraw_is_identical(self):
        m = Mixture(MIX_23)
        f1 = sample_field(m, 20, seed=11)
        f2 = sample_field(m, 20, seed=11)
        for p in f1.degrees:
            assert np.array_equal(f1.tensors[p], f2.tensors[p])

    def test_capacity_caps(self):
        with pytest.raises(CapacityExceededError):
            sample_field(Mixture({4: 1.0}), 65, seed=0)
        with pytest.raises(CapacityExceededError):
            sample_field(Mixture({3: 1.0}), 129, seed=0)
        with pytest.raises(CapacityExceededError):
            sample_field(Mixture({5: 1.0}), 16, seed=0)
        with pytest.raises(BadInputError):
            sample_field(Mixture({3: 1.0}), 1, seed=0)
        # boundary dimensions are allowed
        sample_field(Mixture({4: 1.0}), 64, seed=0)

    def test_a_degree_above_four_is_over_capacity(self):
        with pytest.raises(CapacityExceededError):
            mclab.FieldSample(n=3, mixture=Mixture({3: 1.0}), seed=0, field_index=0,
                              tensors={5: np.ones((3,) * 5)})

    @pytest.mark.parametrize(
        "tensors",
        [{3: np.ones((4, 4, 4))}, {2: np.ones((5, 4))}, {1: np.ones(6)}, {0: np.ones(2)},
         {0: np.ones((1,))}, {-1: np.ones(5)}, {2.0: np.ones((5, 5))},
         # coefficients that are not finite real numbers: these used to build,
         # and energy returned nan or inf, or read "1.5" and True as numbers
         {3: np.full((5,) * 3, np.nan)}, {2: np.full((5, 5), np.inf)}, {1: np.full(5, -np.inf)},
         {0: float("nan")}, {0: "1.5"}, {0: True}, {1: np.ones(5, dtype=bool)},
         {2: np.ones((5, 5), dtype=complex)}],
        ids=["p3-wrong-n", "p2-ragged", "p1-wrong-n", "p0-vector", "p0-length-one",
             "negative-degree", "float-degree", "p3-nan", "p2-inf", "p1-minus-inf", "p0-nan",
             "p0-string", "p0-bool", "p1-bool", "p2-complex"],
    )
    def test_a_tensor_the_kernels_cannot_read_is_bad_input(self, tensors):
        with pytest.raises(BadInputError):
            mclab.FieldSample(n=5, mixture=Mixture({3: 1.0}), seed=0, field_index=0, tensors=tensors)

    def test_euler_identity_per_degree(self):
        m = Mixture({2: 0.7, 3: 1.0, 4: 0.25})
        f = sample_field(m, 24, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = sphere_point(rng, 24)
            terms = f.energy_terms(x)
            euler = sum(p * h for p, h in terms.items())
            assert abs(float(x @ f.gradient(x)) - euler) < 1e-9

    def test_gradient_matches_finite_differences(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 18, seed=5)
        rng = np.random.default_rng(1)
        x = sphere_point(rng, 18)
        g = f.gradient(x)
        h = 1e-6
        fd = np.array(
            [(f.energy(x + h * e) - f.energy(x - h * e)) / (2 * h) for e in np.eye(18)]
        )
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6

    def test_hessian_symmetric_and_matches_finite_differences(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 14, seed=6)
        rng = np.random.default_rng(2)
        x = sphere_point(rng, 14)
        hess = f.hessian(x)
        assert np.max(np.abs(hess - hess.T)) < 1e-12
        h = 1e-6
        fd = np.array(
            [(f.gradient(x + h * e) - f.gradient(x - h * e)) / (2 * h) for e in np.eye(14)]
        )
        assert np.max(np.abs(fd - hess)) / np.max(np.abs(hess)) < 1e-6

    def test_energy_many_matches_single_evaluations(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 16, seed=8)
        rng = np.random.default_rng(3)
        pts = np.array([sphere_point(rng, 16) for _ in range(5)])
        many = f.energy_many(pts)
        single = np.array([f.energy(p) for p in pts])
        assert np.max(np.abs(many - single)) < 1e-10

    def test_covariance_matches_mixture(self):
        # empirical Cov(H(s), H(s')) / n against n * xi(<s,s'>/n)
        m = Mixture(MIX_23)
        n, n_fields = 32, 2000
        rng = np.random.default_rng(3)
        pts = np.array([sphere_point(rng, n) for _ in range(8)])
        vals = np.empty((n_fields, 8))
        for i in range(n_fields):
            vals[i] = sample_field(m, n, seed=99, field_index=i).energy_many(pts)
        for a in range(4):
            for b in range(a, 6):
                prod = vals[:, a] * vals[:, b]
                emp = prod.mean() / n
                se = prod.std(ddof=1) / math.sqrt(n_fields) / n
                t = float(pts[a] @ pts[b]) / n
                assert abs(emp - m(t)) <= 3.0 * se

    @pytest.mark.parametrize(
        "coeffs, const, n",
        [
            ({1: 0.3, 2: 0.5, 3: 0.7, 4: 0.4}, 0.2, 6),
            ({1: 0.3, 2: 0.5, 3: 0.7, 4: 0.4}, 0.2, 12),
            ({2: 1.0}, 0.0, 12),
            ({3: 1.0}, 0.0, 12),
            ({4: 1.0}, 0.0, 12),
        ],
    )
    def test_kernels_match_tensordot_reference(self, coeffs, const, n):
        f = sample_field(Mixture(coeffs, const_term=const), n, seed=21)
        rng = np.random.default_rng(n)
        pts = np.array([sphere_point(rng, n) for _ in range(4)])
        for x in pts:
            terms = reference_terms(f, x)
            got = f.energy_terms(x)
            assert sorted(got) == sorted(terms)
            for p, (e, _, _) in terms.items():
                assert relative_gap(got[p], e) <= 1e-12
            energy = sum(e for e, _, _ in terms.values())
            assert relative_gap(f.energy(x), energy) <= 1e-12
            assert relative_gap(f.gradient(x), sum(g for _, g, _ in terms.values())) <= 1e-12
            hess = f.hessian(x)
            assert relative_gap(hess, sum(h for _, _, h in terms.values())) <= 1e-12
            assert np.array_equal(hess, hess.T)
        many = f.energy_many(pts)
        want = [sum(e for e, _, _ in reference_terms(f, x).values()) for x in pts]
        assert many.shape == (4,)
        assert relative_gap(many, want) <= 1e-12

    def test_kernels_reject_wrong_shapes(self):
        f = sample_field(Mixture({2: 0.5, 3: 0.5}), 6, seed=1)
        for bad in (np.ones(5), np.ones(7), np.ones((6, 1)), np.ones((1, 6))):
            for kernel in (f.energy, f.energy_terms, f.gradient, f.hessian):
                with pytest.raises(BadInputError):
                    kernel(bad)
        for bad in (np.ones(6), np.ones((3, 5)), np.ones((2, 6, 1))):
            with pytest.raises(BadInputError):
                f.energy_many(bad)

    def test_kernels_read_a_float64_point_as_is_and_an_integer_point_as_floats(self):
        # bools and strings are refused through test_api's array table
        f = sample_field(Mixture({2: 0.5, 3: 0.5}), 4, seed=1)
        x = np.array([0.5, -1.0, 1.5, 0.25])
        assert f._point(x) is x
        ints = [1, 0, -1, 2]
        assert f.energy(ints) == f.energy(np.array(ints, dtype=float))
        assert np.array_equal(f.hessian(ints), f.hessian(np.array(ints, dtype=float)))

    def test_constant_term_sampled(self):
        m = Mixture({2: 1.0}, const_term=0.5)
        f = sample_field(m, 20, seed=10)
        assert 0 in f.tensors
        rng = np.random.default_rng(4)
        x, y = sphere_point(rng, 20), sphere_point(rng, 20)
        shift_x = f.energy_terms(x)[0]
        shift_y = f.energy_terms(y)[0]
        assert shift_x == shift_y  # point-independent random offset
        assert abs((f.energy(x) - shift_x) - float(x @ (f.tensors[2] @ x))) < 1e-9


def raw_draw(m, n, seed, field_index=0):
    """The unsymmetrized coefficients sample_field draws, regenerated from
    the field's stream in the same order and with the same scaling."""
    rng = mclab._stream(seed, field_index, 0)
    raw = {}
    if m.const_term > 0.0:
        raw[0] = math.sqrt(m.const_term * n) * rng.standard_normal()
    for p in m.degrees:
        scale = math.sqrt(m.coeffs[p]) * n ** (-(p - 1) / 2.0)
        raw[p] = scale * rng.standard_normal((n,) * p)
    return raw


MIXED_WITH_CONST = ({1: 0.3, 2: 0.5, 3: 0.7, 4: 0.4}, 0.2)
PURE_AND_MIXED = [({1: 1.0}, 0.0), ({2: 1.0}, 0.0), ({3: 1.0}, 0.0), ({4: 1.0}, 0.0), MIXED_WITH_CONST]
PURE_AND_MIXED_IDS = ["p1", "p2", "p3", "p4", "mixed+const"]


class TestSymmetricTensors:
    @pytest.mark.parametrize(
        "coeffs, const, n",
        [(c, k, n) for n in (7, 2) for c, k in PURE_AND_MIXED]
        + [({3: 1.0}, 0.0, 48), ({4: 1.0}, 0.0, 24)],
        ids=[f"{i}-n{n}" for n in (7, 2) for i in PURE_AND_MIXED_IDS] + ["p3-n48", "p4-n24"],
    )
    def test_tensors_are_symmetric_under_every_slot_permutation(self, coeffs, const, n):
        # the packed form is the draw averaged over slot permutations, and
        # unpacks to a symmetric tensor; (3, 48) and (4, 24) end on a short
        # block of rows (blocks of 7 and 28 rows)
        m = Mixture(coeffs, const_term=const)
        f = sample_field(m, n, seed=4)
        raw = raw_draw(m, n, 4)
        expand, flat = mclab._pairs(n).expand, mclab._pairs(n).flat
        assert f._forms.keys() == f.tensors.keys() == raw.keys()
        for p, form in f._forms.items():
            assert np.array_equal(f.tensors[p], raw[p])
            want = plain_symmetrized(np.asarray(raw[p]))
            dense = np.asarray(form)
            if p == 3:
                want, dense = want.reshape(n, n * n).take(flat, axis=1), form[:, expand]
            elif p == 4:
                want, dense = want.reshape(n * n, n * n)[np.ix_(flat, flat)], form[expand][:, :, expand]
            assert relative_gap(form, want) <= 1e-15
            scale = float(np.max(np.abs(dense)))
            for perm in itertools.permutations(range(p)):
                assert float(np.max(np.abs(dense - dense.transpose(perm)))) <= 1e-15 * scale

    @pytest.mark.parametrize("n", [2, 7, 48, 64])
    def test_degree_3_packing_matches_the_whole_array_offsets(self, n):
        # per-block offsets give the form that offsets built for every row at
        # once give, bit for bit; (3, 48) ends on a short block of rows
        t = np.random.default_rng(n).standard_normal((n, n, n))
        assert np.array_equal(mclab._packed(t), whole_array_packed_3(t))

    @pytest.mark.parametrize("coeffs, const", PURE_AND_MIXED, ids=PURE_AND_MIXED_IDS)
    def test_kernels_match_the_reference_on_the_raw_draw(self, coeffs, const):
        # the finder's one-contraction gradient and Hessian included, on and
        # inside the sphere
        m, n = Mixture(coeffs, const_term=const), 9
        f = sample_field(m, n, seed=21, field_index=2)
        raw = SimpleNamespace(n=n, tensors=raw_draw(m, n, 21, 2))
        rng = np.random.default_rng(5)
        for radius in (math.sqrt(n), math.sqrt(n), 0.7 * math.sqrt(n)):
            x = sphere_point(rng, n, radius)
            terms = reference_terms(raw, x)
            got = f.energy_terms(x)
            assert sorted(got) == sorted(terms)
            for p, (e, _, _) in terms.items():
                assert relative_gap(got[p], e) <= 1e-12
            assert relative_gap(f.energy(x), sum(e for e, _, _ in terms.values())) <= 1e-12
            grad = sum(g for _, g, _ in terms.values())
            hess = sum((h for _, _, h in terms.values()), np.zeros((n, n)))
            finder_grad, finder_hess = f._derivatives(x)
            for got_grad in (f.gradient(x), finder_grad):
                assert relative_gap(got_grad, grad) <= 1e-12
            for got_hess in (f.hessian(x), finder_hess):
                if np.any(hess):
                    assert relative_gap(got_hess, hess) <= 1e-12
                else:
                    assert not np.any(got_hess)

    def test_a_field_built_from_raw_tensors_is_symmetrized_and_leaves_them_unchanged(self):
        m = Mixture(*MIXED_WITH_CONST)
        raw = raw_draw(m, 6, seed=3, field_index=1)
        objects = dict(raw)
        before = {p: np.copy(t) for p, t in raw.items()}
        direct = mclab.FieldSample(n=6, mixture=m, seed=3, field_index=1, tensors=raw)
        sampled = sample_field(m, 6, seed=3, field_index=1)
        assert direct.tensors is not raw
        assert direct.degrees == sampled.degrees == (0, 1, 2, 3, 4)
        for p in sampled.degrees:
            assert np.array_equal(direct.tensors[p], sampled.tensors[p])
        assert raw.keys() == objects.keys()
        for p, t in raw.items():
            assert t is objects[p]
            assert np.array_equal(t, before[p])
        assert all(np.array_equal(direct.tensors[p], raw[p]) for p in raw)
        x = sphere_point(np.random.default_rng(6), 6)
        kernels = (direct.energy_terms(x), direct.gradient(x), direct.hessian(x))
        for t in raw.values():
            if isinstance(t, np.ndarray):
                t *= -3.0
        after = (direct.energy_terms(x), direct.gradient(x), direct.hessian(x))
        assert after[0] == kernels[0]
        assert all(np.array_equal(a, b) for a, b in zip(after[1:], kernels[1:]))

    @pytest.mark.parametrize("coeffs, const", [({4: 1.0}, 0.0), ({2: 0.5, 4: 0.5}, 0.3), ({3: 1.0}, 0.0)],
                             ids=["p4", "p2+p4+const", "p3"])
    def test_a_sampled_field_holds_its_packed_form_and_redraws_tensors_on_read(self, coeffs, const):
        # at (4, 24) the draw is 3.3 MB and the packed form 0.72 MB: the field
        # lets the draw go, and a read of tensors draws it again from the key;
        # it keeps no scratch either (the pair index is shared per n)
        m = Mixture(coeffs, const_term=const)
        mclab._pairs(24)
        tracemalloc.start()
        try:
            f = sample_field(m, 24, seed=1)
            repr(f)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * sum(np.asarray(form).nbytes for form in f._forms.values())
        tensors = f.tensors
        want = sample_field(m, 24, seed=1).tensors
        assert f.degrees == tuple(sorted(tensors)) == tuple(sorted(want))
        for p, t in tensors.items():
            assert type(t) is type(want[p]) and np.array_equal(t, want[p])
            assert np.asarray(t).dtype == np.asarray(want[p]).dtype
        if const:
            assert type(tensors[0]) is float and tensors[0] == raw_draw(m, 24, 1)[0]
        assert f.tensors is tensors and all(f.tensors[p] is t for p, t in tensors.items())

    def test_symmetrizing_keeps_at_most_one_extra_tensor_alive(self):
        # at the (4, 64) cap one tensor is 134 MB: the draw and its symmetric
        # copy may coexist, a third copy may not
        tracemalloc.start()
        try:
            f = sample_field(Mixture({4: 1.0}), 24, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * f.tensors[4].nbytes

    def test_packing_a_degree_3_field_keeps_little_beside_the_draw(self):
        # at (3, 64) the draw is 2.1 MB: the draw, its pair-summed copy, the
        # form and a few row blocks of offsets are alive, nothing per row
        tracemalloc.start()
        try:
            f = sample_field(Mixture({3: 1.0}), 64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * f.tensors[3].nbytes


def whole_array_packed_3(t):
    """Degree-3 packing with the regroup offsets of every row built at once:
    A[c, ab] gathers (a, {c,b}) and (b, {c,a}) of the pair-summed array, at
    flat offsets (row * size + column), cast to int32."""
    n = len(t)
    pairs = mclab._pairs(n)
    size, e = len(pairs.flat), pairs.expand
    offsets = np.stack([e[:, pairs.cols] + pairs.rows * size, e[:, pairs.rows] + pairs.cols * size])
    offsets = offsets.astype(np.int32)
    m = t.reshape(n, n * n)
    base = m.take(pairs.flat, axis=1) + m.take(pairs.cols * n + pairs.rows, axis=1)
    out = base.copy()
    for at in offsets:
        out += base.take(at)
    out *= 1.0 / 6.0
    return out


def plain_symmetrized(t):
    """The coset recursion on whole tensors: at each level, add the
    transposes that swap that slot with every later one, read from the
    tensor as it stood before the level, then scale by 1/p!."""
    out = t.copy()
    for k in range(1, t.ndim):
        out += t.swapaxes(0, k)
    for level in range(1, t.ndim - 1):
        src = out.copy()
        for k in range(level + 1, t.ndim):
            out += src.swapaxes(level, k)
    out *= 1.0 / math.factorial(t.ndim)
    return out


class TestPackedKernels:
    @pytest.mark.parametrize("n", [2, 7, 24])
    def test_kernels_match_dense_contractions_and_the_raw_draw(self, n):
        # the public symmetric tensors and the raw draw define the same
        # polynomial; the packed kernels must agree with both, on and
        # inside the sphere
        m = Mixture(*MIXED_WITH_CONST)
        f = sample_field(m, n, seed=13, field_index=n)
        raw = SimpleNamespace(n=n, tensors=raw_draw(m, n, 13, n))
        rng = np.random.default_rng(n)
        pts = np.array([sphere_point(rng, n, r * math.sqrt(n)) for r in (1.0, 1.0, 0.6, 0.2)])
        for x in pts:
            terms = f.energy_terms(x)
            hess = f.hessian(x)
            assert sorted(terms) == [0, 1, 2, 3, 4]
            assert np.array_equal(hess, hess.T)
            for ref in (reference_terms(f, x), reference_terms(raw, x)):
                for p, (e, _, _) in ref.items():
                    assert relative_gap(terms[p], e) <= 1e-12
                assert relative_gap(f.energy(x), sum(e for e, _, _ in ref.values())) <= 1e-12
                assert relative_gap(f.gradient(x), sum(g for _, g, _ in ref.values())) <= 1e-12
                want = sum((h for _, _, h in ref.values()), np.zeros((n, n)))
                assert relative_gap(hess, want) <= 1e-12
            finder_grad, finder_hess = f._derivatives(x)
            assert np.array_equal(finder_grad, f.gradient(x))
            assert np.array_equal(finder_hess, hess)
        for source in (f, raw):
            want = [sum(e for e, _, _ in reference_terms(source, x).values()) for x in pts]
            assert relative_gap(f.energy_many(pts), want) <= 1e-12
            assert relative_gap(f.energy_many(pts[:1]), want[:1]) <= 1e-12

    def test_the_packed_form_is_built_once_on_the_first_kernel_call(self):
        # built at construction, so no kernel call builds or replaces it
        f = sample_field(Mixture(*MIXED_WITH_CONST), 8, seed=4)
        forms = f._forms
        assert sorted(forms) == [0, 1, 2, 3, 4]
        arrays = {p: forms[p] for p in (1, 2, 3, 4)}
        assert forms[3].shape == (8, 36) and forms[4].shape == (36, 36)
        x = sphere_point(np.random.default_rng(7), 8)
        first = f.energy(x)
        f.energy_terms(x), f.energy_many(x[None]), f.gradient(x), f.hessian(x), f._derivatives(x)
        assert f._forms is forms and all(forms[p] is a for p, a in arrays.items())
        assert f.energy(x) == first

    def test_threads_racing_on_a_fresh_field_agree(self):
        m = Mixture({2: 0.5, 3: 0.7, 4: 0.4})
        x = sphere_point(np.random.default_rng(8), 12)
        solo = sample_field(m, 12, seed=9)
        want = (solo.energy(x), solo.gradient(x), solo.hessian(x))
        fresh = sample_field(m, 12, seed=9)
        barrier = threading.Barrier(6, timeout=30)
        results = [None] * 6

        def work(i):
            barrier.wait()
            kernels = (fresh.energy, fresh.gradient, fresh.hessian)
            results[i] = [kernels[(i + k) % 3](x) for k in range(3)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for i, row in enumerate(results):
            for k, got in enumerate(row):
                assert np.array_equal(got, want[(i + k) % 3])

    def test_threads_racing_on_the_first_read_of_tensors_get_one_draw(self):
        m = Mixture({2: 0.5, 4: 0.4})
        fresh = sample_field(m, 12, seed=9)
        barrier = threading.Barrier(6, timeout=30)
        results = [None] * 6

        def work(i):
            barrier.wait()
            results[i] = fresh.tensors

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(got is fresh.tensors for got in results)
        want = sample_field(m, 12, seed=9).tensors
        assert all(np.array_equal(fresh.tensors[p], want[p]) for p in want)

    def test_kernels_do_not_read_the_dense_tensors_after_packing(self):
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"kernel read tensors.{name}")

            def __getitem__(self, key):
                raise AssertionError("kernel indexed tensors")

        f = sample_field(Mixture(*MIXED_WITH_CONST), 7, seed=5)
        x = sphere_point(np.random.default_rng(9), 7)
        pts = np.array([x, 0.5 * x])
        want = (f.energy(x), f.energy_terms(x), f.energy_many(pts), f.gradient(x), f.hessian(x))
        f.tensors = Unreadable()
        got = (f.energy(x), f.energy_terms(x), f.energy_many(pts), f.gradient(x), f.hessian(x))
        assert got[0] == want[0] and got[1] == want[1]
        for a, b in zip(got[2:], want[2:]):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Gibbs chains
# ---------------------------------------------------------------------------


class TestGibbs:
    def test_config_round_trip_and_validation(self):
        with pytest.raises(BadInputError):
            MCConfig(steps=0)
        with pytest.raises(BadInputError):
            MCConfig(step_size=0.0)

    def test_chain_index_must_be_non_negative(self):
        with pytest.raises(BadInputError):
            MCConfig(chain_index=-1)

    @pytest.mark.parametrize(
        "kw",
        [{"steps": 100.5}, {"steps": True}, {"burn_in": 2.5}, {"thin": 2.5}, {"thin": True},
         {"burn_in": True}, {"chain_index": 1.5}, {"step_size": math.inf},
         {"step_size": math.nan}, {"steps": 5, "thin": 10}],
    )
    def test_config_rejects_values_the_chain_cannot_run(self, kw):
        with pytest.raises(BadInputError):
            MCConfig(**kw)

    def test_a_chain_with_thin_equal_to_steps_keeps_one_sample(self):
        f = sample_field(Mixture({3: 1.0}), 4, seed=0)
        run = gibbs_mcmc(f, 1.0, MCConfig(steps=5, burn_in=0, thin=5))
        assert run.samples.shape == (1, 4)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    def test_chain_rejects_a_beta_it_cannot_run(self, beta):
        f = sample_field(Mixture({3: 1.0}), 4, seed=0)
        with pytest.raises(BadInputError):
            gibbs_mcmc(f, beta, MCConfig(steps=10, burn_in=0, thin=1))

    def test_infinite_temperature_chain_is_uniform(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 48, seed=5)
        run = gibbs_mcmc(f, 0.0, MCConfig(steps=3000, burn_in=500, thin=5))
        assert run.acceptance_rate == 1.0
        norms = np.sum(run.samples**2, axis=1)
        assert np.max(np.abs(norms - 48)) < 1e-10
        assert run.samples.shape == (600, 48)

    def test_independent_chains_decorrelate(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 48, seed=5)
        run_a = gibbs_mcmc(f, 0.0, MCConfig(steps=3000, burn_in=500, thin=5, chain_index=0))
        run_b = gibbs_mcmc(f, 0.0, MCConfig(steps=3000, burn_in=500, thin=5, chain_index=1))
        hist = overlap_statistics(run_a, run_b)
        # uniform measure: overlaps centered at 0 with std about 1/sqrt(n)
        assert abs(hist.mean) < 0.02
        assert 0.7 / math.sqrt(48) < hist.std < 1.4 / math.sqrt(48)
        same = overlap_statistics(run_a, run_a)
        assert same.overlaps.size == 600 * 599 // 2

    def test_weak_coupling_energy_drift(self):
        # time-average of the energy density approaches beta * xi(1) to
        # first order in beta
        m = Mixture(MIX_23)
        f = sample_field(m, 48, seed=1)
        run = gibbs_mcmc(f, 0.15, MCConfig(steps=6000, burn_in=1500, thin=5))
        assert abs(run.energies.mean() / 48 - 0.15 * m(1.0)) < 0.06
        assert -1.0 < run.energy_autocorr < 1.0

    def test_small_steps_keep_consecutive_samples_aligned(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 48, seed=5)
        run = gibbs_mcmc(f, 0.0, MCConfig(steps=200, burn_in=0, thin=1, step_size=1e-3))
        lag1 = np.sum(run.samples[:-1] * run.samples[1:], axis=1) / 48
        assert lag1.min() > 0.999

    def test_manifest_is_json_ready(self):
        import json

        m = Mixture(MIX_23)
        f = sample_field(m, 16, seed=2)
        run = gibbs_mcmc(f, 0.1, MCConfig(steps=50, burn_in=10, thin=5))
        blob = json.dumps(run.manifest())
        assert json.loads(blob)["n"] == 16

    def test_rejects_negative_temperature(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 16, seed=2)
        with pytest.raises(BadInputError):
            gibbs_mcmc(f, -0.5)


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------


class TestCriticalPoints:
    def test_quadratic_model_finds_every_eigen_level(self):
        m = Mixture({2: 1.0})
        f = sample_field(m, 12, seed=21)
        recs = find_critical_points(f, restarts=300)
        matrix = 0.5 * (f.tensors[2] + f.tensors[2].T)
        eigs = np.linalg.eigvalsh(matrix)
        levels = {int(np.argmin(np.abs(eigs - r.energy_density))) for r in recs}
        assert len(levels) == 12
        worst = max(min(abs(r.energy_density - lam) for lam in eigs) for r in recs)
        assert worst < 1e-10
        # locations align with eigendirections: R = 2E for the pure quadratic
        for rec in recs:
            assert abs(rec.radial_derivative - 2.0 * rec.energy_density) < 1e-9

    def test_pure_cubic_radial_identity(self):
        f = sample_field(Mixture({3: 1.0}), 32, seed=7)
        recs = find_critical_points(f, restarts=64)
        assert recs
        for rec in recs:
            assert abs(rec.radial_derivative - 3.0 * rec.energy_density) < 1e-6
            assert rec.tangential_residual <= 1e-8 * math.sqrt(32)

    def test_deduplication_radius(self):
        f = sample_field(Mixture({3: 1.0}), 32, seed=7)
        recs = find_critical_points(f, restarts=64)
        cut = 1e-3 * math.sqrt(32)
        for i, a in enumerate(recs):
            for b in recs[i + 1 :]:
                assert np.linalg.norm(a.location - b.location) >= cut

    def test_best_energy_respects_ground_state_gap(self):
        f = sample_field(Mixture({3: 1.0}), 64, seed=13)
        recs = find_critical_points(f, restarts=96)
        best = max(r.energy_density for r in recs)
        e_star, _, _ = ground_state_point(Mixture({3: 1.0}), 1.0)
        assert best <= e_star + 0.1
        # the uphill warm-up should reach well into the high-energy tail
        assert best > 1.3

    def test_inner_sphere_radius(self):
        f = sample_field(Mixture(MIX_23), 24, seed=9)
        recs = find_critical_points(f, q=0.64, restarts=24)
        assert recs
        for rec in recs:
            assert abs(float(rec.location @ rec.location) - 24 * 0.64) < 1e-8

    def test_validation(self):
        f = sample_field(Mixture(MIX_23), 16, seed=4)
        with pytest.raises(BadInputError):
            find_critical_points(f, q=0.0)
        with pytest.raises(BadInputError):
            find_critical_points(f, restarts=0)

    @pytest.mark.parametrize(
        "kw",
        [dict(restarts=2.5), dict(restarts=True), dict(restarts="4"), dict(max_iter=2.5),
         dict(max_iter=0), dict(max_iter=-1), dict(max_iter=True)],
        ids=["restarts=2.5", "restarts=True", "restarts='4'", "max_iter=2.5", "max_iter=0",
             "max_iter=-1", "max_iter=True"],
    )
    def test_a_count_it_cannot_run_is_bad_input(self, kw):
        f = sample_field(Mixture(MIX_23), 16, seed=4)
        with pytest.raises(BadInputError):
            find_critical_points(f, **kw)


class TestFinderReuse:
    def test_radial_derivative_is_the_converged_iterations(self):
        n, q = 16, 0.81
        f = sample_field(Mixture(MIX_23), n, seed=2)
        recs = find_critical_points(f, q=q, restarts=6)
        assert recs
        for rec in recs:
            x = rec.location
            want = float(x @ f.gradient(x)) / (n * q)
            assert abs(rec.radial_derivative - want) <= 1e-12 * abs(want)

    def test_an_accepted_restart_without_warm_up_takes_no_extra_gradient(self, monkeypatch):
        # the first restart starts cold (no uphill or downhill warm-up), so
        # with the radial derivative reused it never calls the gradient kernel
        f = sample_field(Mixture({2: 1.0}), 8, seed=1)
        calls = []
        real = mclab.FieldSample.gradient

        def counting(self, x):
            calls.append(1)
            return real(self, x)

        monkeypatch.setattr(mclab.FieldSample, "gradient", counting)
        recs = find_critical_points(f, restarts=1)
        assert len(recs) == 1
        assert calls == []


# ---------------------------------------------------------------------------
# empirical complexity
# ---------------------------------------------------------------------------


class TestComplexity:
    E_EDGES = np.linspace(-1.8, 1.8, 7)
    R_EDGES = np.linspace(-5.0, 5.0, 5)

    def run_small(self, **kw):
        args = dict(n_fields=8, seed=3, restarts=12, bootstrap=50)
        args.update(kw)
        return empirical_complexity(
            Mixture(MIX_23), 24, 1.0, self.E_EDGES, self.R_EDGES, **args
        )

    def test_structure_and_determinism(self):
        est = self.run_small()
        assert est.mean_counts.shape == (6, 4)
        assert est.n_fields == 8
        again = self.run_small()
        assert np.array_equal(est.mean_counts, again.mean_counts)
        assert np.array_equal(est.ci_low, again.ci_low)

    def test_log_scaling_and_interval_order(self):
        est = self.run_small()
        finite = np.isfinite(est.log_counts)
        assert finite.any()
        expect = np.log(est.mean_counts[finite]) / 24
        assert np.max(np.abs(est.log_counts[finite] - expect)) < 1e-12
        assert np.all(est.log_counts[~finite] == -np.inf)
        assert np.all(est.ci_low[finite] <= est.log_counts[finite] + 1e-12)
        assert np.all(est.log_counts[finite] <= est.ci_high[finite] + 1e-12)
        assert not np.isnan(est.ci_low).any()
        assert not np.isnan(est.ci_high).any()

    def test_validation(self):
        with pytest.raises(BadInputError):
            empirical_complexity(
                Mixture(MIX_23), 24, 1.0, [0.0], self.R_EDGES, n_fields=2
            )
        with pytest.raises(BadInputError):
            empirical_complexity(
                Mixture(MIX_23), 24, 1.0, self.E_EDGES, self.R_EDGES, n_fields=0
            )

    @pytest.mark.parametrize(
        "kw",
        [dict(bootstrap=-1), dict(bootstrap=True), dict(bootstrap=2.0), dict(bootstrap="5"),
         dict(restarts=0), dict(restarts=-3)],
        ids=["bootstrap=-1", "bootstrap=True", "bootstrap=2.0", "bootstrap='5'", "restarts=0", "restarts=-3"],
    )
    def test_bad_bootstrap_or_restarts_is_rejected_before_any_field(self, kw, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr(mclab, "sample_field", no_draw)
        with pytest.raises(BadInputError):
            empirical_complexity(
                Mixture(MIX_23), 24, 1.0, self.E_EDGES, self.R_EDGES, n_fields=2, **kw
            )

    @pytest.mark.parametrize(
        "edges", [[1.0, 0.0], [0.0, 0.0], [0.0, math.nan], [0.0, math.inf]], ids=["1,0", "0,0", "0,nan", "0,inf"]
    )
    def test_bin_edges_that_are_not_finite_and_increasing_are_rejected_before_any_field(
        self, edges, monkeypatch
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr(mclab, "sample_field", no_draw)
        for e_edges, r_edges in ((edges, self.R_EDGES), (self.E_EDGES, edges)):
            with pytest.raises(BadInputError, match="finite and increasing"):
                empirical_complexity(Mixture(MIX_23), 24, 1.0, e_edges, r_edges, n_fields=2)

    @pytest.mark.parametrize(
        "kw",
        [dict(n_fields=1.5), dict(n_fields=True), dict(n_fields=0), dict(restarts=2.5),
         dict(restarts=True)],
        ids=["n_fields=1.5", "n_fields=True", "n_fields=0", "restarts=2.5", "restarts=True"],
    )
    def test_a_non_integer_count_is_rejected_before_any_field(self, kw, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr(mclab, "sample_field", no_draw)
        with pytest.raises(BadInputError):
            empirical_complexity(
                Mixture(MIX_23), 24, 1.0, self.E_EDGES, self.R_EDGES, **{"n_fields": 2, **kw}
            )


# ---------------------------------------------------------------------------
# exact conditional sampling
# ---------------------------------------------------------------------------


def band_fixture():
    m = Mixture({2: 0.4, 3: 1.0})
    n = 30
    geo = BandGeometry(n=n, ladder=(0.35, 0.6))
    ev = ConditioningEvent(e_vec=(0.5, 0.9), r_vec=(0.8, 0.3), geometry=geo)
    rng = np.random.default_rng(0)
    anchor_basis, _ = np.linalg.qr(np.array(geo.anchors).T)

    def tangent():
        v = rng.standard_normal(n)
        v -= anchor_basis @ (anchor_basis.T @ v)
        return v / np.linalg.norm(v)

    u1 = tangent()
    u2 = tangent()
    u2 -= (u2 @ u1) * u1
    u2 /= np.linalg.norm(u2)
    rad = math.sqrt(n * (1 - geo.q_top))
    y1 = geo.anchors[-1] + rad * u1
    w = 0.3 / (1 - geo.q_top)
    y2 = geo.anchors[-1] + rad * (w * u1 + math.sqrt(1 - w * w) * u2)
    return m, geo, ev, y1, y2


class TestExactSampler:
    def test_band_moments_match_kernel(self):
        m, geo, ev, y1, y2 = band_fixture()
        funcs, labels, vals = chain_constraint_set(geo, ev)
        assert labels[0] == "H@x1" and labels[1] == "dR@x1"
        points = np.vstack([geo.anchors, y1, y2])
        n_draws = 100_000
        draws = exact_conditional_sampler(
            m, points, funcs, vals, [("value", 2), ("value", 3)], n_draws, seed=4
        )
        mean_ref, var_ref = band_kernel(m, geo, y1, y1, ev)
        _, cov_ref = band_kernel(m, geo, y1, y2, ev)
        n = geo.n
        emp_mean = draws[:, 0].mean() / n
        se_mean = draws[:, 0].std(ddof=1) / math.sqrt(n_draws) / n
        assert abs(emp_mean - mean_ref) <= 3.0 * se_mean
        emp_var = draws[:, 0].var(ddof=1) / n
        assert abs(emp_var - var_ref) <= 3.0 * emp_var * math.sqrt(2.0 / n_draws)
        emp_cov = float(np.cov(draws[:, 0], draws[:, 1], ddof=1)[0, 1]) / n
        assert abs(emp_cov - cov_ref) <= 0.01 * abs(cov_ref) + 3.0 * emp_var * math.sqrt(
            2.0 / n_draws
        )

    def test_conditional_hessian_block_is_goe(self):
        # at an on-sphere anchor with pinned value and radial slope, the
        # tangential Hessian block has normalized GOE variances and is
        # uncorrelated with the tangential gradient
        m = Mixture({2: 0.4, 3: 1.0})
        n, depth = 102, 1
        d = n - depth
        dec = hessian_decomposition(m, depth, n)
        x1 = np.zeros(n)
        x1[0] = math.sqrt(n)
        eye = np.eye(n)
        constraints = [("value", 0), ("deriv", 0, x1.copy())]
        values = [n * 0.8, n * 1.1]
        targets = [
            ("deriv", 0, eye[1]),
            ("deriv2", 0, eye[1], eye[1]),
            ("deriv2", 0, eye[1], eye[2]),
            ("deriv2", 0, eye[2], eye[2]),
        ]
        n_draws = 40_000
        draws = exact_conditional_sampler(
            m, x1[None, :], constraints, values, targets, n_draws, seed=9
        )
        scale = n / (d * dec.goe_scale)
        for col, want in ((1, 2.0), (2, 1.0), (3, 2.0)):
            var = draws[:, col].var(ddof=1) * scale
            target = want / dec.goe_dim
            assert abs(var - target) <= 3.0 * target * math.sqrt(2.0 / n_draws)
        gate = 3.0 / math.sqrt(n_draws)
        for col in (1, 2, 3):
            corr = float(np.corrcoef(draws[:, 0], draws[:, col])[0, 1])
            assert abs(corr) <= gate
        assert abs(float(np.corrcoef(draws[:, 1], draws[:, 3])[0, 1])) <= gate

    def test_deterministic_per_seed(self):
        m, geo, ev, y1, _ = band_fixture()
        funcs, _, vals = chain_constraint_set(geo, ev)
        points = np.vstack([geo.anchors, y1])
        a = exact_conditional_sampler(m, points, funcs, vals, [("value", 2)], 64, seed=5)
        b = exact_conditional_sampler(m, points, funcs, vals, [("value", 2)], 64, seed=5)
        c = exact_conditional_sampler(m, points, funcs, vals, [("value", 2)], 64, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_normals_are_not_the_field_coefficients(self):
        m, geo, ev, y1, _ = band_fixture()
        funcs, _, vals = chain_constraint_set(geo, ev)
        points = np.vstack([geo.anchors, y1])
        draws = exact_conditional_sampler(m, points, funcs, vals, [("value", 2)], 64, seed=5)
        coeffs = sample_field(Mixture({3: 1.0}), 4, seed=5).tensors[3].ravel()
        assert abs(float(np.corrcoef(draws[:, 0], coeffs)[0, 1])) < 0.5

    def test_degenerate_constraints_propagate_singular_block(self):
        m, geo, ev, y1, _ = band_fixture()
        funcs, _, vals = chain_constraint_set(geo, ev)
        points = np.vstack([geo.anchors, y1])
        doubled = funcs + [funcs[0]]
        # a repeated constraint at the same value adds nothing; at another value
        # the event is impossible
        plain = exact_conditional_sampler(m, points, funcs, vals, [("value", 2)], 16, seed=0)
        draws = exact_conditional_sampler(
            m, points, doubled, np.append(vals, vals[0]), [("value", 2)], 16, seed=0
        )
        assert np.array_equal(draws, plain)
        with pytest.raises(SingularBlockError):
            exact_conditional_sampler(
                m, points, doubled, np.append(vals, vals[0] + 1.0), [("value", 2)], 16, seed=0
            )

    def test_requires_targets(self):
        m, geo, ev, y1, _ = band_fixture()
        funcs, _, vals = chain_constraint_set(geo, ev)
        points = np.vstack([geo.anchors, y1])
        with pytest.raises(BadInputError):
            exact_conditional_sampler(m, points, funcs, vals, [], 16)
        with pytest.raises(BadInputError):
            exact_conditional_sampler(m, points, funcs, vals, [("value", 2)], 0)


# ---------------------------------------------------------------------------
# overlap statistics and dumps
# ---------------------------------------------------------------------------


class TestOverlapAndDumps:
    def test_overlap_requires_matching_runs(self):
        m = Mixture(MIX_23)
        f_a = sample_field(m, 16, seed=2)
        f_b = sample_field(m, 16, seed=3)
        cfg = MCConfig(steps=40, burn_in=0, thin=4)
        run_a = gibbs_mcmc(f_a, 0.0, cfg)
        run_b = gibbs_mcmc(f_b, 0.0, cfg)
        with pytest.raises(BadInputError):
            overlap_statistics(run_a, run_b)

    def test_histogram_bookkeeping(self):
        m = Mixture(MIX_23)
        f = sample_field(m, 16, seed=2)
        run_a = gibbs_mcmc(f, 0.0, MCConfig(steps=60, burn_in=0, thin=3, chain_index=0))
        run_b = gibbs_mcmc(f, 0.0, MCConfig(steps=60, burn_in=0, thin=3, chain_index=1))
        hist = overlap_statistics(run_a, run_b)
        assert hist.counts.sum() == hist.overlaps.size == 400
        assert hist.edges.shape == (42,)
        assert 0.0 <= hist.mass_in(-1.0, 1.0) <= 1.0
        assert hist.mass_in(-1.0, 1.0) == 1.0

    def test_a_run_compared_with_itself_needs_two_samples(self):
        f = sample_field(Mixture(MIX_23), 8, seed=2)
        run = gibbs_mcmc(f, 0.0, MCConfig(steps=5, burn_in=0, thin=5))
        assert run.samples.shape[0] == 1
        with pytest.raises(BadInputError):
            overlap_statistics(run, run)
        pair = gibbs_mcmc(f, 0.0, MCConfig(steps=10, burn_in=0, thin=5))
        assert overlap_statistics(pair, pair).overlaps.size == 1

    @pytest.mark.parametrize("beta", [0.5, 2.0, 4.0])
    def test_a_run_compared_with_itself_keeps_the_pairs_at_overlap_one(self, beta):
        # a rejected move repeats the state, and x.x/n of a repeated state
        # can round to just above 1; such pairs belong in the top bin
        f = sample_field(Mixture({3: 1.0}), 32, seed=1)
        run = gibbs_mcmc(f, beta, MCConfig(steps=400, burn_in=100, thin=1))
        hist = overlap_statistics(run, run)
        pairs = 400 * 399 // 2
        assert hist.counts.sum() == hist.overlaps.size == pairs
        assert -1.0 <= hist.overlaps.min() and hist.overlaps.max() <= 1.0
        assert hist.mass_in(0.9, 1.0) == np.count_nonzero(hist.overlaps >= 0.9) / pairs
        i, j = np.triu_indices(400, k=1)
        repeats = np.count_nonzero(np.all(run.samples[i] == run.samples[j], axis=1))
        assert repeats > 0 and hist.counts[-1] >= repeats

    def test_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((5, 7))
        path = tmp_path / "dump.sgmc"
        dump_samples(path, samples)
        raw = path.read_bytes()
        assert raw[:4] == b"SGMC"
        assert len(raw) == 16 + 5 * 7 * 8
        loaded = load_samples(path)
        assert np.array_equal(loaded, samples)
        loaded[0, 0] = -1.0  # writable copy

    def test_dump_rejects_corruption(self, tmp_path):
        path = tmp_path / "dump.sgmc"
        dump_samples(path, np.zeros((2, 3)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        bad = tmp_path / "bad.sgmc"
        bad.write_bytes(bytes(blob))
        with pytest.raises(BadInputError):
            load_samples(bad)
        trunc = tmp_path / "trunc.sgmc"
        trunc.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(BadInputError):
            load_samples(trunc)


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------


def test_validate_kernels_records_every_test_in_order():
    tests = validate_kernels(0)
    assert [t["name"] for t in tests] == [
        "euler-identity",
        "field-covariance",
        "band-kernel-mean",
        "band-kernel-variance",
        "hessian-goe-variance",
        "gradient-hessian-independence",
        "gibbs-uniform-norms",
        "gibbs-uniform-acceptance",
    ]
    for t in tests:
        assert set(t) == {"name", "statistic", "gate", "pass"}
        assert t["pass"] is True and t["statistic"] <= t["gate"], t

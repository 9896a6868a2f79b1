"""Mixture algebra: exact coefficient transforms checked against direct
polynomial evaluation (the independent route) on dense meshes."""
from __future__ import annotations

import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinglass import Mixture, MixtureError, mixtures, pure
from spinglass.errors import SingularMatrixError
from spinglass.mixtures import sigma_inverse

MESH = np.linspace(0.0, 1.0, 21)


def random_mixture(rng: np.random.Generator, max_deg: int = 8) -> Mixture:
    degs = rng.choice(np.arange(2, max_deg + 1), size=rng.integers(1, 4), replace=False)
    return Mixture({int(p): float(rng.uniform(0.1, 2.0)) for p in degs})


# ------------------------------------------------------------------ eval

def test_eval_orders_quadratic_cubic():
    xi = Mixture({2: 1.0, 3: 1.0})
    assert xi.eval(0.5) == pytest.approx(0.375, abs=1e-15)
    assert xi.eval(0.5, 1) == pytest.approx(1.75, abs=1e-15)
    assert xi.eval(0.5, 2) == pytest.approx(5.0, abs=1e-15)
    assert xi.eval(0.5, 3) == pytest.approx(6.0, abs=1e-15)
    assert xi.eval(0.5, 4) == 0.0


def test_eval_vectorized_matches_scalar():
    xi = Mixture({2: 0.3, 5: 1.2})
    vec = xi.eval(MESH, 2)
    for t, v in zip(MESH, vec):
        assert v == pytest.approx(xi.eval(float(t), 2), abs=1e-14)


def test_eval_const_only_at_order_zero():
    xi = Mixture({2: 1.0}, const_term=0.7)
    assert xi.eval(0.0) == pytest.approx(0.7)
    assert xi.eval(0.0, 1) == 0.0


def test_eval_rejects_negative_order():
    with pytest.raises(MixtureError):
        Mixture({2: 1.0}).eval(0.5, -1)


def dense_eval(xi: Mixture, t, order: int = 0):
    """Reference: Horner over all DEGREE_CAP + 1 dense coefficients,
    rescaled by falling factorials on every call."""
    c = np.asarray(xi._c)
    if order > 0:
        p = np.arange(len(c), dtype=float)
        fac = np.ones_like(p)
        for j in range(order):
            fac *= np.clip(p - j, 0.0, None)
        c = (c * fac)[order:]
    if len(c) == 0:
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    for coef in c[::-1]:
        out = out * t_arr + coef
    return float(out) if np.ndim(t) == 0 else out


EXACT_MIXTURES = [
    Mixture({2: 0.5, 4: 0.5}),
    Mixture({3: 0.5, 30: 0.5}),
    Mixture({2: 1.0, 5: 0.3}, const_term=0.7),
    Mixture({1: 0.2, 3: 0.8}),
    Mixture(),
]
SCALAR_TS = [0.0, 0.37, 1.0, -0.6, -1.0, 1.8, np.float64(0.37), np.float32(-0.25), np.array(0.81), np.array(-1.0)]
ARRAY_TS = [np.linspace(-1.0, 1.0, 17), np.array([1.0]), np.linspace(0.0, 1.0, 6).reshape(2, 3)]


def exact_orders(xi: Mixture) -> list[int]:
    return [*range(xi.max_degree + 3), 33]


@pytest.mark.parametrize("xi", EXACT_MIXTURES, ids=repr)
def test_eval_bit_identical_to_dense_horner(xi):
    for order in exact_orders(xi):
        for t in SCALAR_TS:
            got = xi.eval(t, order)
            assert type(got) is float
            assert got == dense_eval(xi, t, order), (order, t)
        for t in ARRAY_TS:
            got = xi.eval(t, order)
            want = dense_eval(xi, t, order)
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (order, t)


def test_eval_cache_is_thread_safe():
    # eight threads on a fresh mixture miss the per-order cache together
    xi = Mixture({2: 0.3, 3: 0.5, 7: 0.2})
    orders = exact_orders(xi)
    barrier = threading.Barrier(8, timeout=30)
    results = [None] * 8

    def work(i):
        barrier.wait()
        results[i] = [xi.eval(0.37, orders[(i + k) % len(orders)]) for k in range(len(orders))]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
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
        want = [dense_eval(xi, 0.37, orders[(i + k) % len(orders)]) for k in range(len(orders))]
        assert row == want


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=3.0),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_eval_first_derivative_matches_finite_difference(coeffs, t):
    xi = Mixture(coeffs)
    h = 1e-6
    fd = (xi.eval(t + h) - xi.eval(t - h)) / (2 * h)
    scale = 1.0 + abs(xi.eval(t, 1))
    assert abs(xi.eval(t, 1) - fd) <= 1e-6 * scale


# ----------------------------------------------------------- construction

def test_rejects_negative_coefficient():
    with pytest.raises(MixtureError):
        Mixture({2: -0.5})


@pytest.mark.parametrize(
    "coeffs, const_term", [({2: float("nan")}, 0.0), ({2: float("inf")}, 0.0), ({2: 1.0}, float("nan"))]
)
def test_rejects_non_finite_coefficient(coeffs, const_term):
    with pytest.raises(MixtureError):
        Mixture(coeffs, const_term=const_term)


def test_rejects_degree_zero_key():
    with pytest.raises(MixtureError):
        Mixture({0: 1.0})


def test_rejects_over_cap():
    with pytest.raises(MixtureError):
        Mixture({40: 1.0})
    # the cap is degree 32
    assert Mixture({32: 1.0}).max_degree == 32
    with pytest.raises(MixtureError):
        Mixture({33: 1.0})


@pytest.mark.parametrize(
    "build",
    [
        lambda: Mixture({2.7: 0.5}),
        lambda: Mixture({2.0: 0.5}),
        lambda: Mixture({True: 0.5}),
        lambda: Mixture({"2": 0.5}),
        lambda: Mixture({2: True}),
        lambda: Mixture({2: "0.5"}),
        lambda: Mixture({2: 0.5}, const_term=True),
        lambda: Mixture({2: 0.5}, const_term="0.1"),
        lambda: mixtures.tau(0.5, True, 0.3),
        lambda: mixtures.tau("0.5", 0.3, 0.1),
        lambda: Mixture({2: 1.0}).scale_domain("0.5"),
    ],
    ids=["degree 2.7", "degree 2.0", "degree True", "degree str", "coeff True", "coeff str",
         "const True", "const str", "tau r True", "tau q1 str", "scale_domain str"],
)
def test_a_non_integer_degree_or_non_real_value_is_rejected(build):
    # a float degree is not truncated to another model, and a bool or a
    # string is not read as a number
    with pytest.raises(MixtureError):
        build()


def test_numpy_integer_degrees_and_real_coefficients_are_accepted():
    assert Mixture({np.int64(2): np.float64(0.5), 4: 1}, const_term=0) == Mixture({2: 0.5, 4: 1.0})


def test_sequence_constructor():
    # a mapping degree -> coefficient is the only form; a sequence is rejected
    for coeffs in ([0.0, 1.0, 2.0], (1.0,), np.array([0.5, 0.5]), "2:1", 1.0):
        with pytest.raises(MixtureError):
            Mixture(coeffs)


def test_immutability():
    xi = Mixture({2: 1.0})
    with pytest.raises(AttributeError):
        xi._c = (0.0,)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
def test_copy_and_pickle_rebuild_an_equal_mixture(copier):
    xi = Mixture({1: 0.25, 2: 0.5, 7: 1.5}, const_term=0.3)
    xi.eval(0.4, 1)  # warm the original's cache
    twin = copier(xi)
    assert twin is not xi
    assert twin == xi and hash(twin) == hash(xi)
    assert twin._tables == {}
    t = np.linspace(-1.0, 1.0, 9)
    for order in range(3):
        assert twin.eval(0.37, order) == xi.eval(0.37, order)
        assert twin.eval(t, order).tobytes() == xi.eval(t, order).tobytes()


# ------------------------------------------------------------- transforms

def test_shift_restrict_dual_route():
    rng = np.random.default_rng(7)
    for _ in range(20):
        xi = random_mixture(rng)
        q = float(rng.uniform(0.05, 0.95))
        xi_q, xi_bar, xi_hat = xi.shift_restrict(q)
        direct = xi.eval(MESH + q) - xi.eval(q) - xi.eval(q, 1) * MESH
        assert np.max(np.abs(xi_q.eval(MESH) - direct)) < 1e-12
        assert np.max(np.abs(xi_bar.eval(MESH) - xi_q.eval((1 - q) * MESH))) < 1e-12
        assert np.max(np.abs(xi_hat.eval(MESH) - xi.eval(q * MESH))) < 1e-12


def test_shift_restrict_no_constant_or_linear():
    xi = Mixture({2: 1.0, 3: 0.5, 7: 0.2})
    xi_q, _, _ = xi.shift_restrict(0.4)
    assert xi_q.const_term == 0.0
    assert not xi_q.has_linear


def test_shift_restrict_derivative_consistency():
    # xi_q'(t) = xi'(t+q) - xi'(q) and xi_q''(t) = xi''(t+q)
    xi = Mixture({3: 1.0, 4: 0.7})
    q = 0.3
    xi_q, _, _ = xi.shift_restrict(q)
    assert np.allclose(xi_q.eval(MESH, 1), xi.eval(MESH + q, 1) - xi.eval(q, 1), atol=1e-12)
    assert np.allclose(xi_q.eval(MESH, 2), xi.eval(MESH + q, 2), atol=1e-12)


@given(
    st.dictionaries(
        st.integers(min_value=2, max_value=9),
        st.floats(min_value=0.01, max_value=2.0),
        min_size=1,
        max_size=3,
    ),
    st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=150, deadline=None)
def test_shift_identity_property(coeffs, q):
    xi = Mixture(coeffs)
    xi_q, _, _ = xi.shift_restrict(q)
    for t in (0.0, 0.25, 0.5, 1.0):
        direct = xi.eval(t + q) - xi.eval(q) - xi.eval(q, 1) * t
        assert abs(xi_q.eval(t) - direct) <= 1e-12 * (1.0 + abs(direct))


def test_band_section_keeps_linear_term():
    xi = Mixture({2: 1.0, 3: 1.0})
    q = 0.36
    sec = xi.band_section(q)
    assert sec.has_linear
    direct = xi.eval(q + (1 - q) * MESH) - xi.eval(q)
    assert np.max(np.abs(sec.eval(MESH) - direct)) < 1e-12
    # linear coefficient is (1-q) xi'(q)
    assert sec.coeffs[1] == pytest.approx((1 - q) * xi.eval(q, 1), abs=1e-14)


def test_level_mixtures_against_shift_restrict():
    xi = Mixture({2: 0.5, 4: 1.0})
    ladder = [0.3, 0.7]
    levels = xi.level_mixtures(ladder)
    assert len(levels) == 3
    qs = [0.0, 0.3, 0.7, 1.0]
    for m, seg in enumerate(levels):
        xi_qm, _, _ = xi.shift_restrict(qs[m])
        dq = qs[m + 1] - qs[m]
        assert np.max(np.abs(seg.eval(MESH) - xi_qm.eval(dq * MESH))) < 1e-12


def test_level_mixtures_rejects_bad_ladder():
    xi = Mixture({2: 1.0})
    with pytest.raises(MixtureError):
        xi.level_mixtures([0.7, 0.3])
    with pytest.raises(MixtureError):
        xi.level_mixtures([0.0, 0.5])


# The transforms as they were before they shared one recentring map: a frozen
# copy of the old Mixture._shifted_coeffs, shift_restrict, band_section and
# level_mixtures (renamed only), the reference for their bit identity.
def _frozen_shifted_coeffs(xi: Mixture, q: float) -> np.ndarray:
    n = len(xi._c)
    out = np.zeros(n)
    for p, g in enumerate(xi._c):
        if g == 0.0:
            continue
        if p == 0:
            out[0] += g
            continue
        qp = q ** np.arange(p, -1, -1)  # q^(p-j) for j = 0..p
        for j in range(p + 1):
            out[j] += g * math.comb(p, j) * qp[j]
    return out


def frozen_shift_restrict(xi: Mixture, q: float):
    shifted = _frozen_shifted_coeffs(xi, q)
    shifted[0] = 0.0  # subtract xi(q): kills the constant exactly
    shifted[1] = 0.0  # subtract xi'(q) t: kills the linear part exactly
    xi_q = xi._from_array(shifted)
    xi_bar_q = xi_q.scale_domain(1.0 - q)
    xi_hat_q = xi.scale_domain(q)
    return xi_q, xi_bar_q, xi_hat_q


def frozen_band_section(xi: Mixture, q: float) -> Mixture:
    shifted = _frozen_shifted_coeffs(xi, q)
    shifted[0] = 0.0
    arr = shifted * ((1.0 - q) ** np.arange(len(shifted), dtype=float))
    return xi._from_array(arr)


def frozen_level_mixtures(xi: Mixture, ladder) -> list[Mixture]:
    qs = [0.0, *map(float, ladder), 1.0]
    return [
        frozen_shift_restrict(xi, qs[m])[0].scale_domain(qs[m + 1] - qs[m])
        for m in range(len(qs) - 1)
    ]


def test_recentring_transforms_are_bit_identical_to_the_frozen_oracle():
    rng = np.random.default_rng(27)
    for trial in range(300):
        degs = rng.choice(np.arange(1, mixtures.DEGREE_CAP + 1), size=rng.integers(1, 7),
                          replace=False)
        const = float(rng.uniform(0.0, 1.0)) if trial % 2 else 0.0
        xi = Mixture({int(p): float(rng.uniform(0.01, 2.0)) for p in degs}, const_term=const)
        for q in (0.0, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.9, 0.999))):
            assert [t._c for t in xi.shift_restrict(q)] == [
                t._c for t in frozen_shift_restrict(xi, q)
            ]
            assert xi.band_section(q)._c == frozen_band_section(xi, q)._c
        ladder = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(1, 4)))
        got = [t._c for t in xi.level_mixtures(ladder)]
        assert got == [t._c for t in frozen_level_mixtures(xi, ladder)]


def test_scale_domain_degenerate():
    xi = Mixture({2: 1.0, 3: 1.0})
    z = xi.scale_domain(0.0)
    assert z.eval(1.0) == 0.0


# ---------------------------------------------------------- franz-parisi

def test_fp_mixtures_frozen_tau():
    xi = Mixture({2: 1.0, 3: 1.0})
    r, q1, rho = 0.3, 0.5, 0.15
    xi_fp = xi.fp_mixtures(r, q1, rho)
    tau = r * r + (rho - r * q1) ** 2 / (q1 - q1 * q1)
    assert tau == pytest.approx(0.09, abs=1e-15)
    assert mixtures.tau(q1, r, rho) == pytest.approx(tau, abs=1e-15)
    deficit = (1 - tau) * xi.eval(rho, 1) ** 2 / xi.eval(q1, 1)
    direct_fp = xi.eval(tau + (1 - tau) * MESH) - xi.eval(tau) - deficit * MESH
    assert np.max(np.abs(xi_fp.eval(MESH) - direct_fp)) < 1e-12


def test_fp_mixtures_random_instances_dual_route():
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi = random_mixture(rng)
        r = float(rng.uniform(-0.8, 0.8))
        q1 = float(rng.uniform(0.2, 0.9))
        half = math.sqrt(q1 - q1 * q1) * math.sqrt(1 - r * r)
        rho = r * q1 + float(rng.uniform(-0.99, 0.99)) * half
        xi_fp = xi.fp_mixtures(r, q1, rho)
        tau = r * r + (rho - r * q1) ** 2 / (q1 - q1 * q1)
        deficit = (1 - tau) * xi.eval(rho, 1) ** 2 / xi.eval(q1, 1)
        direct = xi.eval(tau + (1 - tau) * MESH) - xi.eval(tau) - deficit * MESH
        assert np.max(np.abs(xi_fp.eval(MESH) - direct)) < 1e-10
        assert xi_fp.coeffs.get(1, 0.0) >= 0.0


def test_fp_mixtures_rejects_rho_outside_interval():
    xi = Mixture({2: 1.0, 3: 1.0})
    with pytest.raises(MixtureError):
        xi.fp_mixtures(0.3, 0.5, 0.9)


def test_fp_linear_slot_nonnegative_at_endpoint():
    # at rho = sqrt(tau * q1) the folded linear coefficient can reach zero;
    # inside it must stay nonnegative (Cauchy-Schwarz for the slope form)
    xi = Mixture({2: 1.0, 3: 1.0})
    r, q1 = 0.0, 0.5
    half = math.sqrt(q1 - q1 * q1)
    for frac in np.linspace(-0.95, 0.95, 15):
        xi_fp = xi.fp_mixtures(r, q1, r * q1 + frac * half)
        assert xi_fp.coeffs.get(1, 0.0) >= 0.0


# --------------------------------------------------------------- reports

def test_sigma_xi_frozen_example():
    S = Mixture({2: 1.0, 3: 1.0}).sigma_xi()
    assert S == pytest.approx(np.array([[2.0, 5.0], [5.0, 13.0]]))
    assert np.linalg.det(S) == pytest.approx(1.0, abs=1e-12)
    sigma_inverse(S)  # not singular: no error


def test_sigma_xi_pure_is_singular():
    for p in (2, 3, 5):
        S = pure(p).sigma_xi()
        with pytest.raises(SingularMatrixError):
            sigma_inverse(S)


def test_sigma_xi_inverse():
    S = Mixture({2: 1.0, 3: 1.0}).sigma_xi()
    assert sigma_inverse(S) @ S == pytest.approx(np.eye(2), abs=1e-12)


# --------------------------------------------------------- serialization

def test_json_round_trip():
    xi = Mixture({2: 1.0, 3: 0.5}, const_term=0.25)
    assert Mixture.from_json(xi.to_json()) == xi


def test_json_matches_documented_shape():
    # files written with the retired generic_truncation key still load
    text = '{"coeffs": {"2": 1.0, "3": 0.5}, "const": 0.0, "generic_truncation": true}'
    xi = Mixture.from_json(text)
    assert xi.coeffs == {2: 1.0, 3: 0.5}
    assert xi.to_json() == '{"coeffs": {"2": 1.0, "3": 0.5}, "const": 0.0}'


def test_json_rejects_garbage():
    with pytest.raises(MixtureError):
        Mixture.from_json("not json")
    with pytest.raises(MixtureError):
        Mixture.from_json('{"nope": 1}')
    with pytest.raises(MixtureError):
        Mixture.from_json('{"coeffs": {"x": 1.0}}')
    with pytest.raises(MixtureError):
        Mixture.from_json('{"coeffs": {"2": -1.0}}')
    # a const that is not a number, and a bool read as 1.0
    for text in (
        '{"coeffs": {"2": 1.0}, "const": "x"}',
        '{"coeffs": {"2": 1.0}, "const": null}',
        '{"coeffs": {"2": 1.0}, "const": true}',
        '{"coeffs": {"2": true}}',
    ):
        with pytest.raises(MixtureError):
            Mixture.from_json(text)

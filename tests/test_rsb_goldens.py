"""Golden outputs of the certified solvers at the default seed.

Values are pinned to 1e-10 and atom positions, levels and c to 1e-8, so a
refactor of the variational engine that moves any answer shows up here.
"""

import pytest

from spinglass.landscape import ground_state_point
from spinglass.mixtures import Mixture
from spinglass.rsb import SolverConfig, cs_minimize, zt_minimize

VALUE_TOL = 1e-10
ATOM_TOL = 1e-8

T3_BETA = 1.8
TWO_RSB_MIX = {3: 0.5, 30: 0.5}
TWO_RSB_BETA = 3.4126426522529024

# (mixture, beta, k_max) -> (value, qs, levels, support length)
CS_GOLDENS = [
    (
        {3: 1.0},
        T3_BETA,
        None,
        (1.4983267828978375, (0.7841933007791007,), (0.5000198999394742,), 2),
    ),
    (
        TWO_RSB_MIX,
        TWO_RSB_BETA,
        3,
        (
            4.9074543783358155,
            (0.7190855495035938, 0.9876775805630663),
            (0.4256873975998687, 0.5787266706034774),
            3,
        ),
    ),
]

# mixture -> (ground-state energy, steps, c, support length)
ZT_GOLDENS = [
    ({2: 1.0}, (1.4142135623730951, ((0.0, 0.0),), 0.707106773181356, 0)),
    ({3: 1.0}, (1.6569983635274732, ((0.0, 0.6250208221069993),), 0.34399251380682466, 1)),
    (
        {2: 0.5, 3: 0.5},
        (1.5570943798186887, ((0.0, 0.39006719827652425),), 0.4668108726168658, 1),
    ),
    (
        TWO_RSB_MIX,
        (
            2.2862283314062393,
            ((0.0, 1.55882111742275), (0.6853529135382614, 1.7587588460015398)),
            0.03391831965489825,
            2,
        ),
    ),
]


def _close(got, want, tol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=tol)


def _check_steps(order, steps, c):
    assert len(order.steps) == len(steps)
    for (q, a), (q_want, a_want) in zip(order.steps, steps):
        assert q == pytest.approx(q_want, abs=ATOM_TOL)
        assert a == pytest.approx(a_want, abs=ATOM_TOL)
    assert order.c == pytest.approx(c, abs=ATOM_TOL)


@pytest.mark.parametrize("mix,beta,k_max,golden", CS_GOLDENS)
def test_cs_minimize_golden(mix, beta, k_max, golden):
    value, qs, levels, n_support = golden
    res = cs_minimize(Mixture(mix), beta, config=None if k_max is None else SolverConfig(k_max=k_max))
    assert res.value == pytest.approx(value, abs=VALUE_TOL)
    _close(res.x_star.qs, qs, ATOM_TOL)
    _close(res.x_star.levels, levels, ATOM_TOL)
    assert len(res.certificate.support) == n_support
    assert res.certificate.passes


@pytest.mark.parametrize("mix,golden", ZT_GOLDENS)
def test_zt_minimize_golden(mix, golden):
    energy, steps, c, n_support = golden
    res = zt_minimize(Mixture(mix))
    assert res.gs_energy == pytest.approx(energy, abs=VALUE_TOL)
    _check_steps(res.order, steps, c)
    assert len(res.certificate.support) == n_support
    assert res.certificate.passes


def test_ground_state_point_golden():
    energy, slope, res = ground_state_point(Mixture({2: 0.5, 3: 0.5}), 0.4)
    assert energy == pytest.approx(0.5029840216380423, abs=VALUE_TOL)
    assert slope == pytest.approx(2.9677406976416822, abs=VALUE_TOL)
    _check_steps(res.order, ((0.0, 0.7490772333677518),), 1.6370600449252113)
    assert len(res.certificate.support) == 1
    assert res.certificate.passes


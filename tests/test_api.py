"""Public surface: every exported name resolves, and removed wrappers stay gone."""
import dataclasses
import inspect

import pytest

import spinglass
from spinglass import franz_parisi, mclab


@pytest.mark.parametrize("module", [spinglass, mclab, franz_parisi], ids=lambda mod: mod.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize(
    "name",
    [
        "SigmaMatrix",
        "GenericityReport",
        "SphereReduction",
        "reduce_to_sphere",
        "covariance_csv",
        "stream_rng",
        "tau_mix",
        "cs_value_with_grad",
        "zt_value_with_grad",
    ],
)
def test_removed_wrappers_are_not_exported(name):
    assert name not in spinglass.__all__
    assert not hasattr(spinglass, name)
    for module in (spinglass.mixtures, spinglass.conditioning, spinglass.mclab, spinglass.rsb):
        assert not hasattr(module, name)


def test_tau_has_one_definition():
    assert spinglass.franz_parisi.tau is spinglass.mixtures.tau
    assert spinglass.tau is spinglass.mixtures.tau


@pytest.mark.parametrize(
    "func, name",
    [
        (spinglass.chain_bound, "center"),
        (spinglass.chain_bound, "ladder"),
        (spinglass.find_critical_points, "newton_tol"),
        (spinglass.find_critical_points, "with_hessian_summary"),
        (spinglass.empirical_complexity, "newton_tol"),
        (spinglass.fp_conditioning, "pure_reduced"),
        (spinglass.fp_conditioning, "r"),
        (spinglass.fp_conditioning, "rho"),
        (spinglass.Mixture, "generic_truncation"),
        (spinglass.Mixture, "degree_cap"),
        (spinglass.Mixture.from_json, "degree_cap"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_removed_parameters_are_gone(func, name):
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize(
    "cls, name",
    [
        (spinglass.BandGeometry, "eps"),
        (spinglass.GroundStateCurve, "source"),
        (spinglass.ComplexityEstimate, "exploratory"),
        (spinglass.CriticalPointRecord, "hessian_eigs"),
        (spinglass.BandGeometry, "anchors"),
        (spinglass.ConditioningEvent, "E"),
        (spinglass.FPResult, "field_mode"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_removed_fields_are_gone(cls, name):
    assert name not in {f.name for f in dataclasses.fields(cls) if f.init}


def test_no_public_callable_takes_k_max():
    # the atom cap is set in one place, SolverConfig.k_max
    takes = [
        name
        for name in spinglass.__all__
        if callable(obj := getattr(spinglass, name))
        and not inspect.isclass(obj)
        and "k_max" in inspect.signature(obj).parameters
    ]
    assert takes == []

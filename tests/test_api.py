"""Public surface: every exported name resolves, removed wrappers stay gone,
and no module imports a name it never uses."""
import ast
import dataclasses
import inspect
import pathlib

import pytest

import spinglass
from spinglass import franz_parisi, mclab, rsb


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
        "theta_surface_csv",
        "conditioning_matrix",
        "section_vector",
    ],
)
def test_removed_wrappers_are_not_exported(name):
    assert name not in spinglass.__all__
    assert not hasattr(spinglass, name)
    for module in (spinglass.mixtures, spinglass.conditioning, spinglass.mclab, spinglass.rsb):
        assert not hasattr(module, name)


@pytest.mark.parametrize(
    "cls",
    [
        spinglass.GroundStateCurve,
        spinglass.ComplexityEstimate,
        spinglass.OverlapHistogram,
        spinglass.SolverConfig,
        spinglass.MCConfig,
    ],
    ids=lambda cls: cls.__name__,
)
def test_library_types_do_not_serialise(cls):
    # artifact formats live in the CLI alone
    assert not any(hasattr(cls, name) for name in ("to_csv", "to_json", "from_json"))


_MODULES = sorted(
    path
    for path in pathlib.Path(spinglass.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    # a dotted use such as np.linalg starts with a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = sorted(name for name in imported if name not in used | exported)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


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
        (rsb.talagrand_certificate, "mesh"),
        (rsb.zero_temp_certificate, "mesh"),
        (spinglass.beta_c, "tol"),
        (spinglass.beta_c, "beta_max"),
        pytest.param(spinglass.OrderParameter.support, "mass_tol", id="OrderParameter.support-mass_tol"),
        pytest.param(spinglass.ZeroTempOrder.support, "mass_tol", id="ZeroTempOrder.support-mass_tol"),
        (spinglass.overlap_statistics, "bins"),
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
        (spinglass.SolverConfig, "mesh"),
        (spinglass.MCConfig, "target_accept"),
        (spinglass.MCConfig, "adapt_every"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_removed_fields_are_gone(cls, name):
    assert name not in {f.name for f in dataclasses.fields(cls) if f.init}


def test_mixture_has_no_scale_method():
    # a scaled covariance is a rebuilt Mixture
    assert not hasattr(spinglass.Mixture, "scale")


@pytest.mark.parametrize(
    "cls, names",
    [
        (spinglass.SolverConfig, ["k_max", "starts", "atom_tol", "cert_tol", "seed"]),
        (spinglass.MCConfig, ["steps", "burn_in", "thin", "step_size", "chain_index"]),
    ],
    ids=["SolverConfig", "MCConfig"],
)
def test_config_fields_are_pinned(cls, names):
    # a new knob means editing this list on purpose
    assert [f.name for f in dataclasses.fields(cls)] == names


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


_PURE3 = spinglass.Mixture({3: 1.0})
_BETA_ENTRY_POINTS = {
    "cs_minimize": lambda b: spinglass.cs_minimize(_PURE3, b),
    "cs_value": lambda b: rsb.cs_value(_PURE3, b, rsb.OrderParameter.rs()),
    "talagrand_certificate": lambda b: rsb.talagrand_certificate(_PURE3, b, rsb.OrderParameter.rs()),
    "fp_high": lambda b: spinglass.fp_high(_PURE3, b, 1.0, 0.3),
    "fp_high beta_prime": lambda b: spinglass.fp_high(_PURE3, 0.5, b, 0.3),
    "fp_low": lambda b: spinglass.fp_low(_PURE3, b, 1.5, 0.3),
    "FPQuery.detect": lambda b: spinglass.FPQuery.detect(_PURE3, b, 1.0, 0.3),
    "gibbs_mcmc": lambda b: spinglass.gibbs_mcmc(mclab.sample_field(_PURE3, 4, seed=0), b),
}


@pytest.mark.parametrize("value", ["2", None, True, 1 + 0j], ids=["str", "None", "True", "complex"])
@pytest.mark.parametrize("entry", sorted(_BETA_ENTRY_POINTS))
def test_a_non_real_inverse_temperature_is_bad_input(entry, value):
    # a bool is not taken as 0 or 1, and a non-real value raises the typed
    # error instead of a TypeError from a comparison
    with pytest.raises(spinglass.BadInputError, match="real number"):
        _BETA_ENTRY_POINTS[entry](value)

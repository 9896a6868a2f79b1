"""Public surface: every exported name resolves, removed wrappers stay gone,
and no module imports a name it never uses."""
import ast
import dataclasses
import functools
import inspect
import math
import os
import pathlib
import typing

import numpy as np
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


# Mixture.eval, called at every step of a solve or certificate, reads its
# argument without the array check
_UNCHECKED_KERNELS = {"mixtures.Mixture.eval"}


def _public_functions(tree: ast.Module):
    """(qualified name, node) of every public module-level function and
    every public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_no_public_function_coerces_its_own_array_argument():
    # np.asarray(<parameter>, dtype=...) reads True as 1.0 and "1" as 1.0; a
    # public array input goes through errors._check_array instead
    found = set()
    for path in _MODULES:
        for name, func in _public_functions(ast.parse(path.read_text(encoding="utf-8"))):
            params = {a.arg for a in (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs)}
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("asarray", "array")
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                    and any(k.arg == "dtype" for k in node.keywords)
                ):
                    found.add(f"{path.stem}.{name}")
    assert found == _UNCHECKED_KERNELS


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
        pytest.param(spinglass.BandGeometry.on_slice, "tol", id="BandGeometry.on_slice-tol"),
        (spinglass.schur_condition, "pseudo_inverse"),
        (spinglass.exact_conditional_sampler, "pseudo_inverse"),
        (spinglass.chain_constraint_set, "geometry"),
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
    "rs_value": lambda b: spinglass.rs_value(_PURE3, b),
    "pushforward_check": lambda b: spinglass.pushforward_check(_PURE3, b, 0.0),
    "identity_esrs": lambda b: spinglass.identity_esrs(_PURE3, b),
    "chain_bound": lambda b: spinglass.chain_bound(_PURE3, b),
    "fp_low beta_prime": lambda b: spinglass.fp_low(_PURE3, 2.0, b, 0.3),
    "fp_low_objective": lambda b: spinglass.fp_low_objective(_PURE3, b, 1.5, 0.3, 0.1),
    "fp_low_objective beta_prime": lambda b: spinglass.fp_low_objective(_PURE3, 2.0, b, 0.3, 0.1),
    "fp_potential": lambda b: spinglass.fp_potential(_PURE3, b, 1.0, 0.3),
    "fp_potential beta_prime": lambda b: spinglass.fp_potential(_PURE3, 2.0, b, 0.3),
    "FPQuery": lambda b: spinglass.FPQuery(b, 1.0, 0.3, "high"),
    "FPQuery beta_prime": lambda b: spinglass.FPQuery(1.0, b, 0.3, "high"),
    "fp_conditioning": lambda b: spinglass.fp_conditioning(_PURE3, b, 0.5),
}


@pytest.mark.parametrize("value", ["2", None, True, 1 + 0j, 10**400],
                         ids=["str", "None", "True", "complex", "huge-int"])
@pytest.mark.parametrize("entry", sorted(_BETA_ENTRY_POINTS))
def test_a_non_real_inverse_temperature_is_bad_input(entry, value):
    # a bool is not taken as 0 or 1, and a non-real value raises the typed
    # error instead of a TypeError from a comparison
    with pytest.raises(spinglass.BadInputError, match="real number"):
        _BETA_ENTRY_POINTS[entry](value)


_PURE2 = spinglass.Mixture({2: 1.0})
_FIELD = mclab.sample_field(_PURE3, 4, seed=0)
_GEOMETRY = spinglass.BandGeometry((0.5,), 3)
_EVENT = spinglass.ConditioningEvent((0.1,), (0.2,), _GEOMETRY)
_ORDER = spinglass.OrderParameter((0.5,), (0.3,))
_ZT_ORDER = spinglass.ZeroTempOrder(((0.0, 0.5), (0.5, 1.0)), 1.0)


@functools.cache
def _pinned_system():
    return spinglass.fp_conditioning(_PURE3, 2.0, 0.5)


_REAL_PARAMETER_ENTRY_POINTS = {
    "MCConfig step_size": lambda v: spinglass.MCConfig(step_size=v),
    "find_critical_points q": lambda v: spinglass.find_critical_points(_FIELD, q=v),
    "empirical_complexity q": lambda v: spinglass.empirical_complexity(_PURE3, 4, v, [0, 1], [0, 1], 1),
    "ground_state_point q": lambda v: spinglass.ground_state_point(_PURE3, v),
    "ground_state_curve q_grid": lambda v: spinglass.ground_state_curve(_PURE3, [0.25, v]),
    "chain_bound eps": lambda v: spinglass.chain_bound(_PURE3, 2.0, eps=v),
    "fprime_identity beta": lambda v: spinglass.fprime_identity(_PURE2, v),
    "fprime_identity step": lambda v: spinglass.fprime_identity(_PURE2, 2.0, step=v),
    "fp_low xtol": lambda v: spinglass.fp_low(_PURE3, 2.0, 1.5, 0.3, xtol=v),
    "SolverConfig atom_tol": lambda v: spinglass.SolverConfig(atom_tol=v),
    "SolverConfig cert_tol": lambda v: spinglass.SolverConfig(cert_tol=v),
    "talagrand_certificate tolerance": lambda v: rsb.talagrand_certificate(
        _PURE3, 2.0, rsb.OrderParameter.rs(), tolerance=v
    ),
    "zero_temp_certificate tolerance": lambda v: rsb.zero_temp_certificate(
        _PURE3, rsb.ZeroTempOrder.constant(1.0, 1.0), tolerance=v
    ),
    "OrderParameter qs": lambda v: spinglass.OrderParameter((v,), (0.5,)),
    "OrderParameter levels": lambda v: spinglass.OrderParameter((0.5,), (v,)),
    "ZeroTempOrder steps": lambda v: spinglass.ZeroTempOrder(((0.0, 0.5), (v, 1.0)), 1.0),
    "ZeroTempOrder c": lambda v: spinglass.ZeroTempOrder(((0.0, 0.5),), v),
    "pushforward_check q": lambda v: spinglass.pushforward_check(_PURE3, 2.0, v),
    "theta E": lambda v: spinglass.theta(_PURE3, v, 1.0),
    "theta R": lambda v: spinglass.theta(_PURE3, 0.5, v),
    "theta_pure E": lambda v: spinglass.theta_pure(_PURE3, v),
    "GroundStateCurve q_grid": lambda v: spinglass.GroundStateCurve((0.25, v), (1.0, 2.0), (1.0, 1.0)),
    "GroundStateCurve e_star": lambda v: spinglass.GroundStateCurve((0.25, 0.5), (1.0, v), (1.0, 1.0)),
    "GroundStateCurve r_star": lambda v: spinglass.GroundStateCurve((0.25, 0.5), (1.0, 2.0), (1.0, v)),
    "j_interval q1": lambda v: spinglass.j_interval(v, 0.3),
    "j_interval r": lambda v: spinglass.j_interval(0.5, v),
    "fp_high r": lambda v: spinglass.fp_high(_PURE3, 0.5, 1.0, v),
    "fp_low r": lambda v: spinglass.fp_low(_PURE3, 2.0, 1.5, v),
    "fp_low_objective r": lambda v: spinglass.fp_low_objective(_PURE3, 2.0, 1.5, v, 0.1),
    "fp_low_objective rho": lambda v: spinglass.fp_low_objective(_PURE3, 2.0, 1.5, 0.3, v),
    "fp_potential r": lambda v: spinglass.fp_potential(_PURE3, 2.0, 1.5, v),
    "FPQuery r": lambda v: spinglass.FPQuery(1.0, 1.0, v, "high"),
    "fp_conditioning q1": lambda v: spinglass.fp_conditioning(_PURE3, 2.0, v),
    "FPConditioning.mean_coeff r": lambda v: _pinned_system().mean_coeff(v, 0.1),
    "FPConditioning.mean_coeff rho": lambda v: _pinned_system().mean_coeff(0.3, v),
    "BandGeometry ladder": lambda v: spinglass.BandGeometry((v,), 3),
    "ConditioningEvent e_vec": lambda v: spinglass.ConditioningEvent((v,), (0.1,), _GEOMETRY),
    "ConditioningEvent r_vec": lambda v: spinglass.ConditioningEvent((0.1,), (v,), _GEOMETRY),
    "chain_constraint_set energy": lambda v: spinglass.chain_constraint_set(_EVENT, v),
    "band_kernel overlap": lambda v: spinglass.band_kernel(_PURE3, _GEOMETRY, v, v),
    "Mixture const_term": lambda v: spinglass.Mixture({2: 1.0}, const_term=v),
    "pure weight": lambda v: spinglass.pure(3, v),
    "tau q1": lambda v: spinglass.tau(v, 0.3, 0.1),
    "tau r": lambda v: spinglass.tau(0.5, v, 0.1),
    "tau rho": lambda v: spinglass.tau(0.5, 0.3, v),
    # the array inputs below also take a scalar
    "omega t": lambda v: spinglass.omega(v),
    "OrderParameter.cdf t": lambda v: _ORDER.cdf(v),
    "OrderParameter.tail_integral t": lambda v: _ORDER.tail_integral(v),
    "ZeroTempOrder.alpha t": lambda v: _ZT_ORDER.alpha(v),
    "ZeroTempOrder.tail_integral t": lambda v: _ZT_ORDER.tail_integral(v),
}


# optional real parameters, for which None is the default and is taken
_NONE_MEANS_NOT_GIVEN = {"chain_constraint_set energy"}


@pytest.mark.parametrize("value", ["1", "0.5", None, True, 1 + 0j, 10**400],
                         ids=["str", "str-float", "None", "True", "complex", "huge-int"])
@pytest.mark.parametrize("entry", sorted(_REAL_PARAMETER_ENTRY_POINTS))
def test_a_non_real_parameter_is_bad_input(entry, value):
    # the real parameters besides the inverse temperatures, each checked
    # before the first solve
    if value is None and entry in _NONE_MEANS_NOT_GIVEN:
        _REAL_PARAMETER_ENTRY_POINTS[entry](value)
        return
    with pytest.raises(spinglass.BadInputError, match="real number"):
        _REAL_PARAMETER_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spinglass.rs_value(_PURE3, -1.0),
        lambda: spinglass.rs_value(_PURE3, math.nan),
        lambda: spinglass.rs_value(_PURE3, math.inf),
        lambda: spinglass.FPQuery(math.inf, 1.0, 0.3, "low"),
        lambda: spinglass.tau(0.5, 1.5, 0.3),
    ],
    ids=["rs_value -1", "rs_value nan", "rs_value inf", "FPQuery inf", "tau r 1.5"],
)
def test_an_out_of_range_real_parameter_is_bad_input(call):
    with pytest.raises(spinglass.BadInputError, match="real number"):
        call()


# (exported name, parameter or field) pairs annotated as real that the tables
# above do not cover: each is a result the library builds, never an input
_REAL_EXEMPT = {
    # find_critical_points' records
    ("CriticalPointRecord", "energy_density"),
    ("CriticalPointRecord", "radial_derivative"),
    ("CriticalPointRecord", "tangential_residual"),
    # fp_high's and fp_low's answer; its value is checked finite where built
    ("FPResult", "value"),
    ("FPResult", "rho_star"),
    # fp_conditioning's answer; q1 is checked as fp_conditioning's argument
    ("FPConditioning", "q1"),
    # gibbs_mcmc's run; beta is checked as gibbs_mcmc's argument
    ("GibbsRun", "beta"),
    ("GibbsRun", "acceptance_rate"),
    ("GibbsRun", "energy_autocorr"),
    ("GibbsRun", "step_size_final"),
    # hessian_decomposition's answer
    ("HessianDecomposition", "grad_var"),
    ("HessianDecomposition", "goe_scale"),
}


def _real_annotated(obj) -> set[str]:
    """Parameters (fields, for a dataclass) of obj annotated float,
    float | None or tuple[float, ...]."""
    real = {float, float | None, tuple[float, ...]}
    if dataclasses.is_dataclass(obj):
        hints = typing.get_type_hints(obj)
        return {f.name for f in dataclasses.fields(obj) if f.init and hints[f.name] in real}
    hints = typing.get_type_hints(obj.__init__ if inspect.isclass(obj) else obj)
    return {name for name, hint in hints.items() if name != "return" and hint in real}


def test_every_real_parameter_of_the_public_surface_is_checked():
    # a new real parameter joins a table above, so bool and string inputs
    # stay rejected; a table key is "name" (beta) or "name parameter"
    covered = set()
    for table, default in ((_BETA_ENTRY_POINTS, "beta"), (_REAL_PARAMETER_ENTRY_POINTS, None)):
        for key in table:
            name, _, param = key.partition(" ")
            covered.add((name, param or default))
    annotated = {
        (name, param)
        for name in spinglass.__all__
        if callable(obj := getattr(spinglass, name))
        for param in _real_annotated(obj)
    }
    assert annotated - covered - _REAL_EXEMPT == set()
    assert _REAL_EXEMPT <= annotated


def _fit(values, size: int) -> list:
    """values padded with zeros (or cut) to size entries."""
    return (list(values) + [0.0] * size)[:size]


# every public array input; each entry puts the given entries first in an
# input of the right shape, so only their values can be at fault
_ARRAY_ENTRY_POINTS = {
    "FieldSample tensors": lambda v: mclab.FieldSample(2, _PURE2, 0, 0, {2: [_fit(v, 2), [0.0, 1.0]]}),
    "FieldSample.energy_many points": lambda v: _FIELD.energy_many([_fit(v, 4)]),
    "FieldSample.energy x": lambda v: _FIELD.energy(_fit(v, 4)),
    "FieldSample.energy_terms x": lambda v: _FIELD.energy_terms(_fit(v, 4)),
    "FieldSample.gradient x": lambda v: _FIELD.gradient(_fit(v, 4)),
    "FieldSample.hessian x": lambda v: _FIELD.hessian(_fit(v, 4)),
    "derivative_covariances points": lambda v: spinglass.derivative_covariances(
        _PURE2, [_fit(v, 2)], [("value", 0)]
    ),
    "derivative_covariances direction": lambda v: spinglass.derivative_covariances(
        _PURE2, [[0.5, 0.5]], [("deriv", 0, _fit(v, 2))]
    ),
    "schur_condition joint_cov": lambda v: spinglass.schur_condition(
        [_fit(v, 2), [0.0, 1.0]], [1], [0.5]
    ),
    "schur_condition observed_vals": lambda v: spinglass.schur_condition(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0, 1], _fit(v, 2)
    ),
    "exact_conditional_sampler constraint_values": lambda v: spinglass.exact_conditional_sampler(
        _PURE2, [[1.0, 0.0]], [("value", 0)], _fit(v, 1), [("deriv", 0, [0.0, 1.0])], 1
    ),
    "band_kernel point": lambda v: spinglass.band_kernel(_PURE3, _GEOMETRY, _fit(v, 3), [1.0, 1.0, 0.0]),
    "BandGeometry.on_slice point": lambda v: _GEOMETRY.on_slice(_fit(v, 3)),
    "empirical_complexity e_edges": lambda v: spinglass.empirical_complexity(_PURE3, 4, 1.0, _fit(v, 2), [0, 1], 1),
    "empirical_complexity r_edges": lambda v: spinglass.empirical_complexity(_PURE3, 4, 1.0, [0, 1], _fit(v, 2), 1),
    "dump_samples samples": lambda v: spinglass.dump_samples(os.devnull, [_fit(v, 2)]),
    "omega t": lambda v: spinglass.omega(v),
    "OrderParameter.cdf t": lambda v: _ORDER.cdf(v),
    "OrderParameter.tail_integral t": lambda v: _ORDER.tail_integral(v),
    "ZeroTempOrder.alpha t": lambda v: _ZT_ORDER.alpha(v),
    "ZeroTempOrder.tail_integral t": lambda v: _ZT_ORDER.tail_integral(v),
}


@pytest.mark.parametrize(
    "values",
    [["1.0"], [True], [True, 0.5], [None], [math.nan], [10**400]],
    ids=["str", "True", "True-float", "None", "nan", "huge-int"],
)
@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRY_POINTS))
def test_a_non_real_array_entry_is_bad_input(entry, values):
    # numpy would read a bool as 0 or 1 and a numeric string as its value
    with pytest.raises(spinglass.BadInputError, match="real number"):
        _ARRAY_ENTRY_POINTS[entry](values)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spinglass.schur_condition([[1.0, 0.0], [0.0, 1.0]], [True], [1.0]),
        lambda: spinglass.schur_condition([[1.0, 0.0], [0.0, 1.0]], ["0"], [1.0]),
        lambda: spinglass.schur_condition([[1.0, 0.0], [0.0, 1.0]], [0.0], [1.0]),
        lambda: spinglass.derivative_covariances(_PURE2, [[0.5, 0.5]], [("value", True)]),
        lambda: spinglass.derivative_covariances(_PURE2, [[0.5, 0.5]], [("value", 0.0)]),
    ],
    ids=["schur True", "schur str", "schur float", "functional True", "functional float"],
)
def test_a_non_integer_index_is_bad_input(call):
    with pytest.raises(spinglass.BadInputError, match="integer"):
        call()


@pytest.mark.parametrize(
    "t",
    ["0.5", True, np.bool_(False), 0.5 + 0j, np.array(["0.5"]), np.array([True, False]),
     np.array([0.5], dtype=object), [0.5 + 0j], None],
    ids=["str", "True", "np-bool", "complex", "str-array", "bool-array", "object-array",
         "complex-list", "None"],
)
def test_mixture_eval_rejects_non_real_input(t):
    # the solvers' float fast path is unchecked; every other input gets one dtype test
    m = spinglass.Mixture({2: 0.5, 3: 0.5})
    with pytest.raises(spinglass.MixtureError):
        m.eval(t)
    with pytest.raises(spinglass.MixtureError):
        m(t, 1)


def test_mixture_eval_reads_every_real_input_alike():
    m = spinglass.Mixture({2: 0.5, 3: 0.5})
    want = m.eval(0.5)
    assert want == 0.1875
    for t in (np.float64(0.5), np.array(0.5), np.float32(0.5)):
        assert m.eval(t) == want
    assert m.eval(1) == m.eval(np.int64(1)) == m.eval(1.0)
    assert np.array_equal(m.eval([0.5, 1]), [want, m.eval(1.0)])
    # a list's entries fold inside numpy first, as the docstring says
    assert np.array_equal(m.eval([True, 0.5]), [m.eval(1.0), want])


def test_a_list_of_numpy_real_scalars_is_read_as_floats():
    arr = spinglass.errors._check_array("x", [[np.float64(0.25), np.int64(2)], [0.5, 3]])
    assert arr.dtype == float and arr.tolist() == [[0.25, 2.0], [0.5, 3.0]]
    assert np.array_equal(spinglass.omega([np.float64(0.5), np.int64(3)]), spinglass.omega([0.5, 3.0]))


def test_a_long_list_ending_in_a_numpy_bool_is_bad_input():
    values = [0.5] * 9_999 + [np.bool_(True)]
    with pytest.raises(spinglass.BadInputError, match="real number"):
        spinglass.errors._check_array("x", values)
    with pytest.raises(spinglass.BadInputError, match="real number"):
        spinglass.omega(values)

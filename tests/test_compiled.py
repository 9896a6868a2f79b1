"""The compiled scipy routines in spinglass._compiled: the scalar-search
ports and LAPACK wrappers match scipy bit for bit, the loader fails
clearly, and the package's import and its calls load neither
scipy.optimize nor scipy.linalg, nor any module at call time."""
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from spinglass import _compiled

# ----------------------------------------------------------- scalar searches


def _smooth(x):
    return (x - 0.3) ** 2 + 0.1 * math.sin(5.0 * x)


def _flat_topped(x):
    # a flat-bottomed well: many exact ties inside (0.4, 0.6)
    return max(abs(x - 0.5) - 0.1, 0.0)


def _edge_hugging(x):
    return math.exp(-20.0 * x) + 1e-3 * x


def _traced(func):
    seen = []

    def wrapped(x):
        seen.append(x)
        return func(x)

    return wrapped, seen


@pytest.mark.parametrize(
    "func, bracket, xtol",
    [
        (_smooth, (-1.0, 0.2, 1.5), 1e-8),
        (_smooth, (1.5, 0.2, -1.0), 1e-2),
        (_flat_topped, (0.0, 0.45, 1.0), 1e-8),
        (_flat_topped, (0.0, 0.55, 0.6000001), 1e-10),
        (_edge_hugging, (-0.2, 0.9, 1.0), 1e-8),
    ],
    ids=["smooth", "smooth-reversed-loose", "flat", "flat-narrow", "edge"],
)
def test_golden_matches_scipy(func, bracket, xtol):
    mine, seen_mine = _traced(func)
    theirs, seen_theirs = _traced(func)
    x, value = _compiled.golden(mine, bracket, xtol)
    res = scipy.optimize.minimize_scalar(theirs, bracket=bracket, method="golden",
                                         options={"xtol": xtol})
    assert seen_mine == seen_theirs
    assert x == res.x and value == res.fun


@pytest.mark.parametrize(
    "bracket",
    [(0.0, 1.5, 1.0), (0.0, 0.9, 1.0)],
    ids=["middle-outside", "middle-not-lowest"],
)
def test_golden_rejects_the_brackets_scipy_rejects(bracket):
    with pytest.raises(ValueError) as theirs:
        scipy.optimize.minimize_scalar(_smooth, bracket=bracket, method="golden")
    with pytest.raises(ValueError) as mine:
        _compiled.golden(_smooth, bracket, 1e-8)
    assert str(mine.value) == str(theirs.value)


@pytest.mark.parametrize(
    "func, lo, hi, xatol",
    [
        (_smooth, -1.0, 1.5, 1e-13),
        (_smooth, -1.0, 1.5, 1e-2),
        (_flat_topped, 0.0, 1.0, 1e-13),
        (_flat_topped, 0.45, 0.55, 1e-13),
        (_edge_hugging, 0.0, 1.0, 1e-13),
        (lambda x: -x, 0.0, 1.0, 1e-13),
        (_smooth, 0.25, 0.25, 1e-13),
    ],
    ids=["smooth", "smooth-loose", "flat", "flat-inside", "edge", "upper-edge", "point"],
)
def test_bounded_matches_scipy(func, lo, hi, xatol):
    mine, seen_mine = _traced(func)
    theirs, seen_theirs = _traced(func)
    x, value = _compiled.bounded(mine, lo, hi, xatol)
    res = scipy.optimize.minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                                         options={"xatol": xatol})
    assert seen_mine == seen_theirs
    assert x == res.x and value == res.fun


# ===================================================================== LAPACK


def _spd(n, seed, order="C"):
    b = np.random.default_rng(seed).normal(size=(n, n))
    return np.asarray(b @ b.T + 0.5 * np.eye(n), order=order)


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_cholesky_wrappers_match_scipy(n, order):
    a = _spd(n, n, order)
    c, lower = _compiled.cho_factor(a)
    c_ref, lower_ref = scipy.linalg.cho_factor(a)
    assert _same(c, c_ref) and lower is lower_ref is False
    rng = np.random.default_rng(100 + n)
    for b in (rng.normal(size=n), rng.normal(size=(n, 3)), np.asfortranarray(rng.normal(size=(n, 3))),
              rng.normal(size=(3, n)).T):
        assert _same(_compiled.cho_solve((c, lower), b), scipy.linalg.cho_solve((c_ref, lower_ref), b))


def test_cholesky_wrappers_match_scipy_on_empty_blocks():
    a = np.zeros((0, 0))
    c, lower = _compiled.cho_factor(a)
    c_ref, lower_ref = scipy.linalg.cho_factor(a)
    assert _same(c, c_ref) and lower is lower_ref
    for b in (np.zeros(0), np.zeros((0, 4)), np.zeros((4, 0)).T):
        assert _same(_compiled.cho_solve((c, lower), b), scipy.linalg.cho_solve((c_ref, lower_ref), b))
    factor = _compiled.cho_factor(_spd(3, 0))
    assert _same(_compiled.cho_solve(factor, np.zeros((3, 0))),
                 scipy.linalg.cho_solve(factor, np.zeros((3, 0))))


@pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)), -np.eye(3)],
                         ids=["indefinite", "zero", "negative"])
def test_cho_factor_raises_scipys_error_on_a_non_positive_definite_block(bad):
    with pytest.raises(np.linalg.LinAlgError) as theirs:
        scipy.linalg.cho_factor(bad)
    with pytest.raises(np.linalg.LinAlgError) as mine:
        _compiled.cho_factor(bad)
    assert type(mine.value) is type(theirs.value) and str(mine.value) == str(theirs.value)


def test_cholesky_wrappers_reject_non_finite_input_as_scipy_does():
    a = _spd(3, 1)
    a[0, 0] = math.nan
    with pytest.raises(ValueError):
        scipy.linalg.cho_factor(a)
    with pytest.raises(ValueError):
        _compiled.cho_factor(a)
    factor = _compiled.cho_factor(_spd(3, 1))
    with pytest.raises(ValueError):
        _compiled.cho_solve(factor, np.array([1.0, math.inf, 0.0]))


def _lower_blocks():
    low = np.linalg.cholesky(_spd(6, 3))
    yield "C", np.ascontiguousarray(low)
    yield "F", np.asfortranarray(low)
    yield "1x1-slice", low[:1, :1]
    yield "2x2-slice", low[:2, :2]
    yield "4x4-slice", low[:4, :4]
    yield "transposed-upper", np.ascontiguousarray(low.T).T


@pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in _lower_blocks()])
def test_solve_lower_matches_scipy(a):
    rng = np.random.default_rng(7)
    n = a.shape[0]
    for b in (rng.normal(size=n), rng.normal(size=(n, 2)), np.asfortranarray(rng.normal(size=(n, 2)))):
        want = scipy.linalg.solve_triangular(a, b, lower=True, check_finite=False)
        assert _same(_compiled.solve_lower(a, b), want)


@pytest.mark.parametrize("a, b", [(np.zeros((0, 0)), np.zeros(0)), (np.eye(3), np.zeros((3, 0)))],
                         ids=["0x0", "no-columns"])
def test_solve_lower_matches_scipy_on_empty_right_hand_sides(a, b):
    want = scipy.linalg.solve_triangular(a, b, lower=True, check_finite=False)
    assert _same(_compiled.solve_lower(a, b), want)


def test_solve_lower_raises_scipys_error_on_a_singular_block():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError) as theirs:
        scipy.linalg.solve_triangular(a, np.ones(2), lower=True, check_finite=False)
    with pytest.raises(np.linalg.LinAlgError) as mine:
        _compiled.solve_lower(a, np.ones(2))
    assert str(mine.value) == str(theirs.value)


# ===================================================================== loader


def test_loader_names_the_module_directory_and_scipy_version():
    with pytest.raises(ImportError) as err:
        _compiled._load("optimize", "_no_such_module")
    message = str(err.value)
    assert "_no_such_module" in message
    assert os.path.join("scipy", "optimize") in message
    assert scipy.__version__ in message


def test_loaded_modules_stay_out_of_sys_modules():
    assert not {"_lbfgsb", "_minpack", "_flapack"} & set(sys.modules)
    # scipy's own copies load as usual next to them
    assert scipy.optimize._lbfgsb.setulb is not _compiled.setulb
    assert scipy.linalg.lapack.dpotrf is not _compiled._flapack.dpotrf


# ============================================================ import surface


def _run_fresh(code: str) -> str:
    src = str(pathlib.Path(_compiled.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_neither_scipy_package_nor_its_array_api_layer():
    out = _run_fresh("""
        import sys
        import spinglass, spinglass.cli
        heavy = ("scipy.optimize", "scipy.linalg", "scipy._lib._util", "numpy.f2py", "numpy.ma")
        print(sorted(name for name in heavy if name in sys.modules))
    """)
    assert out == "[]"


def test_calls_after_import_load_no_module():
    # a module first imported inside a call would land inside a timed op
    out = _run_fresh("""
        import sys
        import numpy as np
        import spinglass as sg, spinglass.cli
        before = set(sys.modules)
        m = sg.Mixture({3: 1.0, 4: 0.3})
        sg.cs_minimize(sg.Mixture({2: 0.5, 4: 0.5}), 2.0)
        sg.zt_minimize(sg.pure(3))
        sg.beta_c(m)
        sg.fp_low(m, 1.432, 1.432, 0.3, config=sg.SolverConfig(starts=1), scan_points=3, xtol=1e-2)
        sg.ground_state_curve(sg.Mixture({2: 0.5, 3: 0.5}), (0.4, 1.0))
        sg.chain_bound(m, 1.432)
        field = sg.sample_field(sg.pure(3), 8, 1, 0)
        sg.gibbs_mcmc(field, 1.0, sg.MCConfig(steps=20, burn_in=5, thin=5))
        sg.find_critical_points(field, restarts=2, max_iter=5)
        sg.exact_conditional_sampler(sg.pure(3), np.eye(4)[:2] * 2.0, [("value", 0)], [0.5],
                                     [("value", 1)], 3, seed=0)
        print(sorted(set(sys.modules) - before))
    """)
    assert out == "[]"


# ================================================================ first load

# a fresh process that counts _compiled's loads by module name
_COUNTED = """
    import collections, sys
    import spinglass as sg, spinglass.rsb
    from spinglass import _compiled
    loads, load = collections.Counter(), _compiled._load

    def counted(package, name):
        loads[name] += 1
        return load(package, name)

    _compiled._load = counted
"""


def _counted(code: str) -> str:
    return _run_fresh(textwrap.dedent(_COUNTED) + textwrap.dedent(code))


def test_a_monte_carlo_pass_loads_no_compiled_module_and_no_thread_pool():
    out = _counted("""
        field = sg.sample_field(sg.pure(3), 8, 1, 0)
        cfg = sg.MCConfig(steps=20, burn_in=5, thin=5)
        sg.overlap_statistics(sg.gibbs_mcmc(field, 1.0, cfg),
                              sg.gibbs_mcmc(field, 1.0, sg.MCConfig(steps=20, burn_in=5, thin=5, chain_index=1)))
        sg.find_critical_points(field, restarts=2, max_iter=5)
        print(dict(loads), "concurrent.futures" in sys.modules,
              sorted(set(_compiled._LAZY) & set(vars(_compiled))))
    """)
    assert out == "{} False []"


def test_a_solve_loads_the_optimize_modules_only():
    out = _counted("""
        sg.cs_minimize(sg.Mixture({2: 0.5, 4: 0.5}), 2.0)
        print(sorted(loads.items()))
    """)
    assert out == "[('_lbfgsb', 1), ('_minpack', 1)]"


@pytest.mark.parametrize(
    "call",
    ["sg.schur_condition([[1.0, 0.5], [0.5, 1.0]], [0], [1.0])", "sg.fp_conditioning(sg.pure(3), 2.0, 0.5)"],
    ids=["schur_condition", "fp_conditioning"],
)
def test_the_first_conditioning_loads_lapack_once(call):
    out = _counted(f"""
        sg.cs_minimize(sg.Mixture({{2: 0.5, 4: 0.5}}), 2.0)
        before = loads["_flapack"]
        {call}
        {call}
        print(before, sorted(loads.items()))
    """)
    assert out == "0 [('_flapack', 1), ('_lbfgsb', 1), ('_minpack', 1)]"


def test_a_serial_curve_imports_no_thread_pool():
    out = _counted("""
        sg.ground_state_curve(sg.Mixture({2: 0.5, 3: 0.5}), (0.4, 1.0), workers=1)
        print("concurrent.futures" in sys.modules)
    """)
    assert out == "False"


def test_threads_that_solve_first_load_each_module_once():
    # four threads reach the first descent and the first polish together; a
    # slow load widens the window in which an unlocked check would race
    out = _counted("""
        import time

        def slow(package, name):
            time.sleep(0.05)
            return counted(package, name)

        _compiled._load = slow
        sg.ground_state_curve(sg.Mixture({2: 0.5, 3: 0.5}), (0.4, 0.6, 0.8, 1.0), workers=4)
        print(sorted(loads.items()), sorted({"_lbfgsb", "_minpack", "_flapack"} & set(sys.modules)))
    """)
    assert out == "[('_lbfgsb', 1), ('_minpack', 1)] []"


def test_a_failed_load_raises_and_is_tried_again(monkeypatch):
    original = _compiled._flapack  # loaded now if it was not yet
    monkeypatch.delattr(_compiled, "_flapack")
    raised = []

    def missing(package, name):
        raised.append(ImportError(f"no compiled module {name}", name=name))
        raise raised[-1]

    monkeypatch.setattr(_compiled, "_load", missing)
    for attempt in (1, 2):
        with pytest.raises(ImportError) as excinfo:
            _compiled.cho_factor(np.eye(2))
        # the loader's own error, and each call tries the load again
        assert len(raised) == attempt and excinfo.value is raised[-1]
        assert "_flapack" not in vars(_compiled)
    monkeypatch.undo()
    assert _compiled._flapack is original


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_routine"):
        getattr(_compiled, "no_such_routine")

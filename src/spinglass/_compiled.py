"""The compiled scipy routines the solvers call, without scipy's package inits.

The package calls five compiled routines from three of scipy's extension
modules: L-BFGS-B's step setulb (optimize/_lbfgsb), MINPACK's hybrd
(optimize/_minpack) and LAPACK's dpotrf, dpotrs and dtrtrs
(linalg/_flapack), plus scipy.optimize.minimize_scalar's golden-section and
bounded Brent searches. Importing scipy.optimize or scipy.linalg runs their
package inits, which reach scipy's array-API layer (and through it
numpy.f2py) and cost most of the package's import time and memory. This
module loads the three extension modules straight from their files and
leaves them out of sys.modules, so a later import of scipy.optimize or
scipy.linalg loads its own copies as usual.

golden and bounded are step-for-step ports of scipy's
_minimize_scalar_golden (with a three-point bracket) and
_minimize_scalar_bounded: the same points are evaluated in the same order,
and each returns (x, value) as minimize_scalar's x and fun. cho_factor,
cho_solve and solve_lower reproduce scipy.linalg's cho_factor, cho_solve
and solve_triangular(lower=True, check_finite=False) on float64 blocks
(LAPACK's illegal-argument codes, which well-formed arrays never raise,
are not checked). tests/test_compiled.py pins all five against scipy.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
# _hybrd imports this on its first call; importing it here keeps that out of the first solve
import scipy._lib._ccallback  # noqa: F401


def _load(package: str, name: str):
    """scipy's extension module <package>/<name>, loaded from its file and
    not registered in sys.modules. Raises ImportError naming the module, the
    directory searched and scipy's version when no file is there."""
    directory = os.path.join(os.path.dirname(scipy.__file__), package)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(
            f"no compiled module {name} in {directory} (scipy {scipy.__version__})",
            name=name, path=directory,
        )
    spec = importlib.util.spec_from_file_location(name, path)
    previous = sys.modules.get(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension module registers itself under its spec name
    if previous is None:
        sys.modules.pop(name, None)
    else:
        sys.modules[name] = previous
    return module


setulb = _load("optimize", "_lbfgsb").setulb  # C port, scipy >= 1.15
hybrd = _load("optimize", "_minpack")._hybrd
_flapack = _load("linalg", "_flapack")


# ============================================================ scalar searches

_GR = 0.61803399  # scipy's golden ratio conjugate
_GC = 1.0 - _GR
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def golden(func, bracket, xtol: float):
    """minimize_scalar(func, bracket=(xa, xb, xc), method="golden",
    options={"xtol": xtol}) as (x, value). Raises ValueError when xb is not
    strictly between xa and xc, or func(xb) is not below both ends."""
    xa, xb, xc = bracket
    if xa > xc:
        xc, xa = xa, xc
    if not (xa < xb and xb < xc):
        raise ValueError(
            "Bracketing values (xa, xb, xc) do not fulfill this requirement: "
            "(xa < xb) and (xb < xc)"
        )
    fa, fb, fc = func(xa), func(xb), func(xc)
    if not (fb < fa and fb < fc):
        raise ValueError(
            "Bracketing values (xa, xb, xc) do not fulfill this requirement: "
            "(f(xb) < f(xa)) and (f(xb) < f(xc))"
        )
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GC * (xc - xb)
    else:
        x1, x2 = xb - _GC * (xb - xa), xb
    f1, f2 = func(x1), func(x2)
    for _ in range(5000):  # scipy's default maxiter
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GR * x1 + _GC * x3
            f2 = func(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GR * x2 + _GC * x0
            f1 = func(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def _sign(v: float) -> float:
    """numpy's sign(v) + (v == 0) at a float: 1 at zero."""
    return -1.0 if v < 0.0 else 1.0


def bounded(func, lo: float, hi: float, xatol: float):
    """minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol}) as (x, value), for finite lo <= hi: Brent's
    search, parabolic steps where they are acceptable, golden sections
    otherwise."""
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden_step = True
        if abs(e) > tol1:  # try a parabolic fit
            golden_step = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden_step = True
        if golden_step:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # scipy's default maxiter, counted in evaluations
            break
    return xf, fx


# ===================================================================== LAPACK


def cho_factor(a: np.ndarray):
    """scipy.linalg.cho_factor(a): the upper Cholesky factor of a square
    float64 block (the lower triangle keeps a's entries) and lower=False.
    Raises numpy's LinAlgError when a is not positive definite and
    ValueError when it holds an inf or NaN."""
    a = np.asarray_chkfinite(a)
    if a.size == 0:
        return np.empty_like(a, dtype=float), False
    c, info = _flapack.dpotrf(a, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, False


def cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve(factor, b) for a factor from cho_factor and a
    float64 right-hand side (a vector or one column per system)."""
    c, lower = factor
    b = np.asarray_chkfinite(b)
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    return _flapack.dpotrs(c, b, lower=lower)[0]


def solve_lower(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve_triangular(a, b, lower=True, check_finite=False)
    for float64 arrays: a Fortran-ordered a is solved as it is, any other
    as the transposed upper system, as scipy does."""
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    if a.flags.f_contiguous:
        x, info = _flapack.dtrtrs(a, b, lower=1)
    else:
        x, info = _flapack.dtrtrs(a.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x

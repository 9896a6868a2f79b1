"""Variational free-energy and ground-state problems over step order parameters.

Both temperatures are one variational problem over a step function with
breakpoints 0 < q_1 < ... < q_k < 1, one level per segment, and a tail
constant. At finite temperature the step function is the overlap CDF x,
its top level is pinned at 1, the tail is 0, and for top support point
q_hat < 1 the functional is

    value(x) = (1/2) [ beta^2 Int_0^1 x(t) xi'(t) dt
                       + Int_0^{q_hat} dt / Int_t^1 x(s) ds
                       + log(1 - q_hat) ].

At zero temperature (its beta -> infinity limit, the Chen-Sen formula) the
step function is a nondecreasing alpha >= 0 with every level free, the tail
is c > 0, and after integrating the middle term by parts

    value(alpha, c) = (1/2) [ xi'(1) c + Int_0^1 alpha(t) xi'(t) dt
                              + Int_0^1 dt / (Int_t^1 alpha(s) ds + c) ].

The two differ only in the tail term and in the pinned top level, so one
engine serves both. One closed-form kernel (piecewise log/ratio algebra)
gives the value with analytic gradients in breakpoints, levels and tail.
The tail values P_j = tail + Int_{q_j}^1 of the step function come from one
recurrence, which the kernel shares with the one step table behind the
certificate profiles and both order types' tail integrals.
One solver runs a seeded multistart quasi-Newton pass in unconstrained raw
coordinates, canonicalizes the resulting atoms, polishes interior solutions
by Newton root-finding on the gradient, and raises the atom count k until
the answer certifies. cs_minimize and zt_minimize are its two instances:
each only describes its temperature (raw-coordinate map, random-start
stream and scale, pinned top level, certificate and result type).

Optimality is certified by first-order conditions of obstacle type: the
support of the order parameter must sit inside the argmax of an explicitly
integrable profile function. A solve returns a certified answer or raises
SolverFailedError carrying the best candidate's residuals.

Solves are memoised per process: cs_minimize, zt_minimize and beta_c return
one shared immutable result for equal inputs (a bounded LRU memo), so the
composites that re-solve the same Parisi problem pay for it once. Errors
are not memoised; a failing solve raises afresh on every call.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar, root

from ._rng import STREAM_SOLVER, stream
from .errors import (
    BadInputError,
    NotBracketedError,
    RegimeMismatchError,
    SolverFailedError,
)
from .mixtures import Mixture

Q_CAP = 1.0 - 1e-4  # atoms never placed above this; keeps log(1 - q_hat) finite


# ====================================================================== types


@dataclass(frozen=True)
class OrderParameter:
    """Step overlap CDF: x = levels[i] on [q_i, q_{i+1}) with q_0 = 0, and
    x = 1 on [qs[-1], 1]. Empty tuples encode the replica-symmetric point
    (x identically 1, all overlap mass at 0).
    """

    qs: tuple[float, ...] = ()
    levels: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        qs = tuple(float(q) for q in self.qs)
        levels = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "levels", levels)
        if len(qs) != len(levels):
            raise BadInputError("need one level per atom")
        prev = 0.0
        for q in qs:
            if not prev < q < 1.0:
                raise BadInputError(f"atoms must be strictly increasing in (0,1): {qs}")
            prev = q
        prev = 0.0
        for v in levels:
            if not 0.0 <= v <= 1.0 or v < prev:
                raise BadInputError(f"levels must be nondecreasing in [0,1]: {levels}")
            prev = v
        if levels and levels[-1] >= 1.0:
            raise BadInputError("top level must stay below 1 (the top atom needs mass)")

    @classmethod
    def rs(cls) -> "OrderParameter":
        return cls((), ())

    @property
    def k(self) -> int:
        return len(self.qs)

    @property
    def q_hat(self) -> float:
        return self.qs[-1] if self.qs else 0.0

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.qs, self.levels))

    def measure_atoms(self) -> tuple[tuple[float, float], ...]:
        """(position, mass) pairs of the overlap measure, including 0."""
        lev_ext = (*self.levels, 1.0)
        out = [(0.0, lev_ext[0])]
        for i, q in enumerate(self.qs):
            out.append((q, lev_ext[i + 1] - lev_ext[i]))
        return tuple(out)

    def support(self, mass_tol: float = 1e-12) -> tuple[float, ...]:
        return tuple(p for p, mass in self.measure_atoms() if mass > mass_tol)

    def cdf(self, t):
        """Evaluate x(t); vectorized."""
        t_arr = np.asarray(t, dtype=float)
        lev_ext = np.asarray((*self.levels, 1.0))
        idx = np.searchsorted(np.asarray(self.qs), t_arr, side="right")
        out = lev_ext[idx]
        return float(out) if np.ndim(t) == 0 else out

    @property
    def segments(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """Engine layout: interior breakpoints, per-segment levels (top 1), tail 0."""
        return self.qs, (*self.levels, 1.0), 0.0

    def tail_integral(self, t):
        """D(t) = Int_t^1 x(s) ds; piecewise linear, vectorized."""
        return _StepTable(*self.segments).p(t)


@dataclass(frozen=True)
class ZeroTempOrder:
    """Step function alpha = values[l] on [q_l, q_{l+1}) plus the scalar c.

    steps lists (q_l, a_l) pairs; the first breakpoint must be 0. alpha is
    nondecreasing and nonnegative; unlike the finite-temperature CDF it need
    not reach any particular terminal value.
    """

    steps: tuple[tuple[float, float], ...]
    c: float

    def __post_init__(self) -> None:
        steps = tuple((float(q), float(a)) for q, a in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "c", float(self.c))
        if self.c <= 0.0:
            raise BadInputError(f"c must be positive, got {self.c}")
        if not steps or steps[0][0] != 0.0:
            raise BadInputError("steps must start at breakpoint 0")
        prev_q, prev_a = -1.0, 0.0
        for q, a in steps:
            if not (prev_q < q < 1.0):
                raise BadInputError(f"breakpoints must be strictly increasing in [0,1): {steps}")
            if a < prev_a or a < 0.0:
                raise BadInputError(f"step values must be nondecreasing and >= 0: {steps}")
            prev_q, prev_a = q, a

    @classmethod
    def constant(cls, a: float, c: float) -> "ZeroTempOrder":
        return cls(((0.0, a),), c)

    @property
    def k(self) -> int:
        return len(self.steps) - 1

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(q for q, _ in self.steps)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.steps)

    def support(self, mass_tol: float = 1e-12) -> tuple[float, ...]:
        """Jump points of alpha (atoms of the associated measure)."""
        out = []
        prev = 0.0
        for q, a in self.steps:
            if a - prev > mass_tol:
                out.append(q)
            prev = a
        return tuple(out)

    def alpha(self, t):
        t_arr = np.asarray(t, dtype=float)
        vals = np.asarray(self.values)
        idx = np.clip(
            np.searchsorted(np.asarray(self.breakpoints), t_arr, side="right") - 1,
            0,
            len(vals) - 1,
        )
        out = vals[idx]
        return float(out) if np.ndim(t) == 0 else out

    @property
    def segments(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """Engine layout: interior breakpoints, per-segment levels, tail c."""
        return self.breakpoints[1:], self.values, self.c

    def tail_integral(self, t):
        """B(t) = Int_t^1 alpha(s) ds; piecewise linear, vectorized."""
        qs, levels, _ = self.segments
        return _StepTable(qs, levels, 0.0).p(t)


@dataclass(frozen=True)
class OptimalityCertificate:
    """First-order optimality report.

    For finite temperature the profile is phi (an antiderivative of
    beta^2 xi' minus the accumulated inverse-square tail integral); the
    order parameter is optimal iff its support lies in argmax phi. For zero
    temperature the profile is -psi, the conditions being psi >= 0 with
    equality on the support, plus the endpoint identity Psi(1) = 0 whose
    absolute value is reported as edge_residual.
    """

    sup_phi: float
    residuals_at_support: tuple[float, ...]
    max_offsupport_violation: float
    tolerance: float
    support: tuple[float, ...]
    kind: str  # "finite_beta" or "zero_temp"
    edge_residual: float | None = None
    strictly_1rsb: bool | None = None

    @property
    def passes(self) -> bool:
        # "not r <= tol" so that a NaN residual fails
        tol = self.tolerance
        if any(not r <= tol for r in self.residuals_at_support):
            return False
        if not self.max_offsupport_violation <= tol:
            return False
        return self.edge_residual is None or self.edge_residual <= tol


def _config_from_json(cls, text: str, what: str, strict: bool = False):
    """Build the int/float-field config dataclass cls from a JSON object.

    Raises BadInputError on unparsable text, a non-object, or a field of the
    wrong type; unknown keys are ignored unless strict.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise BadInputError(f"{what} parse error: {e}") from e
    if not isinstance(obj, dict):
        raise BadInputError(f"{what} must be a JSON object")
    kw = {f.name: obj[f.name] for f in fields(cls) if f.name in obj}
    if strict and len(kw) < len(obj):
        raise BadInputError(f"{what} has unknown fields {sorted(set(obj) - set(kw))}")
    for f in fields(cls):
        # float fields also take JSON integers; no field takes a bool
        kinds = (int, float) if isinstance(f.default, float) else int
        if f.name in kw and (isinstance(kw[f.name], bool) or not isinstance(kw[f.name], kinds)):
            kind = type(f.default).__name__
            raise BadInputError(f"{what} field {f.name!r} must be {kind}, got {kw[f.name]!r}")
    return cls(**kw)


# atom cap of a zero-temperature solve when no config is given
ZT_K_MAX = 2


@dataclass(frozen=True)
class SolverConfig:
    k_max: int = 3
    starts: int = 8
    atom_tol: float = 1e-7
    cert_tol: float = 1e-6
    seed: int = 42
    mesh: int = 2000

    def __post_init__(self) -> None:
        for name in ("k_max", "starts", "seed", "mesh"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise BadInputError(f"{name} must be an integer, got {value!r}")
        if self.k_max < 0:
            raise BadInputError(f"k_max must be non-negative, got {self.k_max}")
        if self.starts < 1:
            raise BadInputError(f"starts must be at least 1, got {self.starts}")
        if not (0.0 < self.atom_tol < math.inf and 0.0 < self.cert_tol < math.inf):
            raise BadInputError("atom_tol and cert_tol must be positive and finite")
        if self.mesh < 100:
            raise BadInputError(f"certificate mesh must be >= 100, got {self.mesh}")

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        return _config_from_json(cls, text, "solver config")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class CsResult(NamedTuple):
    x_star: OrderParameter
    value: float
    certificate: OptimalityCertificate


class ZtResult(NamedTuple):
    order: ZeroTempOrder
    gs_energy: float
    certificate: OptimalityCertificate


# ============================================================ value closed forms


def _seg_inverse_integral(a: float, ep: float, d: float):
    """Int over one segment of 1/L(t) for linear L with right value ep > 0,
    slope -a <= 0 and width d >= 0, plus partials in (a, ep, d).

    The value is log1p(a d / ep) / a, continued smoothly through a = 0.
    """
    el = ep + a * d
    u = a * d / ep
    if u < 1e-5:
        # series of log1p(u)/u and its a-derivative; exact forms cancel badly here
        val = (d / ep) * (1.0 - u / 2.0 + u * u / 3.0 - u**3 / 4.0 + u**4 / 5.0)
        dval_da = (d * d / (ep * ep)) * (-0.5 + 2.0 * u / 3.0 - 0.75 * u * u + 0.8 * u**3)
    else:
        val = math.log1p(u) / a
        dval_da = (d / el - val) / a
    return val, dval_da, -d / (el * ep), 1.0 / el


def _tail_breaks(qext: Sequence[float], levels: Sequence[float], tail: float) -> list[float]:
    """P_j = tail + Int_{q_j}^1 of the step function equal to levels[j] on
    [qext[j], qext[j+1]), for j = 0..len(levels); scalar arithmetic."""
    n = len(levels)
    p = [0.0] * (n + 1)
    p[n] = tail
    for j in range(n - 1, -1, -1):
        p[j] = p[j + 1] + levels[j] * (qext[j + 1] - qext[j])
    return p


def _step_value_grad(
    m: Mixture, beta: float | None, qs: Sequence[float], levels: Sequence[float], tail: float
):
    """Closed-form value of either functional with its gradient in
    (q_1..q_k, levels, tail).

    levels holds one value per segment of [0, 1] cut at qs. With beta None
    this is the zero-temperature functional with c = tail, differentiated in
    all k + 1 levels. With beta set, levels[-1] is the pinned top level 1 and
    tail is 0; the top segment's divergent inverse integral is replaced by
    log(1 - q_hat), and only the k free levels are differentiated.
    """
    k = len(qs)
    qext = (0.0, *qs, 1.0)
    xi = [m.eval(t) for t in qext]
    xip = [m.eval(t, 1) for t in qext]

    a_term = sum(levels[l] * (xi[l + 1] - xi[l]) for l in range(k + 1))
    ga_q = [(levels[i - 1] - levels[i]) * xip[i] for i in range(1, k + 1)]
    ga_lev = [xi[l + 1] - xi[l] for l in range(k + 1)]

    p_break = _tail_breaks(qext, levels, tail)

    # segment j reads P_{j+1}, which contains lev_l d_l for every l > j. adj,
    # the sum of d t_term / d P_{j+1} over j < l, thus gives lev_l adj * d_l
    # and q_{l+1}, which widens d_l and narrows d_{l+1}, (lev_l - lev_{l+1}) * adj
    t_term = 0.0
    gt_q = [0.0] * k
    gt_lev = [0.0] * (k + 1)
    adj = 0.0
    for l in range(k + 1):
        d = qext[l + 1] - qext[l]
        gt_lev[l] = adj * d
        if l < k:
            gt_q[l] = (levels[l] - levels[l + 1]) * adj
        if beta is None or l < k:
            val, dval_da, dval_dep, dval_dd = _seg_inverse_integral(levels[l], p_break[l + 1], d)
            t_term += val
            gt_lev[l] += dval_da
            if l < k:
                gt_q[l] += dval_dd - levels[l + 1] * dval_dep
            if l:
                gt_q[l - 1] -= dval_dd
            adj += dval_dep

    if beta is None:
        xi1p = m.eval(1.0, 1)
        value = 0.5 * (xi1p * tail + a_term + t_term)
        grad_q = np.array([0.5 * (ga_q[i] + gt_q[i]) for i in range(k)])
        grad_lev = np.array([0.5 * (ga_lev[l] + gt_lev[l]) for l in range(k + 1)])
        return value, grad_q, grad_lev, 0.5 * (xi1p + adj)
    b2 = beta * beta
    value = 0.5 * (b2 * a_term + t_term + (math.log1p(-qext[k]) if k else 0.0))
    grad_q = np.array([0.5 * (b2 * ga_q[i] + gt_q[i]) for i in range(k)])
    if k:
        grad_q[k - 1] -= 0.5 / (1.0 - qext[k])
    grad_lev = np.array([0.5 * (b2 * ga_lev[l] + gt_lev[l]) for l in range(k)])
    return value, grad_q, grad_lev, 0.0


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise BadInputError(f"beta must be positive and finite, got {beta}")


def _check_field(m: Mixture, allow_field: bool) -> None:
    if m.has_linear and not allow_field:
        raise RegimeMismatchError(
            "mixture has a degree-1 component; pass allow_field=True to use the "
            "folded-covariance expression (experimental)"
        )


def cs_value(m: Mixture, beta: float, x: OrderParameter, allow_field: bool = False) -> float:
    """Finite-temperature functional value at a step order parameter."""
    return cs_value_with_grad(m, beta, x, allow_field)[0]


def cs_value_with_grad(m: Mixture, beta: float, x: OrderParameter, allow_field: bool = False):
    """Value plus gradient arrays (d/dq_i, d/dx_l); for optimizer and tests."""
    _check_beta(beta)
    _check_field(m, allow_field)
    value, grad_q, grad_x, _ = _step_value_grad(m, beta, *x.segments)
    return value, grad_q, grad_x


def zt_value(m: Mixture, order: ZeroTempOrder, allow_field: bool = False) -> float:
    """Zero-temperature functional value at a step order parameter."""
    return zt_value_with_grad(m, order, allow_field)[0]


def zt_value_with_grad(m: Mixture, order: ZeroTempOrder, allow_field: bool = False):
    _check_field(m, allow_field)
    return _step_value_grad(m, None, *order.segments)


def rs_value(m: Mixture, beta: float) -> float:
    """Value at the replica-symmetric point: beta^2 (xi(1) - xi(0)) / 2."""
    return 0.5 * beta * beta * (m.eval(1.0) - m.eval(0.0))


# ======================================================== certificate profiles


class _StepTable:
    """Breakpoint table of P(t) = tail + Int_t^1 lev(s) ds for a step
    function lev on [0, 1] cut at qs, with lev constant on each segment.

    P is piecewise linear and decreasing; its breakpoint values come from
    _tail_breaks. Provides P(t), G(t) = Int_0^t ds/P(s)^2 and H(t) =
    Int_0^t G, all exact per segment; with tail = 0, G and H diverge at
    t -> 1 and must only be queried strictly inside [0, 1).
    """

    def __init__(self, qs: Sequence[float], levels: Sequence[float], tail: float):
        qext = (0.0, *qs, 1.0)
        self.qext = np.asarray(qext, dtype=float)
        self.levels = np.asarray(levels, dtype=float)
        p = _tail_breaks(qext, levels, tail)
        self.p_break = np.asarray(p)
        n = len(levels)
        g = np.zeros(n + 1)
        h = np.zeros(n + 1)
        for j in range(n):
            d = qext[j + 1] - qext[j]
            if p[j + 1] <= 0.0:
                g[j + 1] = np.inf
                h[j + 1] = np.inf
            else:
                g[j + 1] = g[j] + d / (p[j] * p[j + 1])
                h[j + 1] = h[j] + g[j] * d + self._inner(levels[j], p[j], d)
        self.g_break = g
        self.h_break = h

    @staticmethod
    def _inner(lev, p_left, sigma):
        """Int_0^sigma tau / (P_left (P_left - lev tau)) dtau, vectorized."""
        lev = np.asarray(lev, dtype=float)
        p_left = np.asarray(p_left, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        u = lev * sigma / p_left
        small = u < 1e-4
        u_s = np.where(small, u, 0.0)
        series = (sigma * sigma / (2.0 * p_left * p_left)) * (
            1.0 + 2.0 * u_s / 3.0 + 0.5 * u_s * u_s + 0.4 * u_s**3
        )
        lev_safe = np.where(small, 1.0, lev)
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = (1.0 / lev_safe**2) * np.log(p_left / (p_left - lev_safe * sigma)) - sigma / (
                lev_safe * p_left
            )
        return np.where(small, series, exact)

    def _locate(self, t):
        idx = np.searchsorted(self.qext, t, side="right") - 1
        return np.clip(idx, 0, len(self.levels) - 1)

    def p(self, t):
        """P(t), a float for scalar t."""
        t_arr = np.asarray(t, dtype=float)
        j = self._locate(t_arr)
        out = self.p_break[j] - self.levels[j] * (t_arr - self.qext[j])
        return float(out) if np.ndim(t) == 0 else out

    def g(self, t):
        t = np.asarray(t, dtype=float)
        j = self._locate(t)
        pt = self.p_break[j] - self.levels[j] * (t - self.qext[j])
        return self.g_break[j] + (t - self.qext[j]) / (pt * self.p_break[j])

    def h(self, t):
        t = np.asarray(t, dtype=float)
        j = self._locate(t)
        sigma = t - self.qext[j]
        return self.h_break[j] + self.g_break[j] * sigma + self._inner(
            self.levels[j], self.p_break[j], sigma
        )


def _phi_function(m: Mixture, beta: float, x: OrderParameter):
    prof = _StepTable(*x.segments)
    xi0 = m.eval(0.0)

    def phi(t):
        return beta * beta * (m.eval(t) - xi0) - prof.h(t)

    return phi


def _psi_function(m: Mixture, order: ZeroTempOrder):
    prof = _StepTable(*order.segments)
    xi1 = m.eval(1.0)
    h1 = float(prof.h(np.asarray(1.0)))

    def psi(s):
        return (xi1 - m.eval(s)) - (h1 - prof.h(s))

    edge = m.eval(1.0, 1) - float(prof.g(np.asarray(1.0)))
    return psi, edge


def _refined_max(fun, grid_ts, grid_vals):
    """Max over grid plus a bounded local polish around the grid argmax."""
    i = int(np.argmax(grid_vals))
    best_t, best_v = float(grid_ts[i]), float(grid_vals[i])
    lo = float(grid_ts[max(i - 1, 0)])
    hi = float(grid_ts[min(i + 1, len(grid_ts) - 1)])
    if hi > lo:
        res = minimize_scalar(
            lambda t: -float(fun(np.asarray(t))),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-13},
        )
        if -res.fun > best_v:
            best_t, best_v = float(res.x), float(-res.fun)
    return best_t, best_v


def _certificate_mesh(mesh: int, anchor_pts: Sequence[float], top: float) -> np.ndarray:
    if mesh < 100:
        raise BadInputError(f"certificate mesh must be >= 100, got {mesh}")
    ts = [np.linspace(0.0, top, mesh)]
    offs = np.geomspace(1e-9, 1e-2, 25)
    for q in anchor_pts:
        ts.append(np.clip(q + offs, 0.0, top))
        ts.append(np.clip(q - offs, 0.0, top))
        ts.append(np.asarray([q]))
    # log-dense points near 0 catch maxima that hug the origin
    ts.append(np.geomspace(1e-12, top, 200))
    out = np.unique(np.concatenate(ts))
    return out


def talagrand_certificate(
    m: Mixture,
    beta: float,
    x: OrderParameter,
    mesh: int = 2000,
    tolerance: float = 1e-6,
    allow_field: bool = False,
) -> OptimalityCertificate:
    """First-order optimality check at finite temperature.

    Computes the profile phi exactly on a refined mesh, takes its sup, and
    reports sup - phi(q) at every atom of the overlap measure. The order
    parameter is optimal iff all residuals vanish (support inside argmax).
    """
    _check_beta(beta)
    _check_field(m, allow_field)
    phi = _phi_function(m, beta, x)
    support = x.support()
    ts = _certificate_mesh(mesh, support, 1.0 - 1e-9)
    vals = phi(ts)
    _, sup_phi = _refined_max(phi, ts, vals)
    sup_phi = max(sup_phi, 0.0 if not support else -np.inf)
    phi_supp = [float(phi(np.asarray(q))) for q in support]
    residuals = tuple(sup_phi - v for v in phi_supp)
    violation = sup_phi - max(phi_supp) if phi_supp else sup_phi
    return OptimalityCertificate(
        sup_phi=sup_phi,
        residuals_at_support=residuals,
        max_offsupport_violation=violation,
        tolerance=tolerance,
        support=support,
        kind="finite_beta",
    )


def zero_temp_certificate(
    m: Mixture,
    order: ZeroTempOrder,
    mesh: int = 2000,
    tolerance: float = 1e-6,
    allow_field: bool = False,
) -> OptimalityCertificate:
    """First-order optimality check at zero temperature.

    Conditions: psi >= 0 on [0,1] with psi = 0 on the jump set of alpha, and
    the endpoint identity Psi(1) = 0. Reported through the shared certificate
    type with phi := -psi, so sup_phi = -min psi.
    """
    _check_field(m, allow_field)
    psi, edge = _psi_function(m, order)
    support = order.support()
    ts = _certificate_mesh(mesh, support, 1.0)
    vals = -psi(ts)
    _, sup_phi = _refined_max(lambda t: -psi(t), ts, vals)
    psi_supp = [float(psi(np.asarray(q))) for q in support]
    residuals = tuple(abs(v) for v in psi_supp)
    violation = max(0.0, sup_phi)
    # strict two-level structure: psi vanishes only near the endpoints
    scale = max(1.0, m.eval(1.0, 1))
    zero_tol = max(10.0 * tolerance, 1e-8) * scale
    zero_set = ts[vals >= -zero_tol]
    interior = zero_set[(zero_set > 0.02) & (zero_set < 0.98)]
    flag = bool(len(interior) == 0)
    cert = OptimalityCertificate(
        sup_phi=sup_phi,
        residuals_at_support=residuals,
        max_offsupport_violation=violation,
        tolerance=tolerance,
        support=support,
        kind="zero_temp",
        edge_residual=abs(edge),
        strictly_1rsb=None,
    )
    object.__setattr__(cert, "strictly_1rsb", flag and cert.passes)
    return cert


# ================================================================ solver engine


def _cumsum(xs: list[float]) -> list[float]:
    """Running sums of xs, added in np.cumsum's order."""
    out = list(xs)
    for i in range(1, len(out)):
        out[i] = out[i - 1] + out[i]
    return out


def _softmax_partials(e: list[float]):
    """Softmax weights p of the exponentials e and their partial sums
    p_0, p_0 + p_1, ... (all but the last)."""
    # numpy sums fewer than 8 terms in order and more pairwise
    total = _cumsum(e)[-1] if len(e) < 8 else float(np.sum(e))
    p = [v / total for v in e]
    return p, _cumsum(p)[:-1]


def _softmax_pullback(p: list[float], partial: list[float], g: np.ndarray) -> list[float]:
    """Pull a gradient g in the partial sums back to the softmax's raw
    coordinates: d partial_i / d raw_j = p_j (1{j <= i} - partial_i)."""
    if not partial:
        return [0.0] * len(p)
    # numpy's dot: its BLAS reduction order is not a Python loop's
    dot = float(g @ np.array(partial))
    suffix = [*_cumsum(g.tolist()[::-1])[::-1], 0.0]
    return [pj * (sj - dot) for pj, sj in zip(p, suffix)]


def _cs_levels_raw(levels, tail) -> np.ndarray:
    x = np.maximum.accumulate(np.clip(levels[:-1], 1e-6, 1.0 - 1e-6))
    return np.log(np.clip(np.diff(np.concatenate([[0.0], x, [1.0]])), 1e-10, None))


def _zt_levels_raw(levels, tail) -> np.ndarray:
    incr = np.clip(np.diff(np.concatenate([[0.0], levels])), 1e-8, None)
    return np.concatenate([np.log(incr), [math.log(max(tail, 1e-8))]])


@dataclass(frozen=True)
class _Temperature:
    """What the shared solver needs to know about one of the two functionals.

    beta is None at zero temperature. With beta set the top level is pinned
    at 1, the tail is fixed at 0 and breakpoints stay below Q_CAP; at zero
    temperature every level and the tail c are free. _decode maps raw
    coordinates to both; levels_to_raw inverts its level and tail part.
    """

    beta: float | None
    substream: int
    start_scale: float
    levels_to_raw: Callable
    order: Callable  # (qs, levels, tail) -> OrderParameter | ZeroTempOrder
    certify: Callable  # order -> OptimalityCertificate
    result: type  # CsResult | ZtResult, both laid out (order, value, certificate)

    @property
    def pinned(self) -> bool:
        return self.beta is not None


def _decode(raw: np.ndarray, k: int, pinned: bool):
    """Raw coordinates -> (qs, levels, tail) as Python floats, plus what the
    gradient pullback reads: the breakpoint softmax (p, partial) and either
    the level softmax (pinned) or the increments and c (zero temperature).

    A cumulative softmax over the first k + 1 coordinates (none when k = 0)
    places the breakpoints in (0, Q_CAP). At finite temperature a second one
    gives the k free levels in (0, 1) under the pinned top level 1, and the
    tail is 0. At zero temperature exponentiated increments give the
    nondecreasing levels and the last coordinate is log c, both clipped to
    [-60, 60] in the exponent so that rogue line-search steps cannot
    overflow. The arithmetic follows numpy's order step for step.
    """
    r = raw.tolist()
    n_q = k + 1 if k else 0
    rq, rl = r[:n_q], r[n_q:]
    top_q, top_l = max(rq, default=0.0), max(rl)
    args = [v - top_q for v in rq]
    args += [v - top_l for v in rl] if pinned else [min(max(v, -60.0), 60.0) for v in rl]
    e = np.exp(args).tolist()
    q_soft = _softmax_partials(e[:n_q]) if n_q else ([], [])
    qs = tuple(Q_CAP * v for v in q_soft[1])
    if pinned:
        lev_soft = _softmax_partials(e[n_q:])
        return qs, (*lev_soft[1], 1.0), 0.0, q_soft, lev_soft
    incr, c = e[n_q:-1], e[-1]
    return qs, tuple(_cumsum(incr)), c, q_soft, (incr, c)


def _raw_objective(raw: np.ndarray, m: Mixture, k: int, beta: float | None):
    """Value and raw-coordinate gradient of the functional at beta (zero
    temperature when None) with k breakpoints."""
    qs, levels, tail, q_soft, lev_aux = _decode(raw, k, beta is not None)
    value, gq, g_lev, g_tail = _step_value_grad(m, beta, qs, levels, tail)
    grad = [Q_CAP * v for v in _softmax_pullback(*q_soft, gq)]
    if beta is not None:
        grad += _softmax_pullback(*lev_aux, g_lev)
    else:
        incr, c = lev_aux
        grad += [a * s for a, s in zip(incr, _cumsum(g_lev.tolist()[::-1])[::-1])]
        grad.append(g_tail * c)
    return value, np.array(grad)


def _split_widest_gap(qs, levels, tail, temp: _Temperature) -> np.ndarray:
    """Raw warm start one level up: halve the widest gap between breakpoints
    and give the new left segment a lowered copy of the split segment's level."""
    edges = (0.0, *qs, Q_CAP if temp.pinned else 1.0)
    j = int(np.argmax(np.diff(edges)))
    if temp.pinned and j == len(qs):
        # the pinned top keeps the right half; the left half takes the level
        # below it (one half when there is none)
        new_level = levels[j - 1] if j else 0.5
    else:
        new_level = max(levels[j] - 0.05, 0.5 * levels[j])
    q_new = np.insert(qs, j, (edges[j] + edges[j + 1]) / 2.0)
    gq = np.clip(np.diff(np.concatenate([[0.0], q_new / Q_CAP, [1.0]])), 1e-10, None)
    return np.concatenate([np.log(gq), temp.levels_to_raw(np.insert(levels, j, new_level), tail)])


def _level_candidate(m: Mixture, temp: _Temperature, k: int, cfg: SolverConfig, warm):
    """Best candidate with k atoms from the seeded multistart plus a
    warm start split from the previous level's answer."""
    if temp.pinned and not k:
        return (), (1.0,), 0.0  # the replica-symmetric point has no free coordinate
    # the breakpoint softmax takes k + 1 coordinates (none when k = 0)
    size = (k + 1 if k else 0) + k + 1 + (0 if temp.pinned else 1)
    raws = [
        stream(cfg.seed, STREAM_SOLVER, temp.substream | (k << 10) | s).normal(0.0, temp.start_scale, size)
        for s in range(cfg.starts)
    ]
    if warm is not None and len(warm[0]) == k - 1:
        raws.append(_split_widest_gap(*warm, temp))
    best = None
    for raw0 in raws:
        res = minimize(
            _raw_objective,
            raw0,
            args=(m, k, temp.beta),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 1000, "ftol": 1e-16, "gtol": 1e-12},
        )
        qs, levels, tail = _decode(res.x, k, temp.pinned)[:3]
        key = (round(float(res.fun), 12), qs, levels, tail)
        if best is None or key < best:
            best = key
    return best[1:]


def _canonical(qs, levels, pinned: bool, merge_tol: float = 1e-7, mass_tol: float = 1e-6):
    """Merge coincident atoms, drop massless ones, snap a tiny bottom level
    to 0. levels has one entry per segment; when pinned, the top entry is the
    level 1 and survives every merge."""
    qs = list(map(float, qs))
    lev = list(map(float, levels))
    changed = True
    while changed:
        changed = False
        # a breakpoint within merge_tol of its left neighbour (or of 0) goes
        # with the narrow segment; the two jumps pool at their mass average
        for j in range(len(qs)):
            left = qs[j - 1] if j else 0.0
            if qs[j] - left < merge_tol:
                if j:
                    m_left, m_right = lev[j] - lev[j - 1], lev[j + 1] - lev[j]
                    qs[j - 1] = (
                        (left * m_left + qs[j] * m_right) / (m_left + m_right)
                        if m_left + m_right > 0
                        else 0.5 * (left + qs[j])
                    )
                qs.pop(j)
                lev.pop(j)
                changed = True
                break
        if changed:
            continue
        # massless atoms: remove the breakpoint, width-average the level
        for j in range(len(qs)):
            if lev[j + 1] - lev[j] < mass_tol:
                if pinned and j + 1 == len(qs):
                    # the pinned top level extends down over the merged segment
                    qs.pop(j)
                    lev.pop(j)
                else:
                    left_w = qs[j] - (qs[j - 1] if j else 0.0)
                    right_w = (qs[j + 1] if j + 1 < len(qs) else 1.0) - qs[j]
                    lev[j] = (lev[j] * left_w + lev[j + 1] * right_w) / (left_w + right_w)
                    qs.pop(j)
                    lev.pop(j + 1)
                changed = True
                break
    if 0.0 < lev[0] < mass_tol:
        lev[0] = 0.0
    return tuple(qs), tuple(lev)


def _feasible(qs, levels, tail, pinned: bool) -> bool:
    """Breakpoints strictly increasing below the cap, levels nondecreasing
    from >= 0, and a top atom with mass under the pinned level 1 (finite
    temperature) or a positive c (zero temperature)."""
    cap = Q_CAP + 1e-12 if pinned else 1.0
    prev = 0.0
    for q in qs:
        if not prev + 1e-12 < q < cap:
            return False
        prev = q
    prev = 0.0
    for a in levels:
        if a < prev - 1e-14 or a < 0.0:
            return False
        prev = a
    if pinned:
        return len(levels) == 1 or levels[-2] < 1.0
    return tail > 0.0


def _polish(m: Mixture, temp: _Temperature, qs, levels, tail, value: float):
    """Newton polish of the stationarity system over the free coordinates.

    A level pinned at 0 stays pinned, as does the top level 1 at finite
    temperature; c is free at zero temperature. Keeps the result only if it
    stays feasible, moves by at most 1e-2 and does not increase the value.
    """
    k = len(qs)
    free = list(range(1 if levels[0] == 0.0 else 0, k if temp.pinned else k + 1))
    free_tail = not temp.pinned
    start = (qs, levels, tail), value

    def assemble(vec):
        lev = list(levels)
        for idx, pos in enumerate(free):
            lev[pos] = vec[k + idx]
        return tuple(vec[:k]), tuple(lev), float(vec[-1]) if free_tail else tail

    def fun(vec):
        state = assemble(vec)
        if not _feasible(*state, temp.pinned):
            return np.full(len(vec), 1e6)
        _, gq, g_lev, g_tail = _step_value_grad(m, temp.beta, *state)
        return np.concatenate([gq, g_lev[free], [g_tail] if free_tail else []])

    v0 = np.concatenate([np.asarray(qs), np.asarray(levels)[free], [tail] if free_tail else []])
    if not len(v0):
        return start
    sol = root(fun, v0, method="hybr", tol=1e-13)
    if not sol.success:
        return start
    state = assemble(sol.x)
    if not _feasible(*state, temp.pinned) or np.max(np.abs(sol.x - v0)) > 1e-2:
        return start
    new_value = _step_value_grad(m, temp.beta, *state)[0]
    if new_value > value + 1e-10:
        return start
    return state, new_value


# equal inputs solve once per process; the memo keeps this many answers
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _solve(m: Mixture, beta: float | None, cfg: SolverConfig, allow_field: bool):
    """Refine the atom count k = 0, 1, ... until the certificate
    passes and a further level gains less than atom_tol. Returns the
    certified answer with the smallest k among those within atom_tol of the
    best certified value; raises SolverFailedError when none certifies.

    beta None is zero temperature. Inputs arrive validated and normalised
    (beta a float, cfg a SolverConfig), so equal inputs share one memo entry;
    an error is not memoised.
    """
    if beta is None:
        temp = _Temperature(
            beta=None,
            substream=1 << 20,
            start_scale=1.0,
            levels_to_raw=_zt_levels_raw,
            order=lambda qs, levels, tail: ZeroTempOrder(tuple(zip((0.0, *qs), levels)), tail),
            certify=lambda order: zero_temp_certificate(
                m, order, mesh=cfg.mesh, tolerance=cfg.cert_tol, allow_field=allow_field
            ),
            result=ZtResult,
        )
    else:
        temp = _Temperature(
            beta=beta,
            substream=0,
            start_scale=1.5,
            levels_to_raw=_cs_levels_raw,
            order=lambda qs, levels, tail: OrderParameter(qs, levels[:-1]),
            certify=lambda x: talagrand_certificate(
                m, beta, x, mesh=cfg.mesh, tolerance=cfg.cert_tol, allow_field=allow_field
            ),
            result=CsResult,
        )
    mass_tol = max(cfg.atom_tol * 10, 1e-6)
    history = []
    warm = None
    for k in range(cfg.k_max + 1):
        state = _level_candidate(m, temp, k, cfg, warm)
        # cleanup and polish interleave until the structure is stable
        for _ in range(3):
            qs, levels, tail = state
            qs, levels = _canonical(qs, levels, temp.pinned, mass_tol=mass_tol)
            value = _step_value_grad(m, temp.beta, qs, levels, tail)[0]
            polished, value = _polish(m, temp, qs, levels, tail, value)
            stable = polished == state
            state = polished
            if stable:
                break
        order = temp.order(*state)
        cert = temp.certify(order)
        history.append(temp.result(order, float(value), cert))
        warm = state
        if cert.passes and len(history) >= 2 and history[-2][1] - value < cfg.atom_tol:
            break
    passing = [h for h in history if h[2].passes]
    if passing:
        best_val = min(h[1] for h in passing)
        near = [h for h in passing if h[1] <= best_val + cfg.atom_tol]
        return min(near, key=lambda h: (h[0].k, h[1]))
    _, value, cert = min(history, key=lambda h: h[1])
    edge = "" if cert.edge_residual is None else f", edge residual {cert.edge_residual:.3g}"
    raise SolverFailedError(
        f"no atom count up to k_max={cfg.k_max} produced a passing {cert.kind} "
        f"certificate; best value {value:.9g} with residuals {cert.residuals_at_support}, "
        f"off-support violation {cert.max_offsupport_violation:.3g}{edge}"
    )


def cs_minimize(
    m: Mixture,
    beta: float,
    config: SolverConfig | None = None,
    allow_field: bool = False,
) -> CsResult:
    """Minimize the finite-temperature functional over atomic order parameters.

    Refines the atom count k = 0, 1, ... until the optimality certificate
    passes and a further level brings less than atom_tol improvement.
    The atom cap is config.k_max (3 without a config). Raises
    SolverFailedError when no k up to the cap certifies.

    Equal inputs return one shared immutable result per process (no config
    and SolverConfig() are equal inputs, as are an int beta and its float);
    an error is not cached and is raised again on every call.
    """
    _check_beta(beta)
    _check_field(m, allow_field)
    return _solve(m, float(beta), config or SolverConfig(), allow_field)


def zt_minimize(
    m: Mixture,
    config: SolverConfig | None = None,
    allow_field: bool = False,
) -> ZtResult:
    """Minimize the zero-temperature functional over step order parameters.

    Returns the order parameter, the limiting normalized maximum of the
    field (the ground-state energy density), and the optimality certificate
    with the strict two-level flag filled in. The atom cap is config.k_max;
    without a config it is ZT_K_MAX (2). Raises SolverFailedError when no k
    up to the cap certifies.

    Equal inputs return one shared immutable result per process (no config
    and SolverConfig(k_max=ZT_K_MAX) are equal inputs); an error is not
    cached and is raised again on every call.
    """
    _check_field(m, allow_field)
    return _solve(m, None, config or SolverConfig(k_max=ZT_K_MAX), allow_field)


# ================================================================ criticality


def _rs_profile_sup(m: Mixture, beta: float) -> float:
    """sup over [0,1) of beta^2 (xi(s) - xi(0)) + s + log(1 - s)."""
    xi0 = m.eval(0.0)

    def f(s):
        s = np.asarray(s, dtype=float)
        return beta * beta * (m.eval(s) - xi0) + s + np.log1p(-s)

    ts = np.unique(
        np.concatenate(
            [np.geomspace(1e-12, 0.5, 1500), np.linspace(0.5, 1.0 - 1e-12, 1500)]
        )
    )
    vals = f(ts)
    return _refined_max(f, ts, vals)[1]


def beta_c(m: Mixture, tol: float = 1e-8, beta_max: float = 64.0) -> float:
    """Critical inverse temperature: largest beta at which the minimum is
    attained at the replica-symmetric point, located by bisection on the
    replica-symmetric optimality test to within tol.

    Equal inputs return one shared result per process; an error is not
    cached and is raised again on every call.
    """
    if not 0.0 < tol < math.inf:
        raise BadInputError(f"bisection tolerance must be positive and finite, got {tol}")
    if not 0.0 < beta_max < math.inf:
        raise BadInputError(f"beta_max must be positive and finite, got {beta_max}")
    if m.has_linear:
        raise NotBracketedError(
            "a degree-1 component destabilizes the replica-symmetric point at "
            "every positive beta; no critical temperature exists"
        )
    return _beta_c(m, float(tol), float(beta_max))


@lru_cache(maxsize=_CACHE_SIZE)
def _beta_c(m: Mixture, tol: float, beta_max: float) -> float:
    lo = 1e-9
    if _rs_profile_sup(m, lo) > 0.0:
        raise NotBracketedError("replica-symmetric point already unstable at beta ~ 0")
    if _rs_profile_sup(m, beta_max) <= 0.0:
        raise NotBracketedError(f"no symmetry breaking detected up to beta_max={beta_max}")
    hi = beta_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: the bracket cannot shrink below tol
        if _rs_profile_sup(m, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ============================================================= pushforward law


def _step_l1(breaks_a, vals_a, breaks_b, vals_b) -> float:
    """Exact L1 distance on [0,1] of two step functions given as
    (interior breakpoints, per-segment values with len = breaks + 1)."""
    cuts = np.unique(np.concatenate([[0.0, 1.0], breaks_a, breaks_b]))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        va = vals_a[np.searchsorted(breaks_a, mid, side="right")]
        vb = vals_b[np.searchsorted(breaks_b, mid, side="right")]
        total += abs(va - vb) * (hi - lo)
    return float(total)


def _atom_match_dev(atoms_a, atoms_b):
    """Hausdorff-style position deviation and matched mass deviation."""
    if not atoms_a and not atoms_b:
        return 0.0, 0.0
    if not atoms_a or not atoms_b:
        return 1.0, 1.0
    pos_dev = 0.0
    mass_dev = 0.0
    for src, dst in ((atoms_a, atoms_b), (atoms_b, atoms_a)):
        for p, mass in src:
            j = int(np.argmin([abs(p - p2) for p2, _ in dst]))
            pos_dev = max(pos_dev, abs(p - dst[j][0]))
            mass_dev = max(mass_dev, abs(mass - dst[j][1]))
    return pos_dev, mass_dev


@dataclass(frozen=True)
class PushforwardReport:
    """Agreement between independently solved reduced problems and the
    transport formulas applied to the base solution."""

    q: float
    x_l1_dev: float
    x_atom_pos_dev: float
    x_atom_mass_dev: float
    alpha_l1_dev: float | None
    c_dev: float | None
    support_relation_dev: float
    base: CsResult
    band_solution: CsResult
    radial_solution: ZtResult | None

    @property
    def max_dev(self) -> float:
        devs = [self.x_l1_dev, self.x_atom_pos_dev, self.x_atom_mass_dev, self.support_relation_dev]
        if self.alpha_l1_dev is not None:
            devs.append(self.alpha_l1_dev)
        if self.c_dev is not None:
            devs.append(self.c_dev)
        return max(devs)


def pushforward_check(
    m: Mixture,
    beta: float,
    q: float,
    config: SolverConfig | None = None,
) -> PushforwardReport:
    """Check the transport of the minimizer to the band and radial problems.

    The base minimizer x at (m, beta) predicts, for any support point q > 0:
    the band problem (covariance recentered at q, rescaled to unit overlap)
    has minimizer t -> x(q + (1-q) t), and the radial problem (covariance
    restricted to radius sqrt(q)) has zero-temperature minimizer
    alpha(t) = beta x(q t) with c = (beta / q) Int_q^1 x.
    Both reduced problems are solved from scratch and compared.
    """
    cfg = config or SolverConfig()
    base = cs_minimize(m, beta, config=cfg)
    supp = base.x_star.support()
    dists = [abs(q - s) for s in supp]
    if not dists or min(dists) > 1e-6:
        raise BadInputError(
            f"q={q} is not a support point of the minimizer (support {supp})"
        )
    q = supp[int(np.argmin(dists))]

    xi_q, xi_bar, xi_hat = m.shift_restrict(q)
    band = cs_minimize(xi_bar, beta, config=cfg)

    # predicted band CDF: t -> x(q + (1-q) t)
    pred_breaks = tuple(
        (qi - q) / (1.0 - q) for qi in base.x_star.qs if qi > q + 1e-12
    )
    base_lev_ext = (*base.x_star.levels, 1.0)
    n_below = sum(1 for qi in base.x_star.qs if qi <= q + 1e-12)
    pred_vals = base_lev_ext[n_below:]
    ind_breaks = band.x_star.qs
    ind_vals = (*band.x_star.levels, 1.0)
    x_l1 = _step_l1(
        np.asarray(pred_breaks), np.asarray(pred_vals), np.asarray(ind_breaks), np.asarray(ind_vals)
    )
    pred_atoms = [(0.0, pred_vals[0])] + [
        (b, pred_vals[i + 1] - pred_vals[i]) for i, b in enumerate(pred_breaks)
    ]
    ind_atoms = list(OrderParameter(ind_breaks, band.x_star.levels).measure_atoms())
    pos_dev, mass_dev = _atom_match_dev(
        [a for a in pred_atoms if a[1] > 1e-9], [a for a in ind_atoms if a[1] > 1e-9]
    )

    # support relation: lift independent band atoms back to [q, 1]
    rel_dev = 0.0
    for t in (0.0, *ind_breaks):
        lifted = q + (1.0 - q) * t
        rel_dev = max(rel_dev, min(abs(lifted - s) for s in supp))
    for s in supp:
        if s >= q - 1e-12:
            t = (s - q) / (1.0 - q)
            rel_dev = max(rel_dev, min(abs(t - u) for u in (0.0, *ind_breaks)))

    alpha_l1 = c_dev = None
    radial = None
    if q > 0.0:
        radial = zt_minimize(xi_hat, config=replace(cfg, k_max=max(cfg.k_max - 1, 1)))
        pred_a_breaks = tuple(qi / q for qi in base.x_star.qs if qi < q - 1e-12)
        pred_a_vals = tuple(beta * v for v in base_lev_ext[: len(pred_a_breaks) + 1])
        alpha_l1 = _step_l1(
            np.asarray(pred_a_breaks),
            np.asarray(pred_a_vals),
            np.asarray(radial.order.breakpoints[1:]),
            np.asarray(radial.order.values),
        )
        c_pred = (beta / q) * base.x_star.tail_integral(q)
        c_dev = abs(radial.order.c - c_pred)

    return PushforwardReport(
        q=q,
        x_l1_dev=x_l1,
        x_atom_pos_dev=pos_dev,
        x_atom_mass_dev=mass_dev,
        alpha_l1_dev=alpha_l1,
        c_dev=c_dev,
        support_relation_dev=rel_dev,
        base=base,
        band_solution=band,
        radial_solution=radial,
    )

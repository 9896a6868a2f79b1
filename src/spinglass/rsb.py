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
engine serves both, and both order types hand it the same (qs, levels,
tail) layout as their segments. One closed-form kernel (piecewise log/ratio
algebra) gives the value with analytic gradients in breakpoints, levels and
tail. Above it each job on the layout has one path: _check_layout validates
both order types, _jumps gives their atoms and support, the step table's
one tail recurrence (shared with the kernel) gives their step values, tail
integrals and certificate profiles, and _certify builds both certificates.
One solver runs a seeded multistart quasi-Newton pass in unconstrained raw
coordinates, canonicalizes the resulting atoms, polishes interior solutions
by Newton root-finding on the gradient, and raises the atom count k until
the answer certifies. The quasi-Newton pass is L-BFGS-B, driven through
scipy's compiled step routine setulb directly: it takes the iterates that
scipy.optimize.minimize would, without minimize's per-evaluation wrapper,
which cost about as much as the objective itself. Each descent builds one
objective around one kernel, which binds the mixture's Horner tables and
xi, xi' at 0 and 1 once. The polish is MINPACK's hybrd, called through
scipy's compiled _minpack._hybrd the way scipy.optimize.root(method="hybr")
calls it, so it reaches the same point without root's wrapper and the
extra evaluation of its shape check. Every engine function takes the one
temperature switch beta, a float at finite temperature and None at zero
temperature; cs_minimize and zt_minimize are its two settings.

Optimality is certified by first-order conditions of obstacle type: the
support of the order parameter must sit inside the argmax of an explicitly
integrable profile function. The profile is read as arrays on a fixed mesh
and at floats where its maximum is refined and at the support; the step
table's H answers a float by a scalar path, bit for bit its array value
(numpy's log and power on floats), so a float read costs no 0-d arrays. A
solve returns a certified answer or raises SolverFailedError carrying the
best candidate's residuals.

Solves are memoised per process: cs_minimize, zt_minimize and beta_c return
one shared immutable result for equal inputs (a bounded LRU memo), so the
composites that re-solve the same Parisi problem pay for it once. A
cs_minimize start (a neighbouring answer to continue from) is one of the
inputs: a call with a start is its own memo entry. Errors are not
memoised; a failing solve raises afresh on every call.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from operator import add, mul, sub
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import _minpack, minimize_scalar
from scipy.optimize._lbfgsb import setulb  # C port, scipy >= 1.15; verified on 1.17.1

from ._rng import STREAM_SOLVER, stream
from .errors import (
    BadInputError,
    NotBracketedError,
    RegimeMismatchError,
    SolverFailedError,
    _check_count,
    _check_real,
)
from .mixtures import Mixture

Q_CAP = 1.0 - 1e-4  # atoms never placed above this; keeps log(1 - q_hat) finite
SUPPORT_MASS_TOL = 1e-12  # an atom of the overlap measure counts as support above this mass
CERT_MESH = 2000  # uniform points of the certificate mesh, before its refinement at the support


# ================================================================= step layout


def _check_layout(qs: Sequence[float], levels: Sequence[float]) -> None:
    """Reject a step function that is not one finite level per segment of
    [0, 1] cut at breakpoints strictly increasing in (0, 1), nondecreasing
    from >= 0. The comparisons are negated so that NaN fails."""
    if len(levels) != len(qs) + 1:
        raise BadInputError(f"need one level per segment, got {len(levels)} for {len(qs)} cuts")
    prev = 0.0
    for q in qs:
        if not prev < q < 1.0:
            raise BadInputError(f"breakpoints must be strictly increasing in (0,1): {qs}")
        prev = q
    prev = 0.0
    for v in levels:
        if not prev <= v < math.inf:
            raise BadInputError(f"levels must be finite and nondecreasing from >= 0: {levels}")
        prev = v


def _jumps(qs: Sequence[float], levels: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """(position, jump) pairs of the step function, starting with its jump
    levels[0] from 0 at position 0."""
    return ((0.0, levels[0]), *((q, levels[i + 1] - levels[i]) for i, q in enumerate(qs)))


def _support(qs: Sequence[float], levels: Sequence[float]) -> tuple[float, ...]:
    """Positions of the jumps above SUPPORT_MASS_TOL."""
    return tuple(p for p, jump in _jumps(qs, levels) if jump > SUPPORT_MASS_TOL)


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
        object.__setattr__(self, "qs", tuple(float(q) for q in self.qs))
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        _check_layout(*self.segments[:2])
        if self.levels and not self.levels[-1] < 1.0:
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
        return _jumps(*self.segments[:2])

    def support(self) -> tuple[float, ...]:
        """Positions of the atoms whose mass exceeds SUPPORT_MASS_TOL."""
        return _support(*self.segments[:2])

    def cdf(self, t):
        """Evaluate x(t), right-continuous; vectorized."""
        return _StepTable(*self.segments).level(t)

    @property
    def segments(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """Engine layout: interior breakpoints, per-segment levels (top 1), tail 0."""
        return self.qs, (*self.levels, 1.0), 0.0

    def tail_integral(self, t):
        """D(t) = Int_t^1 x(s) ds; piecewise linear, vectorized."""
        return _StepTable(*self.segments[:2], 0.0).p(t)


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
        if not 0.0 < self.c < math.inf:
            raise BadInputError(f"c must be positive and finite, got {self.c}")
        if not steps or steps[0][0] != 0.0:
            raise BadInputError("steps must start at breakpoint 0")
        _check_layout(*self.segments[:2])

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

    def support(self) -> tuple[float, ...]:
        """Jump points of alpha (atoms of its measure) above SUPPORT_MASS_TOL."""
        return _support(*self.segments[:2])

    def alpha(self, t):
        """Evaluate alpha(t), right-continuous; vectorized."""
        return _StepTable(*self.segments).level(t)

    @property
    def segments(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """Engine layout: interior breakpoints, per-segment levels, tail c."""
        return self.breakpoints[1:], self.values, self.c

    def tail_integral(self, t):
        """B(t) = Int_t^1 alpha(s) ds; piecewise linear, vectorized."""
        return _StepTable(*self.segments[:2], 0.0).p(t)


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


# atom cap of a zero-temperature solve when no config is given
ZT_K_MAX = 2


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the certified solver.

    A solve raises the atom count k = 0, 1, ..., k_max and returns the first
    level whose certificate passes. starts caps the seeded L-BFGS starts of
    one level: it runs seeded start 0 and the warm split of the previous
    level's answer, and the other starts - 1 only when that candidate fails.
    atom_tol only sets the mass below which a candidate's atoms merge:
    max(10 * atom_tol, 1e-6). The certificates read their profile on the
    fixed CERT_MESH = 2000 uniform points plus a refinement at the support;
    that mesh is not a setting. seed keys the multistart streams by its 64
    bits, so it must lie in [0, 2**64).
    """

    k_max: int = 3
    starts: int = 8
    atom_tol: float = 1e-7
    cert_tol: float = 1e-6
    seed: int = 42

    def __post_init__(self) -> None:
        _check_count("k_max", self.k_max, 0)
        _check_count("starts", self.starts, 1)
        _check_count("seed", self.seed, 0)
        if self.seed >= 2**64:
            # the multistart streams are keyed by the seed's 64 bits
            raise BadInputError(f"seed must be below 2**64, got {self.seed}")
        if not (0.0 < self.atom_tol < math.inf and 0.0 < self.cert_tol < math.inf):
            raise BadInputError("atom_tol and cert_tol must be positive and finite")


class CsResult(NamedTuple):
    x_star: OrderParameter
    value: float
    certificate: OptimalityCertificate


class ZtResult(NamedTuple):
    order: ZeroTempOrder
    gs_energy: float
    certificate: OptimalityCertificate


# ============================================================ value closed forms


def _tail_breaks(qext: Sequence[float], levels: Sequence[float], tail: float) -> list[float]:
    """P_j = tail + Int_{q_j}^1 of the step function equal to levels[j] on
    [qext[j], qext[j+1]), for j = 0..len(levels); scalar arithmetic."""
    n = len(levels)
    p = [0.0] * (n + 1)
    p[n] = tail
    for j in range(n - 1, -1, -1):
        p[j] = p[j + 1] + levels[j] * (qext[j + 1] - qext[j])
    return p


def _kernel(m: Mixture, beta: float | None):
    """Closed-form value of either functional for the mixture m, as a
    function (qs, levels, tail) -> (value, grad_q, grad_lev, grad_tail) with
    the two gradients in (q_1..q_k, levels) as lists of floats.

    levels holds one value per segment of [0, 1] cut at qs. With beta None
    this is the zero-temperature functional with c = tail, differentiated in
    all k + 1 levels. With beta set, levels[-1] is the pinned top level 1 and
    tail is 0; the top segment's divergent inverse integral is replaced by
    log(1 - q_hat), and only the k free levels are differentiated.

    It binds xi's and xi''s Horner tables and their values at 0 and 1 once;
    a call reads xi and xi' at the k breakpoints by Mixture.eval's Horner
    scheme, in one scalar pass over Python floats. Its operations and their
    order are a contract: the results are bit for bit those of the tests'
    frozen oracle (one Mixture.eval per point, numpy gradient arrays), so no
    rewrite moves an L-BFGS iterate. The level term stays the builtin sum,
    which Python >= 3.12 compensates.
    """
    tab, tab_p = m._table(0), m._table(1)
    (xi0, xi1), (_, xi1p) = m._eval_floats((0.0, 1.0), 0, 1)
    b2 = None if beta is None else beta * beta

    def step(qs, levels, tail):
        k = len(qs)
        qext = (0.0, *qs, 1.0)
        xi, xip = [xi0], []
        for t in qs:
            v = w = 0.0
            for coef in tab:
                v = v * t + coef
            for coef in tab_p:
                w = w * t + coef
            xi.append(v)
            xip.append(w)
        xi.append(xi1)
        ga_lev = list(map(sub, xi[1:], xi))
        a_term = sum(map(mul, levels, ga_lev))
        drops = list(map(sub, levels, levels[1:]))
        p_break = _tail_breaks(qext, levels, tail)

        # segment l contributes Int 1/L over its width d, for L linear with right
        # value ep = P_{l+1} > 0 and slope -a = -levels[l] <= 0: log1p(a d / ep) / a,
        # continued smoothly through a = 0, with its partials in a, ep and d.
        # It reads P_{l+1}, which contains lev_j d_j for every j > l. adj, the sum
        # of d t_term / d P_{l+1} over the segments below, thus gives lev_j adj * d_j
        # and q_{j+1}, which widens d_j and narrows d_{j+1}, (lev_j - lev_{j+1}) * adj
        t_term = adj = 0.0
        gt_q = [0.0] * k
        gt_lev = []
        for l in range(k + 1 if b2 is None else k):
            a, ep, d = levels[l], p_break[l + 1], qext[l + 1] - qext[l]
            el = ep + a * d
            u = a * d / ep
            if u < 1e-5:
                # series of log1p(u)/u and its a-derivative; exact forms cancel badly here
                val = (d / ep) * (1.0 - u / 2.0 + u * u / 3.0 - u**3 / 4.0 + u**4 / 5.0)
                dval_da = (d * d / (ep * ep)) * (-0.5 + 2.0 * u / 3.0 - 0.75 * u * u + 0.8 * u**3)
            else:
                val = math.log1p(u) / a
                dval_da = (d / el - val) / a
            dval_dep, dval_dd = -d / (el * ep), 1.0 / el
            t_term += val
            gt_lev.append(adj * d + dval_da)
            if l < k:
                gt_q[l] = drops[l] * adj + (dval_dd - levels[l + 1] * dval_dep)
            if l:
                gt_q[l - 1] -= dval_dd
            adj += dval_dep

        if b2 is None:
            value = 0.5 * (xi1p * tail + a_term + t_term)
            grad_q = [0.5 * (dr * xp + gt) for dr, xp, gt in zip(drops, xip, gt_q)]
            grad_lev = [0.5 * (ga + gt) for ga, gt in zip(ga_lev, gt_lev)]
            return value, grad_q, grad_lev, 0.5 * (xi1p + adj)
        value = 0.5 * (b2 * a_term + t_term + (math.log1p(-qext[k]) if k else 0.0))
        grad_q = [0.5 * (b2 * (dr * xp) + gt) for dr, xp, gt in zip(drops, xip, gt_q)]
        if k:
            grad_q[k - 1] -= 0.5 / (1.0 - qext[k])
        grad_lev = [0.5 * (b2 * ga + gt) for ga, gt in zip(ga_lev, gt_lev)]
        return value, grad_q, grad_lev, 0.0

    return step


def _step_value_grad(
    m: Mixture, beta: float | None, qs: Sequence[float], levels: Sequence[float], tail: float
):
    """One call of the kernel of m at beta: (value, grad_q, grad_lev,
    grad_tail) of the functional at the layout (qs, levels, tail)."""
    return _kernel(m, beta)(qs, levels, tail)


def _check_beta(beta: float) -> None:
    _check_real("beta", beta)
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
    _check_beta(beta)
    _check_field(m, allow_field)
    return _step_value_grad(m, beta, *x.segments)[0]


def zt_value(m: Mixture, order: ZeroTempOrder, allow_field: bool = False) -> float:
    """Zero-temperature functional value at a step order parameter."""
    _check_field(m, allow_field)
    return _step_value_grad(m, None, *order.segments)[0]


def rs_value(m: Mixture, beta: float) -> float:
    """Value at the replica-symmetric point: beta^2 (xi(1) - xi(0)) / 2."""
    return 0.5 * beta * beta * (m.eval(1.0) - m.eval(0.0))


# ======================================================== certificate profiles


class _StepTable:
    """Breakpoint table of P(t) = tail + Int_t^1 lev(s) ds for a step
    function lev on [0, 1] cut at qs, with lev constant on each segment.

    P is piecewise linear and decreasing; its breakpoint values come from
    _tail_breaks. Provides lev(t), P(t), G(t) = Int_0^t ds/P(s)^2 and H(t) =
    Int_0^t G, all exact per segment; with tail = 0, G and H diverge at
    t -> 1 and must only be queried strictly inside [0, 1). The breakpoint
    values of G and H are built on the first query of either, so a table
    that only answers lev and P stays cheap.
    """

    def __init__(self, qs: Sequence[float], levels: Sequence[float], tail: float):
        qext = (0.0, *qs, 1.0)
        self.qext = np.asarray(qext, dtype=float)
        self.levels = np.asarray(levels, dtype=float)
        self.p_break = np.asarray(_tail_breaks(qext, levels, tail))

    @cached_property
    def _gh_break(self):
        qext, levels, p = self.qext.tolist(), self.levels.tolist(), self.p_break.tolist()
        n = len(levels)
        g = [0.0] * (n + 1)
        h = [0.0] * (n + 1)
        for j in range(n):
            d = qext[j + 1] - qext[j]
            if p[j + 1] <= 0.0:
                g[j + 1] = h[j + 1] = math.inf
            else:
                g[j + 1] = g[j] + d / (p[j] * p[j + 1])
                h[j + 1] = h[j] + g[j] * d + self._inner_at(levels[j], p[j], d)
        return np.array(g), np.array(h)

    @cached_property
    def _float_rows(self):
        """The table as Python floats, for h's scalar path."""
        return (self.qext.tolist(), self.levels.tolist(), self.p_break.tolist(),
                *(b.tolist() for b in self._gh_break))

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

    @classmethod
    def _inner_at(cls, lev: float, p_left: float, sigma: float):
        """_inner at one point over floats, bit for bit its array value: the
        cube and the log are numpy's (Python's ** and math.log round some
        inputs differently), the square is lev * lev as numpy's is. Where
        the exact form leaves its domain (P at or below 0, or NaN) it defers
        to the array form, which answers inf or NaN without raising."""
        if p_left > 0.0:
            u = lev * sigma / p_left
            if u < 1e-4:
                return (sigma * sigma / (2.0 * p_left * p_left)) * (
                    1.0 + 2.0 * u / 3.0 + 0.5 * u * u + 0.4 * np.power(u, 3)
                )
            rest = p_left - lev * sigma
            if rest > 0.0:
                return (1.0 / (lev * lev)) * np.log(p_left / rest) - sigma / (lev * p_left)
        return cls._inner(lev, p_left, sigma)[()]

    def _locate(self, t):
        idx = np.searchsorted(self.qext, t, side="right") - 1
        return np.clip(idx, 0, len(self.levels) - 1)

    def level(self, t):
        """The step function's value at t, right-continuous: levels[0] below 0
        and the top level from 1 on; a float for scalar t."""
        out = self.levels[self._locate(np.asarray(t, dtype=float))]
        return float(out) if np.ndim(t) == 0 else out

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
        return self._gh_break[0][j] + (t - self.qext[j]) / (pt * self.p_break[j])

    def h(self, t):
        """H(t), vectorized. A Python or numpy float t takes a scalar path
        whose value is bit for bit the array path's at that point."""
        if isinstance(t, float):
            qext, levels, p, g_break, h_break = self._float_rows
            j = min(max(bisect_right(qext, t) - 1, 0), len(levels) - 1)
            sigma = t - qext[j]
            return h_break[j] + g_break[j] * sigma + self._inner_at(levels[j], p[j], sigma)
        t = np.asarray(t, dtype=float)
        j = self._locate(t)
        sigma = t - self.qext[j]
        g_break, h_break = self._gh_break
        return h_break[j] + g_break[j] * sigma + self._inner(
            self.levels[j], self.p_break[j], sigma
        )


def _refined_max(fun, grid_ts, grid_vals):
    """Max over grid plus a bounded local polish around the grid argmax; the
    polish calls fun at floats."""
    i = int(np.argmax(grid_vals))
    best_t, best_v = float(grid_ts[i]), float(grid_vals[i])
    lo = float(grid_ts[max(i - 1, 0)])
    hi = float(grid_ts[min(i + 1, len(grid_ts) - 1)])
    if hi > lo:
        res = minimize_scalar(
            lambda t: -float(fun(t)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-13},
        )
        if -res.fun > best_v:
            best_t, best_v = float(res.x), float(-res.fun)
    return best_t, best_v


@lru_cache(maxsize=2)
def _mesh_pieces(top: float) -> tuple[np.ndarray, np.ndarray]:
    """The fixed pieces of the certificate mesh up to top, built on first
    use (top is 1 or 1 - 1e-9): the uniform grid with the log-dense points
    near 0, and the log-spaced offsets put on each side of an anchor."""
    grid = np.concatenate([np.linspace(0.0, top, CERT_MESH), np.geomspace(1e-12, top, 200)])
    return grid, np.geomspace(1e-9, 1e-2, 25)


def _certificate_mesh(anchor_pts: Sequence[float], top: float) -> np.ndarray:
    """Sorted mesh on [0, top]: CERT_MESH uniform points, every anchor with
    25 log-spaced offsets on each side, and 200 log-dense points near 0,
    which catch maxima that hug the origin."""
    grid, offsets = _mesh_pieces(top)
    anchors = np.asarray(anchor_pts, dtype=float).reshape(-1, 1)
    near = np.clip(np.concatenate([anchors + offsets, anchors - offsets]), 0.0, top)
    return np.unique(np.concatenate([grid, near.ravel(), anchors.ravel()]))


def _certify(m: Mixture, beta: float | None, qs, levels, tail: float, tolerance: float):
    """Certificate of the layout (qs, levels, tail) at beta, or at zero
    temperature when beta is None. The profile is phi = beta^2 (xi - xi(0))
    - H, or -psi = -((xi(1) - xi) - (H(1) - H)), with H from the step table;
    a support point's residual is sup - phi there, or |psi|."""
    if not 0.0 < tolerance < math.inf:
        raise BadInputError(f"tolerance must be positive and finite, got {tolerance}")
    prof = _StepTable(qs, levels, tail)
    support = _support(qs, levels)
    if beta is not None:
        xi0 = m.eval(0.0)

        def profile(t):
            return beta * beta * (m.eval(t) - xi0) - prof.h(t)

        top = 1.0 - 1e-9
    else:
        xi1 = m.eval(1.0)
        h1 = float(prof.h(1.0))

        def profile(t):
            return -((xi1 - m.eval(t)) - (h1 - prof.h(t)))

        top = 1.0
    ts = _certificate_mesh(support, top)
    vals = profile(ts)
    _, sup_phi = _refined_max(profile, ts, vals)
    at_support = [float(profile(q)) for q in support]
    if beta is not None:
        sup_phi = max(sup_phi, 0.0 if not support else -np.inf)
        residuals = tuple(sup_phi - v for v in at_support)
        violation = sup_phi - max(at_support) if at_support else sup_phi
        return OptimalityCertificate(
            sup_phi, residuals, violation, tolerance, support, "finite_beta"
        )
    xi1p = m.eval(1.0, 1)
    edge = abs(xi1p - float(prof.g(np.asarray(1.0))))
    residuals = tuple(abs(v) for v in at_support)
    cert = OptimalityCertificate(
        sup_phi, residuals, max(0.0, sup_phi), tolerance, support, "zero_temp", edge
    )
    # strict two-level structure: psi vanishes only near the endpoints
    zero_set = ts[vals >= -max(10.0 * tolerance, 1e-8) * max(1.0, xi1p)]
    interior = zero_set[(zero_set > 0.02) & (zero_set < 0.98)]
    return replace(cert, strictly_1rsb=not len(interior) and cert.passes)


def talagrand_certificate(
    m: Mixture,
    beta: float,
    x: OrderParameter,
    tolerance: float = 1e-6,
    allow_field: bool = False,
) -> OptimalityCertificate:
    """First-order optimality check at finite temperature.

    Computes the profile phi exactly on the fixed mesh (CERT_MESH = 2000
    uniform points on [0, 1 - 1e-9], 25 log-spaced offsets on each side of
    every support point and 200 log-spaced points near 0), refines its max,
    and reports sup - phi(q) at every atom of the overlap measure. The order
    parameter is optimal iff all residuals vanish (support inside argmax).
    """
    _check_beta(beta)
    _check_field(m, allow_field)
    return _certify(m, beta, *x.segments, tolerance)


def zero_temp_certificate(
    m: Mixture,
    order: ZeroTempOrder,
    tolerance: float = 1e-6,
    allow_field: bool = False,
) -> OptimalityCertificate:
    """First-order optimality check at zero temperature.

    Conditions: psi >= 0 on [0,1] with psi = 0 on the jump set of alpha, and
    the endpoint identity Psi(1) = 0. Reported through the shared certificate
    type with phi := -psi, so sup_phi = -min psi. psi is read on the same
    fixed mesh as the finite-temperature certificate, up to 1.
    """
    _check_field(m, allow_field)
    return _certify(m, None, *order.segments, tolerance)


# ================================================================ solver engine


def _softmax_partials(e: list[float]):
    """Softmax weights p of the exponentials e and their partial sums
    p_0, p_0 + p_1, ... (all but the last)."""
    # numpy sums fewer than 8 terms in order and more pairwise
    total = reduce(add, e) if len(e) < 8 else float(np.sum(e))
    p = [v / total for v in e]
    partial = list(accumulate(p))
    partial.pop()
    return p, partial


def _softmax_pullback(p: list[float], partial: list[float], g: list[float]) -> list[float]:
    """Pull a gradient g in the partial sums back to the softmax's raw
    coordinates: d partial_i / d raw_j = p_j (1{j <= i} - partial_i)."""
    if not partial:
        return [0.0] * len(p)
    # numpy's dot: its BLAS reduction order is not a Python loop's
    dot = float(np.dot(g, partial))
    # suffix sums g_j + ... + g_last, added from the last term, then 0
    suffix = [*accumulate(reversed(g))][::-1]
    suffix.append(0.0)
    return [pj * (sj - dot) for pj, sj in zip(p, suffix)]


def _decode(raw: np.ndarray, k: int, beta: float | None):
    """Raw coordinates -> (qs, levels, tail) as Python floats, plus what the
    gradient pullback reads: the breakpoint softmax (p, partial) and either
    the level softmax (beta set) or the increments and c (beta None).

    A cumulative softmax over the first k + 1 coordinates (none when k = 0)
    places the breakpoints in (0, Q_CAP). At finite temperature a second one
    gives the k free levels in (0, 1) under the pinned top level 1, and the
    tail is 0. At zero temperature exponentiated increments give the
    nondecreasing levels and the last coordinate is log c, both clipped to
    [-60, 60] in the exponent so that rogue line-search steps cannot
    overflow. The arithmetic is numpy's, step for step and bit for bit, over
    Python floats: one np.exp of the argument list, running sums in
    np.cumsum's order (accumulate and reduce, never the builtin sum, which
    Python >= 3.12 compensates) and np.sum for 8 or more softmax terms.
    """
    pinned = beta is not None
    r = raw.tolist()
    n_q = k + 1 if k else 0
    rq, rl = r[:n_q], r[n_q:]
    top_q = max(rq, default=0.0)
    args = [v - top_q for v in rq]
    if pinned:
        top_l = max(rl)
        args += [v - top_l for v in rl]
    else:
        # min(max(v, -60), 60), NaN passing through, without two calls per term
        args += [-60.0 if v < -60.0 else 60.0 if v > 60.0 else v for v in rl]
    e = np.exp(args).tolist()
    q_soft = _softmax_partials(e[:n_q]) if n_q else ([], [])
    qs = tuple([Q_CAP * v for v in q_soft[1]])
    if pinned:
        lev_soft = _softmax_partials(e[n_q:])
        return qs, (*lev_soft[1], 1.0), 0.0, q_soft, lev_soft
    incr, c = e[n_q:-1], e[-1]
    return qs, tuple(accumulate(incr)), c, q_soft, (incr, c)


def _objective(m: Mixture, k: int, beta: float | None):
    """The descent objective with k breakpoints: a function raw -> (value,
    gradient array) of the functional at beta (zero temperature when None),
    built once per descent around one kernel. It runs over Python floats
    until the returned gradient array; the pullback keeps np.dot, whose BLAS
    reduction order a Python loop would not reproduce."""
    step = _kernel(m, beta)

    def objective(raw):
        qs, levels, tail, q_soft, lev_aux = _decode(raw, k, beta)
        value, gq, g_lev, g_tail = step(qs, levels, tail)
        grad = [Q_CAP * v for v in _softmax_pullback(*q_soft, gq)]
        if beta is not None:
            grad += _softmax_pullback(*lev_aux, g_lev)
        else:
            incr, c = lev_aux
            grad += map(mul, incr, [*accumulate(reversed(g_lev))][::-1])
            grad.append(g_tail * c)
        return value, np.array(grad)

    return objective


def _raw_objective(raw: np.ndarray, m: Mixture, k: int, beta: float | None):
    """One evaluation of the descent objective: value and raw-coordinate
    gradient, bit for bit those of the tests' array reference, so every
    descent takes the same iterates."""
    return _objective(m, k, beta)(raw)


def _encode(qs, levels, tail, beta: float | None, level_floor: float, step_floor: float = 1e-10):
    """Raw coordinates of (qs, levels, tail) with at least one breakpoint:
    _decode's inverse up to floors that keep every log finite. The
    breakpoint gaps are floored at step_floor. At finite temperature the
    free levels are clipped into [level_floor, 1 - level_floor], made
    nondecreasing, and their increments floored at step_floor; at zero
    temperature the level increments and c are floored at level_floor."""
    gq = np.clip(np.diff(np.concatenate([[0.0], np.asarray(qs) / Q_CAP, [1.0]])), step_floor, None)
    if beta is not None:
        x = np.maximum.accumulate(np.clip(levels[:-1], level_floor, 1.0 - level_floor))
        raw_lev = np.log(np.clip(np.diff(np.concatenate([[0.0], x, [1.0]])), step_floor, None))
    else:
        incr = np.clip(np.diff(np.concatenate([[0.0], levels])), level_floor, None)
        raw_lev = np.concatenate([np.log(incr), [math.log(max(tail, level_floor))]])
    return np.concatenate([np.log(gq), raw_lev])


def _split_widest_gap(qs, levels, tail, beta: float | None) -> np.ndarray:
    """Raw warm start one level up: halve the widest gap between breakpoints
    and give the new left segment a lowered copy of the split segment's level."""
    pinned = beta is not None
    edges = (0.0, *qs, Q_CAP if pinned else 1.0)
    j = int(np.argmax(np.diff(edges)))
    if pinned and j == len(qs):
        # the pinned top keeps the right half; the left half takes the level
        # below it (one half when there is none)
        new_level = levels[j - 1] if j else 0.5
    else:
        new_level = max(levels[j] - 0.05, 0.5 * levels[j])
    q_new = np.insert(qs, j, (edges[j] + edges[j + 1]) / 2.0)
    lev = np.insert(levels, j, new_level)
    return _encode(q_new, lev, tail, beta, 1e-6 if pinned else 1e-8)


def _level_starts(beta: float | None, k: int, cfg: SolverConfig, warm):
    """Raw starts of level k as (cheap, rest). cheap is seeded start 0 plus,
    when the previous level's answer has k - 1 breakpoints, its widest-gap
    split; rest is seeded starts 1 .. starts - 1, run only when the cheap
    candidate does not certify. Both are empty for the replica-symmetric
    point, which has no free coordinate."""
    pinned = beta is not None
    if pinned and not k:
        return [], []
    sub, scale = (0, 1.5) if pinned else (1 << 20, 1.0)
    # the breakpoint softmax takes k + 1 coordinates (none when k = 0)
    size = (k + 1 if k else 0) + k + 1 + (0 if pinned else 1)
    seeded = [
        stream(cfg.seed, STREAM_SOLVER, sub | (k << 10) | s).normal(0.0, scale, size)
        for s in range(cfg.starts)
    ]
    cheap = seeded[:1]
    if warm is not None and len(warm[0]) == k - 1:
        cheap.append(_split_widest_gap(*warm, beta))
    return cheap, seeded[1:]


# L-BFGS-B settings of every descent: 10 correction pairs, at most 20
# line-search steps, stop once the relative value reduction is below 1e-16 or
# the largest gradient entry below 1e-12, or after 1000 iterations or 15000
# evaluations. The raw coordinates are unbounded.
_MEMORY, _MAX_LS, _MAX_ITER, _MAX_FUN = 10, 20, 1000, 15000
_FACTR, _PGTOL = 1e-16 / np.finfo(float).eps, 1e-12
_FG, _NEW_X, _STOP = 3, 1, 5  # setulb task codes


def _lbfgs(raw0: np.ndarray, m: Mixture, k: int, beta: float | None):
    """L-BFGS-B on the descent's objective (one _objective per call) from
    raw0, returning (x, value, iterations, evaluations). It drives scipy's
    compiled step routine setulb the way scipy.optimize.minimize does, so
    the iterates are the same; like minimize it answers a request for the
    last evaluated point (the same bytes) from that evaluation, and value is
    the last one evaluated (after a failed line search, x is the restored
    iterate). The work arrays are per call, so threads may descend at once."""
    n = raw0.size
    x, f, g = np.array(raw0, dtype=float), 0.0, np.zeros(n)
    free, nbd = np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * _MEMORY * n + 5 * n + 11 * _MEMORY**2 + 8 * _MEMORY)
    iwa, task, ln_task = np.zeros(3 * n, np.int32), np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    objective = _objective(m, k, beta)
    last, nit, nfev = None, 0, 0
    while True:
        setulb(_MEMORY, x, free, free, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task,
               lsave, isave, dsave, _MAX_LS, ln_task)
        if task[0] == _FG:
            # setulb asks again for the last point after a failed line search
            point = x.tobytes()
            if point != last:
                last = point
                value, grad = objective(x)
                nfev += 1
            # a failed line search restores g in place; the copy keeps grad intact
            f, g = value, grad.copy()
        elif task[0] == _NEW_X:
            nit += 1
            if nit >= _MAX_ITER:
                task[:] = _STOP, 504  # iteration limit
            elif nfev > _MAX_FUN:
                task[:] = _STOP, 502  # evaluation limit
        else:
            return x, f, nit, nfev


def _descend(m: Mixture, beta: float | None, k: int, raws, best=None):
    """Run L-BFGS-B from each raw start and return the smallest of the
    incumbent best and the results, keyed by (round(value, 12), qs, levels,
    tail); None when there is neither. The descents go through _lbfgs, which
    calls L-BFGS-B's compiled step routine directly: scipy's minimize wrapper
    (its function cache, copies and checks) cost about as much per evaluation
    as the objective, for the same iterates."""
    for raw0 in raws:
        x, value = _lbfgs(raw0, m, k, beta)[:2]
        qs, levels, tail = _decode(x, k, beta)[:3]
        key = (round(float(value), 12), qs, levels, tail)
        if best is None or key < best:
            best = key
    return best


def _canonical(qs, levels, beta: float | None, mass_tol: float = 1e-6):
    """Merge coincident atoms, drop massless ones, snap a tiny bottom level
    to 0. levels has one entry per segment; at finite temperature the top
    entry is the pinned level 1 and survives every merge."""
    qs = list(map(float, qs))
    lev = list(map(float, levels))
    changed = True
    while changed:
        changed = False
        # a breakpoint within 1e-7 of its left neighbour (or of 0) goes with
        # the narrow segment; the two jumps pool at their mass average
        for j in range(len(qs)):
            left = qs[j - 1] if j else 0.0
            if qs[j] - left < 1e-7:
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
                if beta is not None and j + 1 == len(qs):
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


def _feasible(qs, levels, tail, beta: float | None) -> bool:
    """Breakpoints strictly increasing below the cap, levels nondecreasing
    from >= 0, and a top atom with mass under the pinned level 1 (finite
    temperature) or a positive c (zero temperature)."""
    cap = Q_CAP + 1e-12 if beta is not None else 1.0
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
    if beta is not None:
        return len(levels) == 1 or levels[-2] < 1.0
    return tail > 0.0


def _hybrd(fun, v0: np.ndarray):
    """MINPACK's hybrd on fun from v0, as (x, converged). It calls scipy's
    compiled routine with the arguments scipy.optimize.root(fun, v0,
    method="hybr", tol=1e-13) passes (xtol 1e-13, at most 200 (n + 1)
    evaluations, a dense forward-difference Jacobian at machine-epsilon
    steps, step bound factor 100), so x is the same, without root's wrapper
    and the extra evaluation of its shape check. hybrd writes its iterates
    into the start array, so it gets a copy."""
    x, status = _minpack._hybrd(fun, np.array(v0, dtype=float), (), 0, 1e-13, 200 * (v0.size + 1),
                                -10, -10, np.finfo(float).eps, 100.0, None)
    return x, status == 1


def _polish(m: Mixture, beta: float | None, qs, levels, tail, value: float):
    """Newton polish of the stationarity system over the free coordinates.

    A level pinned at 0 stays pinned, as does the top level 1 at finite
    temperature; c is free at zero temperature. Keeps the result only if it
    stays feasible, moves by at most 1e-2 and does not increase the value.
    """
    pinned = beta is not None
    k = len(qs)
    free = list(range(1 if levels[0] == 0.0 else 0, k if pinned else k + 1))
    start = (qs, levels, tail), value
    step = _kernel(m, beta)

    def assemble(vec):
        lev = list(levels)
        for idx, pos in enumerate(free):
            lev[pos] = vec[k + idx]
        return tuple(vec[:k]), tuple(lev), tail if pinned else float(vec[-1])

    def fun(vec):
        state = assemble(vec)
        if not _feasible(*state, beta):
            return np.full(len(vec), 1e6)
        _, gq, g_lev, g_tail = step(*state)
        return np.concatenate([gq, [g_lev[i] for i in free], [] if pinned else [g_tail]])

    v0 = np.concatenate([np.asarray(qs), np.asarray(levels)[free], [] if pinned else [tail]])
    if not len(v0):
        return start
    x, converged = _hybrd(fun, v0)
    if not converged:
        return start
    state = assemble(x)
    if not _feasible(*state, beta) or np.max(np.abs(x - v0)) > 1e-2:
        return start
    new_value = step(*state)[0]
    if new_value > value + 1e-10:
        return start
    return state, new_value


def _settle(m: Mixture, beta: float | None, cfg: SolverConfig, allow_field: bool, state):
    """Canonicalise and polish a level's candidate (qs, levels, tail) until
    its structure is stable, then certify it. Returns the settled state and
    the level's CsResult (beta set) or ZtResult (beta None)."""
    mass_tol = max(cfg.atom_tol * 10, 1e-6)
    # cleanup and polish interleave until the structure is stable
    for _ in range(3):
        qs, levels, tail = state
        qs, levels = _canonical(qs, levels, beta, mass_tol=mass_tol)
        value = _step_value_grad(m, beta, qs, levels, tail)[0]
        polished, value = _polish(m, beta, qs, levels, tail, value)
        stable = polished == state
        state = polished
        if stable:
            break
    qs, levels, tail = state
    opts = dict(tolerance=cfg.cert_tol, allow_field=allow_field)
    # the certificates are called by module name, so a patched one is seen
    if beta is not None:
        x = OrderParameter(qs, levels[:-1])
        return state, CsResult(x, float(value), talagrand_certificate(m, beta, x, **opts))
    order = ZeroTempOrder(tuple(zip((0.0, *qs), levels)), tail)
    return state, ZtResult(order, float(value), zero_temp_certificate(m, order, **opts))


# equal inputs solve once per process; the memo keeps this many answers
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _solve(
    m: Mixture, beta: float | None, cfg: SolverConfig, allow_field: bool,
    start: OrderParameter | None = None,
):
    """Raise the atom count k = 0, 1, ... and return the first level whose
    certificate passes. Both functionals are strictly convex and the
    certificate checks the obstacle condition that characterises their
    unique minimiser, so a higher level could only reproduce it. Raises
    SolverFailedError when no level up to cfg.k_max certifies.

    A level minimises from seeded start 0 and the warm split of the previous
    level's answer, and from the other seeded starts (cfg.starts caps them)
    only when that candidate fails. Settling merges atoms lighter than
    max(10 cfg.atom_tol, 1e-6).

    A start with 1 .. cfg.k_max breakpoints is tried first: one descent at
    its own level from its raw coordinates (floored at 1e-12, far below the
    1e-6 snap of a vanishing bottom level), settled and returned if it
    certifies. Otherwise the ladder runs as without it.

    A float beta yields a CsResult certified by talagrand_certificate, None
    (zero temperature) a ZtResult certified by zero_temp_certificate. Inputs
    arrive validated and normalised (beta a float, cfg a SolverConfig), so
    equal inputs share one memo entry; an error is not memoised.
    """
    history = []
    if start is not None and 0 < start.k <= cfg.k_max:
        best = _descend(m, beta, start.k, [_encode(*start.segments, beta, 1e-12, 1e-12)])
        entry = _settle(m, beta, cfg, allow_field, best[1:])[1]
        if entry[2].passes:
            return entry
        history.append(entry)
    warm = None
    for k in range(cfg.k_max + 1):
        cheap, rest = _level_starts(beta, k, cfg, warm)
        best = _descend(m, beta, k, cheap)
        # only the replica-symmetric point has no start
        state = best[1:] if best else ((), (1.0,), 0.0)
        state, entry = _settle(m, beta, cfg, allow_field, state)
        if rest and not entry[2].passes:
            escalated = _descend(m, beta, k, rest, best)
            # an unchanged best would settle to the same failing certificate
            if escalated != best:
                state, entry = _settle(m, beta, cfg, allow_field, escalated[1:])
        if entry[2].passes:
            return entry
        history.append(entry)
        warm = state
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
    *,
    start: OrderParameter | None = None,
) -> CsResult:
    """Minimize the finite-temperature functional over atomic order parameters.

    Returns the first atom level k = 0, 1, ... whose optimality certificate
    passes; its atoms lighter than max(10 atom_tol, 1e-6) are merged, and
    SolverConfig says which starts a level runs. The atom cap is
    config.k_max (3 without a config). Raises SolverFailedError when no k
    up to the cap certifies.

    start, a nearby answer such as a neighbouring problem's x_star, is
    continued first: one descent at its atom count (when that is 1 ..
    k_max), returned if its settled result certifies. When it does not, the
    atom ladder above runs unchanged; the replica-symmetric start goes
    straight to it. The answer can then differ from the cold one within
    the certificate's tolerance.

    Equal inputs return one shared immutable result per process (no config
    and SolverConfig() are equal inputs, as are an int beta and its float);
    start is one of the inputs, so a call with a start is its own memo
    entry. An error is not cached and is raised again on every call.
    """
    _check_beta(beta)
    _check_field(m, allow_field)
    if start is not None and not isinstance(start, OrderParameter):
        raise BadInputError(f"start must be an OrderParameter or None, got {type(start).__name__}")
    return _solve(m, float(beta), config or SolverConfig(), allow_field, start)


def zt_minimize(
    m: Mixture,
    config: SolverConfig | None = None,
    allow_field: bool = False,
) -> ZtResult:
    """Minimize the zero-temperature functional over step order parameters.

    Returns the order parameter, the limiting normalized maximum of the
    field (the ground-state energy density), and the optimality certificate
    with the strict two-level flag filled in, of the first atom level
    k = 0, 1, ... whose certificate passes; its atoms lighter than
    max(10 atom_tol, 1e-6) are merged, and SolverConfig says which starts a
    level runs. The atom cap is config.k_max; without a config it is
    ZT_K_MAX (2). Raises SolverFailedError when no k up to the cap
    certifies.

    Equal inputs return one shared immutable result per process (no config
    and SolverConfig(k_max=ZT_K_MAX) are equal inputs); an error is not
    cached and is raised again on every call.
    """
    _check_field(m, allow_field)
    return _solve(m, None, config or SolverConfig(k_max=ZT_K_MAX), allow_field)


# ================================================================ criticality


def _rs_profile_sup(m: Mixture, beta: float) -> float:
    """sup over [0,1) of beta^2 xi(s) + s + log(1 - s) for a const-free xi."""

    def f(s):
        s = np.asarray(s, dtype=float)
        return beta * beta * m.eval(s) + s + np.log1p(-s)

    ts = np.unique(
        np.concatenate(
            [np.geomspace(1e-12, 0.5, 1500), np.linspace(0.5, 1.0 - 1e-12, 1500)]
        )
    )
    vals = f(ts)
    return _refined_max(f, ts, vals)[1]


def beta_c(m: Mixture) -> float:
    """Critical inverse temperature: largest beta at which the minimum is
    attained at the replica-symmetric point, located by bisection on the
    replica-symmetric optimality test over the fixed bracket (1e-9, 64] to
    within 1e-8. Raises NotBracketedError when the point is unstable already
    at beta = 1e-9, when the mixture does not break symmetry by beta = 64,
    and for a mixture with a degree-1 component.

    Equal inputs return one shared result per process; an error is not
    cached and is raised again on every call.
    """
    if m.has_linear:
        raise NotBracketedError(
            "a degree-1 component destabilizes the replica-symmetric point at "
            "every positive beta; no critical temperature exists"
        )
    # the constant cancels in the test; subtracting it would add its rounding
    return _beta_c(Mixture(m.coeffs))


@lru_cache(maxsize=_CACHE_SIZE)
def _beta_c(m: Mixture) -> float:
    lo, hi = 1e-9, 64.0
    if _rs_profile_sup(m, lo) > 0.0:
        raise NotBracketedError("replica-symmetric point already unstable at beta ~ 0")
    if _rs_profile_sup(m, hi) <= 0.0:
        raise NotBracketedError(f"no symmetry breaking detected up to beta_max={hi}")
    # a 1e-8 bracket below 64 still spans ~1e6 floats, so every halving shrinks it
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
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
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    va = _StepTable(breaks_a, vals_a, 0.0).level(mids)
    vb = _StepTable(breaks_b, vals_b, 0.0).level(mids)
    return float(sum(np.abs(va - vb) * np.diff(cuts)))


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
    base_lev_ext = base.x_star.segments[1]
    n_below = sum(1 for qi in base.x_star.qs if qi <= q + 1e-12)
    pred_vals = base_lev_ext[n_below:]
    ind_breaks, ind_vals, _ = band.x_star.segments
    x_l1 = _step_l1(pred_breaks, pred_vals, ind_breaks, ind_vals)
    pos_dev, mass_dev = _atom_match_dev(
        [a for a in _jumps(pred_breaks, pred_vals) if a[1] > 1e-9],
        [a for a in _jumps(ind_breaks, ind_vals) if a[1] > 1e-9],
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
        alpha_l1 = _step_l1(pred_a_breaks, pred_a_vals, *radial.order.segments[:2])
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

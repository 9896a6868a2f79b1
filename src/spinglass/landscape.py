"""Critical-point complexity and ground-state curves.

The expected number of critical points of the random field on the sphere
with normalized energy near E and radial derivative near R grows
exponentially in the dimension, at a rate given in closed form by the log
potential of the semicircle law plus a Gaussian quadratic form in (E, R).
This module evaluates that rate, traces the ground-state energy across
radii with the zero-temperature solver, and checks the telescoping
identities that tie the two together along an overlap ladder.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import BadInputError, RegimeMismatchError, SolverFailedError
from .mixtures import Mixture, sigma_inverse
from .rsb import (
    CsResult,
    SolverConfig,
    ZeroTempOrder,
    _refined_max,
    cs_minimize,
    zt_minimize,
)


def omega(t):
    """Log potential of the semicircle law: the average of log|l - t|
    against the semicircle density on [-2, 2].

    Inside the support this is t^2/4 - 1/2; outside, a correction kicks in
    and the function grows like log|t|. Accepts scalars or arrays.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    a = np.abs(t_arr)
    out = 0.25 * a * a - 0.5
    mask = a > 2.0
    if mask.any():
        am = a[mask]
        root = np.sqrt(am * am - 4.0)
        out[mask] -= 0.25 * am * root - np.log(0.5 * (am + root))
    return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


@dataclass(frozen=True)
class ComplexityEval:
    """Growth rate at one (energy, radial derivative) pair.

    branch records which side of the spectral edge the radial argument of
    the log potential fell on ("inner" for |R| <= 2 sqrt(xi''(1))).
    """

    E: float
    R: float
    theta: float
    branch: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise BadInputError(f"growth rate must be finite, got {self.theta}")


def _theta_raw(sig_inv: np.ndarray, const: float, xi2: float, e, r):
    quad = sig_inv[0, 0] * e * e + 2.0 * sig_inv[0, 1] * e * r + sig_inv[1, 1] * r * r
    return const - 0.5 * quad + omega(r / math.sqrt(xi2))


def theta(m: Mixture, E: float, R: float) -> ComplexityEval:
    """Exponential growth rate of the expected number of critical points
    with energy per coordinate E and radial derivative R.
    """
    sig_inv = sigma_inverse(m.sigma_xi())
    xi2 = m.eval(1.0, 2)
    xi1 = m.eval(1.0, 1)
    const = 0.5 + 0.5 * math.log(xi2 / xi1)
    val = _theta_raw(sig_inv, const, xi2, float(E), float(R))
    u = R / math.sqrt(xi2)
    if abs(abs(u) - 2.0) < 1e-8:
        # both closed forms of the log potential must agree at the edge
        inner = 0.25 * u * u - 0.5
        root = math.sqrt(max(u * u - 4.0, 0.0))
        outer = inner - (0.25 * abs(u) * root - math.log(0.5 * (abs(u) + root)))
        if abs(inner - outer) > 1e-10 * max(1.0, abs(inner)):
            raise BadInputError("log-potential branches disagree at the spectral edge")
    branch = "inner" if abs(u) <= 2.0 else "outer"
    return ComplexityEval(float(E), float(R), float(val), branch)


def theta_pure(m: Mixture, E: float) -> float:
    """Growth rate for a single-degree mixture, along its constraint line.

    For one active degree p the radial derivative of the field is exactly
    p times its value, so (E, R) lives on the line R = pE and the
    two-argument rate degenerates. Restricted to that line the Gaussian
    quadratic form reduces to E^2 / xi(1); the value below is the
    two-argument rate with that reduction, and coincides with the
    small-ridge limit of the full form.
    """
    if not m.is_pure:
        raise BadInputError("restricted rate needs a single-degree mixture")
    p = m.max_degree
    if p < 3:
        raise BadInputError(f"restricted rate needs degree >= 3, got {p}")
    c = m.eval(1.0)
    xi2 = m.eval(1.0, 2)
    return float(
        0.5 + 0.5 * math.log(p - 1.0) - E * E / (2.0 * c)
        + omega(p * E / math.sqrt(xi2))
    )


# ========================================================= ground-state curves


def _check_q_grid(qs: tuple[float, ...]) -> None:
    prev = 0.0
    for q in qs:
        if not prev < q <= 1.0:
            raise BadInputError(f"q grid must be strictly increasing in (0,1]: {qs}")
        prev = q


@dataclass(frozen=True)
class GroundStateCurve:
    """Ground-state energy and (twice) its radius derivative on a grid of
    squared radii q."""

    q_grid: tuple[float, ...]
    e_star: tuple[float, ...]
    r_star: tuple[float, ...]

    def __post_init__(self) -> None:
        qs = tuple(float(q) for q in self.q_grid)
        es = tuple(float(e) for e in self.e_star)
        rs = tuple(float(r) for r in self.r_star)
        object.__setattr__(self, "q_grid", qs)
        object.__setattr__(self, "e_star", es)
        object.__setattr__(self, "r_star", rs)
        if not (len(qs) == len(es) == len(rs)) or not qs:
            raise BadInputError("grid and value columns must have equal nonzero length")
        _check_q_grid(qs)
        if any(not math.isfinite(v) for v in es + rs):
            raise BadInputError("curve values must be finite")
        if any(e <= 0.0 for e in es):
            raise BadInputError("ground-state energy must be positive at positive radius")
        for lo, hi in zip(es, es[1:]):
            if hi < lo - 1e-8:
                raise BadInputError("ground-state energy cannot decrease with radius")

    def to_csv(self) -> str:
        lines = ["q,E_star,R_star"]
        for q, e, r in zip(self.q_grid, self.e_star, self.r_star):
            lines.append(f"{q:.12g},{e:.12g},{r:.12g}")
        return "\n".join(lines) + "\n"


def _radial_slope(mhat: Mixture, order: ZeroTempOrder, q: float) -> float:
    """Twice the q-derivative of the ground state, in closed form from the
    minimizer of the radius-q problem (mhat is the mixture at that radius).
    """
    head = order.c * (mhat.eval(1.0, 2) + mhat.eval(1.0, 1))
    breaks = (*order.breakpoints, 1.0)
    acc = 0.0
    for l, a in enumerate(order.values):
        acc += a * (
            breaks[l + 1] * mhat.eval(breaks[l + 1], 1)
            - breaks[l] * mhat.eval(breaks[l], 1)
        )
    return (head + acc) / q


def _origin_slope(m: Mixture) -> float | None:
    """Limit of the radial slope at q -> 0: twice the square root of the
    curvature at the origin, or None when that curvature vanishes (then the
    limit is 0 and the telescoping radial identity is not expected to hold
    at the bottom level)."""
    curv = m.eval(0.0, 2)
    return 2.0 * math.sqrt(curv) if curv > 0.0 else None


def ground_state_point(
    m: Mixture,
    q: float,
    config: SolverConfig | None = None,
):
    """Ground-state energy and radial slope at squared radius q, plus the
    zero-temperature solution that produced them."""
    if not 0.0 < q <= 1.0:
        raise BadInputError(f"radius parameter must be in (0,1], got {q}")
    mhat = m.scale_domain(q)
    res = zt_minimize(mhat, config=config)
    return res.gs_energy, _radial_slope(mhat, res.order, q), res


def ground_state_curve(
    m: Mixture,
    q_grid,
    config: SolverConfig | None = None,
    workers: int = 1,
) -> GroundStateCurve:
    """Trace the ground-state energy and its radial slope over q_grid by
    independent zero-temperature solves at each radius.

    The grid must be strictly increasing in (0, 1]; it is checked before the
    first solve. A failed solve re-raises its SolverFailedError with the
    rows solved before it, as (q, E*, R*) triples in grid order, in its rows
    attribute.
    """
    qs = tuple(float(q) for q in q_grid)
    if not qs:
        raise BadInputError("empty q grid")
    _check_q_grid(qs)

    def solve_one(q: float):
        return ground_state_point(m, q, config=config)

    rows = []
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        try:
            for q, (e, r, _) in zip(qs, (pool.map if pool else map)(solve_one, qs)):
                rows.append((q, e, r))
        except SolverFailedError as exc:
            exc.rows = tuple(rows)
            raise
    return GroundStateCurve(*zip(*rows))


def _level_ground_state(xi_lev: Mixture, config: SolverConfig):
    """Ground-state energy and radial slope of a level mixture at full radius."""
    res = zt_minimize(xi_lev, config=config)
    return res.gs_energy, _radial_slope(xi_lev, res.order, 1.0)


# ==================================================== telescoping identities


@dataclass(frozen=True)
class EsRsRow:
    """Both sides of the level-m ground-state identities.

    e_level is the ground state of the level mixture at full radius;
    e_increment the difference of base-mixture ground states across the
    level. r_base / r_next scale the base radial slope at the left / right
    ladder point by the level width; the radial fields are None at a bottom
    level with no curvature at the origin, where the left-endpoint slope
    vanishes and the radial identity is not expected to hold.
    """

    m: int
    q_lo: float
    q_hi: float
    e_level: float
    e_increment: float
    e_dev: float
    r_level: float
    r_base: float | None
    r_next: float
    r_dev_base: float | None
    r_dev_next: float


@dataclass(frozen=True)
class EsRsReport:
    beta: float
    ladder: tuple[float, ...]
    rows: tuple[EsRsRow, ...]
    base: CsResult

    @property
    def max_e_dev(self) -> float:
        return max(row.e_dev for row in self.rows)


def identity_esrs(
    m: Mixture,
    beta: float,
    config: SolverConfig | None = None,
) -> EsRsReport:
    """Check, level by level, that the ground state of each level mixture
    matches the increment of the base ground-state curve, and that its
    radial slope matches the scaled base slope (both endpoint variants).
    """
    cfg = config or SolverConfig()
    base = cs_minimize(m, beta, config=cfg)
    ladder = tuple(q for q in base.x_star.support() if q > 0.0)
    if not ladder:
        raise RegimeMismatchError(
            "identity check needs at least one positive overlap atom; "
            "raise beta above the critical point"
        )
    levels = m.level_mixtures(ladder)
    qs = (0.0, *ladder, 1.0)
    curve = ground_state_curve(m, qs[1:], config=cfg)
    estar = (0.0, *curve.e_star)
    rstar = (_origin_slope(m), *curve.r_star)
    rows = []
    for lev, (xi_lev, _) in enumerate(levels):
        q_lo, q_hi = qs[lev], qs[lev + 1]
        e_level, r_level = _level_ground_state(xi_lev, cfg)
        e_inc = estar[lev + 1] - estar[lev]
        gap = q_hi - q_lo
        r_base = None if rstar[lev] is None else gap * rstar[lev]
        r_next = gap * rstar[lev + 1]
        rows.append(
            EsRsRow(
                m=lev,
                q_lo=q_lo,
                q_hi=q_hi,
                e_level=e_level,
                e_increment=e_inc,
                e_dev=abs(e_level - e_inc),
                r_level=r_level,
                r_base=r_base,
                r_next=r_next,
                r_dev_base=None if r_base is None else abs(r_level - r_base),
                r_dev_next=abs(r_level - r_next),
            )
        )
    return EsRsReport(beta=float(beta), ladder=ladder, rows=tuple(rows), base=base)


# ============================================================== chain bound


def _sup_theta_rect(mx: Mixture, e_lo, e_hi, r_lo, r_hi) -> float:
    sig_inv = sigma_inverse(mx.sigma_xi())
    xi2 = mx.eval(1.0, 2)
    const = 0.5 + 0.5 * math.log(xi2 / mx.eval(1.0, 1))
    es = np.linspace(e_lo, e_hi, 101)
    rs = np.linspace(r_lo, r_hi, 101)
    ee, rr = np.meshgrid(es, rs, indexing="ij")
    vals = _theta_raw(sig_inv, const, xi2, ee, rr)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)

    def neg(z):
        e = min(max(z[0], e_lo), e_hi)
        r = min(max(z[1], r_lo), r_hi)
        return -_theta_raw(sig_inv, const, xi2, e, r)

    polish = minimize(
        neg,
        x0=[ee[i, j], rr[i, j]],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    return max(float(vals[i, j]), -float(polish.fun))


def _sup_theta_pure_interval(mx: Mixture, e_lo, e_hi) -> float:
    es = np.linspace(e_lo, e_hi, 513)
    vals = np.array([theta_pure(mx, e) for e in es])
    return _refined_max(lambda e: theta_pure(mx, e), es, vals)[1]


def chain_bound(
    m: Mixture,
    beta: float,
    ladder=None,
    eps: float = 1e-3,
    config: SolverConfig | None = None,
) -> float:
    """Upper bound on the growth rate of ladder-indexed critical-point
    chains: the sum over levels of the max rate over an energy window of
    half-width 2*eps around the ground-state increment and a radial window
    of half-width eps (scaled by the level width) around the slope of the
    level mixture's own zero-temperature solution.

    That slope center is always a zero of the rate, so the bound vanishes
    as eps -> 0 up to solver error. Levels with a single-degree mixture use
    the restricted rate and ignore the radial window.
    """
    if not 0.0 < eps < math.inf:
        raise BadInputError(f"window half-width must be positive and finite, got {eps}")
    cfg = config or SolverConfig()
    if ladder is None:
        base = cs_minimize(m, beta, config=cfg)
        ladder = tuple(q for q in base.x_star.support() if q > 0.0)
    ladder = tuple(float(q) for q in ladder)
    if not ladder:
        raise RegimeMismatchError("chain bound needs a nonempty overlap ladder")
    qs = (0.0, *ladder)
    levels = m.level_mixtures(ladder)[: len(ladder)]
    estar = (0.0, *ground_state_curve(m, ladder, config=cfg).e_star)
    total = 0.0
    for lev, (xi_lev, _) in enumerate(levels):
        gap = qs[lev + 1] - qs[lev]
        e_c = estar[lev + 1] - estar[lev]
        if xi_lev.is_pure:
            total += _sup_theta_pure_interval(xi_lev, e_c - 2 * eps, e_c + 2 * eps)
        else:
            r_c = _level_ground_state(xi_lev, cfg)[1]
            total += _sup_theta_rect(
                xi_lev,
                e_c - 2 * eps,
                e_c + 2 * eps,
                r_c - gap * eps,
                r_c + gap * eps,
            )
    return total


# ===================================================== free-energy derivative


@dataclass(frozen=True)
class FprimeReport:
    """Finite-difference derivative of the minimized functional in beta
    against its closed form from the top overlap atom."""

    beta: float
    step: float
    q_top: float
    fd_derivative: float
    closed_form: float
    deviation: float


def _free_energy_slope(m: Mixture, beta: float, q: float, e_q: float) -> float:
    """Closed form of F'(beta) from the top overlap atom q and the ground
    state e_q at squared radius q: e_q + beta (xi(1) - xi(q) - xi'(q)(1 - q))."""
    return e_q + beta * (m.eval(1.0) - m.eval(q) - m.eval(q, 1) * (1.0 - q))


def fprime_identity(
    m: Mixture,
    beta: float,
    config: SolverConfig | None = None,
    step: float = 1e-4,
) -> FprimeReport:
    """Compare d/d(beta) of the minimized functional, by central finite
    difference, with the sum of the ground state at the top overlap atom
    and beta times the recentered covariance at full overlap."""
    if not 0.0 < step < beta:  # cs_minimize rejects a non-finite beta
        raise BadInputError("need 0 < step < beta for the central difference")
    cfg = config or SolverConfig()
    base = cs_minimize(m, beta, config=cfg)
    q_top = base.x_star.q_hat
    if q_top > 0.0:
        e_top, _, _ = ground_state_point(m, q_top, config=cfg)
    else:
        e_top = 0.0
    closed = _free_energy_slope(m, beta, q_top, e_top)
    up = cs_minimize(m, beta + step, config=cfg).value
    down = cs_minimize(m, beta - step, config=cfg).value
    fd = (up - down) / (2.0 * step)
    return FprimeReport(
        beta=float(beta),
        step=float(step),
        q_top=float(q_top),
        fd_derivative=float(fd),
        closed_form=float(closed),
        deviation=abs(fd - closed),
    )


def theta_surface_csv(m: Mixture, e_grid, r_grid) -> str:
    """Rate surface over a rectangular (E, R) grid, one row per pair."""
    lines = ["E,R,theta"]
    for e in e_grid:
        for r in r_grid:
            lines.append(f"{float(e):.12g},{float(r):.12g},{theta(m, e, r).theta:.12g}")
    return "\n".join(lines) + "\n"

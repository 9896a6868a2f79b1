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
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadInputError,
    RegimeMismatchError,
    SolverFailedError,
    _check_array,
    _check_count,
    _check_grid,
    _check_real,
)
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
    return _omega(_check_array("omega argument", t))


def _omega(t):  # omega without the input check, for the rate formulas' own floats
    a = np.abs(np.atleast_1d(t))
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
    return const - 0.5 * quad + _omega(r / math.sqrt(xi2))


def _rate_terms(m: Mixture) -> tuple[np.ndarray, float, float]:
    """The inverse covariance, constant and xi''(1) that _theta_raw takes."""
    sig_inv = sigma_inverse(m.sigma_xi())
    xi2 = m.eval(1.0, 2)
    return sig_inv, 0.5 + 0.5 * math.log(xi2 / m.eval(1.0, 1)), xi2


def theta(m: Mixture, E: float, R: float) -> ComplexityEval:
    """Exponential growth rate of the expected number of critical points
    with energy per coordinate E and radial derivative R.
    """
    E = _check_real("energy", E, "(-inf, inf)")
    R = _check_real("radial derivative", R, "(-inf, inf)")
    sig_inv, const, xi2 = _rate_terms(m)
    val = _theta_raw(sig_inv, const, xi2, E, R)
    u = R / math.sqrt(xi2)
    branch = "inner" if abs(u) <= 2.0 else "outer"
    return ComplexityEval(E, R, float(val), branch)


def theta_pure(m: Mixture, E: float) -> float:
    """Growth rate for a single-degree mixture, along its constraint line.

    For one active degree p the radial derivative of the field is exactly
    p times its value, so (E, R) lives on the line R = pE and the
    two-argument rate degenerates. Restricted to that line the Gaussian
    quadratic form reduces to E^2 / xi(1); the value below is the
    two-argument rate with that reduction, and coincides with the
    small-ridge limit of the full form.
    """
    _check_real("energy", E, "(-inf, inf)")
    if not m.is_pure:
        raise BadInputError("restricted rate needs a single-degree mixture")
    if m.max_degree < 3:
        raise BadInputError(f"restricted rate needs degree >= 3, got {m.max_degree}")
    return float(_pure_rate(m)(E))


def _pure_rate(m: Mixture):
    """theta_pure's rate of the single-degree mixture m, on floats or arrays."""
    p, c, xi2 = m.max_degree, m.eval(1.0), m.eval(1.0, 2)
    head = 0.5 + 0.5 * math.log(p - 1.0)
    return lambda e: head - e * e / (2.0 * c) + _omega(p * e / math.sqrt(xi2))


# ========================================================= ground-state curves


@dataclass(frozen=True)
class GroundStateCurve:
    """Ground-state energy and (twice) its radius derivative on a grid of
    squared radii q."""

    q_grid: tuple[float, ...]
    e_star: tuple[float, ...]
    r_star: tuple[float, ...]

    def __post_init__(self) -> None:
        qs = _check_grid("q grid entry", self.q_grid, "(0, 1]")
        # the ground-state energy is positive at positive radius
        es = tuple(_check_real("ground-state energy", e, "(0, inf)") for e in self.e_star)
        rs = tuple(_check_real("radial slope", r, "(-inf, inf)") for r in self.r_star)
        object.__setattr__(self, "q_grid", qs)
        object.__setattr__(self, "e_star", es)
        object.__setattr__(self, "r_star", rs)
        if not (len(qs) == len(es) == len(rs)) or not qs:
            raise BadInputError("grid and value columns must have equal nonzero length")
        for lo, hi in zip(es, es[1:]):
            if hi < lo - 1e-8:
                raise BadInputError("ground-state energy cannot decrease with radius")


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
    _check_real("radius parameter", q, "(0, 1]")
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

    The grid must be strictly increasing in (0, 1] and workers an integer
    >= 1; both are checked before the first solve. A failed solve re-raises
    its SolverFailedError with the rows solved before it, as (q, E*, R*)
    triples in grid order, in its rows attribute.
    """
    qs = _check_grid("q grid entry", q_grid, "(0, 1]")
    if not qs:
        raise BadInputError("empty q grid")
    _check_count("workers", workers, 1)

    def solve_one(q: float):
        return ground_state_point(m, q, config=config)

    rows, pool = [], None
    if workers > 1:
        # only a threaded curve imports the pool (and with it logging)
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
    with pool or nullcontext():
        try:
            for q, (e, r, _) in zip(qs, (pool.map if pool else map)(solve_one, qs)):
                rows.append((q, e, r))
        except SolverFailedError as exc:
            exc.rows = tuple(rows)
            raise
    return GroundStateCurve(*zip(*rows))


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
    for lev, xi_lev in enumerate(levels):
        q_lo, q_hi = qs[lev], qs[lev + 1]
        e_level, r_level, _ = ground_state_point(xi_lev, 1.0, config=cfg)
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


def _profile_rate(m: Mixture, e_lo: float, e_hi: float):
    """The rate at R, maximised over E in [e_lo, e_hi]: for fixed R it is a
    concave quadratic in E, peaked at -(S^-1)_01 R / (S^-1)_00, which is
    clipped to the window. Takes floats or arrays."""
    sig_inv, const, xi2 = _rate_terms(m)
    slope = -sig_inv[0, 1] / sig_inv[0, 0]
    return lambda r: _theta_raw(sig_inv, const, xi2, np.clip(slope * r, e_lo, e_hi), r)


def _window_max(rate, lo: float, hi: float) -> float:
    """Max of a one-argument rate over [lo, hi]: a 513-point grid in one
    array call, then _refined_max's bounded polish around the grid max."""
    ts = np.linspace(lo, hi, 513)
    return _refined_max(rate, ts, rate(ts))[1]


def chain_bound(
    m: Mixture,
    beta: float,
    eps: float = 1e-3,
    config: SolverConfig | None = None,
) -> float:
    """Upper bound on the growth rate of ladder-indexed critical-point
    chains: the sum over levels of the max rate over an energy window of
    half-width 2*eps around the ground-state increment and a radial window
    of half-width eps (scaled by the level width) around the slope of the
    level mixture's own zero-temperature solution. The ladder is the
    positive support of the order parameter solved at beta.

    That slope center is always a zero of the rate, so the bound vanishes
    as eps -> 0 up to solver error. Levels with a single-degree mixture use
    the restricted rate and ignore the radial window.
    """
    _check_real("window half-width", eps, "(0, inf)")
    cfg = config or SolverConfig()
    base = cs_minimize(m, beta, config=cfg)
    ladder = tuple(float(q) for q in base.x_star.support() if q > 0.0)
    if not ladder:
        raise RegimeMismatchError("chain bound needs a nonempty overlap ladder")
    qs = (0.0, *ladder)
    levels = m.level_mixtures(ladder)[: len(ladder)]
    estar = (0.0, *ground_state_curve(m, ladder, config=cfg).e_star)
    total = 0.0
    for lev, xi_lev in enumerate(levels):
        gap = qs[lev + 1] - qs[lev]
        e_c = estar[lev + 1] - estar[lev]
        e_lo, e_hi = e_c - 2 * eps, e_c + 2 * eps
        if xi_lev.is_pure:
            total += _window_max(_pure_rate(xi_lev), e_lo, e_hi)
        else:
            r_c = ground_state_point(xi_lev, 1.0, config=cfg)[1]
            total += _window_max(_profile_rate(xi_lev, e_lo, e_hi), r_c - gap * eps, r_c + gap * eps)
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
    _check_real("beta", beta, "(0, inf)")
    _check_real("step", step, "(0, inf)")
    if not step < beta:
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


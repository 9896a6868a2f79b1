"""Overlap rate function for two Gibbs samples drawn at different
temperatures.

The log-probability that a sample at one temperature lands at a prescribed
overlap with a reference sample at another splits by regime. Above the
symmetric phase boundary the restriction of the field to the overlap
section is itself a mixed model, so the rate is a shifted free energy in
closed form. Below it, the reference sample sits near the top of a cluster
and the field must be conditioned on the cluster anchor data first; the
rate is then a one-dimensional concave-looking maximization over the
anchor overlap of the section, with an entropy penalty for sections tilted
away from their central position.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from scipy.optimize import minimize_scalar

from .conditioning import FPConditioning, fp_conditioning
from .errors import (
    BadInputError,
    KMismatchError,
    RegimeMismatchError,
    SolverFailedError,
    _check_count,
    _check_real,
)
from .landscape import _free_energy_slope
from .mixtures import Mixture, section_half_width, tau
from .rsb import OrderParameter, SolverConfig, beta_c, cs_minimize

__all__ = [
    "FPQuery",
    "FPResult",
    "FPTerms",
    "fp_high",
    "fp_low",
    "fp_low_objective",
    "fp_potential",
    "j_interval",
    "tau",
]


def j_interval(q1: float, r: float) -> tuple[float, float]:
    """Admissible anchor overlaps of the section: the centered interval
    where the section is nonempty (relative radius at most 1)."""
    if not 0.0 < q1 < 1.0:
        raise BadInputError(f"anchor overlap must be in (0,1), got {q1}")
    if not -1.0 <= r <= 1.0:
        raise BadInputError(f"sample overlap must be in [-1,1], got {r}")
    half = section_half_width(q1, r)
    return r * q1 - half, r * q1 + half


class FPTerms(NamedTuple):
    """Additive pieces of the rate: pinned-mean contribution, free energy
    of the reduced section model, and the log-relative-volume of the
    section inside the overlap sphere."""

    mean: float
    free_energy: float
    volume: float

    @property
    def total(self) -> float:
        return self.mean + self.free_energy + self.volume


@dataclass(frozen=True)
class FPQuery:
    """A single potential evaluation request."""

    beta: float
    beta_prime: float
    r: float
    regime: str

    def __post_init__(self) -> None:
        _validate_inputs(self.beta, self.beta_prime, self.r)
        if self.regime not in ("high", "low"):
            raise BadInputError(f"regime must be 'high' or 'low', got {self.regime!r}")

    @classmethod
    def detect(
        cls, m: Mixture, beta: float, beta_prime: float, r: float
    ) -> "FPQuery":
        """Classify the sampling temperature against the symmetric phase
        boundary of the mixture."""
        _validate_inputs(beta, beta_prime, r)
        regime = "high" if beta <= beta_c(m) else "low"
        return cls(beta=beta, beta_prime=beta_prime, r=r, regime=regime)


@dataclass(frozen=True)
class FPResult:
    """Evaluated potential: the concentration value of the restricted
    log-partition function, its term breakdown, and (in the conditioned
    regime) the maximizing section anchor overlap."""

    value: float
    rho_star: float | None
    terms: FPTerms

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise BadInputError("potential evaluated to a non-finite value")


def _validate_inputs(beta: float, beta_prime: float, r: float) -> None:
    for name, value in (("beta", beta), ("beta_prime", beta_prime), ("r", r)):
        _check_real(name, value)
    if not beta > 0.0:
        raise BadInputError(f"sampling inverse temperature must be positive, got {beta}")
    if not beta_prime > 0.0:
        raise BadInputError(f"probe inverse temperature must be positive, got {beta_prime}")
    if not abs(r) < 1.0:
        raise BadInputError(f"overlap must satisfy |r|<1, got {r}")


def fp_high(
    m: Mixture,
    beta: float,
    beta_prime: float,
    r: float,
    config: SolverConfig | None = None,
    check_regime: bool = True,
) -> FPResult:
    """Rate in the symmetric regime: pinned-mean tilt plus the free energy
    of the section restriction of the field. The tilt conditions on a
    sample's energy F'(beta): beta' xi(r)/xi(1) F'(beta), which is
    beta beta' xi(r) when xi(0) = xi'(0) = 0.

    The section restriction keeps a degree-1 component (the section sees a
    nonzero mean gradient of the outer field), so the free energy runs in
    field mode whenever r is nonzero. check_regime=False skips the phase
    gate for side-by-side regime probes.
    """
    _validate_inputs(beta, beta_prime, r)
    if check_regime and beta > beta_c(m):
        raise RegimeMismatchError(
            f"sampling temperature beta={beta} is beyond the symmetric phase; "
            "use the conditioned low-temperature evaluation"
        )
    section = m.band_section(r * r)
    res = cs_minimize(section, beta_prime, config=config, allow_field=section.has_linear)
    mean = beta_prime * m(r) / m(1.0) * _free_energy_slope(m, beta, 0.0, 0.0)
    terms = FPTerms(mean=mean, free_energy=res.value, volume=0.0)
    return FPResult(value=terms.total, rho_star=None, terms=terms)


def _low_context(
    m: Mixture, beta: float, config: SolverConfig | None
) -> tuple[FPConditioning, SolverConfig]:
    """The pinned system and solver configuration shared by every section
    evaluation at fixed (m, beta)."""
    if not beta > beta_c(m):
        raise RegimeMismatchError(
            f"conditioned evaluation needs beta > the symmetric phase boundary; "
            f"got beta={beta}"
        )
    cfg = config if config is not None else SolverConfig(starts=2)
    res = cs_minimize(m, beta, config=cfg)
    if res.x_star.k != 1:
        raise KMismatchError(
            f"conditioned evaluation is derived for a single overlap atom; "
            f"solver support has k={res.x_star.k} at beta={beta}"
        )
    return fp_conditioning(m, beta, res.x_star.qs[0], config=cfg), cfg


def _low_terms(
    fpc: FPConditioning, beta_prime: float, r: float, rho: float, cfg: SolverConfig,
    start: OrderParameter | None = None,
) -> tuple[FPTerms, OrderParameter]:
    """The terms at one section position and the section's certified order
    parameter, its solve continued from start."""
    mean = beta_prime * fpc.mean_coeff(r, rho)
    section = fpc.m.fp_mixtures(r, fpc.q1, rho)
    res = cs_minimize(section, beta_prime, config=cfg, allow_field=True, start=start)
    t = tau(fpc.q1, r, rho)
    volume = 0.5 * math.log((1.0 - t) / (1.0 - r * r))
    return FPTerms(mean=mean, free_energy=res.value, volume=volume), res.x_star


def fp_low_objective(
    m: Mixture,
    beta: float,
    beta_prime: float,
    r: float,
    rho: float,
    config: SolverConfig | None = None,
) -> FPTerms:
    """Term breakdown of the conditioned rate at one section position,
    without the maximization. Useful for profiling the objective along the
    admissible interval; endpoints are excluded (the volume term diverges)."""
    _validate_inputs(beta, beta_prime, r)
    fpc, cfg = _low_context(m, beta, config)
    lo, hi = j_interval(fpc.q1, r)
    if not lo < rho < hi:
        raise RegimeMismatchError(
            f"section overlap {rho} is outside the open admissible interval "
            f"({lo}, {hi})"
        )
    return _low_terms(fpc, beta_prime, r, rho, cfg)[0]


def fp_low(
    m: Mixture,
    beta: float,
    beta_prime: float,
    r: float,
    config: SolverConfig | None = None,
    scan_points: int = 64,
    xtol: float = 1e-10,
) -> FPResult:
    """Rate in the conditioned regime: maximize the section objective over
    the admissible anchor overlap.

    The objective diverges to minus infinity at the interval endpoints, so
    the maximizer is interior: a coarse scan (single-start solves, ranking
    only) brackets it and golden-section refinement polishes it with the
    full configuration.

    The section solves of the scan and the refinement form one chain: each
    continues from the x_star of the last one that certified (see
    cs_minimize's start). The answer's terms are the refinement's at
    rho_star; only a rho_star clamped into the interval is solved again.
    """
    _validate_inputs(beta, beta_prime, r)
    _check_count("scan_points", scan_points, 3)
    if not 0.0 < xtol < math.inf:
        raise BadInputError(f"xtol must be positive and finite, got {xtol!r}")
    fpc, cfg = _low_context(m, beta, config)
    lo, hi = j_interval(fpc.q1, r)
    width = hi - lo
    # ranking pass only: single start and loose certificates are enough to
    # bracket the maximizer to a grid cell, and a point whose quick solve
    # fails outright is simply never the bracket center
    scan_cfg = replace(cfg, starts=1, cert_tol=1e-3, atom_tol=1e-5)
    start = None  # x_star of the last section solve that certified

    def solved(rho: float, section_cfg: SolverConfig) -> FPTerms:
        nonlocal start  # a solve that raises leaves it as it was
        terms, start = _low_terms(fpc, beta_prime, r, rho, section_cfg, start)
        return terms

    rhos = [lo + width * (i + 1) / (scan_points + 1) for i in range(scan_points)]
    scan_vals = []
    for rho in rhos:
        try:
            scan_vals.append(solved(rho, scan_cfg).total)
        except SolverFailedError:
            scan_vals.append(-math.inf)
    if all(v == -math.inf for v in scan_vals):
        raise SolverFailedError(
            "no scan point between the admissible endpoints produced a "
            "rankable section solve"
        )
    best = max(range(scan_points), key=scan_vals.__getitem__)
    left = rhos[best - 1] if best > 0 else lo + width * 1e-9
    right = rhos[best + 1] if best < scan_points - 1 else hi - width * 1e-9

    refined = {}

    def negated(rho: float) -> float:
        rho = float(rho)
        refined[rho] = solved(rho, cfg)
        return -refined[rho].total

    try:
        opt = minimize_scalar(
            negated,
            bracket=(left, rhos[best], right),
            method="golden",
            options={"xtol": xtol},
        )
    except ValueError:
        # ranking configs can disagree with the refined objective at the
        # bracket edge; the bounded solver needs no bracket ordering
        opt = minimize_scalar(
            negated, bounds=(left, right), method="bounded", options={"xatol": xtol}
        )
    rho_star = float(min(max(opt.x, lo + width * 1e-12), hi - width * 1e-12))
    if rho_star not in refined:  # the clamp moved it
        negated(rho_star)
    terms = refined[rho_star]
    return FPResult(value=terms.total, rho_star=rho_star, terms=terms)


def fp_potential(
    m: Mixture,
    beta: float,
    beta_prime: float,
    r: float,
    config: SolverConfig | None = None,
) -> tuple[FPQuery, FPResult]:
    """Evaluate the rate in whichever regime the sampling temperature
    falls, returning the classified query together with the result."""
    query = FPQuery.detect(m, beta, beta_prime, r)
    if query.regime == "high":
        return query, fp_high(m, beta, beta_prime, r, config=config)
    return query, fp_low(m, beta, beta_prime, r, config=config)

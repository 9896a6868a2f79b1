"""Small-N Monte Carlo laboratory.

Draws explicit random fields as dense coefficient tensors, runs spherical
random-walk Metropolis chains for their Gibbs measures, locates critical
points by projected Newton iteration, estimates complexity histograms over
independent field draws, and samples conditional field values exactly from
the Gaussian law, as an oracle for the analytic conditioning kernels.

Everything here is desk scale: dimensions are capped so dense tensors stay
in memory, and the critical-point finder is a multi-start local method with
no exhaustiveness guarantee (outputs built on it are labeled exploratory).
"""

import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .conditioning import (
    BandGeometry,
    ConditioningEvent,
    _chain_functionals,
    band_kernel,
    chain_constraint_values,
    derivative_covariances,
    hessian_decomposition,
    schur_condition,
)
from .errors import BadInputError, CapacityExceededError
from .mixtures import Mixture
from .rsb import _config_from_json

__all__ = [
    "ComplexityEstimate",
    "CriticalPointRecord",
    "FieldSample",
    "GibbsRun",
    "MCConfig",
    "OverlapHistogram",
    "chain_constraint_set",
    "dump_samples",
    "empirical_complexity",
    "exact_conditional_sampler",
    "find_critical_points",
    "gibbs_mcmc",
    "load_samples",
    "overlap_statistics",
    "sample_field",
    "stream_rng",
    "validate_kernels",
]

_MAGIC = b"SGMC"
_HEADER = struct.Struct("<4sIII")  # magic, version, dimension, row count


def _thread_count() -> int:
    text = os.environ.get("SPINGLASS_THREADS", "1")
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise BadInputError(f"SPINGLASS_THREADS must be an integer >= 1, got {text!r}")
    return count


# Spawn keys: (field, 0) for coefficients, (field, _FINDER_LANE) for finder
# restarts, (0, _FINDER_LANE + 1) for the bootstrap, and (field, chain, lane)
# for chains and the sampler. SeedSequence reads a key's parts as 32-bit words
# in order, so distinct last parts keep these apart for every seed and index.
_FINDER_LANE = 1 << 16
_CHAIN_LANE = 1 << 17
_SAMPLER_LANE = _CHAIN_LANE + 1


def stream_rng(seed: int, field_index: int = 0, chain_index: int = 0) -> np.random.Generator:
    """Counter-based generator for the (seed, field, chain) work unit.

    Units drawn from distinct keys are independent, and a unit's stream
    does not depend on how many other units run or in what order.
    Raises BadInputError for a negative key.
    """
    return _stream(seed, field_index, chain_index)


def _stream(seed: int, field_index: int, chain_index: int, *lane: int) -> np.random.Generator:
    if min(seed, field_index, chain_index) < 0:
        raise BadInputError(
            f"seed, field index and chain index must be non-negative, got "
            f"{seed}, {field_index}, {chain_index}"
        )
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(field_index), int(chain_index), *lane)
    )
    return np.random.Generator(np.random.Philox(ss))


# ============================================================ field samples


@dataclass(eq=False)
class FieldSample:
    """One realization of the random field as dense coefficient tensors.

    tensors[p] holds the order-p coefficients already scaled so that the
    field's covariance at overlap t is n * xi(t); the degree-0 entry, when
    present, is the random constant term.
    """

    n: int
    mixture: Mixture
    seed: int
    field_index: int
    tensors: dict[int, np.ndarray]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.tensors))

    def energy(self, x) -> float:
        """Field value at a point of the ball of squared radius n."""
        return float(sum(self.energy_terms(x).values()))

    def energy_terms(self, x) -> dict[int, float]:
        """Per-degree decomposition of the field value."""
        x = np.asarray(x, dtype=float)
        self._check_point(x)
        out = {}
        for p, tensor in self.tensors.items():
            if p == 0:
                out[p] = float(tensor)
                continue
            t = tensor
            for _ in range(p - 1):
                t = t.reshape(-1, self.n) @ x
            out[p] = float(t @ x)
        return out

    def energy_many(self, points) -> np.ndarray:
        """Field values at each row of a (count, n) point array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise BadInputError(f"points must be rows of length {self.n}")
        n, rows = self.n, pts.shape[0]
        cols = pts[:, :, None]
        total = np.zeros(rows)
        for p, tensor in self.tensors.items():
            if p == 0:
                total += float(tensor)
                continue
            # the last slot for all rows in one product, then the rest row by row
            t = pts @ tensor.reshape(-1, n).T
            for k in range(p - 2, -1, -1):
                t = (t.reshape(rows, n**k, n) @ cols)[:, :, 0]
            total += t[:, 0]
        return total

    def gradient(self, x) -> np.ndarray:
        """Ambient gradient of the field at a point."""
        x = np.asarray(x, dtype=float)
        self._check_point(x)
        n = self.n
        powers = _kron_powers(x, max(self.tensors) - 1)
        grad = np.zeros(n)
        for p, tensor in self.tensors.items():
            if p == 0:
                continue
            # the last slot free, then recurse on the others with it contracted
            t = tensor
            for k in range(p - 1, 0, -1):
                flat = t.reshape(-1, n)
                grad += powers[k] @ flat
                t = flat @ x
            grad += t
        return grad

    def hessian(self, x) -> np.ndarray:
        """Ambient Hessian of the field at a point."""
        x = np.asarray(x, dtype=float)
        self._check_point(x)
        n = self.n
        powers = _kron_powers(x, max(self.tensors) - 2)
        hess = np.zeros((n, n))
        for p, tensor in self.tensors.items():
            # the pairs with the last slot, then recurse on the others with it
            # contracted; adding w + w.T keeps the sum exactly symmetric
            t = tensor
            for k in range(p, 1, -1):
                w = _last_slot_pairs(t, x, k, powers)
                hess += w + w.T
                t = t.reshape(-1, n) @ x
        return hess

    def _check_point(self, x: np.ndarray) -> None:
        if x.shape != (self.n,):
            raise BadInputError(f"point must be a vector of length {self.n}")


def _kron_powers(x: np.ndarray, top: int) -> list[np.ndarray]:
    """powers[k] is the k-fold Kronecker power of x, flat (powers[0] is [1])."""
    powers = [np.ones(1)]
    for _ in range(top):
        powers.append(np.outer(powers[-1], x).ravel())
    return powers


def _last_slot_pairs(t: np.ndarray, x: np.ndarray, p: int, powers) -> np.ndarray:
    """Sum over the first p-1 slots a of the degree-p tensor t contracted with
    x on every slot but a and the last: rows index slot a, columns the last
    slot. The gradient recursion with the last slot kept as a batch axis."""
    n = x.size
    w = np.zeros((n, n))
    for k in range(p - 1, 1, -1):
        lead = n ** (k - 1)
        w += (powers[k - 1] @ t.reshape(lead, n * n)).reshape(n, n)
        t = x @ t.reshape(lead, n, n)
    return w + t.reshape(n, n)


def _capacity_check(degrees, n: int) -> None:
    max_p = max(degrees)
    if n < 2:
        raise BadInputError(f"need dimension at least 2, got {n}")
    if max_p > 4:
        raise CapacityExceededError(
            f"dense tensors are capped at degree 4, mixture has degree {max_p}"
        )
    cap = 64 if max_p == 4 else 128
    if n > cap:
        raise CapacityExceededError(
            f"dense degree-{max_p} tensors are capped at dimension {cap}, got {n}"
        )


def sample_field(m: Mixture, n: int, seed: int, field_index: int = 0) -> FieldSample:
    """Draw one field realization: independent standard normal coefficients
    scaled by sqrt(coefficient) * n**(-(p-1)/2) per degree, unsymmetrized."""
    degrees = m.degrees
    if not degrees and m.const_term == 0.0:
        raise BadInputError("mixture has no active degrees")
    _capacity_check(degrees or (1,), n)
    rng = stream_rng(seed, field_index, 0)
    tensors: dict[int, np.ndarray] = {}
    if m.const_term > 0.0:
        tensors[0] = math.sqrt(m.const_term * n) * rng.standard_normal()
    for p in degrees:
        scale = math.sqrt(m.coeffs[p]) * n ** (-(p - 1) / 2.0)
        tensors[p] = scale * rng.standard_normal((n,) * p)
    return FieldSample(
        n=n, mixture=m, seed=int(seed), field_index=int(field_index), tensors=tensors
    )


# =============================================================== Gibbs MCMC


@dataclass(frozen=True)
class MCConfig:
    """Chain configuration for spherical random-walk Metropolis."""

    steps: int = 4000
    burn_in: int = 1000
    thin: int = 10
    step_size: float = 0.3
    target_accept: float = 0.4
    adapt_every: int = 50
    chain_index: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1 or self.burn_in < 0 or self.thin < 1:
            raise BadInputError("chain lengths must be positive")
        if not self.step_size > 0.0:
            raise BadInputError("step size must be positive")
        if not 0.0 < self.target_accept < 1.0:
            raise BadInputError("target acceptance must be in (0,1)")
        if self.adapt_every < 1:
            raise BadInputError("adaptation window must be at least one step")
        if self.chain_index < 0:
            raise BadInputError("chain index must be non-negative")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MCConfig":
        return _config_from_json(cls, text, "chain config", strict=True)


@dataclass(eq=False)
class GibbsRun:
    """Thinned output of one Metropolis chain at inverse temperature beta.

    Samples live on the sphere of squared norm n (renormalized after every
    step). Diagnostics: post-burn-in acceptance rate, lag-1 autocorrelation
    of the thinned energy series, and the adapted step size.
    """

    beta: float
    n: int
    config: MCConfig
    seed: int
    field_index: int
    samples: np.ndarray
    energies: np.ndarray
    acceptance_rate: float
    energy_autocorr: float
    step_size_final: float

    def manifest(self) -> dict:
        """JSON-ready description of the run for reproduction."""
        return {
            "beta": self.beta,
            "n": self.n,
            "seed": self.seed,
            "field_index": self.field_index,
            "chain": json.loads(self.config.to_json()),
            "samples": int(self.samples.shape[0]),
            "acceptance_rate": self.acceptance_rate,
        }


def _lag1_autocorr(series: np.ndarray) -> float:
    if series.size < 3:
        return 0.0
    centered = series - series.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        return 0.0
    return float(centered[:-1] @ centered[1:]) / denom


def gibbs_mcmc(field: FieldSample, beta: float, config: MCConfig | None = None) -> GibbsRun:
    """Spherical random-walk Metropolis for the Gibbs law with density
    proportional to exp(beta * field value) on the sphere of squared norm n.

    The step size adapts multiplicatively toward the target acceptance rate
    during burn-in and is frozen afterwards; every state is renormalized to
    the sphere after each move.
    """
    if beta < 0.0:
        raise BadInputError(f"inverse temperature must be nonnegative, got {beta}")
    cfg = config if config is not None else MCConfig()
    n = field.n
    radius = math.sqrt(n)
    rng = _stream(field.seed, field.field_index, cfg.chain_index, _CHAIN_LANE)
    x = rng.standard_normal(n)
    x *= radius / np.linalg.norm(x)
    energy = field.energy(x)
    step = cfg.step_size
    accepted_main = proposed_main = 0
    accepted_window = 0
    samples, energies = [], []
    total = cfg.burn_in + cfg.steps
    for t in range(total):
        prop = x + step * rng.standard_normal(n)
        prop *= radius / np.linalg.norm(prop)
        e_new = field.energy(prop)
        if math.log(rng.uniform()) < beta * (e_new - energy):
            x, energy = prop, e_new
            accepted_window += 1
            if t >= cfg.burn_in:
                accepted_main += 1
        if t >= cfg.burn_in:
            proposed_main += 1
        x *= radius / np.linalg.norm(x)
        if t < cfg.burn_in and (t + 1) % cfg.adapt_every == 0:
            rate = accepted_window / cfg.adapt_every
            step *= math.exp(rate - cfg.target_accept)
            accepted_window = 0
        if t >= cfg.burn_in and (t - cfg.burn_in + 1) % cfg.thin == 0:
            samples.append(x.copy())
            energies.append(energy)
    energies = np.array(energies)
    return GibbsRun(
        beta=float(beta),
        n=n,
        config=cfg,
        seed=field.seed,
        field_index=field.field_index,
        samples=np.array(samples),
        energies=energies,
        acceptance_rate=accepted_main / max(1, proposed_main),
        energy_autocorr=_lag1_autocorr(energies),
        step_size_final=step,
    )


# ======================================================== critical points


@dataclass(eq=False)
class CriticalPointRecord:
    """One accepted critical point on the sphere of squared norm n*q."""

    location: np.ndarray
    energy_density: float
    radial_derivative: float
    tangential_residual: float


def find_critical_points(
    field: FieldSample,
    q: float = 1.0,
    restarts: int = 64,
    max_iter: int = 80,
) -> list[CriticalPointRecord]:
    """Multi-start projected Newton search for critical points of the field
    restricted to the sphere of squared norm n*q.

    Each restart takes tangential Newton steps (the radial mode is frozen)
    followed by retraction to the sphere; converged points are deduplicated
    by pairwise distance below 1e-3 * sqrt(n). Restarts cycle through three
    start styles: raw random points, and random points pushed uphill or
    downhill by a few gradient steps first - Newton alone gravitates to
    points whose energy matches the bulk of the start distribution, so the
    warm-up phases are what reach the extreme-energy levels. The search is
    local and not exhaustive: an empty or partial list is a valid outcome.
    """
    if not 0.0 < q <= 1.0:
        raise BadInputError(f"radius parameter must be in (0,1], got {q}")
    if restarts < 1:
        raise BadInputError("need at least one restart")
    n = field.n
    radius = math.sqrt(n * q)
    tol = 1e-8 * math.sqrt(n)
    rng = stream_rng(field.seed, field.field_index, _FINDER_LANE)
    eye = np.eye(n)
    accepted: list[CriticalPointRecord] = []

    for start in range(restarts):
        x = rng.standard_normal(n)
        x *= radius / np.linalg.norm(x)
        climb = (0.0, 1.0, -1.0)[start % 3]
        if climb:
            for _ in range(12):
                grad = field.gradient(x)
                pg = grad - (float(x @ grad) / (n * q)) * x
                norm = float(np.linalg.norm(pg))
                if norm < 1e-12:
                    break
                x = x + climb * (0.15 * radius / norm) * pg
                x *= radius / np.linalg.norm(x)
        converged = False
        for _ in range(max_iter):
            grad = field.gradient(x)
            xg = float(x @ grad)
            pg = grad - (xg / (n * q)) * x
            residual = float(np.linalg.norm(pg)) / math.sqrt(n)
            if residual <= tol:
                converged = True
                break
            ux = x / radius
            shifted = field.hessian(x) - (xg / (n * q)) * eye
            # project the Newton matrix onto the tangent space and pin the
            # radial mode to keep the solve nonsingular
            shifted -= np.outer(ux, ux @ shifted)
            shifted -= np.outer(shifted @ ux, ux)
            shifted += np.outer(ux, ux)
            try:
                delta = np.linalg.solve(shifted, -pg)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(shifted, -pg, rcond=None)[0]
            delta -= (ux @ delta) * ux
            norm = float(np.linalg.norm(delta))
            cap = 0.5 * radius
            if norm > cap:
                delta *= cap / norm
            x = x + delta
            x *= radius / np.linalg.norm(x)
        if not converged:
            continue
        record = CriticalPointRecord(
            location=x.copy(),
            energy_density=field.energy(x) / n,
            radial_derivative=float(x @ field.gradient(x)) / (n * q),
            tangential_residual=residual,
        )
        accepted.append(record)

    dedup: list[CriticalPointRecord] = []
    cut = 1e-3 * math.sqrt(n)
    for rec in accepted:
        if all(np.linalg.norm(rec.location - kept.location) >= cut for kept in dedup):
            dedup.append(rec)
    return dedup


# ==================================================== empirical complexity


@dataclass(eq=False)
class ComplexityEstimate:
    """Exploratory critical-point histogram over independent field draws.

    mean_counts[i, j] is the mean number of accepted critical points per
    field in energy bin i and radial-derivative bin j; log_counts is
    (1/n) * log of that mean (-inf for empty bins), with bootstrap
    percentile intervals. The finder is not exhaustive, so these are lower
    estimates of the true counts: exploratory output only.
    """

    e_edges: np.ndarray
    r_edges: np.ndarray
    mean_counts: np.ndarray
    log_counts: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int
    n_fields: int

    def argmax_bin(self) -> tuple[int, int]:
        """Indices of the bin with the largest mean count."""
        flat = int(np.argmax(self.mean_counts))
        return np.unravel_index(flat, self.mean_counts.shape)

    def to_csv(self) -> str:
        lines = [
            "# exploratory: multi-start finder, counts are lower estimates",
            "e_center,r_center,mean_count,log_count,ci_low,ci_high",
        ]
        e_mid = 0.5 * (self.e_edges[:-1] + self.e_edges[1:])
        r_mid = 0.5 * (self.r_edges[:-1] + self.r_edges[1:])
        for i, e in enumerate(e_mid):
            for j, r in enumerate(r_mid):
                lines.append(
                    f"{e:.12g},{r:.12g},{self.mean_counts[i, j]:.12g},"
                    f"{self.log_counts[i, j]:.12g},{self.ci_low[i, j]:.12g},"
                    f"{self.ci_high[i, j]:.12g}"
                )
        return "\n".join(lines) + "\n"


def _log_scaled(mean_counts: np.ndarray, n: int) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(mean_counts) / n


def empirical_complexity(
    m: Mixture,
    n: int,
    q: float,
    e_edges,
    r_edges,
    n_fields: int,
    seed: int = 0,
    restarts: int = 32,
    bootstrap: int = 200,
) -> ComplexityEstimate:
    """Average critical-point counts per (energy, radial-derivative) bin
    over independent field draws, with the log-count curve and bootstrap
    confidence intervals. Exploratory: inherits the finder's blind spots."""
    e_edges = np.asarray(e_edges, dtype=float)
    r_edges = np.asarray(r_edges, dtype=float)
    if e_edges.ndim != 1 or e_edges.size < 2 or r_edges.ndim != 1 or r_edges.size < 2:
        raise BadInputError("bin edges must be 1-d arrays with at least two entries")
    if n_fields < 1:
        raise BadInputError("need at least one field")
    if not 0.0 < q <= 1.0:
        raise BadInputError(f"radius parameter must be in (0,1], got {q}")

    def one_field(index: int) -> np.ndarray:
        fld = sample_field(m, n, seed, field_index=index)
        recs = find_critical_points(fld, q=q, restarts=restarts)
        if not recs:
            return np.zeros((e_edges.size - 1, r_edges.size - 1))
        es = [rec.energy_density for rec in recs]
        rs = [rec.radial_derivative for rec in recs]
        hist, _, _ = np.histogram2d(es, rs, bins=(e_edges, r_edges))
        return hist

    workers = _thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_field = list(pool.map(one_field, range(n_fields)))
    else:
        per_field = [one_field(i) for i in range(n_fields)]
    stack = np.array(per_field)
    mean_counts = stack.mean(axis=0)
    log_counts = _log_scaled(mean_counts, n)

    rng = stream_rng(seed, 0, _FINDER_LANE + 1)
    if bootstrap > 0:
        draws = np.empty((bootstrap,) + mean_counts.shape)
        for b in range(bootstrap):
            pick = rng.integers(0, n_fields, size=n_fields)
            draws[b] = stack[pick].mean(axis=0)
        # order-statistic percentiles in count space commute with the
        # monotone log transform and keep empty-bin arithmetic clean
        ci_low = _log_scaled(np.percentile(draws, 2.5, axis=0, method="lower"), n)
        ci_high = _log_scaled(np.percentile(draws, 97.5, axis=0, method="higher"), n)
    else:
        ci_low = np.full_like(mean_counts, -np.inf)
        ci_high = np.full_like(mean_counts, np.inf)
    return ComplexityEstimate(
        e_edges=e_edges,
        r_edges=r_edges,
        mean_counts=mean_counts,
        log_counts=log_counts,
        ci_low=ci_low,
        ci_high=ci_high,
        n=n,
        n_fields=n_fields,
    )


# ============================================== exact conditional sampling


def chain_constraint_set(geometry: BandGeometry, event: ConditioningEvent):
    """Constraint functionals, display labels, and pinned raw values for an
    anchor-chain event, ready for the exact conditional sampler. Extra eval
    points appended after the anchors keep indices starting at the chain
    depth."""
    funcs, labels = _chain_functionals(geometry)
    values = chain_constraint_values(geometry, event)
    return funcs, labels, values


def exact_conditional_sampler(
    m: Mixture,
    points,
    constraints,
    constraint_values,
    targets,
    n_draws: int,
    seed: int = 0,
    pseudo_inverse: bool = False,
) -> np.ndarray:
    """Draw exact Gaussian samples of target functionals of the field given
    pinned values of constraint functionals.

    points is the shared (count, n) configuration; constraints and targets
    are functional descriptors over it (("value", i), ("deriv", i, u) or
    ("deriv2", i, u, w)). Returns an (n_draws, len(targets)) array sampled
    from the conditional law via the conditional mean plus a square root of
    the conditional covariance. Raises the singular-block error of the
    conditioner when the constraint covariance is degenerate (pass
    pseudo_inverse=True to condition on its attainable span).
    """
    if n_draws < 1:
        raise BadInputError("need at least one draw")
    constraints = list(constraints)
    targets = list(targets)
    if not targets:
        raise BadInputError("need at least one target functional")
    joint = derivative_covariances(m, points, constraints + targets)
    mean, cov = schur_condition(
        joint,
        range(len(constraints)),
        constraint_values,
        pseudo_inverse=pseudo_inverse,
    )
    root = _psd_root(cov)
    rng = _stream(seed, 0, 0, _SAMPLER_LANE)
    z = rng.standard_normal((int(n_draws), len(targets)))
    return mean[None, :] + z @ root.T


def _psd_root(cov: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(cov))) if cov.size else 0.0
    try:
        return np.linalg.cholesky(cov + 1e-14 * max(scale, 1.0) * np.eye(len(cov)))
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals.min() < -1e-8 * max(scale, 1.0):
            raise BadInputError(
                "conditional covariance is not positive semidefinite"
            ) from None
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


# ========================================================= overlap probes


@dataclass(eq=False)
class OverlapHistogram:
    """Histogram of normalized overlaps between two chains' samples."""

    overlaps: np.ndarray
    edges: np.ndarray
    counts: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.overlaps.mean())

    @property
    def std(self) -> float:
        return float(self.overlaps.std())

    def mass_in(self, lo: float, hi: float) -> float:
        """Fraction of overlaps inside [lo, hi]."""
        inside = np.count_nonzero((self.overlaps >= lo) & (self.overlaps <= hi))
        return inside / self.overlaps.size

    def to_csv(self) -> str:
        lines = ["bin_left,bin_right,count"]
        for left, right, count in zip(self.edges[:-1], self.edges[1:], self.counts):
            lines.append(f"{left:.12g},{right:.12g},{int(count)}")
        return "\n".join(lines) + "\n"


def overlap_statistics(
    run_a: GibbsRun, run_b: GibbsRun, bins: int = 41
) -> OverlapHistogram:
    """Histogram of pairwise normalized overlaps between the samples of two
    chains over the same field. Passing the same run twice uses distinct
    index pairs within it."""
    if run_a.n != run_b.n:
        raise BadInputError("runs must share the dimension")
    if run_a.seed != run_b.seed or run_a.field_index != run_b.field_index:
        raise BadInputError("runs must be driven by the same field")
    if run_a.samples.size == 0 or run_b.samples.size == 0:
        raise BadInputError("runs carry no samples")
    prods = run_a.samples @ run_b.samples.T / run_a.n
    if run_a is run_b:
        idx = np.triu_indices(prods.shape[0], k=1)
        overlaps = prods[idx]
    else:
        overlaps = prods.ravel()
    counts, edges = np.histogram(overlaps, bins=bins, range=(-1.0, 1.0))
    return OverlapHistogram(overlaps=overlaps, edges=edges, counts=counts)


# ============================================================ sample dumps


def dump_samples(path, samples: np.ndarray) -> None:
    """Write sample rows as little-endian float64 after a 16-byte header
    (magic, version, dimension, row count)."""
    arr = np.ascontiguousarray(np.atleast_2d(np.asarray(samples, dtype="<f8")))
    if arr.ndim != 2:
        raise BadInputError("samples must be a 2-d array")
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, 1, arr.shape[1], arr.shape[0]))
        handle.write(arr.tobytes())


def load_samples(path) -> np.ndarray:
    """Read a sample dump written by dump_samples."""
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise BadInputError("sample dump is truncated")
        magic, version, n, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise BadInputError("not a sample dump (bad magic)")
        if version != 1:
            raise BadInputError(f"unsupported sample dump version {version}")
        data = np.frombuffer(handle.read(), dtype="<f8")
    if data.size != n * count:
        raise BadInputError("sample dump payload does not match its header")
    return data.reshape(count, n).copy()


# ====================================================== validation battery


def validate_kernels(seed: int) -> list[dict]:
    """Check the sampled field and the analytic conditioning kernels against
    each other at one seed.

    Returns one record per test, in a fixed order, each holding the test's
    name, its statistic, the gate the statistic must not exceed, and whether
    it passed. The statistical gates sit at three standard errors.
    """
    tests = []

    def record(name, statistic, gate, ok):
        tests.append({"name": name, "statistic": statistic, "gate": gate, "pass": bool(ok)})

    # exact contraction identity <x, grad H> = sum_p p H_p
    m = Mixture({2: 0.7, 3: 1.0})
    f = sample_field(m, 24, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(24)
    x *= math.sqrt(24) / np.linalg.norm(x)
    euler = abs(
        float(x @ f.gradient(x)) - sum(p * h for p, h in f.energy_terms(x).items())
    )
    record("euler-identity", euler, 1e-9, euler <= 1e-9)

    # empirical field covariance against the mixture
    n, fields = 32, 1500
    m2 = Mixture({2: 0.5, 3: 0.5})
    pts = np.array(
        [v * math.sqrt(n) / np.linalg.norm(v) for v in rng.standard_normal((6, n))]
    )
    vals = np.empty((fields, 6))
    for i in range(fields):
        vals[i] = sample_field(m2, n, seed=seed, field_index=i).energy_many(pts)
    worst = 0.0
    for a in range(6):
        for b in range(a, 6):
            prod = vals[:, a] * vals[:, b]
            se = prod.std(ddof=1) / math.sqrt(fields) / n
            z = abs(prod.mean() / n - m2(float(pts[a] @ pts[b]) / n)) / se
            worst = max(worst, z)
    record("field-covariance", worst, 3.0, worst <= 3.0)

    # conditional band kernel vs direct Gaussian draws
    geo = BandGeometry(n=30, ladder=(0.35, 0.6))
    ev = ConditioningEvent(e_vec=(0.5, 0.9), r_vec=(0.8, 0.3), geometry=geo)
    qa, _ = np.linalg.qr(np.array(geo.anchors).T)
    gen = np.random.default_rng(seed + 1)
    u1 = gen.standard_normal(30)
    u1 -= qa @ (qa.T @ u1)
    u1 /= np.linalg.norm(u1)
    y1 = geo.anchors[-1] + math.sqrt(30 * (1 - geo.q_top)) * u1
    funcs, _, vals_c = chain_constraint_set(geo, ev)
    draws = exact_conditional_sampler(
        m2, np.vstack([geo.anchors, y1]), funcs, vals_c, [("value", 2)], 30_000, seed=seed
    )
    mean_ref, var_ref = band_kernel(m2, geo, y1, y1, ev)
    z_mean = abs(draws[:, 0].mean() / 30 - mean_ref) / (
        draws[:, 0].std(ddof=1) / math.sqrt(30_000) / 30
    )
    record("band-kernel-mean", z_mean, 3.0, z_mean <= 3.0)
    emp_var = draws[:, 0].var(ddof=1) / 30
    z_var = abs(emp_var - var_ref) / (emp_var * math.sqrt(2.0 / 30_000))
    record("band-kernel-variance", z_var, 3.0, z_var <= 3.0)

    # conditioned tangential Hessian entries: GOE variances, no gradient leak
    n_h = 102
    dec = hessian_decomposition(m, 1, n_h)
    x1 = np.zeros(n_h)
    x1[0] = math.sqrt(n_h)
    eye = np.eye(n_h)
    draws_h = exact_conditional_sampler(
        m,
        x1[None, :],
        [("value", 0), ("deriv", 0, x1.copy())],
        [n_h * 0.4, n_h * 0.9],
        [("deriv", 0, eye[1]), ("deriv2", 0, eye[1], eye[2])],
        20_000,
        seed=seed,
    )
    scale = n_h / ((n_h - 1) * dec.goe_scale)
    var = draws_h[:, 1].var(ddof=1) * scale
    target = 1.0 / dec.goe_dim
    z_goe = abs(var - target) / (target * math.sqrt(2.0 / 20_000))
    record("hessian-goe-variance", z_goe, 3.0, z_goe <= 3.0)
    corr = abs(float(np.corrcoef(draws_h[:, 0], draws_h[:, 1])[0, 1]))
    gate = 3.0 / math.sqrt(20_000)
    record("gradient-hessian-independence", corr, gate, corr <= gate)

    # infinite-temperature chain stays uniform on the sphere
    run = gibbs_mcmc(
        sample_field(m2, 32, seed=seed), 0.0, MCConfig(steps=400, burn_in=100, thin=4)
    )
    norm_dev = float(np.max(np.abs(np.sum(run.samples**2, axis=1) - 32)))
    record("gibbs-uniform-norms", norm_dev, 1e-10, norm_dev <= 1e-10)
    acc_dev = abs(run.acceptance_rate - 1.0)
    record("gibbs-uniform-acceptance", acc_dev, 0.0, acc_dev == 0.0)
    return tests

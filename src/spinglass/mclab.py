"""Small-N Monte Carlo laboratory.

Draws explicit random fields as dense coefficient tensors, runs spherical
random-walk Metropolis chains for their Gibbs measures, locates critical
points by projected Newton iteration, estimates complexity histograms over
independent field draws, and samples conditional field values exactly from
the Gaussian law, as an oracle for the analytic conditioning kernels.

A field builds, when constructed, the one symmetric copy its kernels
(energy, gradient, Hessian) read: the average over slot permutations, packed
over sorted slot pairs (about half the coefficients of a dense degree-3
tensor, a quarter of a degree-4 one). A sampled field then holds only that
copy and the key it was drawn from; its coefficients as drawn, which define
the same polynomial and which independent contractions check, are drawn
again from the key when first read. A field built from given coefficients
keeps them.

Everything here is desk scale: dimensions are capped so dense tensors stay
in memory, and the critical-point finder is a multi-start local method with
no exhaustiveness guarantee (outputs built on it are labeled exploratory).
"""

import functools
import math
import struct
from dataclasses import asdict, dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .conditioning import (
    BandGeometry,
    ConditioningEvent,
    band_kernel,
    chain_constraint_set,
    derivative_covariances,
    hessian_decomposition,
    schur_condition,
)
from .errors import BadInputError, CapacityExceededError, _check_array, _check_count, _check_real
from .mixtures import Mixture

__all__ = [
    "ComplexityEstimate",
    "CriticalPointRecord",
    "FieldSample",
    "GibbsRun",
    "MCConfig",
    "OverlapHistogram",
    "dump_samples",
    "empirical_complexity",
    "exact_conditional_sampler",
    "find_critical_points",
    "gibbs_mcmc",
    "load_samples",
    "overlap_statistics",
    "sample_field",
    "validate_kernels",
]

_MAGIC = b"SGMC"
_HEADER = struct.Struct("<4sIII")  # magic, version, dimension, row count


# Spawn keys: (field, 0) for the drawn coefficients, (field, _FINDER_LANE) for
# finder restarts, (0, _FINDER_LANE + 1) for the bootstrap, and (field, chain,
# lane) for chains and the sampler. _stream keeps each key part below 2**32,
# so SeedSequence reads it as one 32-bit word, and distinct last parts keep
# these keys apart for every seed and index.
_FINDER_LANE = 1 << 16
_CHAIN_LANE = 1 << 17
_SAMPLER_LANE = _CHAIN_LANE + 1


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one spawn key under seed.

    Streams of distinct keys are independent, and a stream does not depend
    on how many others run or in what order. Raises BadInputError for a
    seed or key part that is not a non-negative integer, or a key part of
    2**32 or more (SeedSequence would split it into words that alias others).
    """
    for part in (seed, *key):
        _check_count("seed, field index and chain index", part, 0)
    if max(key, default=0) >= 2**32:
        raise BadInputError(f"field and chain indices must be below 2**32, got key {key}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


# ============================================================ field samples


@dataclass(eq=False)
class FieldSample:
    """One realization of the random field as dense coefficient tensors.

    tensors[p] holds the order-p coefficients as drawn, in any slot order,
    already scaled so that the field's covariance at overlap t is n * xi(t);
    the degree-0 entry, when present, is the random constant term. Degrees
    run from 0 to 4, tensors[p] has shape (n,) * p and holds finite real
    numbers. A field built from given tensors keeps a new dict of the
    caller's objects, left unchanged. A field from sample_field holds no
    tensors: its first read of tensors draws them again from the key
    (mixture, n, seed, field_index), bit for bit as sample_field drew them,
    and keeps them, so later reads return the same objects.

    Construction builds the one symmetric copy the kernels read: S_p, the
    average of tensors[p] over slot permutations, packed over sorted slot
    pairs a <= b as A[c, ab] = S_cab (degree 3) and B[ab, cd] = S_abcd
    (degree 4). Symmetry makes S_..ab.. and S_..ba.. equal, so only one of
    the two is kept. With the weighted pair vector y[ab] = w_ab x_a x_b
    (w = 1 on the diagonal, 2 off it), the degree-3 value is x.(A y) and the
    degree-4 value y.(B y); S_0, S_1 and S_2 are kept as they are.
    """

    n: int
    mixture: Mixture
    seed: int
    field_index: int
    tensors: dict[int, np.ndarray] = dataclass_field(repr=False)  # a read may redraw them

    def __post_init__(self) -> None:
        _check_count("dimension", self.n, 2)
        for p in self.tensors:
            _check_count("degree", p, 0)
        _capacity_check(tuple(self.tensors) or (0,), self.n)
        values = [_check_array(f"degree-{p} tensor", t, (self.n,) * p) for p, t in self.tensors.items()]
        self.tensors = dict(self.tensors)
        self._forms = {p: _packed(t) for p, t in zip(self.tensors, values)}

    def __getattr__(self, name: str):
        # only reached when tensors is not set: a sampled field draws them
        # again from its key on the first read
        if name != "tensors":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        drawn = _draw(self.mixture, self.n, self.seed, self.field_index)
        return self.__dict__.setdefault("tensors", drawn)

    @property
    def degrees(self) -> tuple[int, ...]:
        """The degrees the field holds, from its packed forms."""
        return tuple(sorted(self._forms))

    def energy(self, x) -> float:
        """Field value at a point of the ball of squared radius n."""
        return float(sum(self.energy_terms(x).values()))

    def energy_terms(self, x) -> dict[int, float]:
        """Per-degree decomposition of the field value."""
        x = self._point(x)
        forms = self._forms
        y = _pair_products(x) if max(forms, default=0) > 2 else None
        out = {}
        for p, form in forms.items():
            if p < 2:
                out[p] = float(form @ x) if p else form
            else:
                left, right = {2: (x, x), 3: (x, y), 4: (y, y)}[p]
                out[p] = float(left @ (form @ right))
        return out

    def energy_many(self, points) -> np.ndarray:
        """Field values at each row of a (count, n) point array."""
        pts = _check_array("points", points, (None, self.n))
        forms = self._forms
        ys = _pair_products(pts) if max(forms, default=0) > 2 else None
        total = np.zeros(len(pts))
        for p, form in forms.items():
            if p < 2:
                total += pts @ form if p else form
            else:
                left, right = {2: (pts, pts), 3: (pts, ys), 4: (ys, ys)}[p]
                total += np.sum(left * (right @ form.T), axis=1)
        return total

    def gradient(self, x) -> np.ndarray:
        """Ambient gradient of the field at a point: sum_p p * S_p[x^(p-1)]."""
        return self._derivatives(x)[0]

    def hessian(self, x) -> np.ndarray:
        """Ambient Hessian of the field at a point: sum_p p(p-1) * S_p[x^(p-2)]."""
        return self._derivatives(x)[1]

    def _derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian from one two-slot contraction per degree: with
        M = S_p[x^(p-2)], the degree-p Hessian is p(p-1) M and its gradient
        p M x. M is S_2 itself, or its packed pairs A^T x (p = 3) or B y
        (p = 4) expanded to every slot pair, so the Hessian is exactly
        symmetric."""
        x = self._point(x)
        n = self.n
        expand = _pairs(n).expand
        grad, hess = np.zeros(n), np.zeros((n, n))
        for p, form in self._forms.items():
            if p == 1:
                grad += form
            elif p > 1:
                if p == 2:
                    pair = form
                else:
                    pair = (x @ form if p == 3 else form @ _pair_products(x))[expand]
                hess += p * (p - 1) * pair
                grad += p * (pair @ x)
        return grad, hess

    def _point(self, x) -> np.ndarray:
        """The point the kernels read: a float64 array of shape (n,) as it is
        (chains and the finder pass these), anything else through _check_array."""
        if type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (self.n,):
            return x
        return _check_array("point", x, (self.n,))


class _PairIndex(NamedTuple):
    rows: np.ndarray  # a of each sorted slot pair a <= b, in row-major order
    cols: np.ndarray  # b of each pair
    flat: np.ndarray  # a * n + b, the pair's offset in an (n, n) block
    weight: np.ndarray  # 1 on the diagonal, 2 off it: how many slot pairs a pair stands for
    expand: np.ndarray  # (n, n) map from every slot pair to its sorted pair's index


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> _PairIndex:
    """Sorted slot pairs of dimension n; read-only and cached per n (the
    dimension caps bound the cache at 127 entries)."""
    rows, cols = np.triu_indices(n)
    expand = np.empty((n, n), dtype=np.intp)
    expand[rows, cols] = expand[cols, rows] = np.arange(rows.size)
    index = _PairIndex(rows, cols, rows * n + cols, np.where(rows == cols, 1.0, 2.0), expand)
    for a in index:
        a.setflags(write=False)
    return index


def _pair_products(x: np.ndarray) -> np.ndarray:
    """The weighted pair vector w_ab x_a x_b over sorted slot pairs, along
    the last axis of x."""
    pairs = _pairs(x.shape[-1])
    return pairs.weight * x.take(pairs.rows, axis=-1) * x.take(pairs.cols, axis=-1)


def _packed(t: np.ndarray) -> np.ndarray | float:
    """The form the kernels read of coefficients t in any slot order: their
    average over slot permutations, packed as in FieldSample for p >= 3. An
    entry sums both orders of each slot pair (and for B of the two pairs),
    then adds the entries that regroup its slots: (a, {c,b}) and (b, {c,a})
    for A[c, ab]; ({a,c}, {b,d}) and ({a,d}, {b,c}) for B[ab, cd]. Beside t
    and the result, one packed-size array and a few row blocks are alive."""
    p = t.ndim
    if p < 3:
        return float(t) if p == 0 else (t + t.T) * 0.5 if p == 2 else t.copy()
    n = len(t)
    pairs = _pairs(n)
    size, e = len(pairs.flat), pairs.expand
    swapped = pairs.cols * n + pairs.rows  # b * n + a: the pair's other order
    m = t.reshape(-1, n * n)
    base = np.empty((size if p == 4 else n, size))
    step = max(1, 2**14 // (n * n))
    blocks = [slice(start, start + step) for start in range(0, len(base), step)]
    for blk in blocks:
        u = m[blk] if p == 3 else m.take(pairs.flat[blk], axis=0) + m.take(swapped[blk], axis=0)
        np.add(u.take(pairs.flat, axis=1), u.take(swapped, axis=1), out=base[blk])
    if p == 4:
        base += base.T
    out = base.copy()
    for blk in blocks:
        # the regrouped entries' flat offsets in base: row_of[x] is the row
        # holding slot x (A) or slots {a, x} (B), and col_of[y] the column
        # holding slots {c, y} (A) or {b, y} (B)
        if p == 3:
            row_of, col_of = np.arange(n)[None], e[blk]
        else:
            row_of, col_of = e.take(pairs.rows[blk], axis=0), e.take(pairs.cols[blk], axis=0)
        dst = out[blk]
        for x, y in ((pairs.rows, pairs.cols), (pairs.cols, pairs.rows)):
            dst += base.take(col_of.take(y, axis=1) + row_of.take(x, axis=1) * size)
        dst *= 1.0 / math.factorial(p)
    return out


def _capacity_check(degrees, n: int) -> None:
    max_p = max(degrees)
    if max_p > 4:
        raise CapacityExceededError(
            f"dense tensors are capped at degree 4, mixture has degree {max_p}"
        )
    cap = 64 if max_p == 4 else 128
    if n > cap:
        raise CapacityExceededError(
            f"dense degree-{max_p} tensors are capped at dimension {cap}, got {n}"
        )


def _draw(m: Mixture, n: int, seed: int, field_index: int) -> dict[int, np.ndarray | float]:
    """The coefficients of field (seed, field_index) as drawn, in a new dict:
    independent standard normals scaled by sqrt(coefficient) * n**(-(p-1)/2)
    per degree; the constant term is a float."""
    rng = _stream(seed, field_index, 0)
    tensors: dict[int, np.ndarray | float] = {}
    if m.const_term > 0.0:
        tensors[0] = math.sqrt(m.const_term * n) * rng.standard_normal()
    for p in m.degrees:
        scale = math.sqrt(m.coeffs[p]) * n ** (-(p - 1) / 2.0)
        tensors[p] = scale * rng.standard_normal((n,) * p)
    return tensors


def sample_field(m: Mixture, n: int, seed: int, field_index: int = 0) -> FieldSample:
    """Draw one field realization: independent standard normal coefficients
    scaled by sqrt(coefficient) * n**(-(p-1)/2) per degree. The field packs
    them into its symmetric form and lets them go; FieldSample.tensors draws
    them again from the key (m, n, seed, field_index) when first read."""
    degrees = m.degrees
    if not degrees and m.const_term == 0.0:
        raise BadInputError("mixture has no active degrees")
    _check_count("dimension", n, 2)
    _capacity_check(degrees or (1,), n)
    field = FieldSample(
        n=n, mixture=m, seed=int(seed), field_index=int(field_index),
        tensors=_draw(m, n, seed, field_index),
    )
    del field.tensors
    return field


# =============================================================== Gibbs MCMC


ADAPT_EVERY = 50
TARGET_ACCEPT = 0.4


@dataclass(frozen=True)
class MCConfig:
    """Chain configuration for spherical random-walk Metropolis.

    The chain keeps every thin-th of its steps after burn-in, so thin may not
    exceed steps: a chain keeps floor(steps / thin) >= 1 samples. The step
    starts at step_size; after every ADAPT_EVERY = 50 burn-in steps it is
    multiplied by exp(rate - TARGET_ACCEPT), rate being that window's
    acceptance rate and TARGET_ACCEPT = 0.4, and it is frozen after burn-in.
    """

    steps: int = 4000
    burn_in: int = 1000
    thin: int = 10
    step_size: float = 0.3
    chain_index: int = 0

    def __post_init__(self) -> None:
        _check_count("steps", self.steps, 1)
        _check_count("burn_in", self.burn_in, 0)
        _check_count("thin", self.thin, 1)
        _check_count("chain_index", self.chain_index, 0)
        if self.thin > self.steps:
            raise BadInputError(f"thin must not exceed steps, got thin={self.thin}, steps={self.steps}")
        _check_real("step size", self.step_size, "(0, inf)")


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
            "chain": dict(sorted(asdict(self.config).items())),
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
    _check_real("inverse temperature", beta, "[0, inf)")
    cfg = config if config is not None else MCConfig()
    n = field.n
    radius = math.sqrt(n)
    rng = _stream(field.seed, field.field_index, cfg.chain_index, _CHAIN_LANE)
    x = rng.standard_normal(n)
    x *= radius / np.linalg.norm(x)
    energy = field.energy(x)
    step = cfg.step_size
    accepted_main = accepted_window = 0
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
        x *= radius / np.linalg.norm(x)
        if t < cfg.burn_in and (t + 1) % ADAPT_EVERY == 0:
            rate = accepted_window / ADAPT_EVERY
            step *= math.exp(rate - TARGET_ACCEPT)
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
        acceptance_rate=accepted_main / cfg.steps,
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
    _check_real("radius parameter", q, "(0, 1]")
    _check_count("restarts", restarts, 1)
    _check_count("max_iter", max_iter, 1)
    n = field.n
    radius = math.sqrt(n * q)
    tol = 1e-8 * math.sqrt(n)
    rng = _stream(field.seed, field.field_index, _FINDER_LANE)
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
            grad, hess = field._derivatives(x)
            xg = float(x @ grad)
            pg = grad - (xg / (n * q)) * x
            residual = float(np.linalg.norm(pg)) / math.sqrt(n)
            if residual <= tol:
                converged = True
                break
            ux = x / radius
            shifted = hess - (xg / (n * q)) * eye
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
            radial_derivative=xg / (n * q),
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
    confidence intervals; bootstrap=0 leaves the intervals at (-inf, inf).
    Exploratory: inherits the finder's blind spots."""
    e_edges, r_edges = (
        _check_array("bin edges (finite and increasing)", x, (None,)) for x in (e_edges, r_edges)
    )
    if not all(x.size > 1 and (np.diff(x) > 0).all() for x in (e_edges, r_edges)):
        raise BadInputError("bin edges must be finite and increasing, at least two of them")
    _check_count("n_fields", n_fields, 1)
    _check_real("radius parameter", q, "(0, 1]")
    _check_count("restarts", restarts, 1)
    _check_count("bootstrap", bootstrap, 0)

    def one_field(index: int) -> np.ndarray:
        fld = sample_field(m, n, seed, field_index=index)
        recs = find_critical_points(fld, q=q, restarts=restarts)
        if not recs:
            return np.zeros((e_edges.size - 1, r_edges.size - 1))
        es = [rec.energy_density for rec in recs]
        rs = [rec.radial_derivative for rec in recs]
        hist, _, _ = np.histogram2d(es, rs, bins=(e_edges, r_edges))
        return hist

    stack = np.array([one_field(i) for i in range(n_fields)])
    mean_counts = stack.mean(axis=0)
    log_counts = _log_scaled(mean_counts, n)

    rng = _stream(seed, 0, _FINDER_LANE + 1)
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


def exact_conditional_sampler(
    m: Mixture,
    points,
    constraints,
    constraint_values,
    targets,
    n_draws: int,
    seed: int = 0,
) -> np.ndarray:
    """Draw exact Gaussian samples of target functionals of the field given
    pinned values of constraint functionals.

    points is the shared (count, n) configuration; constraints and targets
    are functional descriptors over it (("value", i), ("deriv", i, u) or
    ("deriv2", i, u, w)). Returns an (n_draws, len(targets)) array sampled
    from the conditional law via the conditional mean plus a square root of
    the conditional covariance. Constraints go through the conditioner's rank
    rule: a dependent one with a consistent value is skipped, and one with an
    inconsistent value raises SingularBlockError.
    """
    _check_count("n_draws", n_draws, 1)
    constraints = list(constraints)
    targets = list(targets)
    if not targets:
        raise BadInputError("need at least one target functional")
    joint = derivative_covariances(m, points, constraints + targets)
    mean, cov = schur_condition(joint, range(len(constraints)), constraint_values)
    root = _psd_root(cov)
    rng = _stream(seed, 0, 0, _SAMPLER_LANE)
    z = rng.standard_normal((n_draws, len(targets)))
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


def overlap_statistics(run_a: GibbsRun, run_b: GibbsRun) -> OverlapHistogram:
    """Histogram of pairwise normalized overlaps between the samples of two
    chains over the same field, in 41 equal bins on [-1, 1].
    Passing the same run twice uses distinct index pairs within it, so that
    run needs at least two samples. Overlaps are clipped into [-1, 1]: a
    state repeated by a rejected move has overlap 1 up to rounding, which
    may land just above it."""
    if run_a.n != run_b.n:
        raise BadInputError("runs must share the dimension")
    if run_a.seed != run_b.seed or run_a.field_index != run_b.field_index:
        raise BadInputError("runs must be driven by the same field")
    if run_a.samples.size == 0 or run_b.samples.size == 0:
        raise BadInputError("runs carry no samples")
    if run_a is run_b and run_a.samples.shape[0] < 2:
        raise BadInputError("a run compared with itself needs at least two samples")
    prods = run_a.samples @ run_b.samples.T / run_a.n
    if run_a is run_b:
        idx = np.triu_indices(prods.shape[0], k=1)
        overlaps = prods[idx]
    else:
        overlaps = prods.ravel()
    np.clip(overlaps, -1.0, 1.0, out=overlaps)
    counts, edges = np.histogram(overlaps, bins=41, range=(-1.0, 1.0))
    return OverlapHistogram(overlaps=overlaps, edges=edges, counts=counts)


# ============================================================ sample dumps


def dump_samples(path, samples: np.ndarray) -> None:
    """Write sample rows as little-endian float64 after a 16-byte header
    (magic, version, dimension, row count)."""
    arr = np.ascontiguousarray(np.atleast_2d(_check_array("samples", samples)), dtype="<f8")
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

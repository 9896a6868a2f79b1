"""Exact Gaussian conditioning at finite N.

The field's covariance between any two points is a function of their inner
product alone, so covariances of values and directional derivatives at a
finite point set reduce to closed forms in the mixture and its first few
derivatives. This module assembles those joint covariance matrices, does
textbook Gaussian conditioning on them, and packages the two structured
consequences used elsewhere: the law of the field on a band slice given
pinned values and gradients along an anchor chain, and the pinned system
behind the conditioned Franz-Parisi potential. That system comes from the
same joint covariances, at canonical points in three dimensions; it keeps
its rows in order and drops each whose variance left after projecting out
the rows kept before it is below 1e-12 of its own variance.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import BadInputError, SingularBlockError, SingularMatrixError, _check_count
from .landscape import _free_energy_slope, ground_state_point
from .mixtures import Mixture, section_half_width, sigma_inverse
from .rsb import SolverConfig

_OVERLAP_TOL = 1e-8


# ============================================================ domain types


@dataclass(frozen=True, eq=False)
class BandGeometry:
    """Anchor chain for band conditioning.

    The anchors are always the canonical ones: they stack the overlap
    increments along the first depth coordinate axes, so the anchor inner
    products reproduce the ladder exactly and the orthogonal complement of
    the chain is spanned by the remaining standard basis vectors.
    """

    ladder: tuple[float, ...]
    n: int
    anchors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ladder = tuple(float(q) for q in self.ladder)
        object.__setattr__(self, "ladder", ladder)
        if not ladder:
            raise BadInputError("band geometry needs at least one ladder point")
        prev = 0.0
        for q in ladder:
            if not prev < q <= 1.0:
                raise BadInputError(f"ladder must be strictly increasing in (0,1]: {ladder}")
            prev = q
        _check_count("n", self.n, len(ladder))
        object.__setattr__(self, "anchors", self._canonical_anchors())
        gram = self.anchors @ self.anchors.T / self.n
        want = np.minimum.outer(np.array(ladder), np.array(ladder))
        if np.max(np.abs(gram - want)) > _OVERLAP_TOL:
            raise BadInputError("anchor inner products do not reproduce the ladder")

    def _canonical_anchors(self) -> np.ndarray:
        qs = (0.0, *self.ladder)
        rows = np.zeros((len(self.ladder), self.n))
        for i in range(1, len(qs)):
            rows[i - 1, : i] = [math.sqrt(self.n * (qs[j + 1] - qs[j])) for j in range(i)]
        return rows

    @property
    def depth(self) -> int:
        return len(self.ladder)

    @property
    def q_top(self) -> float:
        return self.ladder[-1]

    def on_slice(self, y: np.ndarray, tol: float = _OVERLAP_TOL) -> bool:
        """True when y has the exact chain overlaps (up to tol)."""
        y = np.asarray(y, dtype=float)
        overlaps = self.anchors @ y / self.n
        return bool(np.max(np.abs(overlaps - np.array(self.ladder))) <= tol)


@dataclass(frozen=True, eq=False)
class ConditioningEvent:
    """Pinned values along a chain: per-level energies and radial slopes."""

    e_vec: tuple[float, ...]
    r_vec: tuple[float, ...]
    geometry: BandGeometry

    def __post_init__(self) -> None:
        e_vec = tuple(float(v) for v in self.e_vec)
        r_vec = tuple(float(v) for v in self.r_vec)
        object.__setattr__(self, "e_vec", e_vec)
        object.__setattr__(self, "r_vec", r_vec)
        if len(e_vec) != self.geometry.depth or len(r_vec) != self.geometry.depth:
            raise BadInputError(
                f"need {self.geometry.depth} per-level targets, got "
                f"{len(e_vec)} energies and {len(r_vec)} slopes"
            )
        if not all(map(math.isfinite, e_vec + r_vec)):
            raise BadInputError(f"pinned targets must be finite: {e_vec}, {r_vec}")


# ============================================== derivative covariance algebra


def _pair_cov(m: Mixture, n: int, x, y, us, vs) -> float:
    """Covariance of directional derivatives of the field at x and y.

    us differentiate the x slot, vs the y slot. Each derivative pairs with
    one of the other slot (a factor u.v) or stays unpaired (u.y, or x.v);
    a pairing with p pairs among a + b derivatives carries
    xi^(a+b-p)(x.y/n) n^(1-(a+b-p)), and the value is the sum over all
    pairings.
    """
    c = float(x @ y) / n
    a, b = len(us), len(vs)
    if a == 0 and b == 0:
        return n * m.eval(c)
    uy = [float(u @ y) for u in us]
    xv = [float(x @ v) for v in vs]
    total = 0.0
    for p in range(min(a, b), -1, -1):
        group = 0.0
        for iu in combinations(range(a), p):
            for jv in permutations(range(b), p):
                factors = [float(us[i] @ vs[j]) for i, j in zip(iu, jv)]
                factors += [uy[i] for i in range(a) if i not in iu]
                factors += [xv[j] for j in range(b) if j not in jv]
                group += math.prod(factors)
        order = a + b - p
        total += m.eval(c, order) * group / n ** (order - 1)
    return total


def _parse_functional(which, points: np.ndarray, n: int):
    kind = which[0]
    idx = int(which[1])
    if not 0 <= idx < len(points):
        raise BadInputError(f"point index {idx} out of range")
    x = points[idx]
    if kind == "value":
        if len(which) != 2:
            raise BadInputError("value functional takes only a point index")
        return x, ()
    dirs = tuple(np.asarray(u, dtype=float) for u in which[2:])
    for u in dirs:
        if u.shape != (n,) or not np.isfinite(u).all():
            raise BadInputError(f"directions must be finite vectors of length {n}")
    if kind == "deriv" and len(dirs) == 1:
        return x, dirs
    if kind == "deriv2" and len(dirs) == 2:
        return x, dirs
    raise BadInputError(f"unknown functional {which[:2]}")


def derivative_covariances(m: Mixture, points, which) -> np.ndarray:
    """Joint covariance matrix of value / first- / second-derivative
    functionals of the field at an explicit point configuration.

    points is a (count, n) array; each entry of which is ("value", i),
    ("deriv", i, u) or ("deriv2", i, u, w) with explicit direction vectors.
    Covariances are for the raw (extensive) field.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise BadInputError("points must be a 2-d array, one row per point")
    if not np.isfinite(points).all():
        raise BadInputError("points must be finite")
    n = points.shape[1]
    norms = np.sum(points * points, axis=1) / n
    if np.any(norms > 1.0 + _OVERLAP_TOL):
        raise BadInputError("points must lie in the ball of squared radius n")
    parsed = [_parse_functional(w, points, n) for w in which]
    size = len(parsed)
    out = np.empty((size, size))
    for i, (x, us) in enumerate(parsed):
        for j in range(i, size):
            y, vs = parsed[j]
            out[i, j] = out[j, i] = _pair_cov(m, n, x, y, us, vs)
    return out


# ==================================================== Gaussian conditioning


def schur_condition(
    joint_cov,
    observed_idx,
    observed_vals,
    pseudo_inverse: bool = False,
):
    """Condition a centered Gaussian vector on exact values of a subset of
    its coordinates. Returns the conditional mean and covariance of the
    remaining coordinates, in their original order.
    """
    cov = np.asarray(joint_cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise BadInputError("joint covariance must be square")
    vals = np.asarray(observed_vals, dtype=float)
    if not (np.isfinite(cov).all() and np.isfinite(vals).all()):
        raise BadInputError("joint covariance and observed values must be finite")
    if np.max(np.abs(cov - cov.T)) > 1e-10 * max(1.0, np.max(np.abs(cov))):
        raise BadInputError("joint covariance must be symmetric")
    obs = list(int(i) for i in observed_idx)
    if len(obs) != len(vals):
        raise BadInputError("need one observed value per observed index")
    if len(set(obs)) != len(obs):
        raise BadInputError("observed indices must be distinct")
    if any(not 0 <= i < cov.shape[0] for i in obs):
        raise BadInputError("observed index out of range")
    free = [i for i in range(cov.shape[0]) if i not in set(obs)]
    c_oo = cov[np.ix_(obs, obs)]
    c_fo = cov[np.ix_(free, obs)]
    c_ff = cov[np.ix_(free, free)]
    if pseudo_inverse:
        gain = c_fo @ np.linalg.pinv(c_oo, rcond=1e-12, hermitian=True)
    else:
        try:
            factor = cho_factor(c_oo)
        except np.linalg.LinAlgError as exc:
            raise SingularBlockError(
                "observed covariance block is singular; pass pseudo_inverse=True "
                "to condition on its attainable span"
            ) from exc
        gain = cho_solve(factor, c_fo.T).T
    cond_mean = gain @ vals
    cond_cov = c_ff - gain @ cov[np.ix_(obs, free)]
    return cond_mean, cond_cov


# ======================================================== band conditioning


def chain_constraint_set(geometry: BandGeometry, event: ConditioningEvent):
    """Constraint functionals, display labels and pinned raw values along
    the anchor chain: per level one value (the extensive energy) and one
    increment-direction derivative (the unnormalized slope), then the
    tangential gradient (pinned to zero), in the canonical frame where the
    chain spans the leading coordinate axes. Extra eval points appended
    after the anchors keep indices starting at the chain depth."""
    n = geometry.n
    eye = np.eye(n)
    anchors = geometry.anchors
    qs = (0.0, *geometry.ladder)
    funcs, labels, vals = [], [], []
    prev = np.zeros(n)
    for i in range(geometry.depth):
        funcs.append(("value", i))
        labels.append(f"H@x{i + 1}")
        vals.append(n * event.e_vec[i])
        funcs.append(("deriv", i, anchors[i] - prev))
        labels.append(f"dR@x{i + 1}")
        vals.append(n * (qs[i + 1] - qs[i]) * event.r_vec[i])
        for j in range(i + 1, n):
            funcs.append(("deriv", i, eye[j]))
            labels.append(f"gperp{j + 1}@x{i + 1}")
        vals.extend([0.0] * (n - i - 1))
        prev = anchors[i]
    return funcs, labels, np.array(vals)


def band_kernel(
    m: Mixture,
    geometry: BandGeometry,
    y1_overlap,
    y2_overlap,
    event: ConditioningEvent | None = None,
):
    """Conditional mean and covariance (both per site) of the field at two
    band-slice points, given pinned values and gradients along the chain.

    The pair enters only through its mutual overlap q_top + (1 - q_top) cos:
    pass two explicit points (slice membership is checked) or that overlap,
    in [2 q_top - 1, 1], twice as a scalar. The mean is the top pinned
    energy when an event is supplied, else 0 for the centered law.
    """
    pinned = geometry if event is None else event.geometry
    if (pinned.ladder, pinned.n) != (geometry.ladder, geometry.n):
        raise BadInputError(
            f"the event pins the chain {pinned.ladder} with n={pinned.n}, "
            f"not the geometry's {geometry.ladder} with n={geometry.n}"
        )
    q_top = geometry.q_top
    if np.ndim(y1_overlap) == 1 or np.ndim(y2_overlap) == 1:
        y1 = np.asarray(y1_overlap, dtype=float)
        y2 = np.asarray(y2_overlap, dtype=float)
        if y1.shape != (geometry.n,) or y2.shape != (geometry.n,):
            raise BadInputError(f"band points must be vectors of length {geometry.n}")
        if not (geometry.on_slice(y1) and geometry.on_slice(y2)):
            raise BadInputError("band points must have the exact chain overlaps")
        t = float(y1 @ y2) / geometry.n
    else:
        t = float(y1_overlap)
        if abs(t - float(y2_overlap)) > 1e-12:
            raise BadInputError(
                "scalar mode takes the mutual overlap twice; got two different values"
            )
        if not 2.0 * q_top - 1.0 - 1e-12 <= t <= 1.0 + 1e-12:
            raise BadInputError(f"no two band-slice points have overlap {t}")
    shifted, _, _ = m.shift_restrict(q_top)
    mean = float(event.e_vec[-1]) if event is not None else 0.0
    return mean, float(shifted.eval(t - q_top))


# ================================================== Hessian decomposition


@dataclass(frozen=True)
class HessianDecomposition:
    """Parameters of the three independent pieces of the reduced field's
    local data at a point: the (energy, slope) pair, the gradient, and the
    shifted Hessian rescaled to a GOE matrix."""

    sigma_u: np.ndarray
    grad_var: float
    goe_scale: float
    goe_dim: int
    sigma_singular: bool


def hessian_decomposition(m: Mixture, depth: int, n: int) -> HessianDecomposition:
    """Split the local law of the reduced field (mixture m at depth) into
    its independent components for an n-coordinate ambient model."""
    _check_count("depth", depth, 0)
    _check_count("n", n, depth + 2)
    d = n - depth
    sig = m.sigma_xi()
    try:
        sigma_inverse(sig)
        singular = False
    except SingularMatrixError:
        singular = True
    return HessianDecomposition(
        sigma_u=sig / d,
        grad_var=float(m.eval(1.0, 1)),
        goe_scale=float((1.0 - 1.0 / d) * m.eval(1.0, 2)),
        goe_dim=d - 1,
        sigma_singular=singular,
    )


# ==================================== overlap-constrained mean and kernel


def _fp_frame(q1: float):
    """The pinned vector's points and functionals: the values at the
    reference point sigma and the anchor x1, and the anchor's derivatives
    along x1/q1 and along sqrt(n) times the in-plane unit. Only inner
    products enter, so the canonical points in n = 3 give the law at any n."""
    x1, sigma = BandGeometry((q1, 1.0), 3).anchors
    radial, in_plane = x1 / q1, math.sqrt(3) * np.eye(3)[1]
    return [sigma, x1], [("value", 0), ("value", 1), ("deriv", 1, radial), ("deriv", 1, in_plane)]


def _section_point(q1: float, r: float, rho: float) -> np.ndarray:
    """The point of the n = 3 frame with overlaps r to sigma and rho to x1."""
    a, b = math.sqrt(3 / q1) * rho, math.sqrt(3 / (1.0 - q1)) * (r - rho)
    return np.array([a, b, math.sqrt(max(0.0, 3 - a * a - b * b))])


def _fp_pinned_cov(m: Mixture, q1: float, section: tuple[float, float] | None = None):
    """Covariance per site of the pinned vector, with a section (r, rho) the
    value at _section_point(q1, r, rho) last."""
    points, which = _fp_frame(q1)
    if section is not None:
        points.append(_section_point(q1, *section))
        which.append(("value", 2))
    return derivative_covariances(m, np.array(points), which) / 3


def _independent_rows(cov: np.ndarray) -> list[int]:
    """Rows kept in order, skipping each whose variance after projecting out
    the rows kept before it is below 1e-12 of its own variance."""
    kept: list[int] = []
    for i in range(len(cov)):
        # scipy's Cholesky, not numpy.linalg, whose first call adds 0.3 MB of RSS
        factor = cho_factor(cov[np.ix_(kept, kept)])
        explained = cov[i, kept] @ cho_solve(factor, cov[kept, i])
        if cov[i, i] - explained > 1e-12 * cov[i, i]:
            kept.append(i)
    return kept


@dataclass(frozen=True, eq=False)
class FPConditioning:
    """The solved pinned system of the constrained-overlap potential: the
    covariance C of the pinned rows at anchor overlap q1 and the
    coefficients u with C u = the reference values. C comes from
    derivative_covariances, like every other law here; rows are the pinned
    vector's rows it keeps under the module's rank rule (a single-degree
    mixture drops the radial derivative, a multiple of the anchor energy)."""

    m: Mixture
    q1: float
    C: np.ndarray
    u: np.ndarray
    rows: tuple[int, ...]

    @cached_property
    def _kept(self) -> list:
        """The kept rows' functionals, parsed once from the n = 3 frame."""
        points, which = _fp_frame(self.q1)
        return [_parse_functional(which[i], points, 3) for i in self.rows]

    def mean_coeff(self, r: float, rho: float) -> float:
        """Conditional mean per site of the field at a section point with
        overlaps r to the reference point and rho to the anchor: the
        covariances of its value with the kept rows, against u."""
        q1 = self.q1
        if not (abs(r) <= 1.0 and abs(rho - r * q1) <= section_half_width(q1, r) + 1e-12):
            raise BadInputError(f"no section point has overlaps r={r}, rho={rho} at q1={q1}")
        tau = _section_point(q1, r, rho)
        row = np.array([_pair_cov(self.m, 3, x, tau, us, ()) for x, us in self._kept])
        return float((row / 3) @ self.u)


def fp_conditioning(
    m: Mixture,
    beta: float,
    q1: float,
    config: SolverConfig | None = None,
) -> FPConditioning:
    """Solve the pinned linear system at reference values: free-energy
    slope, ground state and its slope at the anchor, zero in-plane
    gradient."""
    if not 0.0 < beta < math.inf:
        raise BadInputError(f"inverse temperature must be in (0, inf), got {beta}")
    full = _fp_pinned_cov(m, q1)
    rows = _independent_rows(full)
    c = full[np.ix_(rows, rows)]
    # the composite's cap, SolverConfig()'s, not the lower zero-temperature default
    e1, r1, _ = ground_state_point(m, q1, config=config or SolverConfig())
    rhs = np.array([_free_energy_slope(m, beta, q1, e1), e1, r1, 0.0])[rows]
    try:
        factor = cho_factor(c)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("pinned covariance is not positive definite") from exc
    u = cho_solve(factor, rhs)
    if np.max(np.abs(c @ u - rhs)) > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise SingularMatrixError("pinned system solve failed the residual check")
    return FPConditioning(m=m, q1=float(q1), C=c, u=u, rows=tuple(rows))

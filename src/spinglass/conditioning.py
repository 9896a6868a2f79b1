"""Exact Gaussian conditioning at finite N.

The field's covariance between any two points is a function of their inner
product alone, so covariances of values and directional derivatives at a
finite point set reduce to closed forms in the mixture and its first few
derivatives. This module assembles those joint covariance matrices, does
textbook Gaussian conditioning on them, and builds the paper's one event
(chain_constraint_set): energies and gradients at anchors x_i with overlaps
q_i, and the energy at a point sigma with overlap q_i to each x_i. It gives
the law of the field on a band slice, and the pinned system of the
conditioned Franz-Parisi potential is its depth-1 instance in n = 3 (only
inner products enter, so that frame gives the law at any n).

Every pinned block goes through one rank rule: rows are kept in order,
skipping each whose variance left after projecting out the rows kept before
it is below 1e-12 of its own. A skipped row d whose value is more than
sqrt(1e-12 C_dd) off its conditional mean given the kept rows makes the
event impossible, and the conditioning raises SingularBlockError.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from ._compiled import cho_factor, cho_solve, solve_lower
from .errors import (
    BadInputError,
    SingularBlockError,
    SingularMatrixError,
    _check_array,
    _check_count,
    _check_grid,
    _check_real,
)
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
        ladder = _check_grid("ladder point", self.ladder, "(0, 1)")
        object.__setattr__(self, "ladder", ladder)
        if not ladder:
            raise BadInputError("band geometry needs at least one ladder point")
        _check_count("n", self.n, len(ladder) + 1)  # a band slice past the chain
        object.__setattr__(self, "anchors", self._canonical_anchors())

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

    def on_slice(self, y: np.ndarray) -> bool:
        """True when y has the exact chain overlaps (up to 1e-8)."""
        overlaps = self.anchors @ _check_array("band point", y, (self.n,)) / self.n
        return bool(np.max(np.abs(overlaps - np.array(self.ladder))) <= _OVERLAP_TOL)


@dataclass(frozen=True, eq=False)
class ConditioningEvent:
    """Pinned values along a chain: per-level energies and radial slopes."""

    e_vec: tuple[float, ...]
    r_vec: tuple[float, ...]
    geometry: BandGeometry

    def __post_init__(self) -> None:
        for name in ("e_vec", "r_vec"):  # one pinned value per ladder level
            values = _check_array(f"pinned {name}", getattr(self, name), (self.geometry.depth,))
            object.__setattr__(self, name, tuple(values.tolist()))


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
    kind, idx = which[0], _check_count("point index", which[1], 0)
    if idx >= len(points):
        raise BadInputError(f"point index {idx} out of range")
    x = points[idx]
    if kind == "value":
        if len(which) != 2:
            raise BadInputError("value functional takes only a point index")
        return x, ()
    dirs = tuple(_check_array("direction", u, (n,)) for u in which[2:])
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
    points = _check_array("points", points, (None, None))
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


def schur_condition(joint_cov, observed_idx, observed_vals):
    """Condition a centered Gaussian vector on exact values of a subset of
    its coordinates, under the module's rank rule. Returns the conditional
    mean and covariance of the remaining coordinates, in their original order.
    The joint covariance must be symmetric and positive semidefinite: its
    smallest eigenvalue may fall below 0 by at most 1e-12 of its largest
    diagonal entry.
    """
    cov = _check_array("joint covariance", joint_cov, (None, None))
    if cov.shape[0] != cov.shape[1]:
        raise BadInputError("joint covariance must be square")
    vals = _check_array("observed values", observed_vals, (None,))
    if np.max(np.abs(cov - cov.T)) > 1e-10 * max(1.0, np.max(np.abs(cov))):
        raise BadInputError("joint covariance must be symmetric")
    if len(cov) and np.linalg.eigvalsh(cov)[0] < -1e-12 * np.max(np.diag(cov)):
        raise BadInputError("joint covariance must be positive semidefinite")
    obs = [_check_count("observed index", i, 0) for i in observed_idx]
    if len(obs) != len(vals):
        raise BadInputError("need one observed value per observed index")
    if len(set(obs)) != len(obs):
        raise BadInputError("observed indices must be distinct")
    if any(i >= cov.shape[0] for i in obs):
        raise BadInputError("observed index out of range")
    free = [i for i in range(cov.shape[0]) if i not in set(obs)]
    rows, factor, _ = _pinned_solve(cov[np.ix_(obs, obs)], vals)
    kept = [obs[i] for i in rows]
    gain = cho_solve(factor, cov[np.ix_(free, kept)].T).T
    cond_mean = gain @ vals[rows]
    cond_cov = cov[np.ix_(free, free)] - gain @ cov[np.ix_(kept, free)]
    return cond_mean, cond_cov


def _independent_rows(cov: np.ndarray) -> list[int]:
    """The module's rank rule in one Cholesky pass: a row's residual variance
    is its variance less the squared norm of its triangular solve against the
    kept rows' factor."""
    low = np.zeros(cov.shape)  # row k: the factor row of the k-th kept row
    kept: list[int] = []
    for i in range(len(cov)):
        k = len(kept)
        w = solve_lower(low[:k, :k], cov[kept, i])
        resid = cov[i, i] - w @ w
        if resid > 1e-12 * cov[i, i]:
            low[k, :k], low[k, k] = w, math.sqrt(resid)
            kept.append(i)
    return kept


def _pinned_solve(cov: np.ndarray, vals: np.ndarray):
    """The rank rule's rows of a pinned block, the Cholesky factor of their
    covariance and its solve against their values. Raises SingularBlockError
    when a skipped row d's value is more than sqrt(1e-12 C_dd) off its
    conditional mean given the kept rows."""
    rows = _independent_rows(cov)
    skipped = sorted(set(range(len(cov))) - set(rows))
    # scipy's Cholesky, not numpy.linalg, whose first call adds 0.3 MB of RSS
    factor = cho_factor(cov[np.ix_(rows, rows)])
    u = cho_solve(factor, vals[rows])
    gap = cov[np.ix_(skipped, rows)] @ u - vals[skipped]
    if np.any(gap * gap > 1e-12 * cov[skipped, skipped]):
        raise SingularBlockError("a dependent pinned value is off its conditional mean")
    return rows, factor, u


# ======================================================== band conditioning


def chain_constraint_set(event: ConditioningEvent, energy: float | None = None):
    """The event's points, functionals and pinned values per site (times n
    for the raw field) in the canonical frame, where the chain spans the
    leading axes. The points are the anchors and, given an energy, sigma =
    x_k + sqrt(n (1 - q_k)) e_(k+1), with overlap q_i to x_i and norm sqrt(n).
    The rows are sigma's value (pinned to energy), then per level the value
    (to e_i), the derivative along (x_i - x_(i-1)) / (q_i - q_(i-1)) (to r_i)
    and the gradient along sqrt(n) e_j for each axis j past x_i's (to 0)."""
    n, k, anchors = event.geometry.n, event.geometry.depth, event.geometry.anchors
    qs, eye = (0.0, *event.geometry.ladder), np.eye(n)
    points, funcs, vals = anchors.copy(), [], []
    if energy is not None:
        points = np.vstack([anchors, anchors[-1] + math.sqrt(n * (1.0 - qs[k])) * eye[k]])
        funcs.append(("value", k))
        vals.append(_check_real("energy", energy, "(-inf, inf)"))
    prev = np.zeros(n)
    for i in range(k):
        funcs += [("value", i), ("deriv", i, (anchors[i] - prev) / (qs[i + 1] - qs[i]))]
        funcs += [("deriv", i, math.sqrt(n) * eye[j]) for j in range(i + 1, n)]
        vals += [event.e_vec[i], event.r_vec[i]] + [0.0] * (n - i - 1)
        prev = anchors[i]
    return points, funcs, np.array(vals)


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
        y1, y2 = (_check_array("band point", y, (geometry.n,)) for y in (y1_overlap, y2_overlap))
        if not (geometry.on_slice(y1) and geometry.on_slice(y2)):
            raise BadInputError("band points must have the exact chain overlaps")
        t = float(y1 @ y2) / geometry.n
    else:
        t = _check_real("band overlap", y1_overlap, "(-inf, inf)")
        if abs(t - _check_real("band overlap", y2_overlap, "(-inf, inf)")) > 1e-12:
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


def _fp_event(q1: float, e1: float = 0.0, r1: float = 0.0, energy: float = 0.0):
    """chain_constraint_set on the Franz-Parisi event in n = 3."""
    return chain_constraint_set(ConditioningEvent((e1,), (r1,), BandGeometry((q1,), 3)), energy)


def _section_point(q1: float, r: float, rho: float) -> np.ndarray:
    """The point of the n = 3 frame with overlaps r to sigma and rho to x1."""
    a, b = math.sqrt(3 / q1) * rho, math.sqrt(3 / (1.0 - q1)) * (r - rho)
    return np.array([a, b, math.sqrt(max(0.0, 3 - a * a - b * b))])


def _fp_pinned_cov(m: Mixture, q1: float, section: tuple[float, float] | None = None):
    """Covariance per site of the pinned vector, with a section (r, rho) the
    value at _section_point(q1, r, rho) last."""
    points, which, _ = _fp_event(q1)
    if section is not None:
        points = np.vstack([points, _section_point(q1, *section)])
        which.append(("value", 2))
    return derivative_covariances(m, points, which) / 3


@dataclass(frozen=True, eq=False)
class FPConditioning:
    """The solved pinned system of the constrained-overlap potential: the
    covariance C of the pinned rows at anchor overlap q1 and the
    coefficients u with C u = the reference values. rows are those of
    chain_constraint_set's depth-1 event with sigma in n = 3 kept under the
    rank rule (a single-degree mixture drops the radial derivative, a
    multiple of the anchor energy). Row 4, the gradient along the third
    axis, is exactly uncorrelated with the others, as sigma and the anchor
    span the first two; pinned to 0, it has u entry exactly 0."""

    m: Mixture
    q1: float
    C: np.ndarray
    u: np.ndarray
    rows: tuple[int, ...]

    @cached_property
    def _kept(self) -> list:
        """The kept rows' functionals, parsed once from the n = 3 frame."""
        points, which, _ = _fp_event(self.q1)
        return [_parse_functional(which[i], points, 3) for i in self.rows]

    def mean_coeff(self, r: float, rho: float) -> float:
        """Conditional mean per site of the field at a section point with
        overlaps r to the reference point and rho to the anchor: the
        covariances of its value with the kept rows, against u."""
        q1 = self.q1
        r = _check_real("sample overlap", r, "[-1, 1]")
        rho = _check_real("section overlap", rho, "[-1, 1]")
        if not abs(rho - r * q1) <= section_half_width(q1, r) + 1e-12:
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
    slope at sigma, ground state and its slope at the anchor, zero
    tangential gradient."""
    _check_real("inverse temperature", beta, "(0, inf)")
    _check_real("anchor overlap", q1, "(0, 1)")
    full = _fp_pinned_cov(m, q1)
    # the composite's cap, SolverConfig()'s, not the lower zero-temperature default
    e1, r1, _ = ground_state_point(m, q1, config=config or SolverConfig())
    *_, pinned = _fp_event(q1, e1, r1, _free_energy_slope(m, beta, q1, e1))
    rows, _, u = _pinned_solve(full, pinned)
    c, rhs = full[np.ix_(rows, rows)], pinned[rows]
    if np.max(np.abs(c @ u - rhs)) > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise SingularMatrixError("pinned system solve failed the residual check")
    return FPConditioning(m=m, q1=float(q1), C=c, u=u, rows=tuple(rows))

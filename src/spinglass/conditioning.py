"""Exact Gaussian conditioning at finite N.

The field's covariance between any two points is a function of their inner
product alone, so covariances of values and directional derivatives at a
finite point set reduce to closed forms in the mixture and its first few
derivatives. This module assembles those joint covariance matrices, does
textbook Gaussian conditioning on them, and packages the two structured
consequences used elsewhere: the law of the field on a band slice given
pinned values and gradients along an anchor chain, and the reduction of
that law to a fresh sphere in the unconstrained coordinates.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    BadInputError,
    RegimeMismatchError,
    SingularBlockError,
    SingularMatrixError,
)
from .landscape import _free_energy_slope, ground_state_point
from .mixtures import Mixture, section_half_width, sigma_inverse, tau_mix
from .rsb import SolverConfig

_OVERLAP_TOL = 1e-8


# ============================================================ domain types


@dataclass(frozen=True, eq=False)
class BandGeometry:
    """Anchor chain for band conditioning.

    The canonical anchors stack the overlap increments along the first
    depth coordinate axes, so the anchor inner products reproduce the
    ladder exactly and the orthogonal complement of the chain is spanned
    by the remaining standard basis vectors.
    """

    ladder: tuple[float, ...]
    n: int
    anchors: np.ndarray = field(default=None, repr=False)

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
        if self.n < len(ladder):
            raise BadInputError(f"need at least {len(ladder)} coordinates, got {self.n}")
        if self.anchors is None:
            object.__setattr__(self, "anchors", self._canonical_anchors())
        else:
            anchors = np.asarray(self.anchors, dtype=float)
            if anchors.shape != (len(ladder), self.n):
                raise BadInputError(f"anchors must have shape {(len(ladder), self.n)}")
            object.__setattr__(self, "anchors", anchors)
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
    """Pinned values along a chain: per-level energies and radial slopes,
    optionally a normalized energy at an external point."""

    e_vec: tuple[float, ...]
    r_vec: tuple[float, ...]
    geometry: BandGeometry
    E: float | None = None

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

    def in_window(self, f_prime: float, e_stars, r_stars, eps: float) -> bool:
        """Membership of the pinned values in the eps window around the
        reference energies and slopes (and f_prime, when E is set)."""
        if eps <= 0.0:
            raise BadInputError("window width must be positive")
        if self.E is not None and abs(self.E - f_prime) >= eps:
            return False
        for e, e_ref in zip(self.e_vec, e_stars):
            if abs(e - e_ref) >= eps:
                return False
        for r, r_ref in zip(self.r_vec, r_stars):
            if abs(r - r_ref) >= eps:
                return False
        return True


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
        if u.shape != (n,):
            raise BadInputError(f"directions must be vectors of length {n}")
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


def covariance_csv(labels, matrix: np.ndarray) -> str:
    """Row-major CSV dump of a labeled covariance matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(labels), len(labels)):
        raise BadInputError("label count must match the matrix dimension")
    lines = [",".join(str(lab) for lab in labels)]
    for row in matrix:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


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
    if np.max(np.abs(cov - cov.T)) > 1e-10 * max(1.0, np.max(np.abs(cov))):
        raise BadInputError("joint covariance must be symmetric")
    obs = list(int(i) for i in observed_idx)
    vals = np.asarray(observed_vals, dtype=float)
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


def _chain_functionals(geometry: BandGeometry):
    """Constraint functionals along the anchor chain: one value and one
    increment-direction derivative per level plus the full tangential
    gradient, in the canonical frame where the chain spans the leading
    coordinate axes."""
    n = geometry.n
    eye = np.eye(n)
    anchors = geometry.anchors
    funcs, labels = [], []
    prev = np.zeros(n)
    for i, _ in enumerate(geometry.ladder):
        funcs.append(("value", i))
        labels.append(f"H@x{i + 1}")
        funcs.append(("deriv", i, anchors[i] - prev))
        labels.append(f"dR@x{i + 1}")
        for j in range(i + 1, n):
            funcs.append(("deriv", i, eye[j]))
            labels.append(f"gperp{j + 1}@x{i + 1}")
        prev = anchors[i]
    return funcs, labels


def chain_constraint_values(geometry: BandGeometry, event: ConditioningEvent):
    """Raw pinned values for the chain functionals of the geometry: the
    extensive energies, the unnormalized increment derivatives, and zeros
    for the tangential gradients."""
    n = geometry.n
    qs = (0.0, *geometry.ladder)
    vals = []
    for i in range(geometry.depth):
        vals.append(n * event.e_vec[i])
        vals.append(n * (qs[i + 1] - qs[i]) * event.r_vec[i])
        vals.extend([0.0] * (n - i - 1))
    return np.array(vals)


def band_kernel(
    m: Mixture,
    geometry: BandGeometry,
    y1_overlap,
    y2_overlap,
    event: ConditioningEvent | None = None,
):
    """Conditional mean and covariance (both per site) of the field at two
    band-slice points, given pinned values and gradients along the chain.

    The pair enters only through its mutual overlap: pass two explicit
    points (slice membership is checked) or that overlap twice as a
    scalar. The mean is the top pinned energy when an event is supplied,
    else 0 for the centered law.
    """
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
    shifted, _, _ = m.shift_restrict(q_top)
    mean = float(event.e_vec[-1]) if event is not None else 0.0
    return mean, float(shifted.eval(t - q_top))


# ======================================================== sphere reduction


@dataclass(frozen=True)
class SphereReduction:
    """Affine change of variables from the band slice to a fresh sphere of
    dimension n - depth, together with the matching (energy, slope) map."""

    n: int
    depth: int
    e_top: float
    q_lo: float
    q_next: float
    anchor_top: np.ndarray

    @property
    def prefactor(self) -> float:
        """Field normalization sqrt((n - depth)/n); its reciprocal scales
        the per-site energy and slope in forward()."""
        return math.sqrt((self.n - self.depth) / self.n)

    @property
    def gap(self) -> float:
        return self.q_next - self.q_lo

    def point_map(self, z: np.ndarray) -> np.ndarray:
        """Embed a point of the reduced sphere into the band slice."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n - self.depth,):
            raise BadInputError(f"reduced points have length {self.n - self.depth}")
        out = self.anchor_top.copy()
        out[self.depth:] += math.sqrt(self.n * self.gap / (self.n - self.depth)) * z
        return out

    def forward(self, e: float, r: float) -> tuple[float, float]:
        """Ambient (energy, radial slope) to reduced-sphere coordinates."""
        return (e - self.e_top) / self.prefactor, self.gap * r / self.prefactor

    def inverse(self, e_red: float, r_red: float) -> tuple[float, float]:
        return self.e_top + self.prefactor * e_red, self.prefactor * r_red / self.gap


def reduce_to_sphere(
    m: Mixture,
    geometry: BandGeometry,
    event: ConditioningEvent,
    q_next: float = 1.0,
) -> tuple[Mixture, SphereReduction]:
    """Reduced mixture and coordinate maps for the conditional field on
    the band slice, recentered at the top anchor and rescaled to a sphere
    in the unconstrained coordinates."""
    if event.geometry.ladder != geometry.ladder or event.geometry.n != geometry.n:
        raise BadInputError("event was built for a different geometry")
    q_top = geometry.q_top
    if not q_top < q_next <= 1.0:
        raise BadInputError(f"next radius must be in ({q_top}, 1], got {q_next}")
    shifted, _, _ = m.shift_restrict(q_top)
    reduced = shifted.scale_domain(q_next - q_top)
    transform = SphereReduction(
        n=geometry.n,
        depth=geometry.depth,
        e_top=float(event.e_vec[-1]),
        q_lo=q_top,
        q_next=float(q_next),
        anchor_top=geometry.anchors[-1].copy(),
    )
    return reduced, transform


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
    if depth < 0:
        raise BadInputError("depth cannot be negative")
    if n <= depth + 1:
        raise BadInputError(f"need n > depth + 1, got n={n}, depth={depth}")
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


@dataclass(frozen=True)
class FPConditioning:
    """Conditioning data for the constrained-overlap potential: the pinned
    4-vector's covariance C, the cross-covariance v to a section point,
    and the solved coefficients u, plus the scalar consequences: the
    conditional mean per site and the two constant covariance terms."""

    C: np.ndarray
    v: np.ndarray
    u: np.ndarray
    q1: float
    r: float
    rho: float
    beta: float
    tau: float
    cond_mean_coeff: float
    cond_cov_constants: tuple[float, float]
    reduced: bool = False


def conditioning_matrix(m: Mixture, q1: float) -> np.ndarray:
    """Covariance of the pinned vector at the anchor pair: energies at the
    reference point and anchor, then the radial and in-plane anchor
    derivatives, each per site or per square-root-site."""
    if not 0.0 < q1 < 1.0:
        raise BadInputError(f"anchor overlap must be in (0,1), got {q1}")
    x1, x1p = m.eval(q1), m.eval(q1, 1)
    root = math.sqrt(1.0 - q1)
    return np.array(
        [
            [m.eval(1.0), x1, x1p, root * x1p],
            [x1, x1, x1p, 0.0],
            [x1p, x1p, m.eval(q1, 2) + x1p / q1, 0.0],
            [root * x1p, 0.0, 0.0, x1p],
        ]
    )


def pinned_rows(reduced: bool) -> list[int]:
    """Rows of the pinned vector that enter the solve: all four, or all but
    the anchor's radial derivative when reduced."""
    return [0, 1, 3] if reduced else [0, 1, 2, 3]


def section_vector(m: Mixture, q1: float, r: float, rho: float) -> np.ndarray:
    """Covariance of the field at a section point with the pinned vector."""
    rhop = m.eval(rho, 1)
    return np.array(
        [
            m.eval(r),
            m.eval(rho),
            rhop * rho / q1,
            rhop * (r - rho) / math.sqrt(1.0 - q1),
        ]
    )


def fp_conditioning(
    m: Mixture,
    beta: float,
    q1: float,
    r: float,
    rho: float,
    pure_reduced: bool = False,
    config: SolverConfig | None = None,
) -> FPConditioning:
    """Solve the pinned linear system at reference values (free-energy
    slope, ground state and its slope at the anchor, zero in-plane
    gradient) and contract it with the section vector.

    For a single-degree mixture the radial derivative at the anchor is a
    deterministic function of its energy and C is singular; pure_reduced
    drops that row and column instead of failing.
    """
    if not -1.0 < r < 1.0:
        raise BadInputError(f"reference overlap must be in (-1,1), got {r}")
    if not 0.0 < q1 < 1.0:
        raise BadInputError(f"anchor overlap must be in (0,1), got {q1}")
    if abs(rho - r * q1) > section_half_width(q1, r) + 1e-12:
        raise RegimeMismatchError(
            f"section overlap {rho} outside the admissible interval around {r * q1}"
        )
    c_full = conditioning_matrix(m, q1)
    v_full = section_vector(m, q1, r, rho)
    # the composite's cap, SolverConfig()'s, not the lower zero-temperature default
    e1, r1, _ = ground_state_point(m, q1, config=config or SolverConfig())
    rhs_full = np.array([_free_energy_slope(m, beta, q1, e1), e1, r1, 0.0])
    keep = pinned_rows(pure_reduced)
    if m.is_pure and not pure_reduced:
        raise SingularMatrixError(
            "the pinned covariance of a single-degree mixture is singular; "
            "pass pure_reduced=True to drop the dependent radial row"
        )
    c = c_full[np.ix_(keep, keep)]
    v = v_full[keep]
    rhs = rhs_full[keep]
    try:
        factor = cho_factor(c)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("pinned covariance is not positive definite") from exc
    u = cho_solve(factor, rhs)
    if np.max(np.abs(c @ u - rhs)) > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise SingularMatrixError("pinned system solve failed the residual check")
    tau = tau_mix(q1, r, rho)
    return FPConditioning(
        C=c,
        v=v,
        u=u,
        q1=float(q1),
        r=float(r),
        rho=float(rho),
        beta=float(beta),
        tau=float(tau),
        cond_mean_coeff=float(v @ u),
        cond_cov_constants=(float(m.eval(tau)), float(v @ cho_solve(factor, v))),
        reduced=bool(pure_reduced),
    )

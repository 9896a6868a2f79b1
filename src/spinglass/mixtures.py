"""Exact polynomial algebra for mixed p-spin covariance functions.

A spherical mixed p-spin model is specified by a mixture
``xi(t) = sum_p gamma_p^2 t^p`` with nonnegative coefficients; the
Hamiltonian's covariance is ``Cov(H(s), H(s')) = N xi(<s,s'>/N)``.
Every derived covariance used downstream (recentering on a band,
restriction to a sub-sphere, radius scaling, the Franz-Parisi section)
is again a polynomial, so all transforms here are exact coefficient
maps (binomial re-expansion), never quadrature.

Degree index 1 is reserved for conditioning-induced linear terms
(effective external fields); solvers must opt in to accept it.
"""
from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import MixtureError, SingularMatrixError

# maximum representable degree (coefficient arrays are dense)
DEGREE_CAP = 32

# tolerance for clipping float noise in derived coefficient arrays
_COEFF_NEG_TOL = 1e-12


def _normalize_coeffs(coeffs: Mapping[int, float] | None, const_term: float) -> tuple[float, ...]:
    """Build the dense degree-indexed array (index 0 = constant offset)."""
    if not isinstance(coeffs, (Mapping, type(None))):
        raise MixtureError(f"coefficients must map degree to gamma_p^2, got {type(coeffs).__name__}")
    arr = np.zeros(DEGREE_CAP + 1)
    arr[0] = const_term
    for p, g in (coeffs or {}).items():
        p = int(p)
        if p < 1:
            raise MixtureError(f"coefficient degree must be >= 1, got {p}")
        if p > DEGREE_CAP:
            raise MixtureError(f"degree {p} exceeds cap {DEGREE_CAP}")
        arr[p] = float(g)
    if not np.isfinite(arr).all():
        bad = int(np.argmin(np.isfinite(arr)))
        raise MixtureError(f"non-finite coefficient {arr[bad]} at degree {bad}")
    if arr.min() < -_COEFF_NEG_TOL:
        bad = int(np.argmin(arr))
        raise MixtureError(f"negative coefficient {arr[bad]} at degree {bad}")
    arr = np.clip(arr, 0.0, None)
    return tuple(arr.tolist())


def sigma_inverse(sigma: np.ndarray) -> np.ndarray:
    """Inverse of a sigma_xi matrix.

    Raises SingularMatrixError when |det| is below 1e-10 times the squared
    largest entry; unit-normalized pure mixtures sit at ~1e-16.
    """
    det = float(sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0])
    scale = float(np.max(np.abs(sigma))) or 1.0
    if abs(det) < 1e-10 * scale * scale:
        raise SingularMatrixError(
            "the joint energy/radial-derivative covariance of a single-degree "
            "mixture is rank one; use theta_pure for the restricted rate"
        )
    return np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det


def tau(q1: float, r: float, rho: float) -> float:
    """Squared relative radius of the Franz-Parisi section with mutual
    overlap r to the reference point and rho to the anchor at overlap q1:
    the fraction of the sphere's scale consumed by the pinned coordinates."""
    if not 0.0 < q1 < 1.0:
        raise MixtureError(f"anchor overlap must be in (0,1), got {q1}")
    return rho * rho / q1 + (r - rho) ** 2 / (1.0 - q1)


def section_half_width(q1: float, r: float) -> float:
    """Half-width of the admissible anchor overlaps rho of that section,
    centred at r * q1: the section is nonempty (tau <= 1) exactly there."""
    return math.sqrt(q1 - q1 * q1) * math.sqrt(1.0 - r * r)


class Mixture:
    """Immutable mixture ``xi(t) = const + sum_{p>=1} gamma_p^2 t^p``.

    Parameters
    ----------
    coeffs
        Mapping degree -> gamma_p^2 (degrees 1 to DEGREE_CAP); None is the
        empty mixture. Any other type raises MixtureError.
    const_term
        Constant covariance offset (degree 0). Only carried for
        conditional-covariance bookkeeping; zero for physical models.
    """

    # _tables caches the Horner tables of eval, one per derivative order
    __slots__ = ("_c", "_tables")

    def __init__(
        self,
        coeffs: Mapping[int, float] | None = None,
        const_term: float = 0.0,
    ) -> None:
        if const_term < -_COEFF_NEG_TOL:
            raise MixtureError(f"negative constant term {const_term}")
        object.__setattr__(self, "_c", _normalize_coeffs(coeffs, max(const_term, 0.0)))
        object.__setattr__(self, "_tables", {})

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Mixture is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through __init__, with an empty eval cache
        return (Mixture, (self.coeffs, self.const_term))

    # ---------------------------------------------------------------- basics

    @property
    def coeffs(self) -> dict[int, float]:
        """Nonzero coefficients by degree (degree >= 1)."""
        return {p: g for p, g in enumerate(self._c) if p >= 1 and g != 0.0}

    @property
    def const_term(self) -> float:
        return self._c[0]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    @property
    def max_degree(self) -> int:
        ds = self.degrees
        return ds[-1] if ds else 0

    @property
    def is_pure(self) -> bool:
        """Exactly one active degree and no constant offset."""
        return len(self.degrees) == 1 and self.const_term == 0.0

    @property
    def has_linear(self) -> bool:
        return self._c[1] != 0.0

    def __eq__(self, other) -> bool:
        return isinstance(other, Mixture) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        parts = [f"{g:g}*t^{p}" for p, g in sorted(self.coeffs.items())]
        if self.const_term:
            parts.insert(0, f"{self.const_term:g}")
        return f"Mixture({' + '.join(parts) or '0'})"

    # ------------------------------------------------------------ evaluation

    def _horner_table(self, order: int) -> tuple[float, ...]:
        """Build and cache the order-th derivative's coefficients, highest
        degree first.

        Trimmed to max_degree: the dropped coefficients are zeros, and a
        Horner step over a zero coefficient maps 0 to 0 for finite t. Orders
        past max_degree keep one zero, so a non-finite t still yields NaN,
        and orders past DEGREE_CAP are empty. Threads that miss together
        build the same table, so a plain dict keyed by order is safe.
        """
        if order < 0:
            raise MixtureError(f"derivative order must be >= 0, got {order}")
        c = np.asarray(self._c)
        if order > 0:
            # falling-factorial rescale: coefficient of t^(p-order) is c_p * p!/(p-order)!
            p = np.arange(len(c), dtype=float)
            fac = np.ones_like(p)
            for j in range(order):
                fac *= np.clip(p - j, 0.0, None)
            c = (c * fac)[order:]
        table = tuple(c[: max(self.max_degree - order + 1, 1)][::-1].tolist())
        self._tables[order] = table
        return table

    def _table(self, order: int) -> tuple[float, ...]:
        """The order-th derivative's Horner coefficients, built on first use."""
        table = self._tables.get(order)
        return self._horner_table(order) if table is None else table

    def _eval_floats(self, ts, *orders: int) -> list[list[float]]:
        """For each derivative order given, its values at every float of ts
        (Python or numpy float64), as one list: the scalar Horner scheme,
        one call for many points. eval's scalar path is its one-point case."""
        outs = []
        for order in orders:
            table = self._table(order)
            out = []
            for t in ts:
                value = 0.0
                for coef in table:
                    value = value * t + coef
                out.append(value)
            outs.append(out)
        return outs

    def eval(self, t, order: int = 0):
        """Evaluate the order-th derivative of xi at t (Horner scheme).

        The constant term contributes only at order 0. Accepts scalars
        (returns a float) or numpy arrays. Orders beyond the polynomial
        degree return 0.
        """
        if type(t) is float or np.ndim(t) == 0:
            return self._eval_floats((float(t),), order)[0][0]
        table = self._table(order)
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros_like(t_arr)
        for coef in table:
            out = out * t_arr + coef
        return out

    def __call__(self, t, order: int = 0):
        return self.eval(t, order)

    # ------------------------------------------------------------ transforms

    def _from_array(self, arr: np.ndarray) -> "Mixture":
        arr = np.asarray(arr, dtype=float)
        if arr.min() < -_COEFF_NEG_TOL:
            raise MixtureError(
                f"transform produced negative coefficient {arr.min():.3e}"
            )
        arr = np.clip(arr, 0.0, None)
        return Mixture(
            {p: g for p, g in enumerate(arr) if p >= 1 and g != 0.0},
            const_term=float(arr[0]) if len(arr) else 0.0,
        )

    def scale_domain(self, s: float) -> "Mixture":
        """Return xi(s*t): coefficient of degree p scales by s^p.

        This is the covariance after shrinking the sphere radius by sqrt(s).
        """
        if s < 0:
            raise MixtureError("domain scale must be >= 0")
        arr = np.asarray(self._c) * (s ** np.arange(len(self._c), dtype=float))
        return self._from_array(arr)

    def _recentred(self, q: float, s: float, keep_linear: bool) -> "Mixture":
        """Return xi(q + s*t) - xi(q), less xi'(q) s t unless keep_linear:
        the one recentring map behind every band covariance. The shift is a
        binomial convolution; subtracting xi(q) (and xi'(q) s t) zeroes the
        constant (and linear) slot exactly."""
        arr = np.zeros(len(self._c))
        for p, g in enumerate(self._c[1:], 1):
            if g == 0.0:
                continue
            qp = q ** np.arange(p, -1, -1)  # q^(p-j) for j = 0..p
            for j in range(p + 1):
                arr[j] += g * math.comb(p, j) * qp[j]
        arr[0] = 0.0
        if not keep_linear:
            arr[1] = 0.0
        return self._from_array(arr * (s ** np.arange(len(arr), dtype=float)))

    def shift_restrict(self, q: float) -> tuple["Mixture", "Mixture", "Mixture"]:
        """Covariances of the field recentered at overlap q.

        Returns the triple
        (xi_q, xi_bar_q, xi_hat_q) =
        (xi(t+q) - xi(q) - xi'(q) t,  xi_q((1-q) t),  xi(q t)).

        xi_q is the covariance of the conditionally recentered field on the
        band at depth q (its constant and linear parts vanish by
        construction and all remaining coefficients are nonnegative);
        xi_bar_q rescales it to the unit-overlap coordinate of the
        orthogonal sphere; xi_hat_q is plain radius scaling.
        """
        if not 0.0 <= q < 1.0:
            raise MixtureError(f"recentering overlap must be in [0,1), got {q}")
        xi_q = self._recentred(q, 1.0, keep_linear=False)
        return xi_q, xi_q.scale_domain(1.0 - q), self.scale_domain(q)

    def band_section(self, q: float) -> "Mixture":
        """Covariance of the original field along a sub-sphere of common
        overlap q, as a function of the orthogonal-part overlap:
        xi(q + (1-q) t) - xi(q). Keeps its linear term (an effective field).
        """
        if not 0.0 <= q < 1.0:
            raise MixtureError(f"section overlap must be in [0,1), got {q}")
        return self._recentred(q, 1.0 - q, keep_linear=True)

    def level_mixtures(self, ladder: Sequence[float]) -> list["Mixture"]:
        """Per-level reduced covariances for a support ladder.

        For 0 = q_0 < q_1 < ... < q_k < q_{k+1} = 1 (the ladder argument
        lists q_1..q_k) returns, for each level m = 0..k, the mixture
        xi_q_m((q_{m+1}-q_m) t).
        """
        qs = [0.0, *map(float, ladder), 1.0]
        for a, b in zip(qs, qs[1:]):
            if not a < b:
                raise MixtureError(f"ladder must be strictly increasing in (0,1): {ladder}")
        return [self._recentred(a, b - a, keep_linear=False) for a, b in zip(qs, qs[1:])]

    def fp_mixtures(self, r: float, q1: float, rho: float) -> "Mixture":
        """Covariance of the Franz-Parisi section: the section at tau (the
        conditional second-moment overlap for the pinned pair) minus the
        conditioning-induced linear slope xi'(rho)^2/xi'(q1) * (1-tau) * t,
        folded into the degree-1 slot.
        """
        if not abs(r) < 1.0:
            raise MixtureError(f"sample overlap must satisfy |r|<1, got {r}")
        if not 0.0 < q1 < 1.0:
            raise MixtureError(f"cluster overlap must be in (0,1), got {q1}")
        if abs(rho - r * q1) > section_half_width(q1, r) + 1e-12:
            raise MixtureError(
                f"rho={rho} outside the admissible interval around r*q1={r * q1}"
            )
        t = tau(q1, r, rho)
        arr = np.asarray(self.band_section(t)._c, dtype=float).copy()
        arr[1] -= (1.0 - t) * self.eval(rho, 1) ** 2 / self.eval(q1, 1)
        if arr[1] < -_COEFF_NEG_TOL:
            raise MixtureError(
                f"invalid (r,q1,rho) region: folded linear coefficient {arr[1]:.3e} < 0"
            )
        return self._from_array(arr)

    # -------------------------------------------------------------- reports

    def sigma_xi(self) -> np.ndarray:
        """2x2 covariance [[xi(1), xi'(1)], [xi'(1), xi''(1)+xi'(1)]] of the
        (energy density, radial derivative) pair at a critical point; its
        det = sum c * sum p^2 c - (sum p c)^2 >= 0 by Cauchy-Schwarz."""
        if self.max_degree < 2:
            raise MixtureError("sigma matrix requires mixture degree >= 2")
        v0 = self.eval(1.0) - self.const_term  # offset is not part of the field variance
        v1 = self.eval(1.0, 1)
        v2 = self.eval(1.0, 2)
        return np.array([[v0, v1], [v1, v2 + v1]])

    # -------------------------------------------------------- serialization

    def to_json(self) -> str:
        obj = {
            "coeffs": {str(p): g for p, g in sorted(self.coeffs.items())},
            "const": self.const_term,
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Mixture":
        """Parse a mixture object; keys other than coeffs and const are ignored."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise MixtureError(f"mixture JSON parse error: {e}") from e
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise MixtureError("mixture JSON must be an object with a 'coeffs' field")
        raw = obj["coeffs"]
        if not isinstance(raw, dict):
            raise MixtureError("'coeffs' must map degree strings to numbers")
        const = obj.get("const", 0.0)
        # a JSON bool would read as 1.0 or 0.0, and a string as its float value
        for g in (*raw.values(), const):
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                raise MixtureError(f"coefficients and const must be JSON numbers, got {g!r}")
        try:
            coeffs = {int(p): float(g) for p, g in raw.items()}
            const_term = float(const)
        except (ValueError, OverflowError) as e:
            raise MixtureError(f"bad coefficient entry: {e}") from e
        return cls(coeffs, const_term=const_term)


def pure(p: int, weight: float = 1.0) -> Mixture:
    """Single-degree mixture weight * t^p."""
    return Mixture({p: weight})

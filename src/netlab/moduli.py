"""Moduli of continuity: evaluation, inversion, class membership and
continuity constants of finite maps.

A modulus here is one of four kinds:

  identity      t -> t
  holder        t -> t^alpha          (0 < alpha < 1)
  logpow        t -> t * log(1/t)^alpha   (alpha > 0)
  scaled        t -> L * inner(t)     (L >= 1)

Each modulus lives on an open interval (0, a) with a <= 1; the upper end is
stored as ``a_omega``.  Pairs of points at distance >= a_omega impose no
constraint ("void" pairs) and are skipped by the constant computations.

All functions also exist in log-argument form (``eval_log``/``inverse_log``)
so that quantities far below the float underflow threshold can be handled;
the parameter recursions need values like exp(-1e5).  Their unchecked
forms take a number context, ``math`` (the scan) or ``mpmath.mp`` (the model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np

from .errors import DomainError, InjectivityError, RangeError

_BISECT_MAX_ITER = 200
_BISECT_REL_TOL = 1e-12


def _logpow_cap(alpha):
    """min(1/e^2, e^-alpha), the largest a_omega of logpow(alpha); finite
    for every alpha, NaN included."""
    return math.exp(-max(2.0, alpha))


@lru_cache(maxsize=None)
def _log_linear_mpf(m, prec):
    """m's (log Lam, alpha) as mpf, converted once per working precision."""
    return tuple(map(mpmath.mpf, m._log_linear_form()))


def _log_linear_log(log_t, log_lam, alpha, ctx):
    """log(Lam t log(1/t)^alpha) given log t, skipping exact + 0 terms."""
    v = log_t + alpha * ctx.log(-log_t) if alpha else log_t
    return v + log_lam if log_lam else v


@dataclass(frozen=True)
class Modulus:
    kind: str
    alpha: float = 0.0
    L: float = 1.0
    inner: "Modulus | None" = None
    a_omega: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "holder", "logpow", "scaled"):
            raise DomainError(f"unknown modulus kind {self.kind!r}")
        if not (0.0 < self.a_omega <= 1.0):
            raise DomainError(f"a_omega must lie in (0, 1], got {self.a_omega}")
        if self.kind == "holder" and not (0.0 < self.alpha < 1.0):
            raise DomainError(f"holder exponent must lie in (0,1), got {self.alpha}")
        # the negated comparisons below also refuse NaN
        if self.kind == "logpow":
            if not self.alpha > 0.0:
                raise DomainError(f"logpow exponent must be positive, got {self.alpha}")
            cap = _logpow_cap(self.alpha)
            if self.a_omega > cap * (1.0 + 1e-12):
                raise DomainError(
                    f"logpow(alpha={self.alpha}) needs a_omega <= {cap:.6g}, got {self.a_omega}"
                )
        if self.kind == "scaled":
            if self.inner is None:
                raise DomainError("scaled modulus needs an inner modulus")
            if not 1.0 <= self.L < math.inf:
                raise DomainError(f"scaling factor must be finite and >= 1, got {self.L}")
            if self.a_omega != self.inner.a_omega:
                raise DomainError("scaled modulus must share the inner domain end")

    # -- evaluation ---------------------------------------------------------

    def eval(self, t: float) -> float:
        """omega(t) for t in (0, a_omega)."""
        if not (0.0 < t < self.a_omega):
            raise DomainError(
                f"t={t} outside modulus domain (0, {self.a_omega})"
            )
        return self._eval_unchecked(t)

    def _eval_unchecked(self, t):
        if self.kind == "identity":
            return t
        if self.kind == "holder":
            return t ** self.alpha
        if self.kind == "logpow":
            return t * math.log(1.0 / t) ** self.alpha
        return self.L * self.inner._eval_unchecked(t)

    def eval_log(self, log_t: float) -> float:
        """log(omega(t)) given log(t); works for arbitrarily small t."""
        if not (log_t < math.log(self.a_omega)):
            raise DomainError(f"log t={log_t} outside domain (log a = {math.log(self.a_omega)})")
        return self._eval_log_unchecked(log_t)

    def _eval_log_unchecked(self, log_t, ctx=math):
        """Under ``mpmath.mp`` (log-linear kinds only) this is the form the
        Newton inverse solves, so omega and omega^{-1} share one log Lam."""
        if ctx is not math:
            return _log_linear_log(log_t, *_log_linear_mpf(self, mpmath.mp.prec), ctx)
        if self.kind == "identity":
            return log_t
        if self.kind == "holder":
            return self.alpha * log_t
        if self.kind == "logpow":
            return log_t + self.alpha * math.log(-log_t)
        return math.log(self.L) + self.inner._eval_log_unchecked(log_t)

    def eval_limit(self) -> float:
        """sup of omega on its domain (the continuous extension at a_omega)."""
        return self._eval_unchecked(self.a_omega)

    # -- inversion ----------------------------------------------------------

    def inverse(self, y: float) -> float:
        """t with omega(t) = y, for y in (0, eval_limit).

        Closed forms are used where they exist; logpow falls back to
        bracketed bisection (200 iterations, 1e-12 relative tolerance).
        """
        if not (0.0 < y < self.eval_limit()):
            raise RangeError(
                f"y={y} outside modulus range (0, {self.eval_limit():.6g})"
            )
        if self.kind == "identity":
            return y
        if self.kind == "holder":
            return y ** (1.0 / self.alpha)
        if self.kind == "scaled":
            return self.inner.inverse(y / self.L)
        # omega(t) >= t on (0, a) gives the upper bracket t <= y.
        hi = min(y, self.a_omega * (1.0 - 1e-15))
        lo = hi * 0.5
        while self._eval_unchecked(lo) > y:
            lo *= 0.5
        if self._eval_unchecked(hi) < y:
            hi = self.a_omega * (1.0 - 1e-15)
        return _bisect(self._eval_unchecked, y, lo, hi, lambda h: _BISECT_REL_TOL * h)

    def inverse_log(self, log_y: float) -> float:
        """log(omega^{-1}(y)) given log(y); log-space companion of inverse."""
        if not (log_y < math.log(self.eval_limit())):
            raise RangeError(f"log y={log_y} outside range")
        return self._inverse_log_unchecked(log_y)

    def _inverse_log_unchecked(self, log_y, ctx=math):
        """Under ``math`` logpow bisects on log t; ``mpmath.mp`` takes only
        the log-linear kinds (omega(t) = Lam t log(1/t)^alpha) and four
        Newton steps at the working precision."""
        if ctx is not math:
            log_lam, alpha = _log_linear_mpf(self, mpmath.mp.prec)
            z = log_y - log_lam if log_lam else log_y
            if alpha:
                z = z - alpha * ctx.log(-z)
                for _ in range(4):
                    z = z - (_log_linear_log(z, log_lam, alpha, ctx) - log_y) / (1 + alpha / z)
            return z
        if self.kind == "identity":
            return log_y
        if self.kind == "holder":
            return log_y / self.alpha
        if self.kind == "scaled":
            return self.inner._inverse_log_unchecked(log_y - math.log(self.L))
        # bisection on log t; omega(t) >= t brackets the solution from above
        hi = min(log_y, math.log(self.a_omega) - 1e-15)
        if self._eval_log_unchecked(hi) < log_y:
            hi = math.log(self.a_omega) - 1e-15
        lo = hi - 1.0
        while self._eval_log_unchecked(lo) > log_y:
            lo -= 2.0 * (hi - lo)
        return _bisect(self._eval_log_unchecked, log_y, lo, hi,
                       lambda h: 1e-13 * max(1.0, abs(h)))

    def _log_linear_form(self) -> tuple[float, float] | None:
        """(log Lam, alpha) when omega(t) = Lam * t * log(1/t)^alpha, else None."""
        if self.kind == "scaled":
            inner = self.inner._log_linear_form()
            return None if inner is None else (math.log(self.L) + inner[0], inner[1])
        return {"identity": (0.0, 0.0), "logpow": (0.0, self.alpha)}.get(self.kind)


def _bisect(f, y, lo, hi, tol):
    """Midpoint of the bracket [lo, hi] of f(t) = y (f increasing) once it is
    no wider than tol(hi), or after _BISECT_MAX_ITER halvings."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol(hi):
            break
    return 0.5 * (lo + hi)


def identity() -> Modulus:
    return Modulus(kind="identity")


def holder(alpha: float, a_omega: float = 1.0) -> Modulus:
    return Modulus(kind="holder", alpha=alpha, a_omega=a_omega)


def logpow(alpha: float, a_omega: float | None = None) -> Modulus:
    """t * log(1/t)^alpha on (0, a); the default a satisfies both membership
    conditions (a <= 1/e^2 and log(1/t) >= alpha)."""
    if a_omega is None:
        a_omega = _logpow_cap(alpha)
    return Modulus(kind="logpow", alpha=alpha, a_omega=a_omega)


def scaled(L: float, inner: Modulus) -> Modulus:
    return Modulus(kind="scaled", L=L, inner=inner, a_omega=inner.a_omega)


def parse_modulus(spec: str) -> Modulus:
    """Parse CLI specs like 'identity', 'holder:0.5', 'logpow:1',
    'scaled:2:logpow:0.5'."""
    kind, *values = spec.split(":")
    try:
        value = float(values[0]) if values else None
    except ValueError:
        raise DomainError(f"cannot parse modulus spec {spec!r}") from None
    if kind == "identity" and not values:
        return identity()
    if kind == "holder" and len(values) == 1:
        return holder(value)
    if kind == "logpow" and len(values) == 1:
        return logpow(value)
    if kind == "scaled" and len(values) >= 2:
        return scaled(value, parse_modulus(":".join(values[1:])))
    raise DomainError(f"cannot parse modulus spec {spec!r}")


# ---------------------------------------------------------------------------
# class membership report
# ---------------------------------------------------------------------------

@dataclass
class ClassMReport:
    """Grid test of the four membership properties.

    ``worst`` holds the most violated margin per property (positive means a
    violation by that relative amount); a property passes when its worst
    margin stays below the tolerance.
    """

    increasing: bool
    concave: bool
    submultiplicative: bool
    dominates_identity: bool
    worst: dict = field(default_factory=dict)
    tolerance: float = 1e-12

    @property
    def all_pass(self) -> bool:
        return (self.increasing and self.concave and self.submultiplicative
                and self.dominates_identity)


def check_class_M(m: Modulus, grid_size: int, tolerance: float = 1e-12) -> ClassMReport:
    """Test strict monotonicity, midpoint concavity, submultiplicativity and
    domination of the identity on a geometric grid of (s, t) pairs.

    Violation margins are relative to the scale of the compared values.
    """
    if grid_size < 3:
        raise DomainError("grid_size must be >= 3")
    a = m.a_omega
    grid = np.geomspace(a * 1e-4, a * (1.0 - 1e-9), grid_size)
    vals = np.array([m.eval(float(t)) for t in grid])

    worst = {}
    # strict monotonicity
    diffs = np.diff(vals)
    worst["increasing"] = float(np.max(-diffs / np.maximum(vals[1:], 1e-300)))
    increasing = bool(np.all(diffs > 0.0))

    # omega(t) >= t
    worst["dominates_identity"] = float(np.max((grid - vals) / np.maximum(vals, 1e-300)))
    dominates = worst["dominates_identity"] <= tolerance

    # midpoint concavity and submultiplicativity over all pairs
    conc_worst = -np.inf
    sub_worst = -np.inf
    for i, s in enumerate(grid):
        mid = 0.5 * (s + grid)
        mid_vals = np.array([m.eval(float(u)) for u in mid])
        lhs = mid_vals
        rhs = 0.5 * (vals[i] + vals)
        conc_worst = max(conc_worst, float(np.max((rhs - lhs) / np.maximum(np.abs(rhs), 1e-300))))
        st = s * grid
        ok = st < a
        if np.any(ok):
            st_vals = np.array([m.eval(float(u)) for u in st[ok]])
            prod = vals[i] * vals[ok]
            sub_worst = max(sub_worst, float(np.max((st_vals - prod) / np.maximum(prod, 1e-300))))
    worst["concave"] = conc_worst
    worst["submultiplicative"] = sub_worst if sub_worst > -np.inf else 0.0

    return ClassMReport(
        increasing=increasing,
        concave=conc_worst <= tolerance,
        submultiplicative=worst["submultiplicative"] <= tolerance,
        dominates_identity=dominates,
        worst=worst,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# finite maps and their continuity constants
# ---------------------------------------------------------------------------

@dataclass
class FiniteMap:
    """A finite sampled mapping: row i of ``domain_points`` is sent to row i
    of ``image_points``."""

    domain_points: np.ndarray
    image_points: np.ndarray

    def __post_init__(self):
        self.domain_points = np.atleast_2d(np.asarray(self.domain_points, dtype=float))
        self.image_points = np.atleast_2d(np.asarray(self.image_points, dtype=float))
        if len(self.domain_points) != len(self.image_points):
            raise DomainError("domain and image point counts differ")

    def __len__(self):
        return len(self.domain_points)

    def swapped(self) -> "FiniteMap":
        return FiniteMap(self.image_points.copy(), self.domain_points.copy())

    def image_injective(self) -> bool:
        seen = {tuple(p) for p in self.image_points}
        return len(seen) == len(self.image_points)


def _pair_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def l_omega(f: FiniteMap, m: Modulus) -> float:
    """sup over admissible pairs of |f(y)-f(x)| / omega(|y-x|).

    Pairs at distance >= a_omega are void and skipped; returns 0 when no
    admissible pair remains.
    """
    if len(f) < 2:
        raise DomainError("need at least 2 points")
    dom = _pair_distances(f.domain_points)
    img = _pair_distances(f.image_points)
    iu = np.triu_indices(len(f), k=1)
    dd, di = dom[iu], img[iu]
    admissible = (dd > 0.0) & (dd < m.a_omega)
    if not np.any(admissible):
        return 0.0
    ratios = di[admissible] / np.array([m.eval(float(t)) for t in dd[admissible]])
    return float(np.max(ratios))


def bi_l_omega(f: FiniteMap, m: Modulus) -> float:
    """max of the forward and inverse continuity constants of a bijection."""
    if not f.image_injective():
        raise InjectivityError("image points are not pairwise distinct")
    return max(l_omega(f, m), l_omega(f.swapped(), m))

"""The dichotomy parameter ledger: theta, phi, N0, M, the level sequences
(c_i, N_i, M_i), the iteration count r, and the volume-bound quantities
upsilon and kappa.

Everything runs in log space.  The level quantity c_i collapses roughly like
exp(-K*i), far below float underflow after a few dozen levels, so traces
store log(c_i) and the integers N_i, M_i exactly (Python ints carry past
2**63 natively).

For moduli of the form t -> Lam * t * log(1/t)**alpha (identity, logpow and
scalings thereof) the certified iteration count r is astronomically large
whenever d >= 2: the per-level stretch gain is 1+phi with phi ~ theta**3/240
and theta carries a (...)**(2d) collapse, so r ~ 1/phi can reach 1e30 and
beyond.  No level-by-level scan can get there.  ``certify_r`` therefore
scans levels exactly up to ``max_levels`` and, past that, certifies r
against a high-precision continuum model of the same recursion (see
``_FarRegime``).  The model is validated against exact scans in overlapping
regimes by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import mpmath as mp

from .errors import DomainError, UnterminatedError
from .moduli import Modulus

_SNAP = 1e-12  # relative snap applied before ceil to absorb float noise


# ---------------------------------------------------------------------------
# clamped inverse helpers
# ---------------------------------------------------------------------------

def inverse_clamped(m: Modulus, y: float) -> tuple[float, bool]:
    """omega^{-1}(y), substituting y -> eval_limit/2 when y is out of range.

    The substitution only shrinks the result, so every ">=" parameter
    requirement built on top of it stays valid; the flag records that the
    clamp fired.
    """
    lim = m.eval_limit()
    if y < lim:
        return m.inverse(y), False
    return m.inverse(lim / 2.0), True


def _inverse_log_clamped(m: Modulus, log_y: float) -> tuple[float, bool]:
    log_lim = math.log(m.eval_limit())
    if log_y < log_lim:
        return m.inverse_log(log_y), False
    return m.inverse_log(log_lim - math.log(2.0)), True


def _snap_ceil(v: float) -> int:
    return int(math.ceil(v * (1.0 - _SNAP)))


def _int_from_log_ceil(log_v: float) -> int:
    if log_v < 700.0:
        return _snap_ceil(math.exp(log_v))
    with mp.workdps(40):
        return int(mp.ceil(mp.exp(mp.mpf(log_v)) * (1 - mp.mpf(_SNAP))))


# ---------------------------------------------------------------------------
# theta and phi
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _theta_cached(d: int, m: Modulus, eps: float) -> tuple[float, bool]:
    w16, c1 = inverse_clamped(m, 1.0 / 6.0)
    weps, c2 = inverse_clamped(m, eps)
    bound = (w16 * weps / (2.0 * math.sqrt(d))) ** (2 * d)
    return min(eps * eps, bound), (c1 or c2)


def theta(d: int, m: Modulus, eps: float) -> float:
    """Transverse-resolution parameter of the dimension induction:
    min(eps^2, (omega^{-1}(1/6) omega^{-1}(eps) / (2 sqrt(d)))^(2d))."""
    if d < 2:
        raise DomainError("theta is defined for d >= 2")
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    return _theta_cached(d, m, eps)[0]


@lru_cache(maxsize=None)
def phi_log(d: int, m: Modulus, eps: float) -> float:
    """log of the stretch-gain parameter.  phi itself underflows binary64
    for deep dimension chains (it cubes through every level), so the log
    form is the working representation."""
    if d < 1:
        raise DomainError("d must be >= 1")
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if d == 1:
        v = eps ** 3 / 120.0
        if v > 0.0:
            return math.log(v)
        return 3.0 * math.log(eps) - math.log(120.0)  # eps^3/120 underflowed
    return math.log(0.5) + phi_log(d - 1, m, theta(d, m, eps))


def phi(d: int, m: Modulus, eps: float) -> float:
    """Stretch-gain parameter: eps^3/120 in dimension one, halved through
    the theta recursion above it.  May underflow to 0.0 for deep chains;
    use phi_log where the magnitude matters."""
    if d == 1:
        if eps <= 0.0:
            raise DomainError(f"eps must be positive, got {eps}")
        return eps ** 3 / 120.0
    return math.exp(phi_log(d, m, eps))


# ---------------------------------------------------------------------------
# N0 and M
# ---------------------------------------------------------------------------

def _n0_from_log(d: int, m: Modulus, eps: float, log_c: float) -> int:
    if d == 1:
        return max(2, _snap_ceil(6.0 / eps))
    th = theta(d, m, eps)
    b1 = _n0_from_log(d - 1, m, th, log_c)
    log_arg = (phi_log(d, m, eps) + m.inverse_log(log_c)
               - math.log(8.0) - m.eval_log(log_c))
    w, _ = _inverse_log_clamped(m, log_arg)
    b2 = _int_from_log_ceil(-w)
    b3 = _snap_ceil(6.0 / eps)
    return max(b1, b2, b3)


def n0(d: int, m: Modulus, eps: float, c: float) -> int:
    """Smallest admissible slab count: the d=1 base is max(2, ceil(6/eps));
    higher dimensions take the max of the induction bound, the stretch-gain
    bound ceil(1/omega^{-1}(phi omega^{-1}(c)/(8 omega(c)))) and ceil(6/eps)."""
    if not (0.0 < c < m.a_omega):
        raise DomainError(f"c={c} outside (0, a_omega={m.a_omega})")
    return _n0_from_log(d, m, eps, math.log(c))


@lru_cache(maxsize=None)
def _bigm_cached(N: int, d: int, m: Modulus, eps: float) -> int:
    # M never depends on c: the d=1 base uses eps only, the induction uses
    # N and the theta chain.
    if d == 1:
        y = eps / 4.0
        lim = m.eval_limit()
        if y >= lim:
            y = lim / 2.0
        return _snap_ceil(1.0 / m.inverse(y))
    th = theta(d, m, eps)
    m_prev = _bigm_cached(N, d - 1, m, th)
    log_arg = -(math.log(N) + math.log(m_prev))
    w, _ = _inverse_log_clamped(m, log_arg)
    bound = _int_from_log_ceil(-w)
    k = -(-bound // m_prev)  # ceiling division on exact ints
    return m_prev * max(k, 1)


def big_m(N: int, d: int, m: Modulus, eps: float) -> int:
    """Micro-grid refinement count: ceil(1/omega^{-1}(eps/4)) in dimension
    one; in higher dimensions the smallest multiple of M_{d-1} (computed at
    theta) that is >= ceil(1/omega^{-1}(1/(N M_{d-1})))."""
    if N < 2:
        raise DomainError("N must be >= 2")
    return _bigm_cached(N, d, m, eps)


# ---------------------------------------------------------------------------
# level sequences
# ---------------------------------------------------------------------------

@dataclass
class LevelRecord:
    i: int
    log_c: float
    N: int
    M: int
    log_sidelength: float  # log(c_i / N_i)


@dataclass
class ParamTrace:
    d: int
    epsilon: float
    c: float
    phi: float       # may underflow to 0.0 for deep dimension chains
    phi_log: float
    levels: list[LevelRecord] = field(default_factory=list)
    r: int | None = None
    r_check: int | None = None  # index i at which the inequality first held
    terminated: bool = False
    clamped: bool = False

    def log_c_at(self, i: int) -> float:
        """log c_i for 1 <= i <= len(levels)+1."""
        if 1 <= i <= len(self.levels):
            return self.levels[i - 1].log_c
        if i == len(self.levels) + 1 and self.levels:
            last = self.levels[-1]
            return last.log_c - math.log(last.N) - math.log(last.M)
        if i == 1:
            return math.log(self.c)
        raise IndexError(f"level {i} not computed")


def _sides_exact(m: Modulus, log_c1: float, ph: float, i: int,
                 log_c_next: float) -> tuple[float, float]:
    """Log-space sides of the iteration-count inequality with r := i.
    ph is the float phi (0.0 underflow harmless here: the scan never decides
    a near-crossing in that regime, the far solver does)."""
    lhs = i * math.log1p(ph) + m.inverse_log(log_c1) - log_c1
    rhs = m.eval_log(log_c_next) - log_c_next
    return lhs, rhs


def param_sequence(d: int, m: Modulus, eps: float, c: float,
                   max_levels: int) -> ParamTrace:
    """Iterate N_i = N0(d, omega, eps, c_i), M_i = M(N_i, ...) and
    log c_{i+1} = log c_i - log N_i - log M_i, certifying the iteration
    count r along the way once the num-iter inequality holds."""
    if not (0.0 < c < m.a_omega):
        raise DomainError(f"c={c} outside (0, a_omega={m.a_omega})")
    ph_log = phi_log(d, m, eps)
    ph = math.exp(ph_log)
    clamped = _theta_cached(d, m, eps)[1] if d >= 2 else False
    trace = ParamTrace(d=d, epsilon=eps, c=c, phi=ph, phi_log=ph_log,
                       clamped=clamped)
    log_c1 = math.log(c)
    log_ci = log_c1

    # r := 0 check against c_1 = c; the smallest admitted index stays 1
    lhs, rhs = _sides_exact(m, log_c1, ph, 0, log_c1)
    if lhs >= rhs:
        trace.r, trace.r_check, trace.terminated = 1, 0, True

    for i in range(1, max_levels + 1):
        N = _n0_from_log(d, m, eps, log_ci)
        M = _bigm_cached(N, d, m, eps)
        trace.levels.append(LevelRecord(
            i=i, log_c=log_ci, N=N, M=M,
            log_sidelength=log_ci - math.log(N),
        ))
        log_next = log_ci - math.log(N) - math.log(M)
        if not trace.terminated:
            lhs, rhs = _sides_exact(m, log_c1, ph, i, log_next)
            if lhs >= rhs:
                trace.r, trace.r_check, trace.terminated = i, i, True
        log_ci = log_next
    return trace


def quadratic_beta_log(d: int, m: Modulus, eps: float, c: float) -> float:
    """log of the coefficient in the per-level quadratic lower bound
    c_{i+1} >= beta * c_i^2, taken from the level-1 closed forms:
    beta := 1/(c * N_1 * M_1)."""
    N1 = n0(d, m, eps, c)
    M1 = big_m(N1, d, m, eps)
    return -(math.log(c) + math.log(N1) + math.log(M1))


# ---------------------------------------------------------------------------
# the far regime: continuum model of the level recursion
# ---------------------------------------------------------------------------

def _log_linear_form(m: Modulus) -> tuple[float, float] | None:
    """(log Lam, alpha) when omega(t) = Lam * t * log(1/t)^alpha, else None."""
    if m.kind == "identity":
        return 0.0, 0.0
    if m.kind == "logpow":
        return 0.0, m.alpha
    if m.kind == "scaled":
        inner = _log_linear_form(m.inner)
        if inner is None:
            return None
        return math.log(m.L) + inner[0], inner[1]
    return None


class _FarRegime:
    """Continuum model of the level recursion x_{i+1} = x_i + G(x_i), where
    x := log(1/c_i) and G(x) = log(N(x) M(x)) from the same closed forms.
    Integer roundings are relatively negligible at far-regime magnitudes;
    the x-independent small pieces (the d=1 bases) enter as exact integers.

    Level counting uses

        n(x) = integral of du/G(u) from x0 to x + (1/2) log(G(x)/G(x0)),

    the half-log being the Euler-Maclaurin correction of the discrete step
    sum.  All arithmetic runs under mpmath because the num-iter inequality
    is decided by margins of order phi (1e-34 and below).

    Anchored at the first level past the trace's exact scan; callers evaluate
    it under ``mp.workdps(model.dps)``, the precision it was built at.
    """

    def __init__(self, trace: ParamTrace, m: Modulus):
        form = _log_linear_form(m)
        if form is None:
            raise UnterminatedError(
                "far-regime certification only applies to identity/logpow "
                "moduli and their scalings")
        self.m, self.c = m, trace.c
        self.dps = _dps_for(trace.phi_log)
        self.i0 = len(trace.levels) + 1  # level index whose x equals x0
        with mp.workdps(self.dps):
            self.log_lam = mp.mpf(form[0])
            self.alpha = mp.mpf(form[1])
            self.x0 = mp.mpf(-trace.log_c_at(self.i0))
            self.log8 = mp.log(8)
            self.log_lim = mp.log(m.eval_limit())

            # flatten the dimension recursion into per-dimension constants
            self.chain = []  # for j = 2..d: (log phi_j, log ceil(6/eps_j))
            eps_j = trace.epsilon
            for j in range(trace.d, 1, -1):
                self.chain.append((j, mp.mpf(phi_log(j, m, eps_j)),
                                   mp.log(_snap_ceil(6.0 / eps_j))))
                eps_j = theta(j, m, eps_j)
            self.chain.reverse()  # ascending j
            self.log_n1 = mp.log(max(2, _snap_ceil(6.0 / eps_j)))
            self.log_m1 = mp.log(_bigm_cached(2, 1, m, eps_j))
            self._segments = []  # (x_lo, x_hi, cumulative n at x_hi)
            self._g0 = self.G(self.x0)
            # the slope of num-iter's left-hand side i*log(1+phi) + c_const
            self.lp = mp.log1p(mp.exp(mp.mpf(trace.phi_log)))

    @cached_property
    def c_const(self):
        """log(omega^{-1}(c)/c), num-iter's level-independent lhs term, taken
        on first use: a model that only counts levels may sit where
        omega^{-1}(c) is undefined.  A float, so exact at any precision."""
        log_c1 = math.log(self.c)
        return mp.mpf(self.m.inverse_log(log_c1) - log_c1)

    # -- modulus in mp arithmetic ----------------------------------------

    def weval_log(self, y):
        if self.alpha == 0:
            return y + self.log_lam
        return y + self.alpha * mp.log(-y) + self.log_lam

    def winv_log(self, y):
        if self.alpha == 0:
            return y - self.log_lam
        z = y - self.log_lam
        z = z - self.alpha * mp.log(-z)
        for _ in range(4):
            f = z + self.alpha * mp.log(-z) + self.log_lam - y
            z = z - f / (1 + self.alpha / z)
        return z

    # -- closed forms ------------------------------------------------------

    def log_n_of_x(self, x):
        v = self.log_n1
        winv_c = self.winv_log(-x)
        weval_c = self.weval_log(-x)
        for _, log_phi_j, log_b3_j in self.chain:
            log_arg = log_phi_j + winv_c - self.log8 - weval_c
            if log_arg >= self.log_lim:
                log_arg = self.log_lim - mp.log(2)
            b2 = -self.winv_log(log_arg)
            v = max(v, b2, log_b3_j)
        return v

    def _log_m_of_log_n(self, log_n):
        v = self.log_m1
        for _ in self.chain:
            v = -self.winv_log(-(log_n + v))
        return v

    def G(self, x):
        log_n = self.log_n_of_x(x)
        return log_n + self._log_m_of_log_n(log_n)

    # -- level counting ------------------------------------------------------

    def _quad(self, a, b):
        if b <= a:
            return mp.mpf(0)
        return mp.quad(lambda u: 1 / self.G(u), [a, b], maxdegree=3)

    def _ensure_table(self, x):
        hi = self._segments[-1][1] if self._segments else self.x0
        cum = self._segments[-1][2] if self._segments else mp.mpf(0)
        while hi < x:
            new_hi = hi * 2
            cum = cum + self._quad(hi, new_hi)
            self._segments.append((hi, new_hi, cum))
            hi = new_hi

    def n_of_x(self, x):
        """Continuum level count past the anchor: n(x0) = 0."""
        x = mp.mpf(x)
        if x <= self.x0:
            return mp.mpf(0)
        self._ensure_table(x)
        n = mp.mpf(0)
        lo = self.x0
        for seg_lo, seg_hi, cum in self._segments:
            if seg_hi <= x:
                n, lo = cum, seg_hi
            else:
                n = n + self._quad(seg_lo, x)
                break
        return n + mp.mpf("0.5") * mp.log(self.G(x) / self._g0)

    def x_of_level(self, i, x_hint=None):
        """x at level i (i >= i0): inverts n_of_x with Newton (n' = 1/G)."""
        target = mp.mpf(i - self.i0)
        if target <= 0:
            return self.x0
        if x_hint is None:
            x = self.x0 + target * self._g0
        else:
            x = mp.mpf(x_hint)
        for _ in range(60):
            delta = (self.n_of_x(x) - target) * self.G(x)
            x = x - delta
            if x <= self.x0:
                x = self.x0 + (self.x0 - x) / 4 + 1
                continue
            if abs(delta) < mp.mpf("1e-6") * self.G(x):
                break
        return x

    def rhs_log(self, x_next):
        """Right-hand side of num-iter at the level whose successor sits at
        x_next: log(omega(c)/c) = alpha*log(x) + log Lam."""
        return self.weval_log(-x_next) + x_next

    def sides(self, i, x_hint=None):
        """(lhs, rhs, x_next) of num-iter with r := i, at integer level i."""
        x_next = self.x_of_level(i + 1, x_hint)
        return mp.mpf(i) * self.lp + self.c_const, self.rhs_log(x_next), x_next


def _dps_for(ph_log: float) -> int:
    return max(40, 18 + int(math.ceil(-ph_log / math.log(10.0))))


@dataclass
class RCertificate:
    r: int
    lhs_log: float
    rhs_log: float
    margin: float  # lhs - rhs at the certifying check, full precision sign
    mode: str      # "exact" or "extrapolated"
    trace: ParamTrace
    # the continuum model past the scanned levels; None when r was scanned
    model: _FarRegime | None = field(default=None, repr=False)


def certify_r(d: int, m: Modulus, eps: float, c: float, max_levels: int = 48,
              extrapolate: bool = True) -> RCertificate:
    """Smallest level index at which the num-iter inequality holds.

    The exact trace is scanned first; past ``max_levels`` (and only for
    moduli of the log-linear family) r is certified against the continuum
    model, which the certificate carries.  ``extrapolate=False`` restores
    the scan-only behaviour, raising when the cap is hit.
    """
    trace = param_sequence(d, m, eps, c, max_levels)
    if trace.terminated:
        i = trace.r_check
        lhs, rhs = _sides_exact(m, math.log(c), trace.phi, i, trace.log_c_at(i + 1))
        # r = 1 passes the r := 0 check; with max_levels = 0 level 1 is
        # unscanned and only the model reaches it
        model = _FarRegime(trace, m) if trace.r > len(trace.levels) else None
        return RCertificate(r=trace.r, lhs_log=lhs, rhs_log=rhs,
                            margin=lhs - rhs, mode="exact", trace=trace,
                            model=model)
    if not extrapolate:
        raise UnterminatedError(
            f"num-iter inequality not satisfied within {max_levels} levels",
            trace=trace)

    model = _FarRegime(trace, m)
    with mp.workdps(model.dps):
        def H(x):
            i_real = model.i0 + model.n_of_x(x)
            return i_real * model.lp + model.c_const - model.rhs_log(x + model.G(x))

        # bracket the real crossing on the doubling table, then bisect on x
        lo = model.x0
        if H(lo) < 0:
            hi = lo * 2
            while H(hi) < 0:
                lo, hi = hi, hi * 2
                if hi > mp.mpf("1e500"):
                    raise UnterminatedError(
                        "num-iter inequality unreachable for this modulus",
                        trace=trace)
            for _ in range(300):
                mid = (lo + hi) / 2
                if H(mid) < 0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < model.G(hi) / 8:
                    break
            x_star = hi
            i_star = model.i0 + model.n_of_x(x_star)
        else:
            x_star, i_star = lo, mp.mpf(model.i0)

        # pin the smallest integer level with F >= 0 around the real crossing
        base = max(model.i0, int(mp.floor(i_star)) - 1)
        x_hint = x_star
        for r in range(base, base + 4):
            lhs, rhs, x_hint = model.sides(r, x_hint)
            if lhs >= rhs:
                break
        else:
            raise UnterminatedError("continuum crossing inconsistent", trace=trace)
        return RCertificate(r=r, lhs_log=float(lhs), rhs_log=float(rhs),
                            margin=float(lhs - rhs), mode="extrapolated",
                            trace=trace, model=model)


def num_iter_margin(d: int, m: Modulus, eps: float, c: float, i: int,
                    max_levels: int = 48) -> float:
    """lhs - rhs of the num-iter inequality with r := i, at full precision
    (the sign is meaningful even when the sides agree to 30+ digits)."""
    trace = param_sequence(d, m, eps, c, max_levels)
    if i + 1 <= len(trace.levels) + 1:
        lhs, rhs = _sides_exact(m, math.log(c), trace.phi, i, trace.log_c_at(i + 1))
        return lhs - rhs
    model = _FarRegime(trace, m)
    with mp.workdps(model.dps):
        lhs, rhs, _ = model.sides(i)
        return float(lhs - rhs)


# ---------------------------------------------------------------------------
# upsilon and kappa
# ---------------------------------------------------------------------------

def upsilon_log(d: int, m: Modulus, eps: float, log_ell: float,
                pi_const: float = 1.0) -> float:
    """log of the volume-difference bound:
    pi * omega(omega(eps omega(ell)))^d / (ell * omega(eps omega(ell))^{d-1}).

    Raises a domain error naming the composition level that escapes the
    modulus domain.

    For the log-linear family the dominant log(ell) terms cancel exactly:

        log upsilon = log pi + log eps + (d+2) log Lam
                      + alpha [log(-log ell) + log(-u1) + d log(-u2)],

    which is what gets evaluated, since the naive composition loses the O(1)
    residue to float rounding once |log ell| is large (deep-level
    sidelengths reach log ell ~ -1e36).
    """
    log_a = math.log(m.a_omega)
    if not (log_ell < log_a):
        raise DomainError("composition level 0: ell outside modulus domain")
    form = _log_linear_form(m)
    if form is not None:
        log_lam, alpha = form
        u1 = math.log(eps) + m.eval_log(log_ell)
        if not (u1 < log_a):
            raise DomainError("composition level 1: eps*omega(ell) outside modulus domain")
        u2 = u1 + (alpha * math.log(-u1) if alpha else 0.0) + log_lam
        if not (u2 < log_a):
            raise DomainError("composition level 2: omega(eps*omega(ell)) outside modulus domain")
        out = math.log(pi_const) + math.log(eps) + (d + 2) * log_lam
        if alpha:
            out += alpha * (math.log(-log_ell) + math.log(-u1) + d * math.log(-u2))
        return out
    u1 = math.log(eps) + m.eval_log(log_ell)
    if not (u1 < log_a):
        raise DomainError("composition level 1: eps*omega(ell) outside modulus domain")
    u2 = m.eval_log(u1)
    if not (u2 < log_a):
        raise DomainError("composition level 2: omega(eps*omega(ell)) outside modulus domain")
    u3 = m.eval_log(u2)
    return math.log(pi_const) + d * u3 - log_ell - (d - 1) * u2


def upsilon(d: int, m: Modulus, L: float, k: int, eps: float, ell: float,
            pi_const: float = 1.0) -> float:
    """The volume-difference bound at cube sidelength ell.  L and k enter
    only through the configurable constant (default 1) and through the
    caller's choice of a rescaled modulus."""
    return math.exp(upsilon_log(d, m, eps, math.log(ell), pi_const))


def rescaled_modulus(m: Modulus, L: float, k: int) -> Modulus:
    """The combined-mapping modulus L*sqrt(k)*omega driving the level
    sequence; returns m itself when the factor is 1."""
    lam = L * math.sqrt(k)
    if lam <= 1.0:
        return m
    return Modulus(kind="scaled", L=lam, inner=m, a_omega=m.a_omega)


def kappa(d: int, m: Modulus, L: float, k: int, eps: float, c: float,
          max_levels: int = 48, pi_const: float = 1.0) -> float:
    """sup over levels i in [r] of upsilon at ell = c_i/N_i.

    The level sequence is driven by the rescaled modulus L*sqrt(k)*omega;
    upsilon itself uses the plain omega with the constants absorbed into
    pi_const.  All cubes at one level share a sidelength, so the sup
    collapses to a sup over levels.
    """
    cert = certify_r(d, rescaled_modulus(m, L, k), eps, c, max_levels)
    return kappa_from_certificate(cert, m, pi_const)


def kappa_from_certificate(cert: RCertificate, m: Modulus,
                           pi_const: float = 1.0) -> float:
    """kappa over the levels of a certificate for the (rescaled) level
    sequence, with upsilon taken at the plain modulus m.  Level r past the
    exact scan is read from the certificate's own continuum model."""
    trace = cert.trace
    d, eps = trace.d, trace.epsilon
    best = -math.inf
    for rec in trace.levels:
        if rec.i > cert.r:
            break
        best = max(best, upsilon_log(d, m, eps, rec.log_sidelength, pi_const))
    if cert.model is not None:
        model = cert.model
        with mp.workdps(model.dps):
            x_r = model.x_of_level(cert.r)
            log_ell_r = float(-x_r - model.log_n_of_x(x_r))
        best = max(best, upsilon_log(d, m, eps, log_ell_r, pi_const))
    return math.exp(best)

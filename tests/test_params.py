import math

import mpmath as mp
import numpy as np
import pytest

from netlab.errors import BudgetError, DomainError, UnterminatedError
from netlab.moduli import identity, logpow, scaled
from netlab import params as P


# ---------------------------------------------------------------------------
# Reference oracles: the float scan's N0 and M recursions and the far model's
# own closed forms, as each path coded them before both called one shared
# set of forms.  The shared forms must reproduce them exactly.
# ---------------------------------------------------------------------------

def reference_inverse_log_clamped(m, log_y):
    log_lim = math.log(m.eval_limit())
    if log_y < log_lim:
        return m.inverse_log(log_y), False
    return m.inverse_log(log_lim - math.log(2.0)), True


def reference_n0_from_log(d, m, eps, log_c):
    if d == 1:
        return max(2, P._snap_ceil(6.0 / eps))
    th = P.theta(d, m, eps)
    b1 = reference_n0_from_log(d - 1, m, th, log_c)
    log_arg = (P.phi_log(d, m, eps) + m.inverse_log(log_c)
               - math.log(8.0) - m.eval_log(log_c))
    w, _ = reference_inverse_log_clamped(m, log_arg)
    b2 = P._int_from_log_ceil(-w)
    b3 = P._snap_ceil(6.0 / eps)
    return max(b1, b2, b3)


def reference_bigm_cached(N, d, m, eps):
    if d == 1:
        y = eps / 4.0
        lim = m.eval_limit()
        if y >= lim:
            y = lim / 2.0
        return P._snap_ceil(1.0 / m.inverse(y))
    th = P.theta(d, m, eps)
    m_prev = reference_bigm_cached(N, d - 1, m, th)
    log_arg = -(math.log(N) + math.log(m_prev))
    w, _ = reference_inverse_log_clamped(m, log_arg)
    bound = P._int_from_log_ceil(-w)
    k = -(-bound // m_prev)  # ceiling division on exact ints
    return m_prev * max(k, 1)


def reference_sides_exact(m, log_c1, ph, i, log_c_next):
    lhs = i * math.log1p(ph) + m.inverse_log(log_c1) - log_c1
    rhs = m.eval_log(log_c_next) - log_c_next
    return lhs, rhs


def reference_param_sequence(d, m, eps, c, max_levels):
    ph_log = P.phi_log(d, m, eps)
    ph = math.exp(ph_log)
    clamped = P._theta_cached(d, m, eps)[1] if d >= 2 else False
    trace = P.ParamTrace(d=d, epsilon=eps, c=c, phi=ph, phi_log=ph_log,
                         clamped=clamped)
    log_c1 = math.log(c)
    log_ci = log_c1
    lhs, rhs = reference_sides_exact(m, log_c1, ph, 0, log_c1)
    if lhs >= rhs:
        trace.r, trace.r_check, trace.terminated = 1, 0, True
    for i in range(1, max_levels + 1):
        N = reference_n0_from_log(d, m, eps, log_ci)
        M = reference_bigm_cached(N, d, m, eps)
        trace.levels.append(P.LevelRecord(
            i=i, log_c=log_ci, N=N, M=M,
            log_sidelength=log_ci - math.log(N),
        ))
        log_next = log_ci - math.log(N) - math.log(M)
        if not trace.terminated:
            lhs, rhs = reference_sides_exact(m, log_c1, ph, i, log_next)
            if lhs >= rhs:
                trace.r, trace.r_check, trace.terminated = i, i, True
        log_ci = log_next
    return trace


def reference_log_linear_form(m):
    if m.kind == "identity":
        return 0.0, 0.0
    if m.kind == "logpow":
        return 0.0, m.alpha
    if m.kind == "scaled":
        inner = reference_log_linear_form(m.inner)
        if inner is None:
            return None
        return math.log(m.L) + inner[0], inner[1]
    return None


class ReferenceFarRegime(P._FarRegime):
    """The far model on its own mp copies of omega, omega^{-1}, N0 and M;
    level counting (quadrature table, n_of_x, x_of_level) is inherited."""

    def __init__(self, trace, m):
        form = reference_log_linear_form(m)
        with mp.workdps(P._dps_for(trace.phi_log)):
            self.log_lam = mp.mpf(form[0])
            self.alpha = mp.mpf(form[1])
            self.log8 = mp.log(8)
            self.log_lim = mp.log(m.eval_limit())
            self.chain = []
            eps_j = trace.epsilon
            for j in range(trace.d, 1, -1):
                self.chain.append((j, mp.mpf(P.phi_log(j, m, eps_j)),
                                   mp.log(P._snap_ceil(6.0 / eps_j))))
                eps_j = P.theta(j, m, eps_j)
            self.chain.reverse()  # ascending j
            self.log_n1 = mp.log(max(2, P._snap_ceil(6.0 / eps_j)))
            self.log_m1 = mp.log(reference_bigm_cached(2, 1, m, eps_j))
        super().__init__(trace, m)

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


class TestThetaPhi:
    def test_theta_d2_identity(self):
        # independent evaluation of the closed form
        expected = ((1.0 / 6.0) * 0.1 / (2.0 * math.sqrt(2.0))) ** 4
        got = P.theta(2, identity(), 0.1)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got < 0.1 ** 2  # below the eps^2 cap, so the power term wins

    def test_theta_large_eps_takes_min(self):
        m = identity()
        raw = ((1.0 / 6.0) * 0.9 / (2.0 * math.sqrt(2.0))) ** 4
        assert P.theta(2, m, 0.9) == pytest.approx(min(0.81, raw), rel=1e-14)

    def test_theta_small_for_small_eps(self):
        for eps in (0.3, 0.1, 0.03):
            assert P.theta(2, identity(), eps) < eps ** 2

    def test_theta_clamps_when_inverse_undefined(self):
        # logpow(0.01) has eval_limit ~ 0.136 < 1/6, so the 1/6 inverse clamps
        m = logpow(0.01)
        assert P.param_sequence(2, m, 0.1, 0.1, 1).clamped
        assert 0.0 < P.theta(2, m, 0.1) < 0.01

    def test_theta_validates(self):
        with pytest.raises(DomainError):
            P.theta(1, identity(), 0.1)
        with pytest.raises(DomainError):
            P.theta(2, identity(), 1.5)

    def test_phi_base_case(self):
        assert P.phi(1, identity(), 0.1) == pytest.approx(1e-3 / 120.0, rel=1e-14)
        assert P.phi(1, identity(), 1.0) == pytest.approx(1.0 / 120.0, rel=1e-14)

    def test_phi_recursion(self):
        m = identity()
        th = P.theta(2, m, 0.1)
        assert P.phi(2, m, 0.1) == pytest.approx(0.5 * th ** 3 / 120.0, rel=1e-14)

    def test_phi_increasing_in_eps(self):
        # strict on grids where no inverse clamp fires (eps below the
        # modulus range end freezes nothing)
        m = logpow(0.5)
        vals = [P.phi(2, m, e) for e in (0.05, 0.1, 0.15)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        vals = [P.phi(2, identity(), e) for e in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestN0BigM:
    def test_n0_d1(self):
        assert P.n0(1, identity(), 0.1, 0.5) == 60
        assert P.n0(1, identity(), 3.0, 0.5) == 2  # floored at 2

    def test_n0_d2_is_max_of_three_bounds(self):
        m = identity()
        eps, c = 0.1, 0.1
        th = P.theta(2, m, eps)
        ph = P.phi(2, m, eps)
        b1 = P.n0(1, m, th, c)
        b2 = math.ceil(1.0 / m.inverse(ph * m.inverse(c) / (8.0 * m.eval(c))))
        b3 = math.ceil(6.0 / eps)
        got = P.n0(2, m, eps, c)
        # the independent linear-space oracle agrees up to float rounding,
        # meaningless at this magnitude (the integer is nominal past ~1e15)
        assert got == pytest.approx(max(b1, b2, b3), rel=1e-9)
        assert got == pytest.approx(b2, rel=1e-9)  # the stretch-gain bound dominates

    def test_n0_validates_c(self):
        with pytest.raises(DomainError):
            P.n0(1, identity(), 0.1, 1.5)

    def test_big_m_d1(self):
        assert P.big_m(2, 1, identity(), 0.1) == 40
        assert P.big_m(2, 1, identity(), 0.4) == 10

    def test_big_m_d2_identity_equals_n_times_m1(self):
        # with omega^{-1} = id the refinement bound is exactly N*M_{d-1}
        m = identity()
        th = P.theta(2, m, 0.1)
        m1 = P.big_m(60, 1, m, th)
        got = P.big_m(60, 2, m, 0.1)
        assert got == 60 * m1
        assert got % m1 == 0

    def test_big_m_divisibility_chain(self):
        m = logpow(0.5)
        th = P.theta(2, m, 0.2)
        m1 = P.big_m(12, 1, m, th)
        assert P.big_m(12, 2, m, 0.2) % m1 == 0

    def test_dichotomy_params_invariants(self):
        m = identity()
        assert P.big_m(60, 1, m, 0.1) >= 1.0 / m.inverse(0.1 / 4.0) - 1
        # the constructive choice sits exactly at half the lower-dimensional
        # budget (the admissible supremum)
        th = P.theta(2, m, 0.1)
        assert P.phi(2, m, 0.1) == pytest.approx(0.5 * P.phi(1, m, th), rel=1e-12)


class TestParamSequence:
    def test_hand_composed_first_level(self):
        tr = P.param_sequence(1, identity(), 0.1, 0.5, 5)
        assert tr.levels[0].N == 60
        assert tr.levels[0].M == 40
        assert math.exp(tr.log_c_at(2)) == pytest.approx(0.5 / 2400.0, rel=1e-12)

    def test_recursion_identity_random_configs(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.05, 0.6))
            alpha = float(rng.uniform(0.1, 1.5))
            m = identity() if rng.random() < 0.4 else logpow(alpha)
            c = float(rng.uniform(0.01, 0.9 * m.a_omega))
            tr = P.param_sequence(d, m, eps, c, 32)
            assert len(tr.levels) >= 30
            for j, rec in enumerate(tr.levels):
                log_next = tr.log_c_at(rec.i + 1)
                resid = abs(log_next + math.log(rec.N) + math.log(rec.M) - rec.log_c)
                assert resid <= 1e-12 * max(1.0, abs(rec.log_c))
                assert rec.N >= 2 and rec.M >= 1
                if j:
                    assert rec.log_c < tr.levels[j - 1].log_c

    def test_quadratic_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            d = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.05, 0.5))
            m = identity() if rng.random() < 0.5 else logpow(float(rng.uniform(0.1, 1.0)))
            c = float(rng.uniform(0.02, 0.9 * m.a_omega))
            log_beta = P.quadratic_beta_log(d, m, eps, c)
            tr = P.param_sequence(d, m, eps, c, 32)
            for rec in tr.levels:
                log_next = tr.log_c_at(rec.i + 1)
                assert log_next >= log_beta + 2.0 * rec.log_c - 1e-9

    def test_superquadratic_shape(self):
        # log c_i >= i^2 log(beta*c) with beta from the level-1 closed forms
        for m in (identity(), logpow(0.8)):
            c, eps, d = 0.1, 0.1, 2
            log_beta_c = P.quadratic_beta_log(d, m, eps, c) + math.log(c)
            tr = P.param_sequence(d, m, eps, c, 50)
            for rec in tr.levels:
                assert rec.log_c >= rec.i ** 2 * log_beta_c

    def test_sidelength_monotonicity(self):
        tr = P.param_sequence(2, logpow(0.5), 0.2, 0.1, 10)
        # sidelength c_i/N_i >= c_{i+1}
        for rec in tr.levels:
            assert rec.log_sidelength >= tr.log_c_at(rec.i + 1) - 1e-12


class TestComputeR:
    def test_identity_returns_one_with_exact_sides(self):
        cert = P.certify_r(1, identity(), 0.1, 0.5)
        assert cert.r == 1 and cert.mode == "exact"
        assert cert.lhs_log == 0.0 and cert.rhs_log == 0.0
        cert2 = P.certify_r(2, identity(), 0.3, 0.2)
        assert cert2.r == 1
        assert cert2.lhs_log == 0.0 and cert2.rhs_log == 0.0

    def test_d1_logpow_exact_scan_matches_extrapolation(self):
        # the strongest validation of the continuum model: in d=1 the level
        # increments are exactly constant, so both routes must agree exactly
        m = logpow(0.01)
        r_exact = P.certify_r(1, m, 0.1, 0.1, max_levels=30000, extrapolate=False).r
        r_far = P.certify_r(1, m, 0.1, 0.1, max_levels=8, extrapolate=True).r
        assert r_exact == r_far == 15012

    def test_fails_at_r_minus_one_holds_at_r_exact_regime(self):
        m = logpow(0.3)
        cert = P.certify_r(1, m, 0.4, 0.1, max_levels=8000, extrapolate=False)
        assert cert.mode == "exact" and cert.r >= 2
        assert P.num_iter_margin(1, m, 0.4, 0.1, cert.r, max_levels=cert.r + 2) >= 0.0
        assert P.num_iter_margin(1, m, 0.4, 0.1, cert.r - 1, max_levels=cert.r + 2) < 0.0

    def test_unterminated_error_carries_trace(self):
        with pytest.raises(UnterminatedError) as exc:
            P.certify_r(1, logpow(0.01), 0.1, 0.1, max_levels=50, extrapolate=False)
        assert exc.value.trace is not None
        assert len(exc.value.trace.levels) == 50

    def test_holder_never_terminates(self):
        from netlab.moduli import holder
        with pytest.raises(UnterminatedError):
            P.certify_r(1, holder(0.5), 0.3, 0.5, max_levels=30)

    def test_holder_scan_stops_before_huge_integers(self):
        # N_i, M_i gain tenfold digits per level; level 7 would need 1.3e8
        from netlab.moduli import holder
        with pytest.raises(BudgetError, match="level 7: .* digits"):
            P.param_sequence(2, holder(0.5), 0.1, 0.1, 48)
        # the dimension-one M base 1/omega^-1(eps_1/4) overflows a float
        with pytest.raises(BudgetError, match="level 1: M's dimension-one base"):
            P.param_sequence(3, holder(0.5), 0.1, 0.1, 48)

    def test_r_shape_fit(self):
        # r tracks 1/(c poly(eps)): fit the exponent across an eps grid and
        # check the fitted envelope bounds every computed value
        m = logpow(0.5)
        c = 0.1
        eps_grid = [0.4, 0.3, 0.2, 0.15, 0.1]
        rs = [P.certify_r(1, m, e, c, max_levels=8).r for e in eps_grid]
        A = np.vstack([np.ones(len(eps_grid)), -np.log(eps_grid)]).T
        coef, *_ = np.linalg.lstsq(A, np.log(rs), rcond=None)
        log_C, p = coef
        assert 2.0 < p < 4.5  # phi ~ eps^3/120 drives the growth
        for e, r in zip(eps_grid, rs):
            assert r <= math.ceil(1.5 * math.exp(log_C) / (c * e ** p) / c * c)


def _unscanned_trace(d, m, eps, c):
    """A trace with no scanned levels: the far model anchors at level 1, c."""
    ph_log = P.phi_log(d, m, eps)
    return P.ParamTrace(d=d, epsilon=eps, c=c, phi=math.exp(ph_log), phi_log=ph_log)


class TestFarModel:
    def test_synthetic_step_iteration_matches_model_count(self):
        # iterate the model's own recursion x_{k+1} = x_k + G(x_k) and check
        # the continuum count lands within a small fraction of a level
        m = logpow(0.3)
        eps, c = 0.35, 0.1
        with mp.workdps(50):
            model = P._FarRegime(_unscanned_trace(2, m, eps, c), m)
            x = model.x0
            steps = 1500
            for _ in range(steps):
                x = x + model.G(x)
            n = model.n_of_x(x)
            assert abs(n - steps) < 0.05

    def test_x_of_level_inverts_n_of_x(self):
        m = logpow(0.2)
        with mp.workdps(50):
            model = P._FarRegime(_unscanned_trace(2, m, 0.3, 0.2), m)
            for i in (5, 50, 2000, 10 ** 9):
                x = model.x_of_level(i)
                assert abs(model.n_of_x(x) - (i - 1)) < 1e-6


class TestUpsilonKappa:
    def test_identity_cancellation_exact(self):
        for d in (2, 3):
            for eps in (1e-1, 1e-2, 1e-3, 1e-4):
                for ell in (1e-1, 1e-3, 1e-6):
                    v = P.upsilon(d, identity(), eps, ell)
                    assert abs(v / eps - 1.0) < 1e-12

    def test_upsilon_linear_in_eps_for_identity(self):
        vals = [P.upsilon(2, identity(), e, 0.01) for e in (0.1, 0.01, 0.001)]
        assert vals[0] / vals[1] == pytest.approx(10.0, rel=1e-12)
        assert vals[1] / vals[2] == pytest.approx(10.0, rel=1e-12)

    def test_upsilon_spot_value_against_high_precision(self):
        # independent recomputation of the nested composition with mpmath
        m = logpow(0.5)
        d, eps, ell = 2, 0.1, 0.01
        with mp.workdps(60):
            def w(t):
                return t * mp.log(1 / t) ** mp.mpf("0.5")
            t1 = eps * w(mp.mpf(ell))
            t2 = w(t1)
            t3 = w(t2)
            expect = float(t3 ** d / (ell * t2 ** (d - 1)))
        assert P.upsilon(d, m, eps, ell) == pytest.approx(expect, rel=1e-11)

    def test_upsilon_domain_error_names_level(self):
        m = logpow(0.5)
        with pytest.raises(DomainError, match="level 0"):
            P.upsilon(2, m, 0.1, 0.9)

    def test_kappa_identity_is_eps(self):
        for eps in (0.3, 0.1):
            assert P.kappa(2, identity(), 1.0, 1, eps, 0.2) == pytest.approx(eps, rel=1e-12)

    def test_kappa_builds_one_far_model(self, monkeypatch):
        # kappa reads level r from the model certify_r was certified against
        built = []
        original = P._FarRegime

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(P, "_FarRegime", counting)
        P.kappa(1, logpow(0.01), 1.0, 1, 0.1, 0.1, max_levels=8)
        assert len(built) == 1

    def test_kappa_scaling_enters_through_rescaled_modulus(self):
        m = logpow(0.4)
        m_bar = P.rescaled_modulus(m, 2.0, 4)
        assert m_bar.kind == "scaled" and m_bar.L == 4.0
        assert P.rescaled_modulus(m, 1.0, 1) is m

    def test_kappa_exact_regime_matches_manual_sup(self):
        # d=1 keeps r reachable: recompute the sup over levels by hand
        m = logpow(0.3)
        eps, c = 0.4, 0.1
        cert = P.certify_r(1, m, eps, c, max_levels=8000, extrapolate=False)
        vals = [P.upsilon_log(1, m, eps, rec.log_sidelength)
                for rec in cert.trace.levels if rec.i <= cert.r]
        expect = math.exp(max(vals))
        assert P.kappa(1, m, 1.0, 1, eps, c, max_levels=8000) == pytest.approx(
            expect, rel=1e-12)


REFERENCE_MODULI = [identity(), logpow(0.01), logpow(0.3), logpow(0.5),
                    scaled(2.0, logpow(0.3))]


class TestSharedFormsMatchReferences:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", REFERENCE_MODULI, ids=repr)
    def test_float_scan_matches_recursions(self, d, m):
        for eps in (0.05, 0.1, 0.35):
            for c in (0.02, 0.1):
                N = P.n0(d, m, eps, c)
                assert N == reference_n0_from_log(d, m, eps, math.log(c))
                assert P.big_m(N, d, m, eps) == reference_bigm_cached(N, d, m, eps)
                assert (P.param_sequence(d, m, eps, c, 12)
                        == reference_param_sequence(d, m, eps, c, 12))

    @pytest.mark.parametrize("m,d,eps,c", [
        (logpow(0.01), 2, 0.1, 0.1),
        (scaled(2.0, logpow(0.3)), 2, 0.35, 0.1),
        (logpow(0.3), 3, 0.35, 0.1),
        (scaled(2.0, scaled(3.0, logpow(0.5))), 2, 0.35, 0.1),
    ], ids=["logpow0.01-d2", "scaled2-logpow0.3-d2", "logpow0.3-d3",
            "scaled2-scaled3-logpow0.5-d2"])
    def test_far_model_matches_its_own_forms(self, m, d, eps, c):
        trace = P.param_sequence(d, m, eps, c, 4)
        model = P._FarRegime(trace, m)
        ref = ReferenceFarRegime(trace, m)
        with mp.workdps(model.dps):
            for f in (1, 1.5, 7, 1e3, 1e10, 1e30):
                x = model.x0 * f
                assert model.G(x) == ref.G(x)
                assert model.log_n_of_x(x) == ref.log_n_of_x(x)
            i = model.i0 + 10 ** 6
            lhs, rhs, x_next = model.sides(i)
            ref_x_next = ref.x_of_level(i + 1)
            assert x_next == ref_x_next
            assert rhs == ref.weval_log(-ref_x_next) + ref_x_next
            assert lhs == mp.mpf(i) * ref.lp + ref.c_const


class TestMpInverseOracle:
    """The far model's omega^{-1} (Newton under mpmath) against findroot on
    t + alpha log(-t) + log Lam = log y at 30 more digits."""

    DPS = 52  # the model's precision for the README params example

    @staticmethod
    def oracle(alpha, log_lam, log_y, dps):
        with mp.workdps(dps + 30):
            y, a = mp.mpf(log_y), mp.mpf(alpha)
            return mp.findroot(lambda t: t + a * mp.log(-t) + log_lam - y, y - log_lam)

    @pytest.mark.parametrize("m,log_lam", [
        (logpow(0.01), 0), (logpow(0.3), 0), (logpow(0.5), 0),
        # the model takes log Lam as the float log L, so the oracle does too
        (scaled(2.0, logpow(0.3)), mp.mpf(math.log(2.0))),
        (scaled(2.0, scaled(3.0, logpow(0.5))), mp.mpf(math.log(2.0) + math.log(3.0))),
    ], ids=["logpow0.01", "logpow0.3", "logpow0.5", "scaled2-logpow0.3",
            "scaled2-scaled3-logpow0.5"])
    def test_newton_inverse_matches_findroot(self, m, log_lam):
        base = m
        while base.kind == "scaled":
            base = base.inner
        for log_y in (-20, -50, -1e3, -1e5, -1e20, -1e36):
            want = self.oracle(base.alpha, log_lam, log_y, self.DPS)
            with mp.workdps(self.DPS):
                tol = mp.mpf(10) ** (3 - self.DPS)
                got = m._inverse_log_unchecked(mp.mpf(log_y), mp)
                # omega under mpmath takes the same log Lam as its inverse
                back = m._eval_log_unchecked(got, mp)
            assert abs(got - want) <= abs(want) * tol
            assert abs(back - log_y) <= abs(log_y) * tol

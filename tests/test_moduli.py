import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netlab.errors import DomainError, InjectivityError, RangeError
from netlab.moduli import (
    FiniteMap,
    bi_l_omega,
    check_class_M,
    holder,
    identity,
    l_omega,
    logpow,
    parse_modulus,
    scaled,
)


class TestEval:
    def test_logpow_closed_form(self):
        # independent high-precision evaluation: 0.01 * log(100)
        m = logpow(1.0)
        expected = 0.01 * math.log(100.0)
        assert m.eval(0.01) == pytest.approx(expected, rel=1e-15)
        assert m.eval(0.01) == pytest.approx(0.04605170186, rel=1e-9)

    def test_identity(self):
        assert identity().eval(0.05) == 0.05

    def test_holder_square_root(self):
        assert holder(0.5).eval(0.04) == pytest.approx(0.2, rel=1e-15)

    def test_scaled(self):
        m = scaled(3.0, logpow(1.0))
        assert m.eval(0.01) == pytest.approx(3.0 * 0.01 * math.log(100.0), rel=1e-15)

    def test_out_of_domain_raises(self):
        m = logpow(1.0)
        with pytest.raises(DomainError):
            m.eval(m.a_omega)
        with pytest.raises(DomainError):
            m.eval(0.0)
        with pytest.raises(DomainError):
            m.eval(-0.1)

    def test_eval_log_matches_eval(self):
        for m in [identity(), holder(0.3), logpow(0.5), scaled(2.0, logpow(1.0))]:
            for t in np.geomspace(1e-6, m.a_omega * 0.99, 37):
                assert m.eval_log(math.log(t)) == pytest.approx(
                    math.log(m.eval(float(t))), rel=1e-12
                )

    def test_eval_log_far_below_underflow(self):
        m = logpow(1.0)
        # t = exp(-1e5): omega(t) = t * (1e5)^1, so log omega = -1e5 + log(1e5)
        assert m.eval_log(-1e5) == pytest.approx(-1e5 + math.log(1e5), rel=1e-12)


class TestInverse:
    def test_inverse_of_eval_example(self):
        m = logpow(1.0)
        y = m.eval(0.01)
        assert m.inverse(y) == pytest.approx(0.01, rel=1e-11)

    def test_identity_exact(self):
        m = identity()
        y = 0.3 * m.a_omega
        assert m.inverse(y) == y

    def test_holder_exact(self):
        assert holder(0.5).inverse(0.2) == pytest.approx(0.04, rel=1e-14)

    def test_out_of_range_raises(self):
        m = logpow(1.0)
        with pytest.raises(RangeError):
            m.inverse(m.eval_limit() * 1.01)
        with pytest.raises(RangeError):
            m.inverse(0.0)

    @pytest.mark.parametrize("m", [identity(), holder(0.7), logpow(0.25), logpow(2.0)])
    def test_roundtrip_on_grid(self, m):
        # inverse(eval(t)) = t within 1e-12 relative on a 1e3-point grid
        ts = np.geomspace(m.a_omega * 1e-5, m.a_omega * 0.999, 1000)
        for t in ts:
            t = float(t)
            assert abs(m.inverse(m.eval(t)) - t) <= 1e-12 * t

    def test_inverse_log_matches(self):
        m = logpow(0.5)
        for y in np.geomspace(1e-8, m.eval_limit() * 0.9, 29):
            got = m.inverse_log(math.log(float(y)))
            assert got == pytest.approx(math.log(m.inverse(float(y))), abs=1e-10)


class TestClassM:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_logpow_membership(self, alpha):
        m = logpow(alpha, a_omega=math.exp(-2.0))
        report = check_class_M(m, 64)
        assert report.all_pass, report.worst

    def test_identity_membership(self):
        assert check_class_M(identity(), 64).all_pass

    def test_holder_membership(self):
        assert check_class_M(holder(0.5, a_omega=1.0), 64).all_pass

    def test_convex_function_fails_concavity(self):
        # t^2 scaled to dominate identity would break domination instead;
        # use a fake via holder with alpha>1 rejected at construction
        with pytest.raises(DomainError):
            holder(1.5)

    def test_grid_size_validated(self):
        with pytest.raises(DomainError):
            check_class_M(identity(), 2)

    def test_ratio_nonincreasing(self):
        # concavity consequence: eval(t)/t is non-increasing
        for m in [logpow(1.0), holder(0.5), identity()]:
            ts = np.geomspace(m.a_omega * 1e-4, m.a_omega * 0.999, 200)
            ratios = np.array([m.eval(float(t)) / t for t in ts])
            assert np.all(np.diff(ratios) <= 1e-12 * ratios[:-1])


def _brute_l_omega(f, m):
    best = 0.0
    n = len(f)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(np.linalg.norm(f.domain_points[j] - f.domain_points[i]))
            if d <= 0.0 or d >= m.a_omega:
                continue
            di = float(np.linalg.norm(f.image_points[j] - f.image_points[i]))
            best = max(best, di / m.eval(d))
    return best


class TestContinuityConstants:
    def test_identity_map_logpow(self):
        pts = np.array([[0.0], [0.01], [0.02]])
        f = FiniteMap(pts, pts)
        m = logpow(1.0)
        got = l_omega(f, m)
        assert got == pytest.approx(_brute_l_omega(f, m), rel=1e-15)
        assert got == pytest.approx(0.02 / m.eval(0.02), rel=1e-15)
        assert got == pytest.approx(0.2556, rel=1e-3)

    def test_identity_map_identity_modulus(self):
        pts = np.array([[0.0], [0.3], [0.7]])
        f = FiniteMap(pts, pts)
        assert l_omega(f, identity()) == 1.0

    def test_doubling_map(self):
        pts = np.array([[0.0], [0.01]])
        f = FiniteMap(pts, 2.0 * pts)
        assert l_omega(f, identity()) == 2.0

    def test_void_pairs_skipped(self):
        pts = np.array([[0.0], [5.0]])
        f = FiniteMap(pts, pts)
        assert l_omega(f, identity()) == 0.0

    def test_scaled_divides(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 0.3, size=(6, 2))
        f = FiniteMap(pts, rng.uniform(0, 1, size=(6, 2)))
        m = logpow(1.0)
        assert l_omega(f, scaled(4.0, m)) == pytest.approx(l_omega(f, m) / 4.0, rel=1e-12)

    def test_bi_l_omega_is_max_of_directions(self):
        rng = np.random.default_rng(11)
        src = rng.uniform(0, 0.4, size=(5, 2))
        img = rng.uniform(0, 0.4, size=(5, 2))
        f = FiniteMap(src, img)
        m = identity()
        assert bi_l_omega(f, m) == max(l_omega(f, m), l_omega(f.swapped(), m))

    def test_bi_l_omega_doubling(self):
        pts = np.array([[0.0], [0.3]])
        f = FiniteMap(pts, 2.0 * pts)
        assert bi_l_omega(f, identity()) == 2.0

    def test_bi_l_omega_rejects_duplicates(self):
        f = FiniteMap(np.array([[0.0], [1.0]]), np.array([[2.0], [2.0]]))
        with pytest.raises(InjectivityError):
            bi_l_omega(f, identity())

class TestProperties:
    @given(st.sampled_from(["identity", "holder", "logpow"]),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_strict_monotonicity(self, kind, frac):
        m = {"identity": identity(), "holder": holder(0.5), "logpow": logpow(1.0)}[kind]
        t1 = frac * m.a_omega * 0.999
        t2 = t1 * 1.001
        if t2 < m.a_omega:
            assert m.eval(t1) < m.eval(t2)

    @given(st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_logpow_default_domain_in_class(self, alpha):
        m = logpow(alpha)
        assert check_class_M(m, 16).all_pass


class TestSerialization:
    def test_parse_specs(self):
        assert parse_modulus("identity").kind == "identity"
        assert parse_modulus("holder:0.5").alpha == 0.5
        assert parse_modulus("logpow:0.01").alpha == 0.01
        m = parse_modulus("scaled:2:logpow:1")
        assert m.kind == "scaled" and m.L == 2.0 and m.inner.alpha == 1.0

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from netlab.errors import BudgetError, DomainError, InjectivityError
from netlab.density import ConstantDensity
from netlab.distortion import (
    _distances,
    _local_search,
    Bijection,
    bilip,
    displacement,
    distortion_growth_profile,
    feige_cn_window,
    feige_ls,
    lip,
    min_bilip_exact,
    min_bilip_heuristic,
    min_lip_exact,
    regular_grid,
)

# the batched move scoring divides on the zero diagonal before masking it;
# a warning that escapes it fails the suite
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def enumerate_min_bilip(X, Y):
    """Independent full-enumeration oracle."""
    n = len(X)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        worst = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                dx = float(np.linalg.norm(X[j] - X[i]))
                dy = float(np.linalg.norm(Y[perm[j]] - Y[perm[i]]))
                worst = max(worst, dy / dx, dx / dy)
        best = min(best, worst)
    return best


def enumerate_min_lip(X, Y):
    n = len(X)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        worst = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                dx = float(np.linalg.norm(X[j] - X[i]))
                dy = float(np.linalg.norm(Y[perm[j]] - Y[perm[i]]))
                worst = max(worst, dy / dx)
        best = min(best, worst)
    return best


def _objective(DX, DY, perm, symmetric):
    """Largest pair ratio |f(x)-f(y)| / |x-y| of the pairing ``perm``, and
    with ``symmetric`` also the inverse ratios (the bilipschitz constant)."""
    iu = np.triu_indices(len(perm), k=1)
    dyp = DY[np.ix_(perm, perm)][iu]
    dx = DX[iu]
    if symmetric:
        return float(max((dyp / dx).max(), (dx / dyp).max()))
    return float((dyp / dx).max())


def reference_local_search(DX, DY, symmetric, perm, three_cycles):
    """The local search as a plain loop that re-evaluates the whole
    objective after every move: the oracle for the batched one."""
    n = len(perm)
    perm = perm.copy()
    val = _objective(DX, DY, perm, symmetric)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                perm[i], perm[j] = perm[j], perm[i]
                cand = _objective(DX, DY, perm, symmetric)
                if cand < val:
                    val = cand
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
        if three_cycles:
            for i, j, k in itertools.combinations(range(n), 3):
                for rot in ((j, k, i), (k, i, j)):
                    saved = (perm[i], perm[j], perm[k])
                    perm[i], perm[j], perm[k] = (perm[rot[0]], perm[rot[1]],
                                                 perm[rot[2]])
                    # rotation indices refer to pre-move values
                    cand = _objective(DX, DY, perm, symmetric)
                    if cand < val:
                        val = cand
                        improved = True
                    else:
                        perm[i], perm[j], perm[k] = saved
    return val, perm


def random_instance(seed, n, d=2, spread=10):
    rng = np.random.default_rng(seed)
    while True:
        X = rng.integers(0, spread, size=(n, d)).astype(float)
        Y = rng.integers(0, spread, size=(n, d)).astype(float)
        if (len({tuple(p) for p in X}) == n and len({tuple(p) for p in Y}) == n):
            return X, Y


class TestBasics:
    def test_lip_identity(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 2]])
        b = Bijection(pts, pts, np.arange(3))
        assert lip(b)[0] == 1.0

    def test_lip_doubling(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        b = Bijection(pts, 2 * pts, np.arange(3))
        assert lip(b)[0] == 2.0

    def test_lip_matches_exhaustive(self):
        X, Y = random_instance(5, 4)
        b = Bijection(X, Y, np.arange(4))
        brute = max(
            float(np.linalg.norm(Y[j] - Y[i]) / np.linalg.norm(X[j] - X[i]))
            for i in range(4) for j in range(i + 1, 4))
        assert lip(b)[0] == brute

    def test_translation(self):
        pts = np.array([[0.0, 0], [1, 1], [2, 0]])
        v = np.array([3.0, -2.0])
        b = Bijection(pts, pts + v, np.arange(3))
        rep = bilip(b)
        assert rep.bilip == 1.0
        assert displacement(b) == pytest.approx(np.linalg.norm(v))

    def test_identity_trivial_values(self):
        pts = np.array([[0.0, 0], [1, 1]])
        b = Bijection(pts, pts, np.arange(2))
        assert bilip(b).bilip == 1.0
        assert displacement(b) == 0.0

    def test_bilip_is_max_of_directions(self):
        X, Y = random_instance(11, 6)
        b = Bijection(X, Y, np.arange(6))
        rep = bilip(b)
        assert rep.bilip == max(rep.lip, rep.lip_inv)
        # brute both directions
        fwd = max(float(np.linalg.norm(Y[j] - Y[i]) / np.linalg.norm(X[j] - X[i]))
                  for i in range(6) for j in range(i + 1, 6))
        inv = max(float(np.linalg.norm(X[j] - X[i]) / np.linalg.norm(Y[j] - Y[i]))
                  for i in range(6) for j in range(i + 1, 6))
        assert rep.bilip == max(fwd, inv)

    def test_bilip_invariant_under_inverse(self):
        X, Y = random_instance(3, 5)
        perm = np.array([2, 0, 4, 1, 3])
        b = Bijection(X, Y, perm)
        assert bilip(b).bilip == bilip(b.inverse()).bilip
        assert lip(b)[0] * lip(b.inverse())[0] >= 1.0 - 1e-12

    def test_duplicate_points_raise(self):
        X = np.array([[0.0, 0], [0, 0], [1, 1]])
        Y = np.array([[0.0, 0], [1, 0], [2, 2]])
        with pytest.raises(InjectivityError):
            lip(Bijection(X, Y, np.arange(3)))

    def test_bad_perm_rejected(self):
        with pytest.raises(DomainError):
            Bijection(np.zeros((3, 2)), np.ones((3, 2)), np.array([0, 0, 2]))


class TestExactSearch:
    def test_same_set_gives_one(self):
        X = np.array([[0.0, 0], [1, 0], [0, 1], [2, 2]])
        assert min_bilip_exact(X, X.copy()).bilip == 1.0

    def test_square_corners_doubled(self):
        X = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
        Y = 2.0 * X
        rep = min_bilip_exact(X, Y)
        assert rep.bilip == 2.0
        assert rep.bilip == enumerate_min_bilip(X, Y)

    def test_six_points_vs_line(self):
        rng = np.random.default_rng(17)
        X = np.array([[0, 0], [2, 1], [5, 3], [1, 4], [7, 0], [3, 6]], dtype=float)
        Y = np.array([[i + 1.0, 1.0] for i in range(6)])
        rep = min_bilip_exact(X, Y)
        assert rep.bilip == enumerate_min_bilip(X, Y)

    def test_matches_enumeration_batch(self):
        for seed in range(10):
            n = 4 + seed % 4  # 4..7
            X, Y = random_instance(100 + seed, n)
            rep = min_bilip_exact(X, Y)
            assert rep.method == "exact"
            assert rep.bilip == enumerate_min_bilip(X, Y), f"seed {seed}"

    def test_symmetry(self):
        X, Y = random_instance(23, 6)
        assert min_bilip_exact(X, Y).bilip == min_bilip_exact(Y, X).bilip

    def test_isometry_invariance(self):
        X, Y = random_instance(29, 5)
        theta = 0.7
        Q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        shift = np.array([5.0, -3.0])
        a = min_bilip_exact(X, Y).bilip
        b = min_bilip_exact(X @ Q.T + shift, Y @ Q.T + shift).bilip
        assert a == pytest.approx(b, rel=1e-12)

    def test_scaling_invariance_literal(self):
        X, Y = random_instance(31, 5)
        a = min_bilip_exact(X, Y).bilip
        b = min_bilip_exact(4.0 * X, 4.0 * Y).bilip  # power of two: exact
        assert a == b

    def test_node_limit_downgrades(self):
        X, Y = random_instance(37, 8)
        rep = min_bilip_exact(X, Y, node_limit=10)
        assert rep.method == "heuristic"
        assert rep.lower_bound <= rep.bilip <= rep.upper_bound

    def test_threshold_enforced(self):
        X, Y = random_instance(41, 12)
        with pytest.raises(BudgetError):
            min_bilip_exact(X, Y, exact_threshold=10)


class TestPinnedResults:
    """Values of the two exact searches on fixed instances, recorded from the
    separate bilipschitz and Lipschitz branch and bounds that the shared
    engine replaced, and of the heuristic, recorded from the plain-loop
    local search; results, tie-breaks and node counts must not move."""

    @pytest.mark.parametrize("seed, n, node_limit, bilip, perm, nodes, method", [
        (101, 5, 5_000_000, 3.0, [4, 3, 1, 2, 0], 289, "exact"),
        (104, 7, 5_000_000, 2.1095023109728985, [3, 6, 0, 4, 2, 1, 5], 1082, "exact"),
        (37, 8, 10, 3.1622776601683795, [3, 7, 6, 1, 4, 0, 2, 5], 16, "heuristic"),
        (37, 8, 1000, 2.8284271247461903, [0, 5, 1, 3, 4, 6, 2, 7], 1006, "heuristic"),
    ])
    def test_min_bilip_exact(self, seed, n, node_limit, bilip, perm, nodes, method):
        X, Y = random_instance(seed, n)
        rep = min_bilip_exact(X, Y, node_limit=node_limit)
        assert (rep.bilip, rep.perm.tolist(), rep.nodes, rep.method) == (
            bilip, perm, nodes, method)

    @pytest.mark.parametrize("seed, n, node_limit, value, perm, exhausted", [
        (61, 5, 20_000_000, 2.91547594742265, [0, 1, 4, 2, 3], True),
        (63, 7, 20_000_000, 1.4142135623730951, [3, 2, 0, 6, 4, 5, 1], True),
        (37, 8, 50, 4.47213595499958, [0, 1, 5, 2, 3, 4, 6, 7], False),
    ])
    def test_min_lip_exact(self, seed, n, node_limit, value, perm, exhausted):
        X, Y = random_instance(seed, n)
        val, got, done = min_lip_exact(X, Y, node_limit=node_limit)
        assert (val, got.tolist(), done) == (value, perm, exhausted)

    @pytest.mark.parametrize("seed, n, bilip, perm", [
        (24, 24, 5.0990195135927845,
         [1, 10, 16, 21, 0, 4, 3, 2, 8, 7, 18, 12, 11, 20, 9, 23, 22, 17, 6, 14, 5, 13,
          15, 19]),
        (30, 30, 5.0990195135927845,
         [0, 5, 12, 22, 1, 21, 24, 19, 3, 11, 27, 20, 2, 8, 14, 26, 15, 29, 13, 7, 4, 6,
          10, 16, 25, 23, 9, 17, 28, 18]),
        (36, 36, 4.47213595499958,
         [25, 10, 12, 18, 27, 13, 29, 17, 32, 4, 0, 11, 14, 9, 6, 34, 21, 15, 3, 31, 7, 5,
          24, 23, 8, 26, 30, 1, 22, 16, 33, 35, 20, 19, 28, 2]),
    ])
    def test_min_bilip_heuristic(self, seed, n, bilip, perm):
        X, Y = random_instance(seed, n, spread=16)
        rep = min_bilip_heuristic(X, Y, seed=0, restarts=2)
        assert (rep.bilip, rep.perm.tolist()) == (bilip, perm)


class TestLocalSearchOracle:
    """The batched local search takes the same moves in the same order as
    the plain loop, so value and pairing match it exactly."""

    @pytest.mark.parametrize("n", [*range(3, 13), 16, 20, 26, 33, 40])
    def test_matches_reference_loop(self, n):
        X, Y = random_instance(700 + n, n, spread=20)
        _, _, DX, DY = _distances(X, Y)
        starts = [linear_sum_assignment(cdist(X, Y) ** 2)[1],
                  np.random.default_rng(n).permutation(n)]
        # the reference loop's 3-cycle sweep is O(n^5); keep it to small n
        for three_cycles in ((True, False) if n <= 20 else (False,)):
            for symmetric in (True, False):
                for perm in starts:
                    want = reference_local_search(DX, DY, symmetric, perm, three_cycles)
                    got = _local_search(DX, DY, symmetric, perm, three_cycles)
                    assert (got[0], got[1].tolist()) == (want[0], want[1].tolist())

    def test_matches_reference_loop_past_the_worst_pairs(self):
        # two corners and a neighbour start with rotated targets, so the
        # worst pairs all touch them and a move's largest untouched pair
        # sits deep in the search's list of top pairs
        X = np.array(list(itertools.product(range(5), repeat=2)), dtype=float)
        Y = X.copy()
        Y[12] += 0.3
        _, _, DX, DY = _distances(X, Y)
        perm = np.arange(25)
        perm[[24, 0, 1]] = perm[[0, 1, 24]]
        for three_cycles in (True, False):
            for symmetric in (True, False):
                want = reference_local_search(DX, DY, symmetric, perm, three_cycles)
                got = _local_search(DX, DY, symmetric, perm, three_cycles)
                assert (got[0], got[1].tolist()) == (want[0], want[1].tolist())


class TestInputChecks:
    @pytest.mark.parametrize("X, Y, error", [
        ([[0.0, 0], [1, 0], [0, 1]], [[0.0, 0], [1, 0], [0, 1], [1, 1]], DomainError),
        ([[0.0, 0], [1, 0], [0, 1], [1, 1]], [[0.0, 0], [1, 0], [0, 1]], DomainError),
        ([[0.0, 0]], [[1.0, 1]], DomainError),
        ([[0.0, 0], [1, 0], [0, 1]], [[0.0, 0], [1, 0], [1, 0]], InjectivityError),
    ], ids=["fewer-sources", "fewer-targets", "one-point", "duplicate-targets"])
    def test_min_lip_exact_rejects_malformed_input(self, X, Y, error):
        with pytest.raises(error):
            min_lip_exact(np.array(X), np.array(Y))

    def test_heuristic_needs_two_points(self):
        with pytest.raises(DomainError, match="need at least 2 points"):
            min_bilip_heuristic(np.zeros((1, 2)), np.ones((1, 2)))

    def test_heuristic_needs_a_start(self):
        X, Y = random_instance(5, 4)
        with pytest.raises(DomainError, match="restarts"):
            min_bilip_heuristic(X, Y, restarts=0)

    def test_window_needs_samples(self):
        with pytest.raises(DomainError, match="samples"):
            feige_cn_window(2, 2, [(0, 2), (0, 2)], samples=0)


class TestHeuristic:
    def test_same_set_found_at_init(self):
        X = np.array([[0.0, 0], [1, 0], [0, 1], [3, 3], [5, 1]])
        rep = min_bilip_heuristic(X, X.copy(), restarts=1)
        assert rep.bilip == 1.0

    def test_never_below_exact_and_mostly_equal(self):
        hits = 0
        for seed in range(40):
            X, Y = random_instance(1000 + seed, 6)
            exact = min_bilip_exact(X, Y).bilip
            heur = min_bilip_heuristic(X, Y, seed=seed).bilip
            assert heur >= exact - 1e-12
            hits += heur <= exact * (1 + 1e-12)
        assert hits >= 36  # 90 percent

    def test_diameter_lower_bound_holds(self):
        X, Y = random_instance(53, 7)
        rep = min_bilip_heuristic(X, Y)
        dX = max(np.linalg.norm(a - b) for a in X for b in X)
        dY = max(np.linalg.norm(a - b) for a in Y for b in Y)
        assert rep.lower_bound >= dY / dX - 1e-12
        assert rep.bilip >= rep.lower_bound - 1e-12


class TestFeige:
    def test_grid_itself_is_one(self):
        for n, d in ((2, 2), (3, 1), (2, 3)):
            S = regular_grid(n, d)
            assert feige_ls(S, n, d) == 1.0

    def test_stretched_line_allows_contraction(self):
        S = np.array([[0.0], [2.0], [4.0], [6.0]])
        got = feige_ls(S, 4, 1)
        assert got == enumerate_min_lip(S, regular_grid(4, 1))
        assert got == 0.5

    def test_spot_instance_matches_enumeration(self):
        S = np.array([[0.0, 0], [0, 1], [1, 0], [3, 3]])
        got = feige_ls(S, 2, 2)
        assert got == enumerate_min_lip(S, regular_grid(2, 2))

    def test_cardinality_checked(self):
        with pytest.raises(DomainError):
            feige_ls(np.zeros((3, 2)), 2, 2)

    def test_non_lattice_rejected(self):
        S = np.array([[0.5, 0], [1, 0], [0, 1], [1, 1]])
        with pytest.raises(DomainError):
            feige_ls(S, 2, 2)

    def test_min_lip_matches_enumeration(self):
        rng = np.random.default_rng(3)
        X, Y = random_instance(61, 5)
        val, perm, exhausted = min_lip_exact(X, Y)
        assert exhausted
        assert val == enumerate_min_lip(X, Y)

    def test_window_trivial(self):
        val, S, exact = feige_cn_window(2, 2, [(0, 1), (0, 1)])
        assert exact and val == 1.0
        assert sorted(S) == sorted(itertools.product((0, 1), repeat=2))

    def test_window_monotone_in_window(self):
        small, _, _ = feige_cn_window(2, 2, [(0, 1), (0, 1)])
        bigger, _, _ = feige_cn_window(2, 2, [(0, 2), (0, 2)])
        assert bigger >= small

    def test_budget_error_suggests_sampling(self):
        with pytest.raises(BudgetError, match="samples"):
            feige_cn_window(2, 2, [(0, 9), (0, 9)], budget=10)

    def test_sampling_mode_is_lower_bound(self):
        exact_val, _, _ = feige_cn_window(2, 2, [(0, 2), (0, 2)])
        lo, _, flag = feige_cn_window(2, 2, [(0, 2), (0, 2)], samples=30, seed=5)
        assert not flag
        assert lo <= exact_val + 1e-12

    def test_rerun_determinism(self):
        a = feige_cn_window(2, 2, [(0, 2), (0, 2)])
        b = feige_cn_window(2, 2, [(0, 2), (0, 2)])
        assert a == b


class TestProfile:
    def test_unit_density_stays_tame(self):
        rows = distortion_growth_profile(ConstantDensity(1), [3.0, 4.0], m_cells=1)
        for row in rows:
            assert row.bilip_upper < 2.5
            assert row.diameter_lower <= row.bilip_upper + 1e-12
            assert row.n_points >= 4

    def test_small_instance_matches_exact(self):
        rows = distortion_growth_profile(ConstantDensity(1), [1.6], m_cells=1,
                                         restarts=4)
        assert len(rows) == 1

    def test_scales_must_increase(self):
        with pytest.raises(DomainError):
            distortion_growth_profile(ConstantDensity(1), [2.0, 2.0])

    def test_modulus_column(self):
        from netlab.moduli import identity
        rows = distortion_growth_profile(ConstantDensity(1), [3.0],
                                         modulus=identity(), m_cells=1)
        assert rows[0].bi_l_omega is not None and rows[0].bi_l_omega > 0

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from netlab.errors import ConfigurationError, DomainError
from netlab.moduli import identity
from netlab.geomlab import (
    AffineMap,
    PiecewiseStretch,
    SymdiffReport,
    VolumeEstimate,
    _MC_BLOCK,
    _boundary_points,
    _box_volume,
    _grid_points,
    RadialBump,
    boundary_neighborhood_measure,
    check_statement1,
    check_statement2,
    default_pi_d,
    identity_map,
    image_volume,
    run_algorithm_b1,
    shear_map,
    symdiff_bound_check,
    two_region_stretch,
    volume_diff_check,
)

M_ID = identity()

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestMaps:
    def test_affine_roundtrip(self):
        A = AffineMap([[1.2, 0.3], [-0.1, 0.9]], [0.5, -1.0])
        pts = np.random.default_rng(0).normal(size=(20, 2))
        assert np.allclose(A.invert(A(pts)), pts, atol=1e-12)
        assert A.volume_factor() == pytest.approx(abs(np.linalg.det(A.A)))

    def test_shear_is_measure_preserving(self):
        assert shear_map(0.7).volume_factor() == pytest.approx(1.0)

    def test_radial_bump_roundtrip(self):
        bump = RadialBump([0.3, 0.3], 0.2, 1.5)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(50, 2))
        box = [(-1.0, 1.0), (-1.0, 1.0)]
        assert bump.preimage_in(bump(pts), box).all()
        assert not bump.preimage_in(bump(pts), [(2.0, 4.0), (-1.0, 1.0)]).any()

    @pytest.mark.parametrize("centre, amp", [
        ([0.5, 0.5], -1.0), ([0.5, 0.5], -3.0), ([0.5, 0.5], math.exp(1.5) / 2),
        ([0.5, 0.5], 3.0), ([0.5, 0.5], math.nan), ([0.5, 0.5], math.inf),
        ([0.5, math.inf], 0.1), ([math.nan, 0.5], 0.1)])
    def test_radial_bump_rejects_non_injective_or_non_finite(self, centre, amp):
        with pytest.raises(DomainError):
            RadialBump(centre, amp, 0.5)

    def test_amplitude_range_is_where_the_profile_increases(self):
        # r (1 + a e^{-r^2}) turns back near r^2 = 3/2 once a > e^{3/2}/2
        r = np.linspace(0.0, 3.0, 30_001)
        top = math.exp(1.5) / 2
        assert np.all(np.diff(RadialBump([0.0], 0.999 * top, 1.0)._profile(r)) > 0)
        assert np.any(np.diff(r * (1 + 1.01 * top * np.exp(-r ** 2))) < 0)

    def test_piecewise_stretch_roundtrip_and_endpoints(self):
        h = two_region_stretch(1.0, 0.3, 0.2, 1.5)
        xs = np.linspace(0, 1, 101)[:, None]
        ys = h(xs)
        assert ys[0, 0] == pytest.approx(0.0)
        assert ys[-1, 0] == pytest.approx(1.0)
        assert np.all(np.diff(ys[:, 0]) > 0)
        assert np.allclose(h.invert(ys), xs, atol=1e-12)

    def test_stretch_window_validated(self):
        with pytest.raises(DomainError):
            two_region_stretch(1.0, 0.9, 0.3, 2.0)

    @pytest.mark.parametrize("breaks, slopes", [
        ([0.0, 0.6, 0.2], [1.0, 3.0, 1.0]),       # folds 0.1 and 0.9 onto 0.1
        ([0.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.5], [1.0, math.inf]),
    ], ids=["decreasing-breaks", "nan-break", "inf-slope"])
    def test_piecewise_stretch_rejects_non_injective_or_non_finite(self, breaks, slopes):
        with pytest.raises(DomainError):
            PiecewiseStretch(breaks, slopes, d=2)

    def test_piecewise_stretch_keeps_equal_breaks(self):
        h = two_region_stretch(1.0, 0.3, 0.0, 1.5)
        assert list(h.breaks) == [0.0, 0.3, 0.3]
        assert h(np.array([[1.0]]))[0, 0] == pytest.approx(1.0)

    def test_injectivity_check(self):
        # every class is injective by construction: maps at the edges of
        # what the constructors accept send a 12x12 grid to 144 distinct points
        top = math.exp(1.5) / 2
        maps = [identity_map(2), shear_map(0.7),
                AffineMap([[1.0, 1.0], [1.0, 1.001]]),
                RadialBump([0.5, 0.5], -0.99, 0.3),
                RadialBump([0.5, 0.5], 0.99 * top, 0.3),
                two_region_stretch(1.0, 0.3, 0.0, 1.5, d=2),
                two_region_stretch(1.0, 0.3, 0.2, 1.5, d=2)]
        grid = _grid_points([(0.0, 1.0), (0.0, 1.0)], 12)
        for h in maps:
            assert len(np.unique(h(grid), axis=0)) == 144


class TestStatement1:
    def test_identity_full_omega_zero_residual(self):
        rep = check_statement1(identity_map(1), 0.5, 60, 0.1, M_ID, d=1)
        assert rep.omega == list(range(1, 60))
        assert max(rep.margins.values()) <= -rep.threshold + 1e-12
        assert rep.holds

    def test_affine_full_omega(self):
        A = AffineMap([[1.2, 0.3], [-0.1, 0.9]])
        rep = check_statement1(A, 0.5, 10, 0.1, M_ID, test_grid=5, d=2)
        assert len(rep.omega) == 9
        # residual is zero to round-off: margin = -threshold
        worst = max(rep.margins.values()) + rep.threshold
        assert worst <= 1e-12

    def test_slab_one_stretch_excluded(self):
        c, N = 0.5, 10
        h = two_region_stretch(c, 0.0, c / N, 2.0)
        rep = check_statement1(h, c, N, 0.3, M_ID, d=1)
        assert 1 not in rep.omega
        assert rep.margins[1] > 0

    def test_wide_stretch_defeats_statement1(self):
        c = 0.5
        h = two_region_stretch(c, 0.3 * c, 8 * c / 60, 1.15)
        rep = check_statement1(h, c, 60, 0.1, M_ID, d=1)
        assert not rep.holds
        assert len(rep.omega) < 0.9 * 59


class TestStatement2:
    def test_identity_finds_nothing(self):
        res = check_statement2(identity_map(1), 0.5, 10, 8, 0.01, d=1)
        assert res.z is None

    def test_uniform_doubling_finds_nothing(self):
        res = check_statement2(AffineMap([[2.0]]), 0.5, 10, 8, 0.01, d=1)
        assert res.z is None

    def test_localized_stretch_found(self):
        c, N, M = 0.5, 10, 8
        step = c / (N * M)
        h = two_region_stretch(c, 10 * step, step, 2.0)
        res = check_statement2(h, c, N, M, 0.1, d=1)
        assert res.z is not None
        assert res.z[0] == pytest.approx(10 * step, abs=1e-12)
        assert res.margin > 0

    def test_lexicographic_first(self):
        c, N, M = 0.5, 10, 8
        h = two_region_stretch(c, 0.3 * c, 8 * c / 60, 1.15)
        res = check_statement2(h, c, N, M, 1e-5, d=1)
        # 0.3c = 24 * step with step = c/80; first stretched window wins
        assert res.z[0] == pytest.approx(0.3 * c, abs=1e-12)


class TestAlgorithmB1:
    def test_affine_terminates_immediately(self):
        tr = run_algorithm_b1(identity_map(1), 1, M_ID, 0.1, 0.5, max_iters=3)
        assert tr.p == 1 and tr.branch == 1
        assert tr.modulus_bound_ok
        assert len(tr.steps) == 1 and tr.steps[0].statement1.holds

    def test_two_level_stretch_terminates_at_two(self):
        c = 0.5
        h = two_region_stretch(c, 0.3 * c, 8 * c / 60, 1.15)
        tr = run_algorithm_b1(h, 1, M_ID, 0.1, c, max_iters=4)
        assert tr.p == 2 and tr.branch == 1
        assert tr.offsets[1][0] == pytest.approx(0.3 * c, abs=1e-12)
        # the bound check is reported, not fatal: slope 1.15 > 1
        assert not tr.modulus_bound_ok

    def test_recenters_on_declared_lattice(self):
        c = 0.5
        h = two_region_stretch(c, 0.3 * c, 8 * c / 60, 1.15)
        tr = run_algorithm_b1(h, 1, M_ID, 0.1, c, max_iters=4)
        c2 = c / (60 * 40)
        z = tr.offsets[1][0]
        assert abs(z / c2 - round(z / c2)) < 1e-9

    def test_trace_within_r_when_bound_ok(self):
        from netlab.params import certify_r
        tr = run_algorithm_b1(identity_map(1), 1, M_ID, 0.1, 0.5)
        assert tr.modulus_bound_ok
        assert tr.p <= certify_r(1, M_ID, 0.1, 0.5).r


class TestImageVolume:
    def test_affine_exact(self):
        A = AffineMap([[1.2, 0.3], [-0.1, 0.9]])
        v = image_volume(A, [(0, 2), (0, 1)], mode="auto")
        assert v.mode == "exact"
        assert v.value == pytest.approx(abs(np.linalg.det(A.A)) * 2.0)
        assert v.lower == v.upper == v.value

    def test_identity_grid_brackets_truth(self):
        v = image_volume(identity_map(2), [(0, 1), (0, 1)], mode="grid",
                         budget=40_000)
        assert v.lower <= 1.0 <= v.upper
        assert v.value == pytest.approx(1.0, rel=0.05)

    def test_shear_montecarlo_matches_determinant(self):
        v = image_volume(shear_map(0.3), [(0, 1), (0, 1)], mode="monte_carlo",
                         budget=100_000)
        assert v.lower <= 1.0 <= v.upper

    def test_grid_bracket_contains_mc(self):
        bump = RadialBump([1.5, 0.5], 0.1, 2.0)
        box = [(0.0, 0.25), (0.0, 0.25)]
        g = image_volume(bump, box, mode="grid", budget=40_000)
        mc = image_volume(bump, box, mode="monte_carlo", budget=200_000)
        assert g.lower <= mc.value <= g.upper

    def test_non_injective_rejected(self):
        # no non-injective map reaches image_volume: a singular matrix and a
        # stretch that folds 0.1 and 0.9 onto 0.1 are refused when built
        with pytest.raises(DomainError, match="singular"):
            AffineMap([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(DomainError, match="injectivity"):
            PiecewiseStretch([0.0, 0.6, 0.2], [1.0, 3.0, 1.0], d=2)

    def test_unknown_mode_rejected_before_sampling(self):
        with pytest.raises(ConfigurationError, match="unknown mode"):
            image_volume(identity_map(2), [(0, 1), (0, 1)], mode="raster")


# ---------------------------------------------------------------------------
# brute-force raster oracle: Python sets of cell tuples
# ---------------------------------------------------------------------------

def _cells_of(points, origin, cell):
    return {tuple(int(v) for v in row)
            for row in np.floor((points - origin) / cell).astype(int)}


def _dilate(cells, k, d):
    """Minkowski sum with the cube {-k..k}^d, cell by cell."""
    offsets = list(itertools.product(range(-k, k + 1), repeat=d))
    return {tuple(a + b for a, b in zip(c, off)) for c in cells for off in offsets}


def _oracle_grid_volume(h, box, budget):
    d = len(box)
    G = max(4, int(round(budget ** (1.0 / d) / 2)))
    img = h(_grid_points(box, G))
    img_grid = img.reshape(*([G] * d), d)
    max_step = max(float(np.linalg.norm(np.diff(img_grid, axis=ax), axis=-1).max())
                   for ax in range(d))
    bbox = [(float(img[:, k].min()) - 2 * max_step,
             float(img[:, k].max()) + 2 * max_step) for k in range(d)]
    res = max(8, int(round(budget ** (1.0 / d))))
    cell = max(max(hi - lo for lo, hi in bbox) / res, max_step)
    dil = int(math.ceil(max_step / cell)) + 1
    origin = [lo for lo, _ in bbox]
    cover = _cells_of(img, origin, cell)
    band = _cells_of(h(_boundary_points(box, 4 * G)), origin, cell)
    vol_cell = cell ** d
    return VolumeEstimate(value=len(cover) * vol_cell,
                          lower=len(cover - _dilate(band, dil, d)) * vol_cell,
                          upper=len(_dilate(cover, dil, d)) * vol_cell, mode="grid")


def _oracle_symdiff(f, g, grid_res):
    domain = [(0.0, 1.0), (0.0, 1.0)]
    dense = 4 * grid_res
    pts = _grid_points(domain, dense)
    fi, gi = f(pts), g(pts)
    sup_dist = float(np.linalg.norm(fi - gi, axis=1).max())
    all_img = np.vstack([fi, gi])
    lo = all_img.min(axis=0) - 1e-9
    hi = all_img.max(axis=0) + 1e-9
    cell = float((hi - lo).max()) / grid_res
    Rf, Rg = _cells_of(fi, lo, cell), _cells_of(gi, lo, cell)
    Rb = _cells_of(f(_boundary_points(domain, 8 * grid_res)), lo, cell)
    fi_grid = fi.reshape(dense, dense, 2)
    step_x = np.linalg.norm(np.diff(fi_grid, axis=0), axis=-1).max()
    step_y = np.linalg.norm(np.diff(fi_grid, axis=1), axis=-1).max()
    threshold = sup_dist + float(max(step_x, step_y)) + 2 * cell * math.sqrt(2)
    sym = Rf ^ Rg
    dist, _ = cKDTree((np.array(sorted(Rb)) + 0.5) * cell + lo).query(
        (np.array(sorted(sym)) + 0.5) * cell + lo)
    excess = dist - threshold
    return SymdiffReport(violations=int((excess > 0).sum()),
                         max_excess=float(excess.max()), sup_distance=sup_dist,
                         threshold=threshold, cells_checked=len(sym))


class TestRasterOracle:
    @pytest.mark.parametrize("h, box, budget", [
        (identity_map(2), [(0.0, 1.0), (0.0, 1.0)], 20_000),
        (RadialBump([1.5, 0.5], 0.1, 2.0), [(0.0, 0.25), (0.0, 0.25)], 20_000),
        (two_region_stretch(1.0, 0.3, 0.2, 1.5), [(0.0, 1.0)], 20_000),
        (RadialBump([0.5] * 3, 0.1, 1.0), [(0.0, 1.0)] * 3, 5_000),
        # negative coordinates shift the raster frame off the origin
        (RadialBump([0.5, 0.5], -0.3, 0.5), [(-3.0, -2.0), (5.0, 6.0)], 20_000),
    ], ids=["identity-2d", "bump", "stretch-1d", "bump-3d", "offset-box"])
    def test_grid_volume_matches_set_raster(self, h, box, budget):
        assert image_volume(h, box, mode="grid", budget=budget) == \
            _oracle_grid_volume(h, box, budget)

    def test_symdiff_matches_set_raster(self):
        f, g = identity_map(2), RadialBump([0.5, 0.5], 0.05, 1.0)
        rep = symdiff_bound_check(f, g, grid_res=64)
        assert rep.cells_checked > 0
        assert rep == _oracle_symdiff(f, g, 64)


# ---------------------------------------------------------------------------
# inverse oracle: the radial bump's fixed 100-step bisection
# ---------------------------------------------------------------------------

def reference_invert(self, y):
    y = np.atleast_2d(y)
    v = y - self.center
    s = np.linalg.norm(v, axis=1)
    lo = np.zeros_like(s)
    shrink = min(1.0, 1.0 + self.amp)
    if shrink <= 0:
        raise DomainError("bump amplitude below -1 is not injective")
    hi = s / shrink + self.width
    while np.any(self._profile(hi) < s):
        hi = np.where(self._profile(hi) < s, hi * 2, hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = self._profile(mid) < s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    r = 0.5 * (lo + hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(s[:, None] > 0, v / np.maximum(s, 1e-300)[:, None], 0.0)
    return self.center + unit * r[:, None]


def _reference_in_box(y, bump, box):
    inv = reference_invert(bump, y)
    lo, hi = np.array(box).T
    return np.all((inv >= lo) & (inv <= hi), axis=1)


class TestInverseOracle:
    """``preimage_in`` against the box test of the fixed 100-step bisection's
    inverse, bit for bit."""

    @staticmethod
    def _case(d, amp):
        rng = np.random.default_rng(100 * d + int(10 * amp))
        bump = RadialBump(rng.uniform(0.3, 0.7, d), amp, rng.uniform(0.3, 1.5))
        around = [(0.0, 1.0)] * d                     # holds the centre
        aside = [(c + 0.05, c + 0.45) for c in bump.center]
        return rng, bump, (around, aside)

    @staticmethod
    def _samples(rng, bump, box):
        """Uniform samples over the image, the centre, and images of box
        faces and corners nudged by one ulp each way: their preimages sit
        within ulps of the boundary."""
        faces = _boundary_points(box, 6)
        img = bump(faces)
        uniform = rng.uniform(img.min(axis=0) - 0.2, img.max(axis=0) + 0.2,
                              size=(4000, len(box)))
        return np.vstack([uniform, bump.center, img,
                          bump(np.nextafter(faces, -np.inf)),
                          bump(np.nextafter(faces, np.inf))])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("amp", [-0.6, 0.8, 2.2])
    def test_invert_matches_reference(self, d, amp):
        # the preimage preimage_in decides on is the reference inverse bit
        # for bit: the one-point box at it holds it, the box one ulp above
        # along the first axis does not
        rng, bump, boxes = self._case(d, amp)
        for box in boxes:
            y = self._samples(rng, bump, box)
            y = np.vstack([y[:20], y[-40:]])
            for row, x in zip(y, reference_invert(bump, y)):
                at = [(v, v) for v in x]
                above = [(np.nextafter(x[0], np.inf),) * 2] + at[1:]
                assert bump.preimage_in(row[None, :], at)[0]
                assert not bump.preimage_in(row[None, :], above)[0]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("amp", [-0.6, 0.8, 2.2])
    def test_preimage_in_matches_reference_box_test(self, d, amp):
        rng, bump, (around, aside) = self._case(d, amp)
        for box in (around, aside):
            y = self._samples(rng, bump, box)
            got = bump.preimage_in(y, box)
            assert np.array_equal(got, _reference_in_box(y, bump, box))
            assert 0 < got.sum() < len(y)
        centre = bump.center[None, :]
        assert bump.preimage_in(centre, around)[0]
        assert not bump.preimage_in(centre, aside)[0]


# ---------------------------------------------------------------------------
# Monte-Carlo oracle: the image-volume branch that held every point at once
# ---------------------------------------------------------------------------

def reference_image_volume(h, box, budget, seed):
    d = len(box)
    G = max(4, int(round(budget ** (1.0 / d) / 2)))
    grid = _grid_points(box, G)
    img = h(grid)
    img_grid = img.reshape(*([G] * d), d)
    max_step = 0.0
    for ax in range(d):
        diffs = np.diff(img_grid, axis=ax)
        max_step = max(max_step, float(np.linalg.norm(diffs, axis=-1).max()))
    bbox = [(float(img[:, k].min()) - 2 * max_step,
             float(img[:, k].max()) + 2 * max_step) for k in range(d)]

    rng = np.random.default_rng(seed)
    samples = rng.uniform([lo for lo, _ in bbox], [hi for _, hi in bbox],
                          size=(budget, d))
    p_hat = h.preimage_in(samples, box).mean()
    vb = _box_volume(bbox)
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / budget)
    return VolumeEstimate(value=p_hat * vb, lower=(p_hat - half) * vb,
                          upper=(p_hat + half) * vb, mode="monte_carlo")


_B = _MC_BLOCK
_AFFINE = {1: ([[1.3]], [0.2]),
           2: ([[1.2, 0.3], [-0.1, 0.9]], [0.3, -0.7]),
           3: ([[1.1, 0.2, -0.3], [0.0, 0.8, 0.1], [0.4, -0.2, 1.25]],
               [-0.5, 0.25, 1.5])}
_MC_MAPS = {
    **{f"shear-d{d}": (shear_map(0.3, d=d), d) for d in (2, 3)},
    **{f"affine-d{d}": (AffineMap(*_AFFINE[d]), d) for d in (1, 2, 3)},
    **{f"stretch-d{d}": (two_region_stretch(1.0, 0.3, 0.2, 1.5, d=d), d)
       for d in (1, 2)},
    **{f"bump{amp}-d{d}": (RadialBump([0.4] * d, amp, 0.7), d)
       for amp in (-0.6, 0.8, 2.2) for d in (1, 2, 3)},
}


class TestBlockedMonteCarlo:
    """image_volume's blocked Monte-Carlo branch against the branch that
    drew every sample and every grid point in one array, field for field."""

    @pytest.mark.parametrize("name, budget", [
        *itertools.product(_MC_MAPS, [1, 2, _B - 1, _B, _B + 1, 2 * _B + 1,
                                      3 * _B + 17]),
        # the budgets above leave the d >= 2 grids in one slab; these split them
        ("shear-d2", 1_000_000), ("affine-d2", 1_000_000), ("bump0.8-d2", 300_000),
        ("affine-d3", 600_000), ("shear-d3", 600_000)])
    def test_matches_reference(self, name, budget):
        h, d = _MC_MAPS[name]
        box = [(0.1, 0.6)] * d
        for seed in (0, 3):
            assert image_volume(h, box, mode="monte_carlo", budget=budget,
                                seed=seed) == reference_image_volume(h, box, budget, seed)

    def test_memory_does_not_grow_with_budget(self):
        tracemalloc.start()
        try:
            image_volume(shear_map(0.3), [(0, 0.25), (0, 0.25)],
                         mode="monte_carlo", budget=4_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestVolumeDiff:
    def test_affine_zero_lhs(self):
        A = AffineMap([[1.2, 0.3], [-0.1, 0.9]])
        rep = volume_diff_check(A, 1.0, 4, 1, M_ID, 0.5, d=2)
        assert rep.hypothesis_ok
        assert rep.lhs == 0.0
        assert rep.passed

    def test_translation_zero_lhs(self):
        T = AffineMap(np.eye(2), [0.3, -0.7])
        rep = volume_diff_check(T, 1.0, 4, 2, M_ID, 0.5, d=2)
        assert rep.lhs == 0.0 and rep.passed

    def test_radial_bump_within_bound(self):
        bump = RadialBump([1.5, 0.5], 0.1, 2.0)
        rep = volume_diff_check(bump, 1.0, 4, 1, M_ID, 0.5, d=2,
                                mode="monte_carlo", budget=200_000)
        assert rep.hypothesis_ok
        assert rep.passed
        assert rep.lhs <= rep.rhs + rep.lhs_error
        # the values of the fixed 100-step inverse and its box test
        assert (rep.lhs, rep.rhs, rep.lhs_error) == (
            0.0020751141663460787, 0.25, 0.0001525836726110688)

    def test_hypothesis_violation_is_not_failure(self):
        # a harsh stretch with a tiny eps: slab 1 fails the hypothesis
        h = two_region_stretch(1.0, 0.0, 0.25, 1.8, d=2)
        rep = volume_diff_check(h, 1.0, 4, 1, M_ID, 0.001, d=2,
                                mode="monte_carlo", budget=20_000)
        assert not rep.hypothesis_ok
        assert rep.passed is None

    def test_default_pi_d(self):
        assert default_pi_d(2) == pytest.approx(8.0)
        assert default_pi_d(3) == pytest.approx(8.0 * 3 ** 1.5)


class TestSymdiff:
    def test_equal_maps_empty_difference(self):
        f = identity_map(2)
        rep = symdiff_bound_check(f, f, grid_res=64)
        assert rep.cells_checked == 0 and rep.violations == 0

    def test_translation_within_norm(self):
        f = identity_map(2)
        g = AffineMap(np.eye(2), [0.05, -0.02])
        rep = symdiff_bound_check(f, g, grid_res=64)
        assert rep.violations == 0
        assert rep.sup_distance == pytest.approx(math.hypot(0.05, 0.02))

    @pytest.mark.parametrize("res", [64, 128])
    def test_sheared_map_no_violations(self, res):
        rep = symdiff_bound_check(identity_map(2), shear_map(0.05), grid_res=res)
        assert rep.violations == 0

    @pytest.mark.parametrize("res", [64, 128])
    def test_radial_bump_no_violations(self, res):
        bump = RadialBump([0.5, 0.5], 0.05, 1.0)
        rep = symdiff_bound_check(identity_map(2), bump, grid_res=res)
        assert rep.violations == 0


class TestBoundaryMeasure:
    def test_identity_matches_closed_form(self):
        # outer collar 4 eps + pi eps^2, inner band 4 eps - 4 eps^2
        rows = boundary_neighborhood_measure(identity_map(2), [0.1, 0.05, 0.02],
                                             grid_res=256)
        for row in rows:
            exact = 8 * row.eps + (math.pi - 4) * row.eps ** 2
            assert abs(row.measure - exact) <= row.raster_slack

    def test_zero_eps_window_reaches_both_sides_of_the_ring(self):
        # cell 1/64 exactly: the boundary is a ring of 65x65 cells, and the
        # one-diagonal window is the 63x63 ring inside it plus the 67x67
        # ring outside it, which the raster frame must hold
        (row,) = boundary_neighborhood_measure(identity_map(2), [0.0],
                                               grid_res=64)
        assert row.measure == 4 * 64 / 64 ** 2
        assert row.raster_slack == (4 * 62 + 4 * 66) / 64 ** 2

    def test_monotone_in_eps(self):
        rows = boundary_neighborhood_measure(identity_map(2),
                                             [0.1, 0.05, 0.025, 0.0125],
                                             grid_res=128)
        for a, b in zip(rows, rows[1:]):
            assert b.measure <= a.measure

    def test_parallelogram_closed_form(self):
        s = 0.4
        f = shear_map(s)
        rows = boundary_neighborhood_measure(f, [0.08, 0.04], grid_res=256)
        sin_theta = 1.0 / math.sqrt(1 + s * s)
        perimeter = 2.0 * (1.0 + math.sqrt(1 + s * s))
        for row in rows:
            exact = (perimeter * row.eps + math.pi * row.eps ** 2
                     + perimeter * row.eps - (4.0 / sin_theta) * row.eps ** 2)
            assert abs(row.measure - exact) <= row.raster_slack

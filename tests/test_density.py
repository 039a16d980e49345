import math
from fractions import Fraction

import numpy as np
import pytest

from netlab.errors import ConfigurationError, DomainError
from netlab.density import (
    ChessboardDensity,
    ConstantDensity,
    FamilySchedule,
    TiledFamily,
    _sign_of,
    adjacent_pairs,
    build_nested_families,
    chessboard_psi,
    nesting_measure_report,
    ramp_region_integral,
    schedule_from_trace,
)

F = Fraction

DESK = FamilySchedule(c=F(1), counts=((6, 2), (4, 3), (4, 2)))


def desk_families(levels=3, offsets="zero", seed=None, d=2):
    return build_nested_families(DESK, d=d, levels=levels, offsets=offsets, seed=seed)


def psi_value(rho, x) -> float:
    """psi at a point in float arithmetic: the pointwise oracle of the exact
    integral.  The deepest family whose cube holds x and whose hole does not
    decides the value."""
    xf = [float(v) for v in x]
    for level_idx in range(len(rho.families) - 1, -1, -1):
        fam = rho.families[level_idx]
        lam = float(fam.lam)
        t = tuple(int(math.floor(v / lam)) for v in xf)
        if t not in fam.cubes:
            continue
        box = [(float(lo), float(hi)) for lo, hi in fam.cube_box(t)]
        hole = rho._hole_in(level_idx, t)
        if hole is not None:
            holef = [(float(lo), float(hi)) for lo, hi in hole]
            if all(lo <= v <= hi for v, (lo, hi) in zip(xf, holef)):
                continue  # overwritten by the deeper level
        dist = min(min(v - lo, hi - v) for v, (lo, hi) in zip(xf, box))
        if hole is not None:
            hole_dist = max(
                max(lo - v, v - hi, 0.0) for v, (lo, hi) in zip(xf, holef))
            dist = min(dist, hole_dist)
        ramp = 1.0 if rho.delta == 0 else min(1.0, dist / float(rho.delta))
        return _sign_of(t) * float(rho.xi) * ramp
    return 0.0


class TestAdjacency:
    def test_directed_adjacency(self):
        # only (0,0) -> (1,0): not the transverse neighbour, not the reverse
        fam = TiledFamily(level=1, lam=F(1, 4), cubes=((0, 0), (1, 0), (0, 1)))
        assert list(adjacent_pairs(fam)) == [((0, 0), (1, 0))]


class TestConstruction:
    def test_single_level_row(self):
        fams = desk_families(levels=1)
        fam = fams[0]
        assert len(fam.cubes) == 6
        assert fam.lam == F(1, 6)
        # row tiles [0, c] x [0, c/N]
        assert fam.cubes == tuple((l, 0) for l in range(6))

    def test_level_sidelengths(self):
        fams = desk_families()
        assert fams[0].lam == F(1, 6)
        # c_2 = 1/12, lam_2 = c_2/4
        assert fams[1].lam == F(1, 48)
        # c_3 = c_2/12, lam_3 = c_3/4
        assert fams[2].lam == F(1, 576)

    def test_nesting_exact(self):
        report = nesting_measure_report(desk_families(), d=2)
        assert report.nested_exactly
        assert report.passed

    def test_overlap_ratio_oracle(self):
        # zero offsets: the level-2 row occupies a c_2 x lam_2 box inside
        # the first level-1 cube; count the measure combinatorially
        fams = desk_families(levels=2)
        report = nesting_measure_report(fams, d=2)
        c2, lam2, lam1 = F(1, 12), F(1, 48), F(1, 6)
        expect = (c2 * lam2) / (lam1 * lam1)
        assert report.per_level_max_ratio[0] == expect
        assert report.bounds[0] == F(4, 4)
        assert expect <= report.bounds[0]

    def test_overlap_bound_all_levels(self):
        report = nesting_measure_report(desk_families(), d=2)
        for ratio, bound in zip(report.per_level_max_ratio, report.bounds):
            assert ratio <= bound

    def test_seeded_offsets_reproducible_and_nested(self):
        a = build_nested_families(DESK, d=2, levels=3, offsets="seeded-random", seed=7)
        b = build_nested_families(DESK, d=2, levels=3, offsets="seeded-random", seed=7)
        assert [f.cubes for f in a] == [f.cubes for f in b]
        c = build_nested_families(DESK, d=2, levels=3, offsets="seeded-random", seed=8)
        assert any(f.cubes != g.cubes for f, g in zip(a, c))
        assert nesting_measure_report(a, d=2).passed

    def test_three_dimensional(self):
        fams = build_nested_families(DESK, d=3, levels=2)
        assert nesting_measure_report(fams, d=3).passed

    def test_invalid_schedule_rejected(self):
        bad = FamilySchedule(c=F(1), counts=((1, 2),))
        with pytest.raises(ConfigurationError):
            build_nested_families(bad, d=2, levels=1)

    def test_schedule_from_trace_d1(self):
        from netlab.moduli import identity
        from netlab.params import param_sequence
        tr = param_sequence(1, identity(), 0.1, 0.5, 4)
        sched = schedule_from_trace(tr, 2)
        assert sched.counts[0] == (60, 40)
        fams = build_nested_families(sched, d=1, levels=2)
        assert len(fams[0].cubes) == 60

    def test_schedule_from_trace_d2_refuses_astronomical(self):
        from netlab.moduli import identity
        from netlab.params import param_sequence
        tr = param_sequence(2, identity(), 0.1, 0.1, 2)
        with pytest.raises(ConfigurationError):
            schedule_from_trace(tr, 1)

    def test_family_json_roundtrip(self):
        fam = desk_families(levels=2)[1]
        assert TiledFamily.from_json(fam.to_json()) == fam


class TestRampIntegral:
    def test_full_cube_closed_form(self):
        # integral of min(1, dist/delta) over a cube of side lam:
        # (lam^{d+1} - (lam-2 delta)^{d+1}) / (2 delta (d+1))
        lam, delta = F(1, 4), F(1, 100)
        for d in (1, 2, 3):
            cube = tuple(((F(0), lam),) * d)
            got = ramp_region_integral(cube, None, None, delta)
            expect = (lam ** (d + 1) - (lam - 2 * delta) ** (d + 1)) / (2 * delta * (d + 1))
            assert got == expect

    def test_zero_delta_gives_volume(self):
        cube = ((F(0), F(1, 2)), (F(0), F(1, 3)))
        assert ramp_region_integral(cube, None, None, F(0)) == F(1, 6)

    def test_hole_subtracts_exactly_at_zero_delta(self):
        cube = ((F(0), F(1)), (F(0), F(1)))
        hole = ((F(1, 4), F(1, 2)), (F(0), F(1, 8)))
        got = ramp_region_integral(cube, hole, None, F(0))
        assert got == F(1) - F(1, 4) * F(1, 8)

    def test_clip_restricts(self):
        cube = ((F(0), F(1)), (F(0), F(1)))
        clip = ((F(0), F(1, 2)), (F(0), F(1)))
        assert ramp_region_integral(cube, None, clip, F(0)) == F(1, 2)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(3)
        cube = ((F(0), F(1)), (F(0), F(1)))
        hole = ((F(1, 8), F(3, 8)), (F(1, 8), F(1, 4)))
        delta = F(1, 20)
        exact = float(ramp_region_integral(cube, hole, None, delta))
        pts = rng.uniform(0, 1, size=(200_000, 2))
        inside_hole = ((pts[:, 0] >= 1 / 8) & (pts[:, 0] <= 3 / 8)
                       & (pts[:, 1] >= 1 / 8) & (pts[:, 1] <= 1 / 4))
        d_cube = np.minimum.reduce([pts[:, 0], 1 - pts[:, 0], pts[:, 1], 1 - pts[:, 1]])
        hx = np.maximum.reduce([1 / 8 - pts[:, 0], pts[:, 0] - 3 / 8, np.zeros(len(pts))])
        hy = np.maximum.reduce([1 / 8 - pts[:, 1], pts[:, 1] - 1 / 4, np.zeros(len(pts))])
        d_hole = np.maximum(hx, hy)
        vals = np.minimum(1.0, np.minimum(d_cube, d_hole) / float(delta))
        vals[inside_hole] = 0.0
        est = vals.mean()
        sigma = vals.std() / math.sqrt(len(pts))
        assert abs(est - exact) < 4 * sigma + 1e-12


class TestChessboard:
    def test_one_level_no_smoothing_gap_is_2xi(self):
        fams = desk_families(levels=1)
        rho = chessboard_psi(fams, xi=F(1, 10), smoothing_delta=0)
        for S, S2 in adjacent_pairs(fams[0]):
            assert rho.cube_average_gap(1, S, S2) == F(2, 10)

    def test_property1_zero_outside(self):
        rho = chessboard_psi(desk_families(), xi=F(1, 10),
                             smoothing_delta=F(1, 576) / 100)
        assert rho.check_property1()
        assert psi_value(rho, [10.0, 10.0]) == 0.0
        assert psi_value(rho, [-0.01, 0.05]) == 0.0

    # top: four 1/4-cubes along e1; middle: two 1/16-cubes in the first one;
    # one 1/64-cube below them, inside or outside the top family
    @pytest.mark.parametrize("cube, holds", [
        ((0, 40), False),   # above the top row
        ((40, 2), True),    # in the third top cube, outside the middle row
        ((63, 0), True),    # touches the top row's right edge from inside
        ((64, 0), False),   # just past that edge
    ])
    def test_property1_is_exact(self, cube, holds):
        fams = [TiledFamily(level=1, lam=F(1, 4), cubes=tuple((k, 0) for k in range(4))),
                TiledFamily(level=2, lam=F(1, 16), cubes=((0, 0), (1, 0))),
                TiledFamily(level=3, lam=F(1, 64), cubes=(cube,))]
        rho = ChessboardDensity(base=F(1), xi=F(1, 10), delta=F(0), families=fams)
        assert rho.check_property1() is holds
        # the float oracle sees psi at the cube's centre
        centre = [(k + 0.5) / 64 for k in cube]
        assert abs(psi_value(rho, centre)) == 0.1

    def test_property2_three_levels_smoothed(self):
        fams = desk_families()
        xi = F(1, 10)
        delta = fams[-1].lam / 100
        rho = chessboard_psi(fams, xi=xi, smoothing_delta=delta)
        gaps = rho.check_property2()
        assert len(gaps) > 0
        for level, S, S2, gap in gaps:
            assert gap >= xi

    def test_alternating_signs_pointwise(self):
        fams = desk_families(levels=1)
        rho = chessboard_psi(fams, xi=F(1, 10), smoothing_delta=0)
        lam = float(fams[0].lam)
        v0 = psi_value(rho, [0.5 * lam, 0.5 * lam])
        v1 = psi_value(rho, [1.5 * lam, 0.5 * lam])
        assert v0 == 0.1 and v1 == -0.1

    def test_deeper_level_overwrites(self):
        fams = desk_families(levels=2)
        rho = chessboard_psi(fams, xi=F(1, 10), smoothing_delta=0)
        lam2 = float(fams[1].lam)
        # center of the second deep cube: sign flips relative to its parent
        x = [1.5 * lam2, 0.5 * lam2]
        assert psi_value(rho, x) == -0.1
        x0 = [0.5 * lam2, 0.5 * lam2]
        assert psi_value(rho, x0) == 0.1

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            ChessboardDensity(base=F(1, 20), xi=F(1, 10), delta=0,
                              families=desk_families(levels=1))

    def test_oversized_smoothing_rejected(self):
        fams = desk_families()
        with pytest.raises(DomainError):
            ChessboardDensity(base=F(1), xi=F(1, 10), delta=fams[-1].lam,
                              families=fams)

    def test_bounded_by_xi(self):
        rho = chessboard_psi(desk_families(), xi=F(1, 10),
                             smoothing_delta=F(1, 576) / 100)
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = rng.uniform(-0.1, 1.1, size=2)
            assert abs(psi_value(rho, x)) <= 0.1 + 1e-15

    def test_json_roundtrip(self):
        rho = chessboard_psi(desk_families(levels=2), xi=F(1, 10),
                             smoothing_delta=0)
        rho2 = ChessboardDensity.from_json(rho.to_json())
        assert rho2.psi_integral() == rho.psi_integral()


class TestIntegration:
    def test_constant_base(self):
        rho = ConstantDensity(base=F(5, 2))
        box = ((F(0), F(2)), (F(0), F(3)))
        assert rho.integral(box) == F(15)

    def test_base_plus_full_cube(self):
        # one cube fully inside the box at +xi, no smoothing
        fam = TiledFamily(level=1, lam=F(1, 4), cubes=((0, 0),))
        rho = ChessboardDensity(base=F(1), xi=F(1, 2), delta=F(0), families=[fam])
        box = ((F(-1), F(1)), (F(-1), F(1)))
        assert rho.integral(box) == F(4) + F(1, 2) * F(1, 16)

    def test_additive_over_disjoint_boxes(self):
        rho = chessboard_psi(desk_families(), xi=F(1, 10),
                             smoothing_delta=F(1, 576) / 100)
        left = ((F(0), F(1, 12)), (F(0), F(1, 6)))
        right = ((F(1, 12), F(1, 6)), (F(0), F(1, 6)))
        whole = ((F(0), F(1, 6)), (F(0), F(1, 6)))
        assert rho.psi_integral(left) + rho.psi_integral(right) == rho.psi_integral(whole)

    def test_integral_against_monte_carlo(self):
        fams = desk_families(levels=2)
        rho = chessboard_psi(fams, xi=F(1, 10), smoothing_delta=F(1, 48) / 10)
        box = ((F(0), F(1, 12)), (F(0), F(1, 24)))
        exact = float(rho.psi_integral(box))
        rng = np.random.default_rng(11)
        n = 120_000
        pts = rng.uniform([0, 0], [1 / 12, 1 / 24], size=(n, 2))
        vals = np.array([psi_value(rho, p) for p in pts])
        vol = (1 / 12) * (1 / 24)
        est = vals.mean() * vol
        sigma = vals.std() * vol / math.sqrt(n)
        assert abs(est - exact) < 4 * sigma + 1e-12

    def test_psi_whole_support_integral_cancels_pairs(self):
        # one level, even cube count, no smoothing: alternation cancels
        fams = desk_families(levels=1)
        rho = chessboard_psi(fams, xi=F(1, 10), smoothing_delta=0)
        assert rho.psi_integral() == 0

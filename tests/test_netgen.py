import math
from fractions import Fraction

import numpy as np
import pytest

from netlab.errors import ConfigurationError, DomainError
from netlab.density import ChessboardDensity, ConstantDensity, TiledFamily
from netlab.netgen import (
    PointCloud,
    audit_net,
    construct_net_cube,
    discrepancy_report,
    _floor_dth_root,
)

F = Fraction


def unit_box(d):
    return tuple((F(0), F(1)) for _ in range(d))


class TestFloorRoot:
    def test_exact_squares(self):
        assert _floor_dth_root(F(25), 2) == 5
        assert _floor_dth_root(F(24), 2) == 4
        assert _floor_dth_root(F(125, 2), 2) == 7  # 62.5 -> 7
        assert _floor_dth_root(F(1, 2), 3) == 0

    def test_adjusts_float_estimate(self):
        q = F(10 ** 30)
        k = _floor_dth_root(q, 2)
        assert k ** 2 <= q < (k + 1) ** 2


class TestConstructCube:
    def test_unit_density_recovers_shifted_grid(self):
        rho = ConstantDensity(1)
        res = construct_net_cube(rho, [(0, 10), (0, 10)], 2)
        assert len(res.cloud) == 100
        for cell in res.cells:
            assert cell.mass == 25
            assert cell.n == 5
        got = {tuple(p) for p in res.cloud.points}
        expect = {(i + 0.5, j + 0.5) for i in range(10) for j in range(10)}
        assert got == expect

    def test_density_four_halves_spacing(self):
        res = construct_net_cube(ConstantDensity(4), [(0, 10), (0, 10)], 2)
        assert len(res.cloud) == 400
        for cell in res.cells:
            assert cell.n == 10
        # point count equals the sum of n^d exactly
        assert len(res.cloud) == sum(c.n ** 2 for c in res.cells)

    def test_small_mass_cell_stays_empty(self):
        res = construct_net_cube(ConstantDensity(1), [(0, F(1, 2)), (0, F(1, 2))], 1)
        assert len(res.cloud) == 0
        assert res.empty_cells == [(0, 0)]

    def test_rescaling_against_hand_integral(self):
        # rho = 5/2 on the unit square mapped onto a 10-cube: each of the 4
        # cells carries mass 2.5 * 25 = 62.5, n = 7
        res = construct_net_cube(ConstantDensity(F(5, 2)), [(0, 10), (0, 10)], 2)
        for cell in res.cells:
            assert cell.mass == F(125, 2)
            assert cell.n == 7

    def test_mu_never_exceeds_mass(self):
        fam = TiledFamily(level=1, lam=F(1, 4), cubes=((0, 0), (1, 0), (2, 0), (3, 0)))
        rho = ChessboardDensity(base=F(2), xi=F(1, 2), delta=F(0), families=[fam])
        res = construct_net_cube(rho, [(0, 8), (0, 8)], 4)
        for cell in res.cells:
            assert cell.n ** 2 <= cell.mass

    def test_separation_constant_density(self):
        res = construct_net_cube(ConstantDensity(1), [(0, 10), (0, 10)], 2)
        audit = audit_net(res.cloud, grid_resolution=64)
        assert audit.separation == 1.0
        # lower bound: min over nonempty cells of cell side / n
        floor = min(float(c.box[0][1] - c.box[0][0]) / c.n
                    for c in res.cells if c.n)
        assert audit.separation >= floor - 1e-12
        assert audit.separation == pytest.approx(floor, rel=1e-12)

    def test_rejects_non_cube(self):
        with pytest.raises(DomainError):
            construct_net_cube(ConstantDensity(1), [(0, 2), (0, 3)], 1)


class TestAudit:
    def test_unit_lattice(self):
        pts = np.array([(i, j) for i in range(11) for j in range(11)], dtype=float)
        audit = audit_net(PointCloud(pts), window=((0, 10), (0, 10)),
                          grid_resolution=512)
        assert audit.separation == 1.0
        truth = math.sqrt(2) / 2
        assert audit.net_radius_low <= truth <= audit.net_radius_high
        assert audit.net_radius_high - truth < 0.02

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        audit = audit_net(PointCloud(pts), window=((0, 3), (0, 4)), grid_resolution=16)
        assert audit.separation == 5.0

class TestDiscrepancy:
    def test_exact_grid_zero_discrepancy(self):
        res = construct_net_cube(ConstantDensity(1), [(0, 10), (0, 10)], 2)
        rep = discrepancy_report(res)
        assert rep.max_abs == 0
        assert rep.passed

    def test_hand_arithmetic_case(self):
        # rho = 2.5, l = 10, m = 2: n = 7, disc = (49 - 62.5)/100 = -0.135
        res = construct_net_cube(ConstantDensity(F(5, 2)), [(0, 10), (0, 10)], 2)
        rep = discrepancy_report(res)
        for _, disc in rep.per_cell:
            assert disc == F(-27, 200)
        assert rep.bound == pytest.approx(4 * 2.5 ** 0.5 / 20, rel=1e-12)
        assert rep.passed

    def test_never_overshoots(self):
        fam = TiledFamily(level=1, lam=F(1, 3), cubes=((0, 0), (1, 0), (2, 0)))
        rho = ChessboardDensity(base=F(3, 2), xi=F(1, 3), delta=F(0), families=[fam])
        res = construct_net_cube(rho, [(0, 7), (0, 7)], 3)
        rep = discrepancy_report(res)
        assert rep.never_overshoots

    def test_bound_scales_inverse_l_m(self):
        rho = ConstantDensity(F(5, 2))
        prev = None
        for l, m in [(10, 2), (20, 2), (20, 4), (40, 4)]:
            res = construct_net_cube(rho, [(0, l), (0, l)], m)
            rep = discrepancy_report(res)
            assert rep.within_bound
            expect = 4 * 2.5 ** 0.5 / (l * m)
            assert rep.bound == pytest.approx(expect, rel=1e-12)
            if prev is not None:
                assert rep.bound < prev
            prev = rep.bound


class TestSerialization:
    def test_csv_roundtrip(self):
        cloud = PointCloud(np.array([[0.25, 1.5], [2.0, -3.125]]))
        back = PointCloud.from_csv(cloud.to_csv())
        assert np.array_equal(cloud.points, back.points)

    def test_netf_roundtrip(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.normal(size=(37, 3)))
        blob = cloud.to_netf()
        assert blob[:4] == b"NETF"
        back = PointCloud.from_netf(blob)
        assert np.array_equal(cloud.points, back.points)

    def test_csv_skips_comments_blank_lines_and_one_header(self):
        text = "# tool: netlab\n\nx0,x1\n0.25,1.5\n\n# note\n 2.0 , -3.125 \n"
        back = PointCloud.from_csv(text)
        assert np.array_equal(back.points, [[0.25, 1.5], [2.0, -3.125]])

    @pytest.mark.parametrize("text, message", [
        ("x,y\n0,0\n0,1x\n", "line 3: cannot parse '0,1x'"),
        ("0,1x\n0,0\n", "line 1: cannot parse"),
        ("x,y\n\nx,y\n0,0\n", "line 3: cannot parse 'x,y'"),
        ("0,0\n# c\n1,2,3\n", "line 3: 3 columns, expected 2"),
        ("0,0\n1,nan\n", "line 2: non-finite"),
        ("x\n\n-inf\n", "line 3: non-finite"),
    ], ids=["bad-row", "bad-first-row", "second-header", "column-count",
            "nan", "inf"])
    def test_csv_rejects_bad_rows_naming_the_line(self, text, message):
        with pytest.raises(ConfigurationError, match=message):
            PointCloud.from_csv(text)

    def test_netf_rejects_a_size_off_its_header_and_non_finite(self):
        blob = PointCloud(np.zeros((3, 2))).to_netf()
        with pytest.raises(ConfigurationError, match="truncated in its header"):
            PointCloud.from_netf(blob[:11])
        with pytest.raises(ConfigurationError, match="holds 47 data bytes; its header promises 48"):
            PointCloud.from_netf(blob[:-1])
        with pytest.raises(ConfigurationError, match="holds 49 data bytes"):
            PointCloud.from_netf(blob + b"\0")
        with pytest.raises(ConfigurationError, match="point 1: non-finite"):
            PointCloud.from_netf(blob[:28] + np.array([np.inf]).tobytes() + blob[36:])

    def test_netf_rejects_bad_magic(self):
        with pytest.raises(ConfigurationError):
            PointCloud.from_netf(b"XXXX" + b"\0" * 16)

"""Discretize a density into a separated net and audit the result.

The construction rescales the density onto a cube, partitions the cube into
m^d congruent cells, splits every cell into n^d subcells with n the integer
part of the d-th root of the cell mass, and drops one point at each subcell
centre.  Cell masses and point coordinates are exact rationals whenever the
density integrals are, which makes the discrete-mass discrepancy claims
exact inequalities rather than float comparisons.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigurationError, DomainError

MAGIC = b"NETF"


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


@dataclass
class PointCloud:
    points: np.ndarray
    window: tuple | None = None  # ((lo, hi), ...) floats

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))

    def __len__(self):
        return len(self.points)

    @property
    def d(self):
        return self.points.shape[1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        for p in self.points:
            buf.write(",".join(repr(float(v)) for v in p) + "\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "PointCloud":
        """Rows of comma-separated coordinates.  Blank lines, ``#`` lines and
        one line of column names (no field a number) before the first data
        row are skipped; any other row that does not parse, has another
        column count than the first, or holds NaN or inf raises
        ConfigurationError naming its line."""
        rows, header = [], False
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                if rows or header or any(map(_is_number, line.split(","))):
                    raise ConfigurationError(
                        f"point file line {lineno}: cannot parse {line!r}") from None
                header = True
                continue
            if rows and len(row) != len(rows[0]):
                raise ConfigurationError(
                    f"point file line {lineno}: {len(row)} columns, "
                    f"expected {len(rows[0])}")
            if not all(map(math.isfinite, row)):
                raise ConfigurationError(
                    f"point file line {lineno}: non-finite coordinate")
            rows.append(row)
        return PointCloud(np.array(rows))

    def to_netf(self) -> bytes:
        n, d = self.points.shape
        head = MAGIC + struct.pack("<II", n, d)
        return head + self.points.astype("<f8").tobytes()

    @staticmethod
    def from_netf(blob: bytes) -> "PointCloud":
        if blob[:4] != MAGIC:
            raise ConfigurationError("bad magic in binary point file")
        if len(blob) < 12:
            raise ConfigurationError("binary point file truncated in its header")
        n, d = struct.unpack("<II", blob[4:12])
        if len(blob) - 12 != 8 * n * d:
            raise ConfigurationError(
                f"binary point file holds {len(blob) - 12} data bytes; its header "
                f"promises {8 * n * d} for {n} points of dimension {d}")
        pts = np.frombuffer(blob[12:], dtype="<f8").reshape(n, d)
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=-1))
        if len(bad):
            raise ConfigurationError(
                f"binary point file point {bad[0]}: non-finite coordinate")
        return PointCloud(pts.copy())


@dataclass
class NetAudit:
    separation: float
    net_radius_low: float   # max sampled distance: a certified lower bound
    net_radius_high: float  # + grid slack: a certified upper bound
    grid_slack: float


# ---------------------------------------------------------------------------
# per-cube construction
# ---------------------------------------------------------------------------

def _floor_dth_root(q: Fraction, d: int) -> int:
    if q < 1:
        return 0
    k = max(int(float(q) ** (1.0 / d)), 0)
    while k ** d > q:
        k -= 1
    while (k + 1) ** d <= q:
        k += 1
    return k


@dataclass
class CellRecord:
    index: tuple
    box: tuple        # exact corner/extent of the cell inside the cube
    mass: Fraction    # integral of the rescaled density over the cell
    n: int            # subdivision count (0 legal: the cell stays empty)


@dataclass
class NetCubeResult:
    cloud: PointCloud
    cells: list
    cube: tuple       # ((lo, hi), ...) Fractions
    m: int
    sup_rho: Fraction

    @property
    def empty_cells(self):
        return [c.index for c in self.cells if c.n == 0]


def construct_net_cube(rho, cube, m_k: int) -> NetCubeResult:
    """One point at the centre of each subcell, n per axis, with n the
    integer part of the d-th root of the rescaled cell mass.

    ``cube`` is ((lo, hi), ...) with rational entries; the density lives on
    the unit cube, which the scalar affine change of variables maps onto it.
    """
    if m_k < 1:
        raise DomainError("m_k must be >= 1")
    cube = tuple((Fraction(lo), Fraction(hi)) for lo, hi in cube)
    d = len(cube)
    side = cube[0][1] - cube[0][0]
    for lo, hi in cube:
        if hi - lo != side:
            raise DomainError("net construction needs a cube")
    if side <= 0:
        raise DomainError(f"cube side must be positive, got {side}")

    cells, points = [], []
    cell_side = side / m_k
    for index in np.ndindex(*([m_k] * d)):
        cell = tuple(
            (cube[k][0] + index[k] * cell_side, cube[k][0] + (index[k] + 1) * cell_side)
            for k in range(d))
        # phi multiplies lengths by side
        preimage = tuple(
            ((cell[k][0] - cube[k][0]) / side, (cell[k][1] - cube[k][0]) / side)
            for k in range(d))
        mass = Fraction(rho.integral(preimage)) * side ** d
        n = _floor_dth_root(mass, d)
        cells.append(CellRecord(index=tuple(index), box=cell, mass=mass, n=n))
        if n > 0:
            sub = cell_side / n
            for j in np.ndindex(*([n] * d)):
                points.append([float(cell[k][0] + (2 * j[k] + 1) * sub / 2)
                               for k in range(d)])
    pts = np.array(points) if points else np.empty((0, d))
    window = tuple((float(lo), float(hi)) for lo, hi in cube)
    return NetCubeResult(cloud=PointCloud(pts, window=window), cells=cells,
                         cube=cube, m=m_k, sup_rho=Fraction(rho.sup()))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def audit_net(cloud: PointCloud, window=None, grid_resolution: int = 256) -> NetAudit:
    """Separation = exact minimum pairwise distance; net radius bracketed by
    sampling window cell centres and adding the half cell diagonal."""
    if len(cloud) < 2:
        raise DomainError("need at least 2 points")
    tree = cKDTree(cloud.points)
    dist, _ = tree.query(cloud.points, k=2)
    separation = float(dist[:, 1].min())

    if window is None:
        window = cloud.window
    if window is None:
        raise DomainError("no window to audit the net radius on")
    d = cloud.d
    axes = []
    for lo, hi in window:
        step = (hi - lo) / grid_resolution
        axes.append(np.linspace(lo + step / 2, hi - step / 2, grid_resolution))
    mesh = np.meshgrid(*axes, indexing="ij")
    samples = np.stack([m.ravel() for m in mesh], axis=-1)
    dmax = 0.0
    for chunk in np.array_split(samples, max(1, len(samples) // 200_000)):
        dd, _ = tree.query(chunk, k=1)
        dmax = max(dmax, float(dd.max()))
    slack = 0.5 * math.sqrt(sum(((hi - lo) / grid_resolution) ** 2 for lo, hi in window))
    return NetAudit(separation=separation, net_radius_low=dmax,
                    net_radius_high=dmax + slack, grid_slack=slack)


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------

@dataclass
class DiscrepancyReport:
    per_cell: list          # (index, Fraction discrepancy), rescaled to I^d
    max_abs: Fraction
    bound: float            # 2^d sup(rho)^{(d-1)/d} / (l m^{d-1})
    never_overshoots: bool  # mu <= rho L exactly on every cell
    within_bound: bool

    @property
    def passed(self):
        return self.never_overshoots and self.within_bound


def discrepancy_report(result: NetCubeResult) -> DiscrepancyReport:
    """Per-cell signed discrepancy mu(T) - rho*vol(T), both rescaled to the
    unit cube: (n^d - mass) / l^d.  The floor can only undershoot, and the
    binomial-expansion bound caps the deficit."""
    d = len(result.cube)
    l = result.cube[0][1] - result.cube[0][0]
    per_cell = []
    max_abs = Fraction(0)
    overshoot_free = True
    for cell in result.cells:
        disc = (cell.n ** d - cell.mass) / l ** d
        per_cell.append((cell.index, disc))
        if disc > 0:
            overshoot_free = False
        max_abs = max(max_abs, abs(disc))
    bound = (2 ** d * float(result.sup_rho) ** ((d - 1) / d)
             / (float(l) * result.m ** (d - 1)))
    return DiscrepancyReport(
        per_cell=per_cell, max_abs=max_abs, bound=bound,
        never_overshoots=overshoot_free,
        within_bound=float(max_abs) <= bound,
    )

"""Tiled cube families, the nested row construction, and the chessboard
perturbation density.

All geometry here is exact: sidelengths, cube corners, offsets and every
integral are Fractions.  A family at level i is a row of N_i cubes of
sidelength c_i/N_i placed by accumulated offsets; each deeper row sits
inside exactly one cube of the level above it, which keeps the measure
bookkeeping (nesting ratios, chessboard averages) closed-form rational.

The construction parameters (N_i, M_i) can come from the honest parameter
recursion via ``schedule_from_trace`` (feasible for d = 1) or from a
user-supplied desk-scale schedule: for d >= 2 the faithful N_1 runs past
1e30 cubes, so materialized geometry necessarily runs on small admissible
schedules.  Every verified property (nesting, overlap ratio, chessboard
margins) holds structurally for any admissible schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, DomainError, PropertyViolation

Box = tuple  # ((lo, hi), ...) per axis, Fractions

_MATERIALIZE_CAP = 200_000


def _vol(box) -> Fraction:
    v = Fraction(1)
    for lo, hi in box:
        if hi <= lo:
            return Fraction(0)
        v *= hi - lo
    return v


def _box_meet(a, b):
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if hi <= lo:
            return None
        out.append((lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class TiledFamily:
    """A finite subfamily of the standard lambda-grid: cube t occupies
    t*lam + [0, lam]^d."""

    level: int
    lam: Fraction
    cubes: tuple

    @property
    def d(self) -> int:
        return len(self.cubes[0])

    def cube_box(self, t) -> Box:
        return tuple((k * self.lam, (k + 1) * self.lam) for k in t)

    def union_bounding_box(self) -> Box:
        d = self.d
        lo = [min(t[k] for t in self.cubes) for k in range(d)]
        hi = [max(t[k] for t in self.cubes) + 1 for k in range(d)]
        return tuple((l * self.lam, h * self.lam) for l, h in zip(lo, hi))

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "lambda": str(self.lam),
            "tuples": [list(t) for t in self.cubes],
        }

    @staticmethod
    def from_json(obj) -> "TiledFamily":
        return TiledFamily(
            level=obj["level"],
            lam=Fraction(obj["lambda"]),
            cubes=tuple(tuple(t) for t in obj["tuples"]),
        )


def adjacent_pairs(family: TiledFamily):
    """The pairs (S, S + e1) of the family: adjacency is directed along the
    first axis."""
    cubeset = set(family.cubes)
    for t in family.cubes:
        t2 = (t[0] + 1,) + t[1:]
        if t2 in cubeset:
            yield t, t2


# ---------------------------------------------------------------------------
# nested construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySchedule:
    """The (N_i, M_i) counts driving the row construction, with rational c."""

    c: Fraction
    counts: tuple  # ((N_i, M_i), ...)

    def level_c(self, i: int) -> Fraction:
        out = self.c
        for N, M in self.counts[: i - 1]:
            out /= N * M
        return out

    def sidelength(self, i: int) -> Fraction:
        return self.level_c(i) / self.counts[i - 1][0]


def schedule_from_trace(trace, levels: int) -> FamilySchedule:
    """Lift a parameter trace into an exact schedule.  Refuses schedules too
    large to materialize (the honest d >= 2 counts are astronomical; pass a
    desk-scale schedule instead)."""
    if levels > len(trace.levels):
        raise ConfigurationError(f"trace holds {len(trace.levels)} levels, need {levels}")
    counts = []
    for rec in trace.levels[:levels]:
        if rec.N > _MATERIALIZE_CAP:
            raise ConfigurationError(
                f"level {rec.i} has N={rec.N}: too many cubes to materialize; "
                "supply a desk-scale FamilySchedule")
        counts.append((rec.N, rec.M))
    return FamilySchedule(c=Fraction(trace.c).limit_denominator(10 ** 12),
                          counts=tuple(counts))


def build_nested_families(schedule: FamilySchedule, d: int, levels: int,
                          offsets: str = "zero", origin=None,
                          seed: int | None = None) -> list[TiledFamily]:
    """The nested row families: level i is a row of N_i cubes of sidelength
    c_i/N_i spanning [0, c_i] x [0, c_i/N_i]^{d-1}, translated by the
    accumulated offsets z_1 + ... + z_i.

    Offsets: "zero" pins every z_j to 0; "seeded-random" draws each z_{j+1}
    uniformly from the admissible grid
    c_{j+1} Z^d  intersect  [0, c_j - c_{j+1}] x [0, c_j/N_j - c_{j+1}]^{d-1}.
    """
    if levels < 1 or levels > len(schedule.counts):
        raise ConfigurationError(f"levels={levels} outside schedule range")
    if schedule.c <= 0:
        raise ConfigurationError(f"c must be positive, got {schedule.c}")
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    if offsets not in ("zero", "seeded-random"):
        raise ConfigurationError(f"unknown offsets rule {offsets!r}")
    for N, M in schedule.counts:
        if N < 2 or M < 1:
            raise ConfigurationError("schedule needs N >= 2 and M >= 1 at every level")
    rng = random.Random(seed)
    if origin is None:
        origin = [Fraction(0)] * d
    origin = [Fraction(x) for x in origin]

    families = []
    acc = list(origin)  # accumulated offset, exact
    c_i = schedule.c
    for i in range(1, levels + 1):
        N, M = schedule.counts[i - 1]
        lam = c_i / N
        base = []
        for k in range(d):
            q = acc[k] / lam
            if q.denominator != 1:
                raise ConfigurationError(
                    f"origin/offset at level {i} is not on the level grid")
            base.append(q.numerator)
        cubes = tuple(
            (base[0] + l,) + tuple(base[1:]) for l in range(N)
        )
        families.append(TiledFamily(level=i, lam=lam, cubes=cubes))

        c_next = c_i / (N * M)
        if i < levels:
            if offsets == "zero":
                z = [Fraction(0)] * d
            else:
                # e1 direction: N*M positions; transverse: M positions
                z = [c_next * rng.randrange(N * M)]
                z += [c_next * rng.randrange(M) for _ in range(d - 1)]
            acc = [a + zk for a, zk in zip(acc, z)]
        c_i = c_next
    return families


@dataclass
class NestingReport:
    per_level_max_ratio: list     # Fractions, index i -> max over S in level i
    bounds: list                  # Fractions, 2^d / N_{i+1}
    nested_exactly: bool
    passed: bool


def nesting_measure_report(families: list[TiledFamily], d: int) -> NestingReport:
    """Exact rational check of the nesting inclusion and the per-level
    overlap ratio vol(S intersect union of deeper) <= 2^d/N_{i+1} vol(S)."""
    ratios, bounds = [], []
    nested = True
    for i in range(len(families) - 1):
        fam, deeper = families[i], families[i + 1]
        # inclusion: every deeper cube is covered by the union of this level
        for t in deeper.cubes:
            box = deeper.cube_box(t)
            covered = sum(
                _vol(_box_meet(box, fam.cube_box(s)) or ((Fraction(0), Fraction(0)),) * d)
                for s in fam.cubes
            )
            if covered != _vol(box):
                nested = False
        worst = Fraction(0)
        for s in fam.cubes:
            sbox = fam.cube_box(s)
            inter = Fraction(0)
            for t in deeper.cubes:
                mt = _box_meet(sbox, deeper.cube_box(t))
                if mt is not None:
                    inter += _vol(mt)
            worst = max(worst, inter / _vol(sbox))
        ratios.append(worst)
        N_next = len(deeper.cubes)
        bounds.append(Fraction(2 ** d, N_next))
    passed = nested and all(r <= b for r, b in zip(ratios, bounds))
    return NestingReport(per_level_max_ratio=ratios, bounds=bounds,
                         nested_exactly=nested, passed=passed)


# ---------------------------------------------------------------------------
# exact ramp integration
# ---------------------------------------------------------------------------
# The smoothed chessboard value on a region R = C \ H (cube minus the hole
# carved by the next deeper row) is sign * xi * min(1, dist(x, dR)/delta)
# in the sup metric.  By the layer-cake formula its integral over any box B
# equals the integral over t in [0,1] of
#     vol(B meet C-shrunk-by-t*delta minus H-expanded-by-t*delta),
# a piecewise polynomial in t assembled from per-axis linear overlaps.

def _axis_segments(lowers, uppers):
    """Per-axis overlap max(0, min(uppers) - max(lowers)) as exact linear
    segments ((t0, t1, (p, q)) meaning p + q*t on [t0, t1]), t in [0, 1].

    lowers/uppers are (a, b) pairs meaning a + b*t.
    """
    pts = {Fraction(0), Fraction(1)}
    group = list(lowers) + list(uppers)
    for idx, (a1, b1) in enumerate(group):
        for a2, b2 in group[idx + 1:]:
            if b1 != b2:
                t = Fraction(a2 - a1, b1 - b2)
                if 0 < t < 1:
                    pts.add(t)
    cuts = sorted(pts)
    segs = []
    for t0, t1 in zip(cuts, cuts[1:]):
        tm = (t0 + t1) / 2
        lo = max(lowers, key=lambda ab: ab[0] + ab[1] * tm)
        hi = min(uppers, key=lambda ab: ab[0] + ab[1] * tm)
        p, q = hi[0] - lo[0], hi[1] - lo[1]
        v0, v1 = p + q * t0, p + q * t1
        if v0 <= 0 and v1 <= 0:
            segs.append((t0, t1, (Fraction(0), Fraction(0))))
        elif v0 >= 0 and v1 >= 0:
            segs.append((t0, t1, (p, q)))
        else:
            tz = Fraction(-p, q)
            if v0 < 0:
                segs.append((t0, tz, (Fraction(0), Fraction(0))))
                segs.append((tz, t1, (p, q)))
            else:
                segs.append((t0, tz, (p, q)))
                segs.append((tz, t1, (Fraction(0), Fraction(0))))
    return segs


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_integrate(coeffs, t0, t1):
    total = Fraction(0)
    for k, ck in enumerate(coeffs):
        total += ck * (t1 ** (k + 1) - t0 ** (k + 1)) / (k + 1)
    return total


def _product_integral(axes):
    """Integral over [0,1] of the product of per-axis piecewise-linear
    overlap functions."""
    cuts = {Fraction(0), Fraction(1)}
    for segs in axes:
        for t0, t1, _ in segs:
            cuts.add(t0), cuts.add(t1)
    cuts = sorted(cuts)
    total = Fraction(0)
    for t0, t1 in zip(cuts, cuts[1:]):
        tm = (t0 + t1) / 2
        poly = [Fraction(1)]
        dead = False
        for segs in axes:
            for s0, s1, (p, q) in segs:
                if s0 <= tm <= s1:
                    if p == 0 and q == 0:
                        dead = True
                    poly = _poly_mul(poly, [p, q])
                    break
            if dead:
                break
        if not dead:
            total += _poly_integrate(poly, t0, t1)
    return total


def ramp_region_integral(cube: Box, hole, clip, delta: Fraction) -> Fraction:
    """Exact integral of min(1, dist(x, boundary of cube\\hole)/delta) over
    clip meet (cube \\ hole).  ``hole`` and ``clip`` may be None."""
    delta = Fraction(delta)

    def shrunk_axes(expand_hole):
        axes = []
        for k, (clo, chi) in enumerate(cube):
            lowers = [(clo, delta)]
            uppers = [(chi, -delta)]
            if clip is not None:
                lowers.append((clip[k][0], Fraction(0)))
                uppers.append((clip[k][1], Fraction(0)))
            if expand_hole:
                lowers.append((hole[k][0], -delta))
                uppers.append((hole[k][1], delta))
            axes.append(_axis_segments(lowers, uppers))
        return axes

    total = _product_integral(shrunk_axes(False))
    if hole is not None:
        total -= _product_integral(shrunk_axes(True))
    return total


# ---------------------------------------------------------------------------
# the chessboard density
# ---------------------------------------------------------------------------

def _sign_of(t) -> int:
    return 1 if t[0] % 2 == 0 else -1


@dataclass
class ChessboardDensity:
    """rho = base + psi where psi alternates +-xi across e1-adjacent cubes,
    deeper levels overwrite shallower ones, psi = 0 outside the top family,
    and every piece ramps linearly to 0 within ``delta`` of its boundary
    (which keeps rho continuous for delta > 0)."""

    base: Fraction
    xi: Fraction
    delta: Fraction
    families: list

    def __post_init__(self):
        self.base = Fraction(self.base)
        self.xi = Fraction(self.xi)
        self.delta = Fraction(self.delta)
        if self.xi <= 0:
            raise DomainError("xi must be positive")
        if self.base - self.xi <= 0:
            raise DomainError("positivity needs base > xi")
        if self.families:
            deepest = self.families[-1].lam
            if self.delta >= deepest / 2:
                raise DomainError(
                    f"smoothing delta={self.delta} must stay below half the "
                    f"deepest sidelength {deepest}")

    @property
    def d(self) -> int:
        return self.families[0].d

    # -- geometry helpers ----------------------------------------------------

    def _hole_in(self, level_idx: int, cube) -> Box | None:
        """Bounding box of the next-level row clipped to this cube (the row
        is contiguous, so the clipped union is a single box)."""
        if level_idx + 1 >= len(self.families):
            return None
        deeper = self.families[level_idx + 1]
        row = deeper.union_bounding_box()
        return _box_meet(self.families[level_idx].cube_box(cube), row)

    # -- pointwise evaluation -------------------------------------------------
    # float arithmetic: the pointwise path serves sampling and rendering,
    # exactness lives in the integral path

    def _lookup(self):
        if not hasattr(self, "_cube_sets"):
            self._cube_sets = [set(f.cubes) for f in self.families]
        return self._cube_sets

    def psi_value(self, x) -> float:
        """psi at a point (float in, float out)."""
        cube_sets = self._lookup()
        xf = [float(v) for v in x]
        for level_idx in range(len(self.families) - 1, -1, -1):
            fam = self.families[level_idx]
            lam = float(fam.lam)
            t = tuple(int(math.floor(v / lam)) for v in xf)
            if t not in cube_sets[level_idx]:
                continue
            box = [(float(lo), float(hi)) for lo, hi in fam.cube_box(t)]
            hole = self._hole_in(level_idx, t)
            if hole is not None:
                holef = [(float(lo), float(hi)) for lo, hi in hole]
                if all(lo <= v <= hi for v, (lo, hi) in zip(xf, holef)):
                    continue  # overwritten by the deeper level
            dist = min(min(v - lo, hi - v) for v, (lo, hi) in zip(xf, box))
            if hole is not None:
                hole_dist = max(
                    max(lo - v, v - hi, 0.0) for v, (lo, hi) in zip(xf, holef))
                dist = min(dist, hole_dist)
            ramp = 1.0 if self.delta == 0 else min(1.0, dist / float(self.delta))
            return _sign_of(t) * float(self.xi) * ramp
        return 0.0

    def value(self, x) -> float:
        return float(self.base) + self.psi_value(x)

    def sup(self) -> Fraction:
        return self.base + self.xi

    # -- exact integration ----------------------------------------------------

    def psi_integral(self, box: Box | None = None) -> Fraction:
        """Exact integral of psi over an axis-aligned box (whole support
        when box is None)."""
        total = Fraction(0)
        for level_idx, fam in enumerate(self.families):
            for t in fam.cubes:
                cbox = fam.cube_box(t)
                clip = box
                if clip is not None and _box_meet(cbox, clip) is None:
                    continue
                hole = self._hole_in(level_idx, t)
                total += _sign_of(t) * self.xi * ramp_region_integral(
                    cbox, hole, clip, self.delta)
        return total

    def integral(self, box: Box) -> Fraction:
        """Exact integral of base + psi over the box."""
        return self.base * _vol(box) + self.psi_integral(box)

    def cube_average_gap(self, level: int, S, S2) -> Fraction:
        """(1/vol(S)) |int_S psi - int_{S'} psi| for cubes of one level."""
        fam = self.families[level - 1]
        a = self.psi_integral(fam.cube_box(tuple(S)))
        b = self.psi_integral(fam.cube_box(tuple(S2)))
        return abs(a - b) / _vol(fam.cube_box(tuple(S)))

    # -- chessboard properties --------------------------------------------------

    def check_property1(self, probes=64, seed=0) -> bool:
        """psi vanishes off the top family: probe points outside it."""
        rng = random.Random(seed)
        top = self.families[0]
        bb = top.union_bounding_box()
        d = self.d
        ok = True
        for _ in range(probes):
            x = [float(bb[k][0]) + (float(bb[k][1] - bb[k][0]) + 1.0) * (2 * rng.random() - 0.5)
                 for k in range(d)]
            inside = any(
                all(float(lo) <= xk <= float(hi) for xk, (lo, hi) in zip(x, top.cube_box(t)))
                for t in top.cubes)
            if not inside and self.psi_value(x) != 0.0:
                ok = False
        return ok

    def check_property2(self) -> list:
        """Exact per-pair gaps: [(level, S, S2, gap)] for every e1-adjacent
        pair at every level."""
        out = []
        for fam in self.families:
            for S, S2 in adjacent_pairs(fam):
                out.append((fam.level, S, S2, self.cube_average_gap(fam.level, S, S2)))
        return out

    def to_json(self) -> dict:
        return {
            "base": str(self.base),
            "xi": str(self.xi),
            "delta": str(self.delta),
            "families": [f.to_json() for f in self.families],
        }

    @staticmethod
    def from_json(obj) -> "ChessboardDensity":
        return ChessboardDensity(
            base=Fraction(obj["base"]), xi=Fraction(obj["xi"]),
            delta=Fraction(obj["delta"]),
            families=[TiledFamily.from_json(f) for f in obj["families"]],
        )


def chessboard_psi(families: list[TiledFamily], xi, smoothing_delta,
                   base=None) -> ChessboardDensity:
    """Assemble the chessboard perturbation over a family stack and verify
    the alternating-average property; raises when the smoothing is too large
    to preserve it."""
    xi = Fraction(xi)
    base = Fraction(base) if base is not None else 2 * xi
    rho = ChessboardDensity(base=base, xi=xi, delta=Fraction(smoothing_delta),
                            families=families)
    worst = None
    for level, S, S2, gap in rho.check_property2():
        if gap < xi:
            worst = (level, S, S2, gap)
    if worst is not None:
        raise PropertyViolation(
            f"smoothing destroys the alternating-average property at level "
            f"{worst[0]} pair {worst[1]}->{worst[2]}: gap {float(worst[3]):.6g} < xi")
    return rho


# ---------------------------------------------------------------------------
# plain densities (constant base, no perturbation) share the interface
# ---------------------------------------------------------------------------

@dataclass
class ConstantDensity:
    base: Fraction

    def __post_init__(self):
        self.base = Fraction(self.base)
        if self.base <= 0:
            raise DomainError("density must be positive")

    def value(self, x) -> float:
        return float(self.base)

    def sup(self) -> Fraction:
        return self.base

    def integral(self, box: Box) -> Fraction:
        return self.base * _vol(box)

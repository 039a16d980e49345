"""Numerical exercises for the slab geometry: the translation/stretch
dichotomy, its iteration, image-volume estimation, the adjacent-cube volume
bound, and the raster checks for image symmetric differences and boundary
neighbourhoods.

Test maps are analytic homeomorphisms (affine, shear, radial bump,
piecewise stretch); they stand in for the abstract quantification over all
maps of bounded modulus, giving falsifiable coverage at chosen parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_dilation, distance_transform_edt
from scipy.spatial import cKDTree

from .errors import ConfigurationError, DomainError, ReliabilityError
from .moduli import FiniteMap, Modulus, bi_l_omega
from .params import upsilon_log


# ---------------------------------------------------------------------------
# test-map library
# ---------------------------------------------------------------------------

class AffineMap:
    """x -> A x + b; exact volumes and inverses."""

    kind = "affine"

    def __init__(self, A, b=None, domain=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.d = self.A.shape[0]
        self.b = np.zeros(self.d) if b is None else np.asarray(b, dtype=float)
        self.domain = domain
        self._Ainv = np.linalg.inv(self.A)

    def __call__(self, x):
        return np.atleast_2d(x) @ self.A.T + self.b

    def invert(self, y):
        return (np.atleast_2d(y) - self.b) @ self._Ainv.T

    def preimage_in(self, y, box):
        return _in_box(self.invert(y), box)

    def volume_factor(self):
        return abs(float(np.linalg.det(self.A)))


def identity_map(d, domain=None) -> AffineMap:
    return AffineMap(np.eye(d), domain=domain)


def shear_map(s, d=2, domain=None) -> AffineMap:
    A = np.eye(d)
    A[0, 1] = s
    return AffineMap(A, domain=domain)


def _in_box(points, box):
    """Rows of ``points`` inside the closed box."""
    inside = np.ones(len(points), dtype=bool)
    for k, (lo, hi) in enumerate(box):
        inside &= (points[:, k] >= lo) & (points[:, k] <= hi)
    return inside


_BISECT_STEPS = 100


class RadialBump:
    """x -> x + amp * exp(-|x-c|^2/w^2) (x - c): a smooth radial push.

    The radial profile r (1 + amp e^{-r^2/w^2}) is strictly increasing, so
    the map is a homeomorphism, exactly when -1 < amp < e^{3/2}/2."""

    kind = "radial-bump"

    def __init__(self, center, amp, width, domain=None):
        self.center = np.asarray(center, dtype=float)
        self.amp = float(amp)
        self.width = float(width)
        if not (math.isfinite(self.width) and self.width > 0):
            raise DomainError(f"bump width must be positive and finite, got {width}")
        if not -1.0 < self.amp < math.exp(1.5) / 2:
            raise DomainError(
                f"bump amplitude must lie in (-1, e^1.5/2) for injectivity, got {amp}")
        if not np.all(np.isfinite(self.center)):
            raise DomainError(f"bump centre must be finite, got {center}")
        self.d = len(self.center)
        self.domain = domain

    def _profile(self, r):
        return r * (1.0 + self.amp * np.exp(-(r / self.width) ** 2))

    def __call__(self, x):
        x = np.atleast_2d(x)
        v = x - self.center
        r = np.linalg.norm(v, axis=1)
        factor = 1.0 + self.amp * np.exp(-(r / self.width) ** 2)
        return self.center + v * factor[:, None]

    def _bisect(self, y, settle):
        """Bisect profile(r) = |y - centre| for every row of y: at most 100
        halvings of [0, |y - centre| / min(1, 1 + amp) + width], whose upper
        end first doubles until it clears the root.

        After each step ``settle(lo, hi, idx, unit)`` gets the brackets of
        the rows idx still in the loop and their unit directions from the
        centre (one array per axis, 0 at the centre), and returns a mask of
        the rows it is done with; they leave the loop.  A bracket no later
        step can move comes collapsed to lo == hi == (lo + hi) / 2, the
        radius the 100 steps end on, and settle must take it.  That is every
        bracket after the last step, and one whose midpoint met an end: the
        step is deterministic, so it would repeat itself from then on.
        """
        unit = np.atleast_2d(y) - self.center
        s = np.linalg.norm(unit, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit /= np.maximum(s, 1e-300)[:, None]
        unit[~(s > 0)] = 0.0
        unit = list(unit.T)
        lo = np.zeros_like(s)
        hi = s / min(1.0, 1.0 + self.amp) + self.width
        while np.any(self._profile(hi) < s):
            hi = np.where(self._profile(hi) < s, hi * 2, hi)
        idx = np.arange(len(s))
        for step in range(1, _BISECT_STEPS + 1):
            mid = 0.5 * (lo + hi)
            fixed = (mid == lo) | (mid == hi) | (step == _BISECT_STEPS)
            below = self._profile(mid) < s
            np.copyto(lo, mid, where=below)
            np.copyto(hi, mid, where=~below)
            if fixed.any():
                lo[fixed] = hi[fixed] = 0.5 * (lo[fixed] + hi[fixed])
            keep = ~settle(lo, hi, idx, unit)
            if not keep.any():
                return
            if not keep.all():
                # one array at a time, so each old copy goes as its new one comes
                lo = lo[keep]
                hi = hi[keep]
                s = s[keep]
                idx = idx[keep]
                unit = [u[keep] for u in unit]

    def invert(self, y):
        x = np.full((len(np.atleast_2d(y)), self.d), np.nan)  # NaN rows never settle

        def settle(lo, hi, idx, unit):
            done = lo == hi
            for k, u in enumerate(unit):
                x[idx[done], k] = self.center[k] + u[done] * lo[done]
            return done

        self._bisect(y, settle)
        return x

    def preimage_in(self, y, box):
        """_in_box(invert(y), box), decided from the radius bracket.

        Each coordinate centre + unit * r of the preimage is monotone in r
        under rounding, and the final radius lies in every bracket, so a
        row leaves as soon as both ends of its bracket land inside the box,
        or on one outside side of it along some axis.
        """
        inside = np.zeros(len(np.atleast_2d(y)), dtype=bool)

        def settle(lo, hi, idx, unit):
            is_in = np.ones(len(idx), dtype=bool)
            is_out = np.zeros(len(idx), dtype=bool)
            for c, u, (blo, bhi) in zip(self.center, unit, box):
                a = c + u * lo
                b = c + u * hi
                is_in &= (a >= blo) & (a <= bhi) & (b >= blo) & (b <= bhi)
                is_out |= ((a < blo) & (b < blo)) | ((a > bhi) & (b > bhi))
            done = is_in | is_out
            inside[idx[done]] = is_in[done]
            return done

        self._bisect(y, settle)
        return inside

    def volume_factor(self):
        return None


class PiecewiseStretch:
    """First coordinate passes through an increasing piecewise-linear map;
    the rest stay fixed.  Breakpoints are (t_k, slope on [t_k, t_{k+1}))."""

    kind = "piecewise-stretch"

    def __init__(self, breaks, slopes, d=1, domain=None):
        self.breaks = np.asarray(breaks, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        if np.any(self.slopes <= 0):
            raise DomainError("slopes must be positive for injectivity")
        if len(self.breaks) != len(self.slopes):
            raise DomainError("need one slope per segment start")
        self.d = d
        self.domain = domain
        self._heights = np.concatenate([
            [0.0], np.cumsum(self.slopes[:-1] * np.diff(self.breaks))])

    def _forward_1d(self, t):
        k = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0,
                    len(self.breaks) - 1)
        return self._heights[k] + self.slopes[k] * (t - self.breaks[k]) + self.breaks[0]

    def _inverse_1d(self, y):
        y = y - self.breaks[0]
        k = np.clip(np.searchsorted(self._heights, y, side="right") - 1, 0,
                    len(self.breaks) - 1)
        return self.breaks[k] + (y - self._heights[k]) / self.slopes[k]

    def __call__(self, x):
        x = np.atleast_2d(x).copy()
        x[:, 0] = self._forward_1d(x[:, 0])
        return x

    def invert(self, y):
        y = np.atleast_2d(y).copy()
        y[:, 0] = self._inverse_1d(y[:, 0])
        return y

    def preimage_in(self, y, box):
        return _in_box(self.invert(y), box)

    def volume_factor(self):
        return None


def two_region_stretch(c, start, width, slope, d=1) -> PiecewiseStretch:
    """Slope ``slope`` on [start, start+width] inside [0, c], compensated
    uniformly elsewhere so the endpoints stay fixed (global ratio 1)."""
    if not (0 <= start and 0 <= width and start + width <= c and slope > 0):
        raise DomainError("stretch window must sit inside [0, c]")
    if width >= c:
        raise DomainError("stretch window must leave room to compensate")
    rest = c - width
    comp = (c - slope * width) / rest
    if comp <= 0:
        raise DomainError("stretch too strong to compensate")
    breaks, slopes = [0.0], []
    if start > 0:
        slopes.append(comp)
        breaks.append(start)
    slopes.append(slope)
    if start + width < c:
        breaks.append(start + width)
        slopes.append(comp)
    return PiecewiseStretch(breaks, slopes, d=d)


def injectivity_check(h, box, per_axis: int = 12) -> bool:
    """Pairwise-distinct image samples on a regular grid of the box."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))
    img = h(pts)
    tree = cKDTree(img)
    dist, _ = tree.query(img, k=2)
    return bool(dist[:, 1].min() > 0.0)


# ---------------------------------------------------------------------------
# the dichotomy
# ---------------------------------------------------------------------------

def _slab_box(c, N, i, d):
    lam = c / N
    return [((i - 1) * lam, i * lam)] + [(0.0, lam)] * (d - 1)


def _grid_points(box, per_axis):
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class Statement1Report:
    omega: list
    margins: dict          # slab index -> max residual - threshold
    threshold: float
    holds: bool            # |Omega| >= (1 - eps)(N - 1)
    N: int
    eps: float


def check_statement1(h, c, N, eps, m: Modulus, test_grid: int = 5, d: int = 1,
                     slack: float = 0.0) -> Statement1Report:
    """Grid test of the near-translation inequality on every slab: slab i
    joins Omega iff the residual
    |h(x + (c/N) e1) - h(x) - (h(c e1) - h(0))/N| stays below
    eps * omega(c/N) (+ slack) at every test point."""
    if N < 1 or d < 1:
        raise DomainError(f"need N >= 1 and d >= 1, got N={N}, d={d}")
    lam = c / N
    threshold = eps * m.eval(lam) + slack
    e1 = np.zeros(d)
    e1[0] = lam
    base = (h(np.full((1, d), 0.0) + _unit(d, c)) - h(np.zeros((1, d)))) / N
    omega, margins = [], {}
    for i in range(1, N):
        pts = _grid_points(_slab_box(c, N, i, d), test_grid)
        resid = np.linalg.norm(h(pts + e1) - h(pts) - base, axis=1)
        worst = float(resid.max())
        margins[i] = worst - threshold
        if worst <= threshold:
            omega.append(i)
    holds = len(omega) >= (1.0 - eps) * (N - 1)
    return Statement1Report(omega=omega, margins=margins, threshold=threshold,
                            holds=holds, N=N, eps=eps)


def _unit(d, c):
    v = np.zeros((1, d))
    v[0, 0] = c
    return v


@dataclass
class Statement2Result:
    z: np.ndarray | None
    local_ratio: float | None
    global_ratio: float
    margin: float | None   # local - (1 + phi) * global
    coarsened: bool = False


def check_statement2(h, c, N, M, phi, d: int = 1,
                     budget: int = 2_000_000) -> Statement2Result:
    """First lattice point z (lexicographic) of the c/(NM)-grid whose local
    stretch beats (1 + phi) times the base-point stretch, or None."""
    if N < 1 or M < 1 or d < 1:
        raise DomainError(f"need N, M and d >= 1, got N={N}, M={M}, d={d}")
    step = c / (N * M)
    base = float(np.linalg.norm(h(_unit(d, c)) - h(np.zeros((1, d))))) / c
    counts = [int(N * M)] + [int(M)] * (d - 1)
    total = 1
    for v in counts:
        total *= v
    coarsen = 1
    while total // coarsen ** d > budget:
        coarsen *= 2
    axes = [np.arange(0, counts[k], coarsen) * step for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([v.ravel() for v in mesh], axis=-1)
    e1 = np.zeros(d)
    e1[0] = step
    ratios = np.linalg.norm(h(pts + e1) - h(pts), axis=1) / step
    hits = np.nonzero(ratios > (1.0 + phi) * base)[0]
    if len(hits) == 0:
        return Statement2Result(z=None, local_ratio=None, global_ratio=base,
                                margin=None, coarsened=coarsen > 1)
    k = int(hits[0])  # lexicographic order is the iteration order
    return Statement2Result(
        z=pts[k].copy(), local_ratio=float(ratios[k]), global_ratio=base,
        margin=float(ratios[k] - (1.0 + phi) * base), coarsened=coarsen > 1)


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------

@dataclass
class B1Step:
    i: int
    c_i: float
    N_i: int
    M_i: int
    statement1: Statement1Report
    z_next: np.ndarray | None


@dataclass
class B1Trace:
    p: int
    branch: int            # 1 when statement 1 stopped the loop
    offsets: list          # z_1 = 0, z_2, ...
    steps: list
    bi_l_omega: float
    modulus_bound_ok: bool # biL_omega(h) <= 1 on the sample grid


def run_algorithm_b1(h, d, m: Modulus, eps, c, max_iters: int = 8,
                     schedule=None, test_grid: int = 5,
                     grid_check: int = 9) -> B1Trace:
    """Iterate the dichotomy: stop with branch 1 when the near-translation
    statement holds, otherwise recentre at the located stretch point, shrink
    to the next level and repeat.

    ``schedule`` is an optional list of (N_i, M_i); by default the honest
    parameter recursion supplies it (desk-feasible for d = 1).
    """
    from .params import param_sequence, phi as phi_of

    if max_iters < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
    if schedule is None:
        trace = param_sequence(d, m, eps, c, max_iters)
        schedule = [(rec.N, rec.M) for rec in trace.levels]
        ph = trace.phi
    else:
        ph = phi_of(d, m, eps)

    # modulus bound check on a sample grid of the initial domain
    box0 = [(0.0, c)] + [(0.0, c / schedule[0][0])] * (d - 1)
    pts = _grid_points(box0, grid_check)
    fm = FiniteMap(pts, h(pts))
    bil = bi_l_omega(fm, m)
    bound_ok = bil <= 1.0 + 1e-9

    offsets = [np.zeros(d)]
    shift = np.zeros(d)
    c_i = float(c)
    steps = []
    for i in range(1, max_iters + 1):
        if i > len(schedule):
            raise ConfigurationError(f"schedule exhausted at iteration {i}")
        N_i, M_i = schedule[i - 1]

        def g(x, _shift=shift.copy()):
            return h(np.atleast_2d(x) + _shift)

        rep1 = check_statement1(g, c_i, N_i, eps, m, test_grid=test_grid, d=d)
        if rep1.holds:
            steps.append(B1Step(i=i, c_i=c_i, N_i=N_i, M_i=M_i,
                                statement1=rep1, z_next=None))
            return B1Trace(p=i, branch=1, offsets=offsets, steps=steps,
                           bi_l_omega=bil, modulus_bound_ok=bound_ok)
        rep2 = check_statement2(g, c_i, N_i, M_i, ph, d=d)
        if rep2.z is None:
            raise ReliabilityError(
                f"iteration {i}: statement 1 failed but no stretch point was "
                "found (margins and grids are inconsistent)")
        steps.append(B1Step(i=i, c_i=c_i, N_i=N_i, M_i=M_i,
                            statement1=rep1, z_next=rep2.z))
        offsets.append(rep2.z)
        shift = shift + rep2.z
        c_i = c_i / (N_i * M_i)
    return B1Trace(p=max_iters, branch=2, offsets=offsets, steps=steps,
                   bi_l_omega=bil, modulus_bound_ok=bound_ok)


# ---------------------------------------------------------------------------
# image volumes
# ---------------------------------------------------------------------------

@dataclass
class VolumeEstimate:
    value: float
    lower: float
    upper: float
    mode: str
    failures: int = 0  # always 0; the benchmark tracer reads it


def _box_volume(box):
    return float(np.prod([hi - lo for lo, hi in box]))


def image_volume(h, box, mode: str = "auto", budget: int = 200_000,
                 seed: int = 0) -> VolumeEstimate:
    """Volume of h(box).

    auto: exact via the determinant for affine kinds, else monte_carlo.
    grid: cover counting on a raster of the image with a boundary band;
    the bracket [lower, upper] is a Jordan-style bound up to the sampling
    slack folded into the band width.
    monte_carlo: preimage membership test on bounding-box samples with a
    95 percent binomial interval.  The radial bump decides each sample's
    membership from its radius bracket as soon as the bracket settles it,
    with the same answer as the box test of its full inverse.
    """
    if mode not in ("auto", "grid", "monte_carlo"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if budget < 1:
        raise DomainError(f"budget must be at least 1, got {budget}")
    exact = h.volume_factor() if hasattr(h, "volume_factor") else None
    if mode == "auto":
        if exact is not None:
            v = exact * _box_volume(box)
            return VolumeEstimate(value=v, lower=v, upper=v, mode="exact")
        mode = "monte_carlo"
    d = len(box)
    if not injectivity_check(h, box):
        raise DomainError("map is not injective on the sample grid")

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

    if mode == "grid":
        res = max(8, int(round(budget ** (1.0 / d))))
        # cells never finer than the image sampling step, else cover gaps
        cell = max(max(hi - lo for lo, hi in bbox) / res, max_step)
        dil = int(math.ceil(max_step / cell)) + 1
        (cover, band), _ = _rasters([img, h(_boundary_points(box, 4 * G))],
                                    [lo for lo, _ in bbox], cell, pad=dil)
        # a cube of side 2*dil+1 on a frame padded by dil: the Minkowski sum
        grow = np.ones((2 * dil + 1,) * d, dtype=bool)
        vol_cell = cell ** d
        lower = int((cover & ~binary_dilation(band, grow)).sum()) * vol_cell
        upper = int(binary_dilation(cover, grow).sum()) * vol_cell
        value = int(cover.sum()) * vol_cell
        return VolumeEstimate(value=value, lower=lower, upper=upper, mode="grid")

    if not hasattr(h, "preimage_in"):
        raise ConfigurationError("map exposes no inverse; use grid mode")
    rng = np.random.default_rng(seed)
    samples = rng.uniform([lo for lo, _ in bbox], [hi for _, hi in bbox],
                          size=(budget, d))
    p_hat = h.preimage_in(samples, box).mean()
    vb = _box_volume(bbox)
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / budget)
    return VolumeEstimate(value=p_hat * vb, lower=(p_hat - half) * vb,
                          upper=(p_hat + half) * vb, mode="monte_carlo")


def _boundary_points(box, per_axis):
    d = len(box)
    pts = []
    for k in range(d):
        for side in (0, 1):
            sub = []
            for j, (lo, hi) in enumerate(box):
                if j == k:
                    sub.append(np.array([box[k][side]]))
                else:
                    sub.append(np.linspace(lo, hi, per_axis))
            mesh = np.meshgrid(*sub, indexing="ij")
            pts.append(np.stack([v.ravel() for v in mesh], axis=-1))
    return np.concatenate(pts, axis=0)


def _rasters(point_sets, origin, cell, pad=0):
    """Boolean rasters of point sets on one shared frame.

    A point x lies in lattice cell floor((x - origin) / cell).  The frame
    spans the cells of every set plus ``pad`` empty cells on each side;
    returns the rasters and the frame's first cell index, so lattice cell k
    is entry k - first.
    """
    idx = [np.floor((pts - origin) / cell).astype(int) for pts in point_sets]
    first = np.min([i.min(axis=0) for i in idx], axis=0) - pad
    last = np.max([i.max(axis=0) for i in idx], axis=0) + pad
    rasters = []
    for i in idx:
        raster = np.zeros(last - first + 1, dtype=bool)
        raster[tuple((i - first).T)] = True
        rasters.append(raster)
    return rasters, first


# ---------------------------------------------------------------------------
# adjacent-cube volume bound
# ---------------------------------------------------------------------------

def default_pi_d(d: int) -> float:
    """A valid covering-count constant for the boundary-collar argument."""
    return 2.0 ** d * d ** (d / 2.0)


@dataclass
class VolumeDiffReport:
    lhs: float
    rhs: float
    lhs_error: float
    hypothesis_ok: bool
    passed: bool | None    # None when the hypothesis fails (not a failure)
    slab: int


def volume_diff_check(h, c, N, i, m: Modulus, eps, pi_d: float | None = None,
                      mode: str = "auto", budget: int = 200_000,
                      test_grid: int = 5, d: int = 2,
                      seed: int = 0) -> VolumeDiffReport:
    """Compare |vol h(S_i) - vol h(S_{i+1})| for the e1-adjacent slab cubes
    against the modulus-composition bound with the covering constant pi(d).

    The near-translation hypothesis is checked on S_i only (matching the
    statement); when it fails the result reports hypothesis_ok=False and no
    pass verdict.
    """
    if pi_d is None:
        pi_d = default_pi_d(d)
    rep1 = check_statement1(h, c, N, eps, m, test_grid=test_grid, d=d)
    lam = c / N
    hyp_ok = i in rep1.omega
    S_i = _slab_box(c, N, i, d)
    S_next = _slab_box(c, N, i + 1, d)
    v1 = image_volume(h, S_i, mode=mode, budget=budget, seed=seed)
    v2 = image_volume(h, S_next, mode=mode, budget=budget, seed=seed + 1)
    lhs = abs(v1.value - v2.value)
    lhs_error = (v1.upper - v1.lower) / 2 + (v2.upper - v2.lower) / 2
    rhs = pi_d * math.exp(upsilon_log(d, m, eps, math.log(lam))) * lam ** d
    passed = (lhs <= rhs + lhs_error) if hyp_ok else None
    return VolumeDiffReport(lhs=lhs, rhs=rhs, lhs_error=lhs_error,
                            hypothesis_ok=hyp_ok, passed=passed, slab=i)


# ---------------------------------------------------------------------------
# raster checks: symmetric difference and boundary neighbourhoods
# ---------------------------------------------------------------------------

@dataclass
class SymdiffReport:
    violations: int
    max_excess: float      # worst distance beyond the certified threshold
    sup_distance: float    # sup |f - g| on the sample grid
    threshold: float
    cells_checked: int


def symdiff_bound_check(f, g, grid_res: int = 64,
                        domain=None) -> SymdiffReport:
    """Rasterized check that the image symmetric difference stays inside the
    sup-distance collar of the image boundary.

    Every raster cell met by exactly one of the two images must lie within
    sup|f-g| (+ raster and sampling slack) of the f-boundary raster.
    """
    if domain is None:
        domain = [(0.0, 1.0), (0.0, 1.0)]
    d = len(domain)
    if d != 2:
        raise ConfigurationError("raster checks are two-dimensional")
    if not injectivity_check(f, domain):
        raise DomainError("f is not injective on the sample grid")
    dense = 4 * grid_res
    pts = _grid_points(domain, dense)
    fi, gi = f(pts), g(pts)
    sup_dist = float(np.linalg.norm(fi - gi, axis=1).max())

    all_img = np.vstack([fi, gi])
    lo = all_img.min(axis=0) - 1e-9
    hi = all_img.max(axis=0) + 1e-9
    cell = float((hi - lo).max()) / grid_res

    (Rf, Rg, Rb), first = _rasters(
        [fi, gi, f(_boundary_points(domain, 8 * grid_res))], lo, cell)

    # sampling slack: the raster of a region from point samples is reliable
    # up to the largest image step between neighbouring samples
    fi_grid = fi.reshape(dense, dense, 2)
    step_x = np.linalg.norm(np.diff(fi_grid, axis=0), axis=-1).max()
    step_y = np.linalg.norm(np.diff(fi_grid, axis=1), axis=-1).max()
    slack = float(max(step_x, step_y)) + 2 * cell * math.sqrt(2)
    threshold = sup_dist + slack

    sym = np.argwhere(Rf ^ Rg) + first  # lexicographic cell order
    violations = 0
    max_excess = 0.0
    if len(sym):
        centers = (sym + 0.5) * cell + lo
        bcenters = (np.argwhere(Rb) + first + 0.5) * cell + lo
        tree = cKDTree(bcenters)
        dist, _ = tree.query(centers)
        excess = dist - threshold
        violations = int((excess > 0).sum())
        max_excess = float(excess.max())
    return SymdiffReport(violations=violations, max_excess=max_excess,
                         sup_distance=sup_dist, threshold=threshold,
                         cells_checked=len(sym))


@dataclass
class BoundaryMeasureRow:
    eps: float
    measure: float
    raster_slack: float


def boundary_neighborhood_measure(f, eps_list, grid_res: int = 256,
                                  domain=None) -> list:
    """Raster measure of the eps-neighbourhood of the image boundary of the
    domain box, one row per eps (descending eps stays monotone).

    The slack column brackets the raster error: it is the measure of the
    cells whose centre distance sits within one cell diagonal of the eps
    threshold.
    """
    if not all(eps >= 0 for eps in eps_list):
        raise DomainError(f"eps must be non-negative, got {list(eps_list)}")
    if domain is None:
        domain = [(0.0, 1.0), (0.0, 1.0)]
    if len(domain) != 2:
        raise ConfigurationError("raster checks are two-dimensional")
    if not injectivity_check(f, domain):
        raise DomainError("f is not injective on the sample grid")
    bpts = _boundary_points(domain, 16 * grid_res)
    img = f(bpts)
    pad = max(eps_list) * 1.5
    lo = img.min(axis=0) - pad
    hi = img.max(axis=0) + pad
    cell = float((hi - lo).max()) / grid_res
    diag = cell * math.sqrt(2)
    # the frame holds every cell within max(eps) + diag of the boundary
    (boundary,), _ = _rasters([img], lo, cell,
                              pad=math.ceil((max(eps_list) + diag) / cell))
    dist = distance_transform_edt(~boundary, sampling=cell)
    rows = []
    for eps in eps_list:
        measure = float((dist <= eps).sum()) * cell * cell
        window = float(((dist <= eps + diag) & (dist > max(eps - diag, 0.0))).sum()) * cell * cell
        rows.append(BoundaryMeasureRow(eps=float(eps), measure=measure,
                                       raster_slack=window))
    return rows

"""Distortion of bijections between finite point sets: Lipschitz and
bilipschitz constants, bounded displacement, exact minimum-distortion search
by branch and bound, an assignment + local-search heuristic, and the
desk-scale grid extremal quantities (the best Lipschitz constant onto a
regular grid, and its sup over lattice subsets).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import BudgetError, DomainError, InjectivityError
from .moduli import FiniteMap, bi_l_omega
from .netgen import PointCloud, construct_net_cube


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, PointCloud):
        return obj.points
    return np.atleast_2d(np.asarray(obj, dtype=float))


def _pairwise(points) -> np.ndarray:
    return cdist(points, points)


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """Index arrays (rows, columns) of the pairs i < j among n points; the
    local search asks for them once per move, so they are built once per n."""
    return np.triu_indices(n, k=1)


def _check_distinct(D, what):
    # a pairwise-distance matrix is symmetric with its self-distances on the
    # diagonal, so any zero beyond the diagonal's own is a repeated point
    if np.count_nonzero(D == 0.0) > np.count_nonzero(np.diagonal(D) == 0.0):
        raise InjectivityError(f"duplicate {what} points")


def _distances(X, Y):
    """The input check shared by the searches: equal cardinality, at least
    two points, distinct source and distinct target points.  Returns the
    point arrays and their pairwise distance matrices."""
    X, Y = _as_points(X), _as_points(Y)
    if len(Y) != len(X):
        raise DomainError("cardinalities differ")
    if len(X) < 2:
        raise DomainError("need at least 2 points")
    DX, DY = _pairwise(X), _pairwise(Y)
    _check_distinct(DX, "source")
    _check_distinct(DY, "target")
    return X, Y, DX, DY


@dataclass
class Bijection:
    source: np.ndarray
    target: np.ndarray
    perm: np.ndarray  # source i pairs with target[perm[i]]

    def __post_init__(self):
        self.source = _as_points(self.source)
        self.target = _as_points(self.target)
        self.perm = np.asarray(self.perm, dtype=int)
        if len(self.source) != len(self.target):
            raise DomainError("cardinalities differ")
        if sorted(self.perm.tolist()) != list(range(len(self.source))):
            raise DomainError("perm is not a bijection on the index set")

    def __len__(self):
        return len(self.source)

    def inverse(self) -> "Bijection":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return Bijection(self.target, self.source, inv)

    def as_finite_map(self) -> FiniteMap:
        return FiniteMap(self.source, self.target[self.perm])


@dataclass
class DistortionReport:
    lip: float
    lip_inv: float
    bilip: float
    lip_pair: tuple = None
    lip_inv_pair: tuple = None
    method: str = "exact"
    lower_bound: float = None
    upper_bound: float = None
    perm: np.ndarray = None
    nodes: int = 0


def lip(b: Bijection) -> tuple[float, tuple]:
    """max over pairs of |f(y)-f(x)| / |y-x| and the arg-max pair."""
    if len(b) < 2:
        raise DomainError("need at least 2 points")
    DX = _pairwise(b.source)
    _check_distinct(DX, "source")
    DY = _pairwise(b.target[b.perm])
    iu = _pairs(len(b))
    ratios = DY[iu] / DX[iu]
    k = int(np.argmax(ratios))
    return float(ratios[k]), (int(iu[0][k]), int(iu[1][k]))


def bilip(b: Bijection) -> DistortionReport:
    """max(Lip(f), Lip(f^{-1})) with arg-max pairs for both directions."""
    fwd, fwd_pair = lip(b)
    DY = _pairwise(b.target[b.perm])
    _check_distinct(DY, "target")
    DX = _pairwise(b.source)
    iu = _pairs(len(b))
    inv_ratios = DX[iu] / DY[iu]
    k = int(np.argmax(inv_ratios))
    inv = float(inv_ratios[k])
    return DistortionReport(
        lip=fwd, lip_inv=inv, bilip=max(fwd, inv),
        lip_pair=fwd_pair, lip_inv_pair=(int(iu[0][k]), int(iu[1][k])),
        method="exact", perm=b.perm.copy(),
    )


def displacement(b: Bijection) -> float:
    """sup over points of |f(x) - x|."""
    return float(np.linalg.norm(b.target[b.perm] - b.source, axis=1).max())


def _objective(DX, DY, perm, symmetric):
    """Largest pair ratio |f(x)-f(y)| / |x-y| of the pairing ``perm``, and
    with ``symmetric`` also the inverse ratios (the bilipschitz constant)."""
    iu = _pairs(len(perm))
    dyp = DY[np.ix_(perm, perm)][iu]
    dx = DX[iu]
    if symmetric:
        return float(max((dyp / dx).max(), (dx / dyp).max()))
    return float((dyp / dx).max())


def _trivial_lower_bound(DX, DY):
    iu = _pairs(len(DX))
    diam_x, diam_y = DX[iu].max(), DY[iu].max()
    sep_x, sep_y = DX[iu].min(), DY[iu].min()
    return max(diam_y / diam_x, diam_x / diam_y, sep_y / sep_x, sep_x / sep_y)


# ---------------------------------------------------------------------------
# search engines, shared by the bilipschitz (symmetric) and the Lipschitz
# objective
# ---------------------------------------------------------------------------

def _branch_and_bound(DX, DY, symmetric, best, best_perm, node_limit):
    """Minimum of the objective over all pairings, by branch and bound on
    partial assignments, starting from the incumbent ``(best, best_perm)``.

    A branch dies as soon as its partial pair maximum reaches the incumbent,
    which cannot cut the optimum (the objective only grows along a branch);
    candidate targets are scanned in index order, so results and tie-breaks
    are deterministic.  Returns ``(best, best_perm, nodes, exhausted)``;
    ``exhausted`` is False when the node budget ran out first.
    """
    n = len(DX)
    nodes = 0
    exhausted = True
    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)

    def rec(i, cur):
        nonlocal best, best_perm, nodes, exhausted
        if not exhausted:
            return
        if i == n:
            if cur < best:
                best, best_perm = cur, perm.copy()
            return
        for t in range(n):
            if used[t]:
                continue
            nodes += 1
            if nodes > node_limit:
                exhausted = False
                return
            new = cur
            ok = True
            for j in range(i):
                dx = DX[i, j]
                dy = DY[t, perm[j]]
                ratio = dx / dy if symmetric and dy <= dx else dy / dx
                if ratio > new:
                    new = ratio
                if new >= best:
                    ok = False
                    break
            if ok:
                perm[i] = t
                used[t] = True
                rec(i + 1, new)
                used[t] = False
                perm[i] = -1

    rec(0, 0.0)
    return best, best_perm, nodes, exhausted


def _local_search(DX, DY, symmetric, perm, three_cycles):
    """Descent from ``perm`` by 2-swap moves, followed in each sweep by
    3-cycle moves when ``three_cycles`` is set, until no move lowers the
    objective.  Returns ``(value, perm)``."""
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


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------

def min_bilip_exact(X, Y, node_limit: int = 5_000_000,
                    exact_threshold: int = 10) -> DistortionReport:
    """Global minimum of the bilipschitz constant over all pairings, by
    branch and bound on partial assignments seeded with the heuristic's
    pairing.  If the node budget runs out the incumbent is returned as an
    upper bound with ``method="heuristic"``.
    """
    X, Y, DX, DY = _distances(X, Y)
    n = len(X)
    if n > exact_threshold:
        raise BudgetError(f"{n} points above the exact threshold {exact_threshold}")

    # a heuristic incumbent seeds the pruning; exactness is unaffected
    seed_rep = min_bilip_heuristic(X, Y, seed=0, restarts=1)
    _, best_perm, nodes, exhausted = _branch_and_bound(
        DX, DY, True, seed_rep.bilip, np.array(seed_rep.perm), node_limit)
    rep = bilip(Bijection(X, Y, best_perm))
    rep.nodes = nodes
    rep.lower_bound = _trivial_lower_bound(DX, DY)
    rep.upper_bound = rep.bilip
    if not exhausted:
        rep.method = "heuristic"
    return rep


# ---------------------------------------------------------------------------
# heuristic search
# ---------------------------------------------------------------------------

def min_bilip_heuristic(X, Y, seed: int = 0, restarts: int = 8,
                        three_cycle_max: int = 40) -> DistortionReport:
    """Minimum-cost assignment on squared distances, improved by 2-swap and
    3-cycle moves on the bilipschitz objective until local optimality.

    Reports the best value found (an upper bound) together with the trivial
    lower bound from diameter and separation ratios in both directions.
    3-cycle moves are scanned only up to ``three_cycle_max`` points (the
    neighbourhood grows cubically); local optimality refers to the scanned
    neighbourhood.
    """
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts}")
    X, Y, DX, DY = _distances(X, Y)
    n = len(X)
    rng = np.random.default_rng(seed)

    _, assign = linear_sum_assignment(cdist(X, Y) ** 2)
    starts = [np.asarray(assign)]
    for _ in range(restarts - 1):
        starts.append(rng.permutation(n))

    best_perm, best_val = None, math.inf
    for perm in starts:
        val, perm = _local_search(DX, DY, True, perm, n <= three_cycle_max)
        if val < best_val:
            best_val, best_perm = val, perm

    rep = bilip(Bijection(X, Y, best_perm))
    rep.method = "heuristic"
    rep.upper_bound = rep.bilip
    rep.lower_bound = _trivial_lower_bound(DX, DY)
    return rep


# ---------------------------------------------------------------------------
# grid extremal quantities
# ---------------------------------------------------------------------------

def regular_grid(n: int, d: int) -> np.ndarray:
    """{1, ..., n}^d in lexicographic order."""
    return np.array(list(itertools.product(range(1, n + 1), repeat=d)), dtype=float)


def min_lip_exact(X, Y, node_limit: int = 20_000_000) -> tuple[float, np.ndarray, bool]:
    """Smallest Lip(f) over bijections X -> Y by branch and bound (forward
    ratios only; contractions are allowed, so values below 1 are normal)."""
    _, _, DX, DY = _distances(X, Y)
    best, best_perm, _, exhausted = _branch_and_bound(
        DX, DY, False, math.inf, None, node_limit)
    return best, best_perm, exhausted


def feige_ls(S, n: int, d: int, exact_point_cap: int = 12) -> float:
    """Best Lipschitz constant of a bijection from S onto {1,...,n}^d:
    exact for |S| <= exact_point_cap, heuristic upper bound beyond."""
    S = _as_points(S)
    if len(S) != n ** d:
        raise DomainError(f"|S| = {len(S)} but n^d = {n ** d}")
    if not np.array_equal(S, np.round(S)):
        raise DomainError("S must consist of integer lattice points")
    grid = regular_grid(n, d)
    if len(S) <= exact_point_cap:
        val, _, exhausted = min_lip_exact(S, grid)
        if exhausted:
            return val
    # heuristic: assignment init, 2-swap descent on the Lip objective
    _, _, DX, DY = _distances(S, grid)
    _, perm = linear_sum_assignment(cdist(S, grid) ** 2)
    val, _ = _local_search(DX, DY, False, np.asarray(perm), False)
    return val


def feige_cn_window(n: int, d: int, window, budget: int = 2_000_000,
                    samples: int | None = None, seed: int = 0):
    """sup of the grid constant over all n^d-point subsets of the window
    lattice: exact enumeration at desk scale, seeded random subsets (a
    lower bound) when ``samples`` is given.

    Returns (value, maximizing subset, exact_flag).
    """
    if samples is not None and samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    window = [(int(math.ceil(lo)), int(math.floor(hi))) for lo, hi in window]
    lattice = sorted(itertools.product(*[range(lo, hi + 1) for lo, hi in window]))
    k = n ** d
    if len(lattice) < k:
        raise DomainError("window lattice smaller than n^d")
    total = math.comb(len(lattice), k)
    if samples is None:
        if total > budget:
            raise BudgetError(
                f"{total} subsets exceed the budget {budget}; pass samples= "
                "for a seeded lower-bound scan")
        subsets = itertools.combinations(lattice, k)
        exact = True
    else:
        rng = np.random.default_rng(seed)
        idx = np.arange(len(lattice))
        subsets = (tuple(lattice[i] for i in sorted(rng.choice(idx, size=k, replace=False)))
                   for _ in range(samples))
        exact = False
    best_val, best_S = -math.inf, None
    for S in subsets:
        val = feige_ls(np.array(S, dtype=float), n, d)
        if val > best_val:
            best_val, best_S = val, S
    return best_val, best_S, exact


# ---------------------------------------------------------------------------
# growth profile
# ---------------------------------------------------------------------------

@dataclass
class ProfileRow:
    R: float
    n_points: int
    bilip_upper: float
    diameter_lower: float
    displacement: float
    bi_l_omega: float | None = None


def _lattice_ball(count: int, d: int) -> np.ndarray:
    """The ``count`` integer points closest to the origin (ties broken
    lexicographically): the lattice ball with the radius adjusted to force
    equal cardinality."""
    radius = max(2.0, (count ** (1.0 / d)))
    while True:
        r_int = int(math.ceil(radius))
        pts = [p for p in itertools.product(range(-r_int, r_int + 1), repeat=d)
               if sum(v * v for v in p) <= radius * radius]
        if len(pts) >= count:
            pts.sort(key=lambda p: (sum(v * v for v in p), p))
            return np.array(pts[:count], dtype=float)
        radius *= 1.3


def distortion_growth_profile(rho, scales, modulus=None, d: int = 2,
                              m_cells: int = 2, seed: int = 0,
                              restarts: int = 2) -> list:
    """Per window radius R: build the net of the density on [-R, R]^d, keep
    the points inside the ball, pair them with an equal-cardinality lattice
    ball, and run the heuristic.  Columns are an upper bound (heuristic
    value), the diameter-ratio lower bound, and the displacement of the
    returned pairing; no global-optimality claim is made.
    """
    rows = []
    prev = 0.0
    for R in scales:
        if R <= prev:
            raise DomainError("scales must be increasing")
        prev = R
        res = construct_net_cube(rho, [(-R, R)] * d, m_cells)
        pts = res.cloud.points
        keep = np.linalg.norm(pts, axis=1) <= R
        X = pts[keep]
        if len(X) < 2:
            raise DomainError(f"scale {R}: net too sparse inside the ball")
        Y = _lattice_ball(len(X), X.shape[1])
        rep = min_bilip_heuristic(X, Y, seed=seed, restarts=restarts)
        b = Bijection(X, Y, rep.perm)
        row = ProfileRow(
            R=float(R), n_points=len(X), bilip_upper=rep.bilip,
            diameter_lower=rep.lower_bound,
            displacement=displacement(b),
        )
        if modulus is not None:
            scale = 2.0 * R * math.sqrt(X.shape[1]) / modulus.a_omega
            fm = FiniteMap(X / scale, Y[rep.perm] / scale)
            row.bi_l_omega = bi_l_omega(fm, modulus)
        rows.append(row)
    return rows

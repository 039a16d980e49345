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
    """Index arrays (rows, columns) of the pairs i < j among n points, built
    once per n for the searches and the distortion checks."""
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


# Candidate moves are scored in blocks of about this many new pair ratios
# (moves x moved points x points), which bounds a block's memory at any n.
_BLOCK_RATIOS = 1 << 16

_EXACT_THRESHOLD = 10   # min_bilip_exact refuses more points than this
_THREE_CYCLE_MAX = 40   # the heuristic scans 3-cycles up to this many points
_EXACT_POINT_CAP = 12   # feige_ls searches exactly up to this many points


@functools.lru_cache(maxsize=None)
def _three_cycles(n):
    """Every 3-cycle among n points, in the order the local search tries
    them: triples in ``combinations`` order, rotation (j, k, i) before
    (k, i, j).  Returns ``(moved, source)``: point ``moved[c, u]`` takes the
    target of point ``source[c, u]``."""
    moved = np.repeat(np.array(list(itertools.combinations(range(n), 3)),
                               dtype=np.intp).reshape(-1, 3), 2, axis=0)
    source = np.empty_like(moved)
    source[0::2] = moved[0::2][:, [1, 2, 0]]
    source[1::2] = moved[1::2][:, [2, 0, 1]]
    moved.setflags(write=False)
    source.setflags(write=False)
    return moved, source


def _local_search(DX, DY, symmetric, perm, three_cycles):
    """Descent from ``perm`` by 2-swap moves, followed in each sweep by
    3-cycle moves when ``three_cycles`` is set, until no move lowers the
    objective.  The objective is the largest pair ratio
    |f(x)-f(y)| / |x-y| of the pairing, and with ``symmetric`` also the
    inverse ratios (the bilipschitz constant).  Returns ``(value, perm)``.

    Moves are tried in a fixed order and the first that lowers the
    objective is taken.  They are scored in numpy blocks, each exactly: a
    move changes only the pairs that touch its two or three points, so its
    value is the max of the largest untouched pair, read off a list of the
    current top pairs, and the new ratios of the moved points.  Each ratio
    is the quotient a full evaluation forms (``DX`` and ``DY`` are exactly
    symmetric, as ``cdist`` returns them) and max is exact, so a score
    equals the moved pairing's objective bit for bit."""
    n = len(perm)
    perm = perm.copy()
    iu = _pairs(n)
    # a move touches at most 3n - 6 pairs, so one of the top 3n avoids it
    top = min(3 * n, len(iu[0]))

    def ratios(dy, dx):
        r = dy / dx
        return np.maximum(r, dx / dy) if symmetric else r

    def rank():
        nonlocal top_val, top_a, top_b, dy_cols
        vals = ratios(DY[np.ix_(perm, perm)][iu], DX[iu])
        order = np.argsort(vals)[::-1][:top]
        top_val, top_a, top_b = vals[order], iu[0][order], iu[1][order]
        dy_cols = DY[:, perm]

    def score(moved, source):
        count, size = moved.shape
        rows = np.arange(count)
        new = perm[source]
        outside = np.ones((count, n), dtype=bool)
        outside[rows[:, None], moved] = False
        avoid = outside[:, top_a] & outside[:, top_b]
        first = avoid.argmax(axis=1)
        # every ratio is positive, so 0 stands for "no pair"
        best = np.where(avoid[rows, first], top_val[first], 0.0)
        # the moved points against all others; pairs inside the move are
        # masked here (this touches the zero diagonal) and scored below
        with np.errstate(divide="ignore"):
            r = ratios(dy_cols[new], DX[moved])
        best = np.maximum(best, np.where(outside[:, None, :], r, 0.0).max(axis=(1, 2)))
        for u, v in itertools.combinations(range(size), 2):
            best = np.maximum(best, ratios(DY[new[:, u], new[:, v]],
                                           DX[moved[:, u], moved[:, v]]))
        return best

    def descend(moved, source):
        """One pass over the moves in order; True when one was taken."""
        nonlocal val
        taken = False
        start, block = 0, 1
        cap = max(1, _BLOCK_RATIOS // (moved.shape[1] * n))
        while start < len(moved):
            block = min(block, cap)
            scores = score(moved[start:start + block], source[start:start + block])
            hit = np.flatnonzero(scores < val)
            if hit.size == 0:
                start += block
                block *= 2
                continue
            c = start + hit[0]
            perm[moved[c]] = perm[source[c]]
            val = float(scores[hit[0]])
            rank()
            taken = True
            start, block = c + 1, 1
        return taken

    top_val = top_a = top_b = dy_cols = None
    rank()
    val = float(top_val[0])
    swaps = np.column_stack(iu)
    improved = True
    while improved:
        improved = descend(swaps, swaps[:, ::-1])
        if three_cycles:
            improved |= descend(*_three_cycles(n))
    return val, perm


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------

def min_bilip_exact(X, Y, node_limit: int = 5_000_000) -> DistortionReport:
    """Global minimum of the bilipschitz constant over all pairings, by
    branch and bound on partial assignments seeded with the heuristic's
    pairing.  If the node budget runs out the incumbent is returned as an
    upper bound with ``method="heuristic"``.
    """
    X, Y, DX, DY = _distances(X, Y)
    n = len(X)
    if n > _EXACT_THRESHOLD:
        raise BudgetError(f"{n} points above the exact threshold {_EXACT_THRESHOLD}")

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

def min_bilip_heuristic(X, Y, seed: int = 0, restarts: int = 8) -> DistortionReport:
    """Minimum-cost assignment on squared distances, improved by 2-swap and
    3-cycle moves on the bilipschitz objective until local optimality.

    Reports the best value found (an upper bound) together with the trivial
    lower bound from diameter and separation ratios in both directions.
    3-cycle moves are scanned only up to ``_THREE_CYCLE_MAX`` points (the
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
        val, perm = _local_search(DX, DY, True, perm, n <= _THREE_CYCLE_MAX)
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


def feige_ls(S, n: int, d: int) -> float:
    """Best Lipschitz constant of a bijection from S onto {1,...,n}^d:
    exact for |S| <= _EXACT_POINT_CAP, heuristic upper bound beyond."""
    S = _as_points(S)
    if len(S) != n ** d:
        raise DomainError(f"|S| = {len(S)} but n^d = {n ** d}")
    if not np.array_equal(S, np.round(S)):
        raise DomainError("S must consist of integer lattice points")
    grid = regular_grid(n, d)
    if len(S) <= _EXACT_POINT_CAP:
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


def distortion_growth_profile(rho, scales, modulus=None, m_cells: int = 2,
                              seed: int = 0, restarts: int = 2) -> list:
    """Per window radius R: build the net of the density on [-R, R]^2, keep
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
        res = construct_net_cube(rho, [(-R, R)] * 2, m_cells)
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

"""Workloads of the netlab benchmark: the inputs made from the seed, the jobs
of one pass, and each job's output checks.

A job's ``run`` is the timed part.  Its checks run after the whole pass,
outside the timed region:

* ``problems(out)`` checks invariants that hold for every seed;
* ``summary(out)`` gives the values compared with ``references.json`` under
  the job's ``ref`` key.  Integers, strings (exact rationals) and booleans
  must be equal, floats must agree to ``REL_TOL``, and the fields listed in
  ``no_worse`` (heuristic upper bounds) may only decrease.  Jobs whose
  result depends on the seed carry a reference for ``DEFAULT_SEED`` only.

Two documented CLI crashes are left out of every job list until the change
that fixes them adds them back: ``--rho chessboard:FILE`` fails with
``KeyError: 'base'`` (the ``chessboard`` command writes a ``{meta, result}``
envelope), and ``volume-check --map radial-bump:...`` fails because a
``numpy.bool_`` reaches the JSON encoder.  So ``net_pipeline`` reaches the
chessboard density through the library, and ``raster_geometry`` runs the
radial-bump volume check through the library.

Every job calls netlab through module attributes (``DT.min_bilip_exact``)
at run time, so the traced run sees the calls.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from netlab import cli
from netlab import density as D
from netlab import distortion as DT
from netlab import geomlab as G
from netlab import netgen as NG
from netlab import params as P
from netlab.moduli import identity, logpow

DEFAULT_SEED = 0
REFERENCES_PATH = Path(__file__).with_name("references.json")

# Far-regime inputs: (alpha, eps, c) near the README's params example, d=2,
# c < e^-2.  Their certify_r runs make 16.8k-17.2k model G evaluations and
# kappa 25.0k-25.4k, so the seed changes the input and not the work.
FAR_POOL = ((0.01, 0.1, 0.1), (0.012, 0.102, 0.1), (0.008, 0.1, 0.095),
            (0.008, 0.098, 0.095), (0.013, 0.1, 0.095), (0.014, 0.102, 0.095))
R_REL_TOL = 1e-15
REL_TOL = 1e-9  # floats compared with a stored reference

NET_SCHEDULES = (((6, 2), (4, 3), (4, 2)), ((6, 2), (4, 3), (4, 2), (4, 2)),
                 ((8, 2), (4, 2), (4, 2)), ((6, 3), (4, 2), (4, 2), (4, 2)))
NET_XI = Fraction(1, 10)
NET_SIDE = 530          # about 50k points from m=32 cells
NET_M = 32
AUDIT_RES = 512
CLI_RHO = Fraction(3)   # net-build const:3 on a 120-cube, m=8: 40k points
CLI_SIDE = 120
CLI_M = 8

EXACT_SIZES = (8, 9)
HEURISTIC_SIZES = (24, 30, 36)
HEURISTIC_BASE_SEED = 20190312  # fixed stream of the heuristic instances

BOUNDARY_EPS = (0.1, 0.05, 0.02)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    problems: Callable[[object], list] | None = None
    summary: Callable[[object], dict] | None = None
    ref: str | None = None
    no_worse: tuple = ()


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def build(workload: str, seed: int, work: Path, refs: dict, extras: dict) -> list:
    """The job list of one pass.  ``extras`` collects values the checks
    measure, such as ``params.r_rel_err``."""
    return JOB_LISTS[workload](seed, work, refs, extras)


def check(job: Job, out, refs: dict) -> list:
    found = list(job.problems(out)) if job.problems else []
    if job.ref is not None and job.summary is not None:
        want = refs.get(job.ref)
        if want is None:
            found.append(f"no stored reference {job.ref!r}")
        else:
            found += _compare(job.summary(out), want, job, job.ref)
    return found


def _compare(got, want, job, where) -> list:
    if isinstance(want, dict):
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
                continue
            if key in job.no_worse:
                out += _no_worse(got[key], value, f"{where}.{key}")
            else:
                out += _compare(got[key], value, job, f"{where}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += _compare(g, w, job, f"{where}[{k}]")
        return out
    if isinstance(want, float):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return [f"{where}: {got!r} differs from {want!r} beyond rel {REL_TOL}"]
        return []
    if got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def _no_worse(got, want, where) -> list:
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [p for k, (g, w) in enumerate(zip(got, want))
                for p in _no_worse(g, w, f"{where}[{k}]")]
    if got > want * (1 + 1e-12):
        return [f"{where}: {got!r} worse than the reference {want!r}"]
    return []


def _seed_ref(seed, key):
    """``key`` for a reference stored for the default seed only."""
    return key if seed == DEFAULT_SEED else None


# ---------------------------------------------------------------------------
# far_regime
# ---------------------------------------------------------------------------

def far_key(alpha, eps, c) -> str:
    return f"far_regime/logpow:{alpha!r}/eps:{eps!r}/c:{c!r}"


def _r_error(r, ref, extras) -> list:
    r_hp = int(ref["r_hp"])
    err = abs(r - r_hp) / r_hp
    extras["params.r_rel_err"] = max(extras.get("params.r_rel_err", 0.0), err)
    if err > R_REL_TOL:
        return [f"r={r} is {err:.3e} away from the raised-precision reference {r_hp}"]
    return []


def far_regime(seed, work, refs, extras) -> list:
    """The README params command through cli.main (certify_r and kappa),
    then one more certify_r on another pool entry."""
    first = FAR_POOL[seed % len(FAR_POOL)]
    second = FAR_POOL[(seed + 1) % len(FAR_POOL)]
    ref_a, ref_b = refs[far_key(*first)], refs[far_key(*second)]
    prefix = str(work / "params")
    argv = ["params", "--d", "2", "--modulus", f"logpow:{first[0]!r}",
            "--eps", repr(first[1]), "--c", repr(first[2]), "--out", prefix]

    def params_problems(code):
        if code != 0:
            return [f"netlab params exited {code}"]
        with open(prefix + ".json") as fh:
            res = json.load(fh)["result"]
        with open(prefix + ".csv") as fh:
            rows = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
        found = _r_error(int(res["r"]), ref_a, extras)
        if res["r_mode"] != "extrapolated":
            found.append(f"r_mode {res['r_mode']!r}")
        if not math.isclose(res["kappa"], ref_a["kappa"], rel_tol=REL_TOL, abs_tol=0.0):
            found.append(f"kappa {res['kappa']!r} != reference {ref_a['kappa']!r}")
        if len(rows) != 1 + 48:  # header plus max_levels rows
            found.append(f"trace CSV has {len(rows) - 1} level rows, expected 48")
        return found

    alpha, eps, c = second
    m = logpow(alpha)

    def certify_problems(cert):
        found = _r_error(cert.r, ref_b, extras)
        if cert.mode != "extrapolated":
            found.append(f"mode {cert.mode!r}")
        if not cert.margin >= 0.0:
            found.append(f"margin at r is {cert.margin!r} < 0")
        prev = P.num_iter_margin(2, m, eps, c, cert.r - 1)
        if not prev < 0.0:
            found.append(f"margin at r-1 is {prev!r} >= 0")
        return found

    return [
        Job("params_cli", lambda: cli.main(argv), problems=params_problems),
        Job("certify_r", lambda: P.certify_r(2, m, eps, c), problems=certify_problems),
    ]


# ---------------------------------------------------------------------------
# net_pipeline
# ---------------------------------------------------------------------------

def _net_instance(tag, counts, fam_seed, work, ref) -> list:
    state = {}
    sched = D.FamilySchedule(c=Fraction(1), counts=counts)
    levels = len(counts)
    cube = [(0, NET_SIDE), (0, NET_SIDE)]
    path = str(work / tag)

    def families():
        state["fams"] = D.build_nested_families(
            sched, d=2, levels=levels, offsets="seeded-random", seed=fam_seed)
        return state["fams"]

    def families_problems(fams):
        if len(fams) != levels:
            return [f"{len(fams)} levels, expected {levels}"]
        return [f"level {i}: {len(f.cubes)} cubes of side {f.lam}"
                for i, f in enumerate(fams, start=1)
                if len(f.cubes) != counts[i - 1][0] or f.lam != sched.sidelength(i)]

    def nesting_problems(rep):
        found = [] if rep.nested_exactly else ["families do not nest"]
        found += [f"overlap ratio {r} above {b}"
                  for r, b in zip(rep.per_level_max_ratio, rep.bounds) if r > b]
        return found

    def chessboard():
        fams = state["fams"]
        state["rho"] = D.chessboard_psi(fams, xi=NET_XI, smoothing_delta=fams[-1].lam / 100)
        return state["rho"]

    def chessboard_problems(rho):
        gaps = [g for *_, g in rho.check_property2()]
        if not gaps:
            return ["no adjacent pairs checked"]
        return [f"property-2 gap {g} < xi" for g in gaps if g < NET_XI]

    def construct():
        state["net"] = NG.construct_net_cube(state["rho"], cube, NET_M)
        return state["net"]

    def construct_problems(res):
        found = []
        total = sum(cell.mass for cell in res.cells)
        exact = state["rho"].integral(((0, 1), (0, 1))) * NET_SIDE ** 2
        if total != exact:
            found.append(f"cell masses sum to {total}, the integral is {exact}")
        for cell in res.cells:
            if not (cell.n ** 2 <= cell.mass < (cell.n + 1) ** 2):
                found.append(f"cell {cell.index}: n={cell.n} for mass {cell.mass}")
        if len(res.cloud) != sum(cell.n ** 2 for cell in res.cells):
            found.append("point count differs from the cell counts")
        if len(res.cells) != NET_M ** 2:
            found.append(f"{len(res.cells)} cells")
        return found

    def audit_problems(audit):
        res = state["net"]
        subs = [(c.box[0][1] - c.box[0][0]) / c.n for c in res.cells if c.n >= 2]
        found = []
        if subs and not math.isclose(audit.separation, float(min(subs)), rel_tol=1e-12):
            found.append(f"separation {audit.separation} != finest subcell {float(min(subs))}")
        if not audit.net_radius_low <= audit.net_radius_high:
            found.append("net radius bracket is empty")
        return found

    def discrepancy_problems(rep):
        found = [] if rep.never_overshoots else ["discrepancy overshoots"]
        if not rep.within_bound:
            found.append(f"discrepancy {rep.max_abs} above the bound {rep.bound}")
        return found

    def write_read():
        cloud = state["net"].cloud
        with open(path + ".csv", "w") as fh:
            fh.write(cloud.to_csv())
        with open(path + ".netf", "wb") as fh:
            fh.write(cloud.to_netf())
        with open(path + ".csv") as fh:
            back_csv = NG.PointCloud.from_csv(fh.read())
        with open(path + ".netf", "rb") as fh:
            back_netf = NG.PointCloud.from_netf(fh.read())
        return back_csv, back_netf

    def write_read_problems(out):
        pts = state["net"].cloud.points
        return [f"{kind} read-back differs" for kind, back in zip(("csv", "netf"), out)
                if not np.array_equal(back.points, pts)]

    return [
        Job(f"{tag}.families", families, families_problems,
            lambda fams: {"families": [f.to_json() for f in fams]}, ref(f"{tag}/families")),
        Job(f"{tag}.nesting", lambda: D.nesting_measure_report(state["fams"], d=2),
            nesting_problems,
            lambda rep: {"ratios": [str(r) for r in rep.per_level_max_ratio]},
            ref(f"{tag}/nesting")),
        Job(f"{tag}.chessboard", chessboard, chessboard_problems,
            lambda rho: {"min_gap": str(min(g for *_, g in rho.check_property2()))},
            ref(f"{tag}/chessboard")),
        Job(f"{tag}.construct", construct, construct_problems,
            lambda res: {"points": len(res.cloud),
                         "mass": str(sum(c.mass for c in res.cells)),
                         "empty_cells": len(res.empty_cells)}, ref(f"{tag}/construct")),
        Job(f"{tag}.audit", lambda: NG.audit_net(state["net"].cloud, grid_resolution=AUDIT_RES),
            audit_problems,
            lambda a: {"separation": a.separation, "net_radius_low": a.net_radius_low,
                       "net_radius_high": a.net_radius_high}, ref(f"{tag}/audit")),
        Job(f"{tag}.discrepancy", lambda: NG.discrepancy_report(state["net"]),
            discrepancy_problems, lambda rep: {"max_abs": str(rep.max_abs)},
            ref(f"{tag}/discrepancy")),
        Job(f"{tag}.write_read", write_read, write_read_problems),
    ]


def _cli_net_jobs(corner, work) -> list:
    x, y = corner
    build_prefix = str(work / "cli_net")
    audit_prefix = str(work / "cli_audit")
    n = math.isqrt(math.floor(CLI_RHO * Fraction(CLI_SIDE, CLI_M) ** 2))
    expected = CLI_M ** 2 * n ** 2
    sub = CLI_SIDE / (CLI_M * n)
    # "--flag=value": a value starting with "-" would read as an option
    build_argv = ["net-build", "--rho", f"const:{CLI_RHO}", f"--corner={x},{y}",
                  "--side", str(CLI_SIDE), "--m", str(CLI_M), "--binary",
                  "--out", build_prefix]
    audit_argv = ["net-audit", "--points", build_prefix + ".netf",
                  f"--window={x}:{x + CLI_SIDE},{y}:{y + CLI_SIDE}",
                  "--resolution", str(AUDIT_RES), "--out", audit_prefix]

    def build_problems(code):
        if code != 0:
            return [f"net-build exited {code}"]
        with open(build_prefix + ".json") as fh:
            doc = json.load(fh)["result"]
        with open(build_prefix + ".netf", "rb") as fh:
            pts = NG.PointCloud.from_netf(fh.read()).points
        found = []
        if doc["points"] != expected or len(pts) != expected:
            found.append(f"{doc['points']} points, {len(pts)} in NETF, expected {expected}")
        lo, hi = np.array([x, y]), np.array([x + CLI_SIDE, y + CLI_SIDE])
        if not np.all((pts > lo) & (pts < hi)):
            found.append("points outside the cube")
        return found

    def audit_problems(code):
        if code != 0:
            return [f"net-audit exited {code}"]
        with open(audit_prefix + ".json") as fh:
            doc = json.load(fh)["result"]
        found = []
        if not math.isclose(doc["separation"], sub, rel_tol=1e-12):
            found.append(f"separation {doc['separation']} != subcell {sub}")
        radius = sub * math.sqrt(2) / 2
        if not (doc["net_radius_low"] <= radius * (1 + 1e-12)
                and radius <= doc["net_radius_high"] * (1 + 1e-12)):
            found.append(f"net radius {radius} outside [{doc['net_radius_low']}, "
                         f"{doc['net_radius_high']}]")
        return found

    return [Job("cli.net_build", lambda: cli.main(build_argv), build_problems),
            Job("cli.net_audit", lambda: cli.main(audit_argv), audit_problems)]


def net_pipeline(seed, work, refs, extras) -> list:
    """Three seeded family stacks through nesting, the chessboard density,
    net construction at m=32, audit, discrepancy and CSV/NETF round trips;
    then net-build and net-audit through the CLI on a constant density."""
    rng = random.Random(seed)
    jobs = []
    for k in range(3):
        counts = NET_SCHEDULES[(seed + k) % len(NET_SCHEDULES)]
        jobs += _net_instance(f"net{k}", counts, rng.randrange(2 ** 32), work,
                              lambda name: _seed_ref(seed, f"net_pipeline/seed0/{name}"))
    jobs += _cli_net_jobs((rng.randrange(-50, 51), rng.randrange(-50, 51)), work)
    return jobs


# ---------------------------------------------------------------------------
# distortion_search
# ---------------------------------------------------------------------------

def _lattice_pair(rng, n, spread):
    while True:
        X = rng.integers(0, spread, size=(n, 2)).astype(float)
        Y = rng.integers(0, spread, size=(n, 2)).astype(float)
        if len({tuple(p) for p in X}) == n and len({tuple(p) for p in Y}) == n:
            return X, Y


_SYMMETRIES = [np.array(m, dtype=float) for m in
               (((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
                ((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)))]


def _isometry(rng):
    """A lattice symmetry plus an integer shift: every distance, and so the
    whole search, stays the same."""
    A = _SYMMETRIES[int(rng.integers(len(_SYMMETRIES)))]
    shift = rng.integers(-20, 21, size=2).astype(float)
    return lambda pts: pts @ A.T + shift


def _perm_bilip(X, Y, perm):
    DX, DY = cdist(X, X), cdist(Y, Y)
    iu = np.triu_indices(len(X), k=1)
    dx, dy = DX[iu], DY[np.ix_(perm, perm)][iu]
    return float(max((dy / dx).max(), (dx / dy).max()))


def brute_min_bilip(X, Y) -> float:
    """Minimum bilipschitz constant by enumerating every pairing."""
    n = len(X)
    DX, DY = cdist(X, X), cdist(Y, Y)
    iu = np.triu_indices(n, k=1)
    dx = DX[iu]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    best = math.inf
    for chunk in np.array_split(perms, max(1, len(perms) // 40_000)):
        dy = DY[chunk[:, iu[0]], chunk[:, iu[1]]]
        best = min(best, float(np.maximum((dy / dx).max(axis=1), (dx / dy).max(axis=1)).min()))
    return best


def distortion_search(seed, work, refs, extras) -> list:
    """Exact branch and bound at n=8,9, the assignment + local-search
    heuristic at n=24..36 with 2 restarts, the window grid constant over
    1820 subsets, and the const:1 growth profile at scales 3,4,5."""
    rng = np.random.default_rng(seed)
    jobs = []
    for n in EXACT_SIZES:
        X, Y = _lattice_pair(rng, n, 10)

        def exact_problems(rep, X=X, Y=Y):
            found = [] if rep.method == "exact" else [f"method {rep.method!r}"]
            best = brute_min_bilip(X, Y)
            if rep.bilip != best:
                found.append(f"optimum {rep.bilip!r} != enumeration {best!r}")
            if not rep.lower_bound <= rep.bilip:
                found.append("lower bound above the optimum")
            return found

        jobs.append(Job(f"exact{n}", lambda X=X, Y=Y: DT.min_bilip_exact(X, Y),
                        exact_problems, lambda rep: {"bilip": rep.bilip},
                        _seed_ref(seed, f"distortion_search/seed0/exact{n}")))

    base = np.random.default_rng(HEURISTIC_BASE_SEED)
    for n in HEURISTIC_SIZES:
        X0, Y0 = _lattice_pair(base, n, 12)
        move = _isometry(rng)
        X, Y = move(X0), move(Y0)

        def heuristic_problems(rep, X=X, Y=Y):
            perm = np.asarray(rep.perm)
            if sorted(perm.tolist()) != list(range(len(X))):
                return ["returned pairing is not a bijection"]
            found = []
            if not math.isclose(_perm_bilip(X, Y, perm), rep.bilip, rel_tol=1e-12):
                found.append("reported value differs from its pairing's value")
            if not rep.lower_bound <= rep.bilip:
                found.append("lower bound above the upper bound")
            return found

        jobs.append(Job(f"heuristic{n}",
                        lambda X=X, Y=Y: DT.min_bilip_heuristic(X, Y, seed=0, restarts=2),
                        heuristic_problems, lambda rep: {"bilip": rep.bilip},
                        f"distortion_search/heuristic{n}", no_worse=("bilip",)))

    wx, wy = (int(v) for v in rng.integers(-10, 11, size=2))
    window = [(wx, wx + 3), (wy, wy + 3)]

    def feige_problems(out):
        _, best, exact = out
        found = [] if exact else ["enumeration not exact"]
        if len(best) != 4 or not all(wx <= p[0] <= wx + 3 and wy <= p[1] <= wy + 3
                                     for p in best):
            found.append(f"maximizer {best} outside the window")
        return found

    jobs.append(Job("feige_cn", lambda: DT.feige_cn_window(2, 2, window), feige_problems,
                    lambda out: {"value": out[0]}, "distortion_search/feige_cn"))

    rho, modulus = D.ConstantDensity(1), identity()

    def profile_problems(rows):
        found = [] if len(rows) == 3 else [f"{len(rows)} rows"]
        for row in rows:
            if not row.diameter_lower <= row.bilip_upper:
                found.append(f"R={row.R}: lower bound above upper bound")
            if not (row.bi_l_omega is not None and 0 < row.bi_l_omega < math.inf):
                found.append(f"R={row.R}: bi_l_omega {row.bi_l_omega!r}")
        return found

    # fixed input: the profile's own restart seed changes its work
    jobs.append(Job("profile",
                    lambda: DT.distortion_growth_profile(rho, [3, 4, 5], modulus=modulus),
                    profile_problems,
                    lambda rows: {"n_points": [r.n_points for r in rows],
                                  "bilip_upper": [r.bilip_upper for r in rows]},
                    "distortion_search/profile", no_worse=("bilip_upper",)))
    return jobs


# ---------------------------------------------------------------------------
# raster_geometry
# ---------------------------------------------------------------------------

def raster_geometry(seed, work, refs, extras) -> list:
    """Radial-bump volume check in grid and Monte-Carlo mode, symmetric
    difference rasters at 64^2 and 128^2, the boundary collar at 256^2, and
    statements 1/2 and algorithm B1 on the stretch map; map parameters are
    jittered by the seed."""
    rng = random.Random(seed)

    def ref(name):
        return _seed_ref(seed, f"raster_geometry/seed0/{name}")

    m = identity()

    def jit(value, rel):
        return value * (1 + rng.uniform(-rel, rel))

    bump = G.RadialBump([jit(1.5, 0.05), jit(0.5, 0.05)], jit(0.1, 0.2), 2.0)
    mc_seed = rng.randrange(2 ** 31)

    def volume_problems(rep):
        found = [] if rep.hypothesis_ok else ["near-translation hypothesis fails"]
        if not rep.passed:
            found.append(f"volume bound fails: lhs {rep.lhs} > rhs {rep.rhs} + {rep.lhs_error}")
        return found

    def volume_summary(rep):
        return {"lhs": float(rep.lhs), "rhs": float(rep.rhs), "lhs_error": float(rep.lhs_error)}

    jobs = [
        Job("volume_grid",
            lambda: G.volume_diff_check(bump, 1.0, 4, 1, m, 0.5, d=2, mode="grid"),
            volume_problems, volume_summary, ref("volume_grid")),
        Job("volume_mc",
            lambda: G.volume_diff_check(bump, 1.0, 4, 1, m, 0.5, d=2, mode="monte_carlo",
                                        budget=1_000_000, seed=mc_seed),
            volume_problems, volume_summary, ref("volume_mc")),
    ]

    f = G.identity_map(2)
    suite = [
        ("shear", G.shear_map(jit(0.05, 0.2))),
        ("translate", G.AffineMap(np.eye(2), [jit(0.04, 0.2), jit(-0.03, 0.2)])),
        ("bump", G.RadialBump([jit(0.5, 0.05), jit(0.5, 0.05)], jit(0.05, 0.2), 1.0)),
    ]
    for res in (64, 128):
        for kind, g in suite:
            jobs.append(Job(
                f"symdiff_{kind}{res}",
                lambda g=g, res=res: G.symdiff_bound_check(f, g, grid_res=res),
                lambda rep: [f"{rep.violations} raster violations"] if rep.violations else [],
                lambda rep: {"cells_checked": rep.cells_checked,
                             "sup_distance": rep.sup_distance},
                ref(f"symdiff_{kind}{res}")))

    square = G.AffineMap(np.eye(2), [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])

    def boundary_problems(rows):
        return [f"eps={row.eps}: measure {row.measure} off the closed form by more "
                f"than {row.raster_slack}" for row in rows
                if abs(row.measure - (8.0 * row.eps + (math.pi - 8.0) * row.eps ** 2))
                > row.raster_slack]

    jobs.append(Job("boundary_measure",
                    lambda: G.boundary_neighborhood_measure(square, list(BOUNDARY_EPS),
                                                            grid_res=256),
                    boundary_problems, lambda rows: {"measure": [r.measure for r in rows]},
                    ref("boundary_measure")))

    c = 0.5
    # the stretch window starts on a slab boundary (the README map starts at
    # slab 18 of 60): B1 then recentres inside the window once and stops
    h = G.two_region_stretch(c, (18 + rng.randrange(-8, 9)) * c / 60, 8 * c / 60,
                             jit(1.15, 0.02))
    phi1 = P.phi(1, m, 0.1)
    jobs += [
        Job("statement1", lambda: G.check_statement1(h, c, 60, 0.1, m, d=1),
            lambda rep: ["statement 1 holds on the stretch map"] if rep.holds else [],
            lambda rep: {"omega": rep.omega}, ref("statement1")),
        Job("statement2", lambda: G.check_statement2(h, c, 60, 40, phi1, d=1),
            lambda rep: [] if rep.z is not None and rep.margin > 0
            else ["no stretch point found"],
            lambda rep: {"z": [float(v) for v in rep.z], "margin": rep.margin},
            ref("statement2")),
        # statement 1 fails at the first level, so B1 recentres at least once
        Job("algorithm_b1", lambda: G.run_algorithm_b1(h, 1, m, 0.1, c, max_iters=4),
            lambda tr: [] if tr.branch == 1 and tr.p >= 2
            else [f"stopped at p={tr.p} on branch {tr.branch}"],
            lambda tr: {"p": tr.p}, ref("algorithm_b1")),
    ]
    return jobs


# ---------------------------------------------------------------------------
# net_distortion_raster
# ---------------------------------------------------------------------------

def net_distortion_raster(seed, work, refs, extras) -> list:
    """The net pipeline, the distortion searches and the raster geometry
    jobs in one pass; each part draws its own inputs from the seed."""
    return (net_pipeline(seed, work, refs, extras)
            + distortion_search(seed, work, refs, extras)
            + raster_geometry(seed, work, refs, extras))


JOB_LISTS = {
    "far_regime": far_regime,
    "net_distortion_raster": net_distortion_raster,
}

"""Acceptance suite: every criterion at its stated tolerance, one printed
verdict line per criterion (run with -s to see them inline)."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from netlab.moduli import check_class_M, identity, logpow
from netlab import params as P
from netlab import density as D
from netlab import netgen as NG
from netlab import distortion as DT
from netlab import geomlab as G

F = Fraction


def _verdict(num, ok, desc):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


# -- shared fixtures ---------------------------------------------------------

@pytest.fixture(scope="module")
def random_traces():
    """20 random (d, eps, c) configurations with 50 computed levels each."""
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(20):
        d = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.05, 0.6))
        m = identity() if rng.random() < 0.4 else logpow(float(rng.uniform(0.1, 1.5)))
        c = float(rng.uniform(0.01, 0.9 * m.a_omega))
        out.append((d, m, eps, c, P.param_sequence(d, m, eps, c, 50)))
    return out


def test_criterion_01_moduli_membership():
    t0 = time.time()
    worst = {}
    ok = True
    for alpha in (0.25, 0.5, 1.0, 2.0):
        rep = check_class_M(logpow(alpha, a_omega=math.exp(-2.0)), 64,
                            tolerance=1e-12)
        ok = ok and rep.all_pass
        worst[alpha] = max(rep.worst.values())
    elapsed = time.time() - t0
    _verdict(1, ok and elapsed < 1.0,
             f"class membership holds for exponents 0.25/0.5/1/2 on a 64x64 "
             f"grid at 1e-12 (worst margin {max(worst.values()):.2e}, "
             f"{elapsed:.2f}s < 1s)")


def test_criterion_02_parameter_plugins():
    m = identity()
    phi_val = P.phi(1, m, 0.1)
    M_val = P.big_m(2, 1, m, 0.1)
    ok = (phi_val == 0.1 ** 3 / 120.0) and (M_val == 40)
    _verdict(2, ok,
             f"phi(1, 0.1) = {phi_val:.6e} equals eps^3/120 exactly and "
             f"M = {M_val} equals ceil(1/omega^-1(eps/4)) exactly")


def test_criterion_03_recursion_identity(random_traces):
    t0 = time.time()
    ok = True
    for d, m, eps, c, tr in random_traces:
        ok = ok and len(tr.levels) >= 30
        for rec in tr.levels:
            log_next = tr.log_c_at(rec.i + 1)
            resid = abs(log_next + math.log(rec.N) + math.log(rec.M) - rec.log_c)
            if resid > 1e-12 * max(1.0, abs(rec.log_c)):
                ok = False
    elapsed = time.time() - t0
    _verdict(3, ok and elapsed < 10.0,
             f"c_(i+1) N_i M_i = c_i in log space within 1e-12 relative for "
             f"20 random configs x 50 levels ({elapsed:.2f}s < 10s)")


def test_criterion_04_quadratic_bound(random_traces):
    ok = True
    for d, m, eps, c, tr in random_traces:
        log_beta = P.quadratic_beta_log(d, m, eps, c)
        log_beta_c = log_beta + math.log(c)
        for rec in tr.levels:
            log_next = tr.log_c_at(rec.i + 1)
            if log_next < log_beta + 2.0 * rec.log_c - 1e-9:
                ok = False
            if rec.i <= 50 and rec.log_c < rec.i ** 2 * log_beta_c:
                ok = False
    _verdict(4, ok,
             "c_(i+1) >= beta c_i^2 with beta from the level-1 closed forms, "
             "and log c_i >= i^2 log(beta c) for i <= 50, on every config")


def test_criterion_05_r_certification():
    cert = P.certify_r(1, identity(), 0.1, 0.5)
    id_ok = (cert.r == 1 and cert.mode == "exact"
             and cert.lhs_log == 0.0 and cert.rhs_log == 0.0
             and math.exp(cert.lhs_log) == 1.0)
    m = logpow(0.01)
    cert2 = P.certify_r(2, m, 0.1, 0.1)
    at_r = P.num_iter_margin(2, m, 0.1, 0.1, cert2.r)
    at_prev = P.num_iter_margin(2, m, 0.1, 0.1, cert2.r - 1)
    lp_ok = at_r >= 0.0 and at_prev < 0.0
    _verdict(5, id_ok and lp_ok,
             f"identity certifies r=1 with both sides exactly 1; "
             f"logpow(0.01) d=2 certifies r={cert2.r:.4e} "
             f"({cert2.mode}) with margins {at_prev:.3e} -> {at_r:.3e}")


def test_criterion_06_upsilon_cancellation():
    worst = 0.0
    for d in (2, 3):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            for ell in (1e-1, 1e-3, 1e-6):
                v = P.upsilon(d, identity(), eps, ell)
                worst = max(worst, abs(v / eps - 1.0))
    _verdict(6, worst < 1e-9,
             f"upsilon/eps constant for the identity modulus across the "
             f"(d, eps, ell) grid: worst relative deviation {worst:.2e} < 1e-9")


def test_criterion_07_kappa_decay():
    t0 = time.time()
    m = logpow(0.01)
    kappas = {eps: P.kappa(2, m, 1.0, 1, eps, 0.1)
              for eps in (0.2, 0.1, 0.05, 0.02)}
    elapsed = time.time() - t0
    decreasing = (kappas[0.2] > kappas[0.1] > kappas[0.05] > kappas[0.02])
    halved = kappas[0.02] < kappas[0.2] / 2.0
    _verdict(7, decreasing and halved and elapsed < 60.0,
             f"kappa strictly decreasing over eps 0.2/0.1/0.05/0.02 "
             f"({kappas[0.2]:.3f} -> {kappas[0.02]:.3f}, halving satisfied, "
             f"{elapsed:.1f}s < 60s)")


DESK_SCHEDULE = D.FamilySchedule(c=F(1), counts=((6, 2), (4, 3), (4, 2)))


def test_criterion_08_family_nesting():
    fams = D.build_nested_families(DESK_SCHEDULE, d=2, levels=3, offsets="zero")
    report = D.nesting_measure_report(fams, d=2)
    ratios_ok = all(r <= b for r, b in
                    zip(report.per_level_max_ratio, report.bounds))
    _verdict(8, report.nested_exactly and ratios_ok,
             f"3-level zero-offset families nest exactly; per-level overlap "
             f"ratios {[str(r) for r in report.per_level_max_ratio]} stay "
             f"below 2^d/N_(i+1) {[str(b) for b in report.bounds]} "
             f"(exact rationals)")


def test_criterion_09_chessboard_properties():
    fams = D.build_nested_families(DESK_SCHEDULE, d=2, levels=3, offsets="zero")
    xi = F(1, 10)
    delta = fams[-1].lam / 100
    rho = D.chessboard_psi(fams, xi=xi, smoothing_delta=delta)
    p1 = rho.check_property1()
    gaps = rho.check_property2()
    p2 = all(gap >= xi for *_, gap in gaps)
    min_gap = min(gap for *_, gap in gaps)
    _verdict(9, p1 and p2 and len(gaps) > 0,
             f"psi with 3 levels, xi=0.1, delta=deepest/100: zero outside the "
             f"top family, and every adjacent-pair average gap >= xi by exact "
             f"integration (min gap {float(min_gap):.6f} over {len(gaps)} pairs)")


def test_criterion_10_net_construction():
    res = NG.construct_net_cube(D.ConstantDensity(1), [(0, 10), (0, 10)], 2)
    audit = NG.audit_net(res.cloud, grid_resolution=768)
    rep = NG.discrepancy_report(res)
    truth = math.sqrt(2.0) / 2.0
    unit_ok = (len(res.cloud) == 100
               and audit.separation == 1.0
               and audit.net_radius_low <= truth <= audit.net_radius_high
               and abs(audit.net_radius_high - truth) <= 0.02
               and abs(audit.net_radius_low - truth) <= 0.02
               and rep.max_abs == 0)
    res2 = NG.construct_net_cube(D.ConstantDensity(F(5, 2)), [(0, 10), (0, 10)], 2)
    rep2 = NG.discrepancy_report(res2)
    disc_ok = (all(disc == F(-27, 200) for _, disc in rep2.per_cell)
               and abs(rep2.bound - 0.31622776601683794) < 1e-12
               and rep2.within_bound and rep2.never_overshoots)
    _verdict(10, unit_ok and disc_ok,
             f"unit density on [0,10]^2 with m=2: 100 points, separation 1 "
             f"exactly, net radius in [{audit.net_radius_low:.4f}, "
             f"{audit.net_radius_high:.4f}] around sqrt(2)/2 within 0.02, "
             f"zero discrepancy; density 5/2: every cell discrepancy -27/200 "
             f"= -0.135 exactly, inside the bound 0.3162")


def _enumerate_min_bilip(X, Y):
    n = len(X)
    DX = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
    DY = np.linalg.norm(Y[:, None, :] - Y[None, :, :], axis=-1)
    iu = np.triu_indices(n, k=1)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        dyp = DY[np.ix_(p, p)][iu]
        dx = DX[iu]
        best = min(best, float(max((dyp / dx).max(), (dx / dyp).max())))
    return best


def _random_instance(seed, n, d=2, spread=10):
    rng = np.random.default_rng(seed)
    while True:
        X = rng.integers(0, spread, size=(n, d)).astype(float)
        Y = rng.integers(0, spread, size=(n, d)).astype(float)
        if (len({tuple(p) for p in X}) == n and len({tuple(p) for p in Y}) == n):
            return X, Y


def test_criterion_11_distortion_oracle_equivalence():
    t0 = time.time()
    exact_ok = True
    for seed in range(50):
        n = 4 + seed % 4  # 4..7
        X, Y = _random_instance(3000 + seed, n)
        rep = DT.min_bilip_exact(X, Y)
        if rep.method != "exact" or rep.bilip != _enumerate_min_bilip(X, Y):
            exact_ok = False
    hits = 0
    never_below = True
    for seed in range(100):
        X, Y = _random_instance(7000 + seed, 6)
        exact = DT.min_bilip_exact(X, Y).bilip
        heur = DT.min_bilip_heuristic(X, Y, seed=seed).bilip
        if heur < exact - 1e-12:
            never_below = False
        if heur <= exact * (1.0 + 1e-12):
            hits += 1
    elapsed = time.time() - t0
    _verdict(11, exact_ok and never_below and hits >= 90 and elapsed < 120.0,
             f"exact search matches full enumeration on 50 instances (n<=7); "
             f"heuristic never beats exact and ties it on {hits}/100 "
             f"six-point instances ({elapsed:.1f}s < 120s)")


def _double_brute_force_cn(n, d, window):
    """Fully independent oracle: subsets by combinations, bijections by
    permutations, ratios by plain loops."""
    lattice = sorted(itertools.product(*[range(lo, hi + 1) for lo, hi in window]))
    grid = list(itertools.product(range(1, n + 1), repeat=d))
    best = -math.inf
    best_S = None
    for S in itertools.combinations(lattice, n ** d):
        ls = math.inf
        for perm in itertools.permutations(range(len(grid))):
            worst = 0.0
            for i in range(len(S)):
                for j in range(i + 1, len(S)):
                    dx = math.dist(S[i], S[j])
                    dy = math.dist(grid[perm[i]], grid[perm[j]])
                    worst = max(worst, dy / dx)
            ls = min(ls, worst)
        if ls > best:
            best, best_S = ls, S
    return best, best_S


def test_criterion_12_feige_desk_scale(tmp_path):
    t0 = time.time()
    val, S, exact = DT.feige_cn_window(2, 2, [(0, 3), (0, 3)])
    brute_val, brute_S = _double_brute_force_cn(2, 2, [(0, 3), (0, 3)])
    match = exact and val == brute_val

    from netlab.cli import main
    argv = ["feige-cn", "--n", "2", "--d", "2", "--window", "0:3"]
    main(argv + ["--out", str(tmp_path / "a")])
    main(argv + ["--out", str(tmp_path / "b")])
    identical = ((tmp_path / "a.json").read_bytes()
                 == (tmp_path / "b.json").read_bytes())
    elapsed = time.time() - t0
    _verdict(12, match and identical and elapsed < 60.0,
             f"window sup over 1820 subsets: branch-and-bound value {val:.6f} "
             f"equals the double brute force (24 bijections each); reruns "
             f"byte-identical ({elapsed:.1f}s < 60s)")


def test_criterion_13_dichotomy_sanity():
    m = identity()
    rep_id = G.check_statement1(G.identity_map(1), 0.5, 60, 0.1, m, d=1)
    id_ok = (rep_id.omega == list(range(1, 60))
             and max(rep_id.margins.values()) + rep_id.threshold <= 1e-12)
    A = G.AffineMap([[1.2, 0.3], [-0.1, 0.9]])
    rep_aff = G.check_statement1(A, 0.5, 10, 0.1, m, d=2)
    aff_ok = (len(rep_aff.omega) == 9
              and max(rep_aff.margins.values()) + rep_aff.threshold <= 1e-12)

    c = 0.5
    h = G.two_region_stretch(c, 0.3 * c, 8 * c / 60, 1.15)
    rep1 = G.check_statement1(h, c, 60, 0.1, m, d=1)
    rep2 = G.check_statement2(h, c, 60, 40, P.phi(1, m, 0.1), d=1)
    stretch_ok = (not rep1.holds) and rep2.z is not None and rep2.margin > 0

    tr = G.run_algorithm_b1(h, 1, m, 0.1, c, max_iters=4)
    b1_ok = tr.p == 2 and tr.branch == 1
    _verdict(13, id_ok and aff_ok and stretch_ok and b1_ok,
             f"identity/affine give branch 1 with full Omega and residual "
             f"<= 1e-12; the piecewise stretch fires branch 2 at "
             f"z={rep2.z[0]:.4f} with margin {rep2.margin:.4f} > 0; the "
             f"iteration terminates at p = {tr.p}")


def test_criterion_14_volume_bound():
    t0 = time.time()
    m = identity()
    A = G.AffineMap([[1.2, 0.3], [-0.1, 0.9]])
    rep_a = G.volume_diff_check(A, 1.0, 4, 1, m, 0.5, d=2)
    T = G.AffineMap(np.eye(2), [0.3, -0.7])
    rep_t = G.volume_diff_check(T, 1.0, 4, 2, m, 0.5, d=2)
    exact_ok = (rep_a.lhs == 0.0 and rep_a.passed
                and rep_t.lhs == 0.0 and rep_t.passed)

    bump = G.RadialBump([1.5, 0.5], 0.1, 2.0)
    rep_b = G.volume_diff_check(bump, 1.0, 4, 1, m, 0.5, d=2,
                                mode="monte_carlo", budget=1_000_000)
    bump_ok = (rep_b.hypothesis_ok and rep_b.passed
               and rep_b.lhs <= rep_b.rhs + rep_b.lhs_error)
    elapsed = time.time() - t0
    _verdict(14, exact_ok and bump_ok and elapsed < 30.0,
             f"affine and translation maps give lhs = 0 <= rhs exactly; the "
             f"radial bump satisfies lhs {rep_b.lhs:.2e} <= rhs "
             f"{rep_b.rhs:.2e} within the 1e6-sample 95% interval "
             f"({elapsed:.1f}s < 30s)")


def test_criterion_15_symdiff_and_boundary_measure():
    suite = [
        ("shear", G.shear_map(0.05)),
        ("translate", G.AffineMap(np.eye(2), [0.04, -0.03])),
        ("bump", G.RadialBump([0.5, 0.5], 0.05, 1.0)),
    ]
    f = G.identity_map(2)
    violations = 0
    for res in (64, 128):
        for _, g in suite:
            violations += G.symdiff_bound_check(f, g, grid_res=res).violations

    rows = G.boundary_neighborhood_measure(f, [0.1, 0.05, 0.02], grid_res=256)
    closed_ok = True
    for row in rows:
        stated = 8.0 * row.eps + (math.pi - 4.0) * row.eps ** 2
        if abs(row.measure - stated) > row.raster_slack:
            closed_ok = False
    _verdict(15, violations == 0 and closed_ok,
             f"zero raster violations across the analytic suite at 64^2 and "
             f"128^2; identity boundary-collar measures match the stated "
             f"closed form within raster slack for eps 0.1/0.05/0.02")

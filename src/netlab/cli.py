"""Command-line entry point wiring the modules into reproducible runs.

Every run resolves its configuration (JSON config file, overridden by CLI
flags), stamps outputs with the tool version, a hash of the resolved
configuration and the seed, and writes files atomically.  Reruns with the
same configuration and seed are byte-identical.

Exit codes: 0 success, 1 an invariant check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import mpmath
import numpy as np

from . import __version__
from .errors import (BudgetError, ConfigurationError, DomainError, NetlabError,
                     PropertyViolation, RangeError)
from .moduli import check_class_M, parse_modulus
from . import params as P
from . import density as D
from . import netgen as NG
from . import distortion as DT
from . import geomlab as G


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):  # numpy bool, integer and float scalars
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        items = list(obj) if not isinstance(obj, set) else sorted(obj)
        return [_jsonable(v) for v in items]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _atomic_write(path: str, data: str | bytes):
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def _config_hash(resolved: dict) -> str:
    canon = json.dumps(_jsonable(resolved), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _csv_text(header_meta: dict, columns: list, rows: list) -> str:
    lines = [f"# {k}: {v}" for k, v in header_meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _families_svg(families, scale=800.0):
    """Minimal deterministic SVG of a 2-d family stack."""
    top = families[0]
    bb = top.union_bounding_box()
    w = float(bb[0][1] - bb[0][0])
    h = float(bb[1][1] - bb[1][0])
    s = scale / max(w, h)
    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{scale:.0f}" '
             f'height="{scale:.0f}" viewBox="0 0 {w * s:.4f} {h * s:.4f}">']
    for fam in families:
        color = colors[(fam.level - 1) % len(colors)]
        lam = float(fam.lam) * s
        for t in fam.cubes:
            x = (float(t[0] * fam.lam) - float(bb[0][0])) * s
            y = (float(t[1] * fam.lam) - float(bb[1][0])) * s
            parts.append(
                f'<rect x="{x:.4f}" y="{y:.4f}" width="{lam:.4f}" '
                f'height="{lam:.4f}" fill="none" stroke="{color}" '
                f'stroke-width="{max(0.3, lam / 50):.3f}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _points_svg(points, window, scale=800.0):
    (x0, x1), (y0, y1) = window
    w, h = x1 - x0, y1 - y0
    s = scale / max(w, h)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{scale:.0f}" '
             f'height="{scale:.0f}" viewBox="0 0 {w * s:.4f} {h * s:.4f}">']
    for p in points:
        parts.append(f'<circle cx="{(p[0] - x0) * s:.4f}" '
                     f'cy="{(p[1] - y0) * s:.4f}" r="{s / 200:.3f}" fill="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_map(spec: str):
    """Map specs: identity:d | affine:d:a11,a12,..[,b..] | shear:s |
    radial-bump:cx,..,amp,width | stretch:c,start,width,slope[,d]."""
    kind, _, rest = spec.partition(":")
    if kind == "identity":
        return G.identity_map(int(rest) if rest else 2)
    if kind == "affine":
        dpart, _, coeffs = rest.partition(":")
        d = int(dpart)
        vals = [float(v) for v in coeffs.split(",")]
        if d < 1 or len(vals) not in (d * d, d * d + d):
            raise ConfigurationError(f"cannot parse map spec {spec!r}")
        A = np.array(vals[: d * d]).reshape(d, d)
        b = np.array(vals[d * d:]) if len(vals) > d * d else None
        return G.AffineMap(A, b)
    vals = [float(v) for v in rest.split(",")] if rest else []
    if kind == "shear" and len(vals) == 1:
        return G.shear_map(vals[0])
    if kind == "radial-bump" and len(vals) >= 3:
        return G.RadialBump(vals[:-2], vals[-2], vals[-1])
    if kind == "stretch" and len(vals) in (4, 5):
        d = int(vals[4]) if len(vals) > 4 else 1
        return G.two_region_stretch(vals[0], vals[1], vals[2], vals[3], d=d)
    raise ConfigurationError(f"cannot parse map spec {spec!r}")


def _fraction(text) -> Fraction:
    """A rational flag value such as ``5/2`` or ``0.1``."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"not a rational number: {text!r}") from None


def _cube(a) -> list:
    """The cube of the net commands: ``--corner`` plus ``--side`` per axis."""
    corner = [_fraction(v) for v in str(a.get("corner", "0,0")).split(",")]
    side = _fraction(a["side"])
    return [(c, c + side) for c in corner]


def _parse_rho(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "const":
        return D.ConstantDensity(_fraction(rest))
    if kind == "chessboard":
        with open(rest) as fh:
            doc = json.load(fh)  # as the chessboard command writes it
        try:
            return D.ChessboardDensity.from_json(doc["result"]["density"])
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{rest}: not a chessboard output ({exc!r})") from None
    raise ConfigurationError(f"cannot parse density spec {spec!r}")


def _parse_window(spec: str, d: int = 2):
    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * d
    out = []
    for p in parts:
        lo, _, hi = p.partition(":")
        out.append((float(lo), float(hi)))
    return out


def _parse_schedule(spec: str):
    counts = []
    for part in spec.split(","):
        n, _, m = part.partition("x")
        counts.append((int(n), int(m)))
    return tuple(counts)


def _load_points(path: str) -> NG.PointCloud:
    if path.endswith(".netf"):
        with open(path, "rb") as fh:
            return NG.PointCloud.from_netf(fh.read())
    with open(path) as fh:
        return NG.PointCloud.from_csv(fh.read())


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, rows or None, columns, svg, failed)
# ---------------------------------------------------------------------------

def _cmd_moduli_check(a):
    m = parse_modulus(a["modulus"])
    rep = check_class_M(m, int(a.get("grid_size", 64)),
                        float(a.get("tolerance", 1e-12)))
    return _jsonable(rep), None, None, None, not rep.all_pass


def _exp_or_text(log_value):
    """exp(log_value) as a float, or, past the float range, mpmath's
    17-digit text for it in the same d.ddde+NNN shape as a float's repr."""
    try:
        return math.exp(log_value)
    except OverflowError:
        with mpmath.workdps(17):
            return mpmath.nstr(mpmath.exp(log_value), 17)


def _cmd_params(a):
    m = parse_modulus(a["modulus"])
    d, eps, c = int(a["d"]), float(a["eps"]), float(a["c"])
    max_levels = int(a.get("max_levels", 48))
    if not (0.0 < eps < 1.0):
        raise ConfigurationError(f"eps must lie in (0,1), got {eps}")
    cert = P.certify_r(d, m, eps, c, max_levels) if a.get("certify", True) else None
    trace = cert.trace if cert else P.param_sequence(d, m, eps, c, max_levels)
    rows, cols = [], ["i", "log_c_i", "N_i", "M_i", "log_ell_i", "upsilon_i"]
    for rec in trace.levels:
        ups = _exp_or_text(P.upsilon_log(d, m, eps, rec.log_sidelength))
        rows.append([rec.i, rec.log_c, rec.N, rec.M, rec.log_sidelength, ups])
    summary = {
        "phi": trace.phi, "phi_log": trace.phi_log,
        "theta": P.theta(d, m, eps) if d >= 2 else None,
        "clamped": trace.clamped,
    }
    if cert:
        summary["r"] = cert.r
        summary["r_mode"] = cert.mode
        # kappa reuses cert unless L*sqrt(k) > 1 rescales the level sequence
        m_bar = P.rescaled_modulus(m, float(a.get("L", 1.0)), int(a.get("k", 1)))
        kappa_cert = cert if m_bar is m else P.certify_r(d, m_bar, eps, c, max_levels)
        summary["kappa"] = P.kappa_from_certificate(kappa_cert, m)
    return summary, rows, cols, None, False


def _make_schedule(a):
    if a.get("schedule"):
        return D.FamilySchedule(c=_fraction(a["c"]),
                                counts=_parse_schedule(a["schedule"]))
    m = parse_modulus(a["modulus"])
    trace = P.param_sequence(int(a["d"]), m, float(a["eps"]), float(a["c"]),
                             int(a.get("levels", 3)))
    return D.schedule_from_trace(trace, int(a.get("levels", 3)))


def _cmd_families(a):
    d = int(a["d"])
    sched = _make_schedule(a)
    fams = D.build_nested_families(
        sched, d=d, levels=int(a.get("levels", 3)),
        offsets=a.get("offsets", "zero"), seed=a.get("seed"))
    report = D.nesting_measure_report(fams, d=d)
    payload = {
        "families": [f.to_json() for f in fams],
        "nesting": _jsonable(report),
    }
    svg = _families_svg(fams) if d == 2 else None
    return payload, None, None, svg, not report.passed


def _cmd_chessboard(a):
    d = int(a["d"])
    sched = _make_schedule(a)
    fams = D.build_nested_families(
        sched, d=d, levels=int(a.get("levels", 3)),
        offsets=a.get("offsets", "zero"), seed=a.get("seed"))
    delta_div = int(a.get("delta_div", 100))
    if delta_div < 1:
        raise ConfigurationError(f"delta-div must be >= 1, got {delta_div}")
    rho = D.chessboard_psi(fams, xi=_fraction(a.get("xi", "1/10")),
                           smoothing_delta=fams[-1].lam / delta_div,
                           base=_fraction(a["base"]) if a.get("base") else None)
    gaps = rho.check_property2()
    payload = {
        "density": rho.to_json(),
        "property1": rho.check_property1(),
        "property2_min_gap": str(min(g for *_, g in gaps)),
        "pairs_checked": len(gaps),
    }
    svg = _families_svg(fams) if d == 2 else None
    return payload, None, None, svg, not payload["property1"]


def _cmd_net_build(a):
    rho = _parse_rho(a["rho"])
    res = NG.construct_net_cube(rho, _cube(a), int(a["m"]))
    payload = {
        "points": len(res.cloud),
        "empty_cells": [list(t) for t in res.empty_cells],
        "cells": [{"index": list(c.index), "mass": str(c.mass), "n": c.n}
                  for c in res.cells],
    }
    rows = [[float(v) for v in p] for p in res.cloud.points]
    cols = [f"x{k}" for k in range(res.cloud.d)]
    svg = _points_svg(res.cloud.points, res.cloud.window) if res.cloud.d == 2 and len(res.cloud) else None
    return payload, rows, cols, svg, False


def _cmd_net_audit(a):
    cloud = _load_points(a["points"])
    window = _parse_window(a["window"], cloud.d) if a.get("window") else None
    audit = NG.audit_net(cloud, window=window,
                         grid_resolution=int(a.get("resolution", 256)))
    return _jsonable(audit), None, None, None, False


def _cmd_net_discrepancy(a):
    rho = _parse_rho(a["rho"])
    res = NG.construct_net_cube(rho, _cube(a), int(a["m"]))
    rep = NG.discrepancy_report(res)
    payload = {
        "per_cell": [{"index": list(i), "discrepancy": str(v)} for i, v in rep.per_cell],
        "max_abs": str(rep.max_abs),
        "bound": rep.bound,
        "never_overshoots": rep.never_overshoots,
        "within_bound": rep.within_bound,
    }
    return payload, None, None, None, not rep.passed


def _cmd_distort(a):
    X = _load_points(a["x"]).points
    Y = _load_points(a["y"]).points
    if a["variant"] == "exact":
        rep = DT.min_bilip_exact(X, Y, node_limit=int(a.get("node_limit", 5_000_000)))
        if rep.method != "exact":
            print("netlab: warning: node limit reached; bilip is a heuristic "
                  "upper bound", file=sys.stderr)
    else:
        rep = DT.min_bilip_heuristic(X, Y, seed=int(a.get("seed") or 0),
                                     restarts=int(a.get("restarts", 8)))
    return _jsonable(rep), None, None, None, False


def _cmd_profile(a):
    rho = _parse_rho(a["rho"])
    scales = [float(v) for v in str(a["scales"]).split(",")]
    modulus = parse_modulus(a["modulus"]) if a.get("modulus") else None
    rows_data = DT.distortion_growth_profile(
        rho, scales, modulus=modulus, m_cells=int(a.get("m", 2)),
        seed=int(a.get("seed") or 0))
    cols = ["R", "n_points", "bilip_upper", "diameter_lower", "displacement",
            "bi_l_omega"]
    rows = [[r.R, r.n_points, r.bilip_upper, r.diameter_lower, r.displacement,
             r.bi_l_omega if r.bi_l_omega is not None else ""] for r in rows_data]
    return {"rows": _jsonable(rows_data)}, rows, cols, None, False


def _cmd_feige_ls(a):
    S = _load_points(a["s"]).points
    val = DT.feige_ls(S, int(a["n"]), int(a["d"]))
    return {"L_S": val}, None, None, None, False


def _cmd_feige_cn(a):
    window = _parse_window(a["window"], int(a["d"]))
    samples = int(a["samples"]) if a.get("samples") is not None else None
    val, best, exact = DT.feige_cn_window(
        int(a["n"]), int(a["d"]), window,
        budget=int(a.get("budget", 2_000_000)), samples=samples,
        seed=int(a.get("seed") or 0))
    return {"C_n": val, "maximizer": [list(p) for p in best],
            "exact": exact}, None, None, None, False


def _cmd_dichotomy(a):
    h = _parse_map(a["map"])
    m = parse_modulus(a["modulus"])
    d = int(a.get("d", 1))
    c, N = float(a["c"]), int(a["n"])
    eps = float(a["eps"])
    M = int(a["m"]) if a.get("m") else P.big_m(N, d, m, eps)
    phi = math.exp(P.phi_log(d, m, eps))
    rep1 = G.check_statement1(h, c, N, eps, m, d=d,
                              test_grid=int(a.get("test_grid", 5)))
    out = {"statement1": {"holds": rep1.holds, "omega_size": len(rep1.omega),
                          "threshold": rep1.threshold}}
    if not rep1.holds:
        rep2 = G.check_statement2(h, c, N, M, phi, d=d)
        out["statement2"] = _jsonable(rep2)
        out["branch"] = 2 if rep2.z is not None else None
    else:
        out["branch"] = 1
    return out, None, None, None, False


def _cmd_b1_trace(a):
    h = _parse_map(a["map"])
    m = parse_modulus(a["modulus"])
    tr = G.run_algorithm_b1(h, int(a.get("d", 1)), m, float(a["eps"]),
                            float(a["c"]), max_iters=int(a.get("max_iters", 6)))
    payload = {
        "p": tr.p, "branch": tr.branch,
        "offsets": [_jsonable(z) for z in tr.offsets],
        "bi_l_omega": tr.bi_l_omega,
        "modulus_bound_ok": tr.modulus_bound_ok,
    }
    return payload, None, None, None, False


def _cmd_volume_check(a):
    h = _parse_map(a["map"])
    m = parse_modulus(a["modulus"])
    rep = G.volume_diff_check(
        h, float(a["c"]), int(a["n"]), int(a.get("slab", 1)), m,
        float(a["eps"]), d=int(a.get("d", 2)), mode=a.get("mode", "auto"),
        budget=int(a.get("budget", 200_000)), seed=int(a.get("seed") or 0))
    return _jsonable(rep), None, None, None, rep.passed is False


def _cmd_symdiff(a):
    f = _parse_map(a["f"])
    g = _parse_map(a["g"])
    rep = G.symdiff_bound_check(f, g, grid_res=int(a.get("resolution", 64)))
    return _jsonable(rep), None, None, None, rep.violations > 0


def _cmd_boundary_measure(a):
    f = _parse_map(a["map"])
    eps_list = [float(v) for v in str(a["eps_list"]).split(",")]
    rows_data = G.boundary_neighborhood_measure(
        f, eps_list, grid_res=int(a.get("resolution", 256)))
    cols = ["eps", "measure", "raster_slack"]
    rows = [[r.eps, r.measure, r.raster_slack] for r in rows_data]
    return {"rows": _jsonable(rows_data)}, rows, cols, None, False


_HANDLERS = {
    "moduli-check": _cmd_moduli_check,
    "params": _cmd_params,
    "families": _cmd_families,
    "chessboard": _cmd_chessboard,
    "net-build": _cmd_net_build,
    "net-audit": _cmd_net_audit,
    "net-discrepancy": _cmd_net_discrepancy,
    "distort-exact": _cmd_distort,
    "distort-heuristic": _cmd_distort,
    "distort-profile": _cmd_profile,
    "feige-ls": _cmd_feige_ls,
    "feige-cn": _cmd_feige_cn,
    "dichotomy": _cmd_dichotomy,
    "b1-trace": _cmd_b1_trace,
    "volume-check": _cmd_volume_check,
    "symdiff": _cmd_symdiff,
    "boundary-measure": _cmd_boundary_measure,
}

_FLAGS = {
    "moduli-check": ["modulus", "grid_size", "tolerance"],
    "params": ["d", "modulus", "eps", "c", "max_levels", "certify", "L", "k"],
    "families": ["d", "modulus", "eps", "c", "levels", "offsets", "schedule"],
    "chessboard": ["d", "modulus", "eps", "c", "levels", "offsets", "schedule",
                   "xi", "delta_div", "base"],
    "net-build": ["rho", "corner", "side", "m", "binary"],
    "net-audit": ["points", "window", "resolution"],
    "net-discrepancy": ["rho", "corner", "side", "m"],
    "distort-exact": ["x", "y", "node_limit"],
    "distort-heuristic": ["x", "y", "restarts"],
    "distort-profile": ["rho", "scales", "modulus", "m"],
    "feige-ls": ["s", "n", "d"],
    "feige-cn": ["n", "d", "window", "budget", "samples"],
    "dichotomy": ["map", "modulus", "c", "n", "m", "eps", "d", "test_grid"],
    "b1-trace": ["map", "modulus", "eps", "c", "d", "max_iters"],
    "volume-check": ["map", "modulus", "c", "n", "slab", "eps", "d", "mode", "budget"],
    "symdiff": ["f", "g", "resolution"],
    "boundary-measure": ["map", "eps_list", "resolution"],
}

_BOOL_FLAGS = {"certify", "binary"}

# errors in what the caller asked for: exit 2
_CONFIG_ERRORS = (ConfigurationError, DomainError, RangeError, BudgetError,
                  FileNotFoundError, ValueError)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", help="output path prefix (writes .json/.csv/.svg)")
    common.add_argument("--format", choices=["csv", "json"], default="json",
                        help="stdout format when --out is not given")
    parser = argparse.ArgumentParser(
        prog="netlab", parents=[common],
        description="moduli, tiled families, nets and distortion experiments")
    sub = parser.add_subparsers(dest="command")
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name, parents=[common])
        for flag in flags:
            if flag in _BOOL_FLAGS:
                p.add_argument(f"--{flag.replace('_', '-')}", default=None,
                               action=argparse.BooleanOptionalAction)
            else:
                p.add_argument(f"--{flag.replace('_', '-')}", default=None)
    return parser


def _resolve(args: argparse.Namespace) -> tuple[str, dict]:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    command = args.command or config.get("command")
    if not command or command not in _HANDLERS:
        raise ConfigurationError(f"no valid command given (got {command!r})")
    resolved = dict(config.get("args", {}))
    for flag in _FLAGS[command]:
        val = getattr(args, flag, None)
        if val is not None:
            resolved[flag] = val
    if args.seed is not None:
        resolved["seed"] = args.seed
    resolved.setdefault("seed", 0)
    if command == "distort-exact":
        resolved["variant"] = "exact"
    if command == "distort-heuristic":
        resolved["variant"] = "heuristic"
    return command, resolved


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        command, resolved = _resolve(args)
        payload, rows, cols, svg, failed = _HANDLERS[command](resolved)
    except _CONFIG_ERRORS as exc:
        print(f"netlab: configuration error: {exc}", file=sys.stderr)
        return 2
    except PropertyViolation as exc:
        print(f"netlab: invariant check failed: {exc}", file=sys.stderr)
        return 1
    except NetlabError as exc:
        print(f"netlab: {exc}", file=sys.stderr)
        return 1

    meta = {
        "tool": "netlab",
        "version": __version__,
        "command": command,
        "config_hash": _config_hash({"command": command, "args": resolved}),
        "seed": resolved.get("seed", 0),
    }
    doc = json.dumps({"meta": meta, "result": _jsonable(payload)},
                     sort_keys=True, indent=1) + "\n"
    if args.out:
        _atomic_write(args.out + ".json", doc)
        if rows is not None:
            _atomic_write(args.out + ".csv", _csv_text(meta, cols, rows))
        if svg is not None:
            _atomic_write(args.out + ".svg", svg)
        if command == "net-build" and resolved.get("binary"):
            cloud = NG.PointCloud(np.array([[float(v) for v in r] for r in rows]))
            _atomic_write(args.out + ".netf", cloud.to_netf())
    else:
        if args.format == "csv" and rows is not None:
            sys.stdout.write(_csv_text(meta, cols, rows))
        else:
            sys.stdout.write(doc)
    if failed:
        print("netlab: an invariant check failed (see output)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point wiring the modules into reproducible runs.

Every run resolves its configuration (JSON config file, overridden by CLI
flags) through one command table, which gives each command's handler and each
flag's type and default; the resolved configuration holds every flag of the
command, typed, with its default filled in.  Outputs are stamped with the
tool version, a hash of that configuration and the seed, and written
atomically.  Reruns with the same configuration and seed are byte-identical.

Only scipy-free modules are imported at the top (errors, moduli, params,
density, numpy and mpmath), so ``moduli-check``, ``params``, ``families`` and
``chessboard`` start without scipy.  netgen, distortion and geomlab load
scipy; each handler, and each spec parser, that needs one imports it itself.

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
    """A CSV cell.  An int too long for ``str`` (over 4300 digits) is written
    exactly as ``0x`` hex, which ``int(cell, 0)`` reads back."""
    if isinstance(v, float):
        return repr(v)
    try:
        return str(v)
    except ValueError:
        return hex(v)


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
# spec parsers: each raises a netlab error naming the spec it cannot parse
# ---------------------------------------------------------------------------

def _read(path: str, binary: bool = False):
    """The contents of an input file, or a ConfigurationError naming it."""
    try:
        with open(path, "rb" if binary else "r") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path!r}: {exc}") from None


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not JSON ({exc})") from None


def _parse_map(spec: str, d: int | None = None):
    """Map specs: identity:d | affine:d:a11,a12,..[,b..] | shear:s |
    radial-bump:cx,..,amp,width | stretch:c,start,width,slope[,d].  A given
    ``d`` is the dimension the map must have; a stretch moves only the first
    coordinate, so without its own ``d`` it takes this one."""
    from . import geomlab as G
    kind, _, rest = spec.partition(":")
    if kind == "identity":
        dpart, rest = rest or "2", ""
    elif kind == "affine":
        dpart, _, rest = rest.partition(":")
    else:
        dpart = "1"
    try:
        dim = int(dpart)
        vals = [float(v) for v in rest.split(",")] if rest else []
    except ValueError:
        raise ConfigurationError(f"cannot parse map spec {spec!r}") from None
    h = None
    if dim < 1 or not all(map(math.isfinite, vals)):
        pass
    elif kind == "identity":
        h = G.identity_map(dim)
    elif kind == "affine" and len(vals) in (dim * dim, dim * dim + dim):
        A = np.array(vals[: dim * dim]).reshape(dim, dim)
        h = G.AffineMap(A, np.array(vals[dim * dim:]) if len(vals) > dim * dim else None)
    elif kind == "shear" and len(vals) == 1:
        h = G.shear_map(vals[0])
    elif kind == "radial-bump" and len(vals) >= 3:
        h = G.RadialBump(vals[:-2], vals[-2], vals[-1])
    elif kind == "stretch" and (len(vals) == 4 or len(vals) == 5 and vals[4] >= 1
                                and vals[4].is_integer()):
        h = G.two_region_stretch(*vals[:4], d=int(vals[4]) if len(vals) == 5 else d or 1)
    if h is None:
        raise ConfigurationError(f"cannot parse map spec {spec!r}")
    if d is not None and h.d != d:
        raise ConfigurationError(f"map spec {spec!r} is {h.d}-dimensional, not {d}")
    return h


def _fraction(text) -> Fraction:
    """A rational flag value such as ``5/2`` or ``0.1``."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"not a rational number: {text!r}") from None


def _float_list(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--{flag}: not a comma-separated list of numbers: {text!r}") from None


def _cube(a) -> list:
    """The cube of the net commands: ``--corner`` plus ``--side`` per axis."""
    return [(c, c + a.side) for c in map(_fraction, a.corner.split(","))]


def _parse_rho(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "const":
        return D.ConstantDensity(_fraction(rest))
    if kind == "chessboard":
        doc = _read_json(rest)  # as the chessboard command writes it
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
    try:
        return [(float(lo), float(hi)) for lo, _, hi in (p.partition(":") for p in parts)]
    except ValueError:
        raise ConfigurationError(f"cannot parse window spec {spec!r}") from None


def _parse_schedule(spec: str):
    try:
        return tuple((int(n), int(m))
                     for n, _, m in (part.partition("x") for part in spec.split(",")))
    except ValueError:
        raise ConfigurationError(f"cannot parse schedule spec {spec!r}") from None


def _load_points(path: str):
    """The point cloud of a ``.netf`` or CSV file."""
    from . import netgen as NG
    if path.endswith(".netf"):
        return NG.PointCloud.from_netf(_read(path, binary=True))
    return NG.PointCloud.from_csv(_read(path))


# ---------------------------------------------------------------------------
# command handlers: each reads its typed flags and returns an _Outcome
# ---------------------------------------------------------------------------

class _Outcome:
    """A command's result document, its CSV rows and columns (or None), the
    other files it writes under ``--out`` by extension, and whether one of
    its invariant checks failed."""

    def __init__(self, document, rows=None, columns=None, files=None, failed=False):
        self.document, self.rows, self.columns = document, rows, columns
        self.files, self.failed = files or {}, failed


def _cmd_moduli_check(a):
    rep = check_class_M(parse_modulus(a.modulus), a.grid_size, a.tolerance)
    return _Outcome(_jsonable(rep), failed=not rep.all_pass)


def _exp_or_text(log_value):
    """exp(log_value) as a float, or, past the float range, mpmath's
    17-digit text for it in the same d.ddde+NNN shape as a float's repr."""
    try:
        return math.exp(log_value)
    except OverflowError:
        with mpmath.workdps(17):
            return mpmath.nstr(mpmath.exp(log_value), 17)


def _cmd_params(a):
    m = parse_modulus(a.modulus)
    d, eps, c = a.d, a.eps, a.c
    if not (0.0 < eps < 1.0):
        raise ConfigurationError(f"eps must lie in (0,1), got {eps}")
    cert = P.certify_r(d, m, eps, c, a.max_levels) if a.certify else None
    trace = cert.trace if cert else P.param_sequence(d, m, eps, c, a.max_levels)
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
        m_bar = P.rescaled_modulus(m, a.L, a.k)
        kappa_cert = cert if m_bar is m else P.certify_r(d, m_bar, eps, c, a.max_levels)
        summary["kappa"] = P.kappa_from_certificate(kappa_cert, m)
    return _Outcome(summary, rows, cols)


def _families(a):
    """The nested family stack of the families and chessboard commands."""
    if a.schedule is not None:
        sched = D.FamilySchedule(c=a.c, counts=_parse_schedule(a.schedule))
    elif a.modulus is None or a.eps is None:
        raise ConfigurationError("give --schedule, or --modulus and --eps")
    else:
        trace = P.param_sequence(a.d, parse_modulus(a.modulus), a.eps, a.c, a.levels)
        sched = D.schedule_from_trace(trace, a.levels)
    return D.build_nested_families(sched, d=a.d, levels=a.levels,
                                   offsets=a.offsets, seed=a.seed)


def _cmd_families(a):
    fams = _families(a)
    report = D.nesting_measure_report(fams, d=a.d)
    payload = {
        "families": [f.to_json() for f in fams],
        "nesting": _jsonable(report),
    }
    files = {".svg": _families_svg(fams)} if a.d == 2 else {}
    return _Outcome(payload, files=files, failed=not report.passed)


def _cmd_chessboard(a):
    fams = _families(a)
    rho = D.chessboard_psi(fams, xi=a.xi, smoothing_delta=fams[-1].lam / a.delta_div,
                           base=a.base)
    gaps = rho.check_property2()
    payload = {
        "density": rho.to_json(),
        "property1": rho.check_property1(),
        "property2_min_gap": str(min(g for *_, g in gaps)),
        "pairs_checked": len(gaps),
    }
    files = {".svg": _families_svg(fams)} if a.d == 2 else {}
    return _Outcome(payload, files=files, failed=not payload["property1"])


def _cmd_net_build(a):
    from . import netgen as NG
    res = NG.construct_net_cube(_parse_rho(a.rho), _cube(a), a.m)
    cloud = res.cloud
    payload = {
        "points": len(cloud),
        "empty_cells": [list(t) for t in res.empty_cells],
        "cells": [{"index": list(c.index), "mass": str(c.mass), "n": c.n}
                  for c in res.cells],
    }
    files = {}
    if cloud.d == 2 and len(cloud):
        files[".svg"] = _points_svg(cloud.points, cloud.window)
    if a.binary:
        files[".netf"] = cloud.to_netf()
    return _Outcome(payload, cloud.points.tolist(), [f"x{k}" for k in range(cloud.d)],
                    files)


def _cmd_net_audit(a):
    from . import netgen as NG
    cloud = _load_points(a.points)
    window = _parse_window(a.window, cloud.d) if a.window is not None else None
    return _Outcome(_jsonable(NG.audit_net(cloud, window=window,
                                           grid_resolution=a.resolution)))


def _cmd_net_discrepancy(a):
    from . import netgen as NG
    rho = _parse_rho(a.rho)
    rep = NG.discrepancy_report(NG.construct_net_cube(rho, _cube(a), a.m))
    payload = {
        "per_cell": [{"index": list(i), "discrepancy": str(v)} for i, v in rep.per_cell],
        "max_abs": str(rep.max_abs),
        "bound": rep.bound,
        "never_overshoots": rep.never_overshoots,
        "within_bound": rep.within_bound,
    }
    return _Outcome(payload, failed=not rep.passed)


def _cmd_distort_exact(a):
    from . import distortion as DT
    X, Y = _load_points(a.x).points, _load_points(a.y).points
    rep = DT.min_bilip_exact(X, Y, node_limit=a.node_limit)
    if rep.method != "exact":
        print("netlab: warning: node limit reached; bilip is a heuristic "
              "upper bound", file=sys.stderr)
    return _Outcome(_jsonable(rep))


def _cmd_distort_heuristic(a):
    from . import distortion as DT
    X, Y = _load_points(a.x).points, _load_points(a.y).points
    return _Outcome(_jsonable(DT.min_bilip_heuristic(X, Y, seed=a.seed,
                                                     restarts=a.restarts)))


def _cmd_profile(a):
    from . import distortion as DT
    rho = _parse_rho(a.rho)
    scales = _float_list(a.scales, "scales")
    modulus = parse_modulus(a.modulus) if a.modulus is not None else None
    rows_data = DT.distortion_growth_profile(rho, scales, modulus=modulus,
                                             m_cells=a.m, seed=a.seed)
    cols = ["R", "n_points", "bilip_upper", "diameter_lower", "displacement",
            "bi_l_omega"]
    rows = [[r.R, r.n_points, r.bilip_upper, r.diameter_lower, r.displacement,
             r.bi_l_omega if r.bi_l_omega is not None else ""] for r in rows_data]
    return _Outcome({"rows": _jsonable(rows_data)}, rows, cols)


def _cmd_feige_ls(a):
    from . import distortion as DT
    return _Outcome({"L_S": DT.feige_ls(_load_points(a.s).points, a.n, a.d)})


def _cmd_feige_cn(a):
    from . import distortion as DT
    val, best, exact = DT.feige_cn_window(
        a.n, a.d, _parse_window(a.window, a.d), budget=a.budget,
        samples=a.samples, seed=a.seed)
    return _Outcome({"C_n": val, "maximizer": [list(p) for p in best], "exact": exact})


def _cmd_dichotomy(a):
    from . import geomlab as G
    h = _parse_map(a.map, a.d)
    m = parse_modulus(a.modulus)
    M = a.m if a.m is not None else P.big_m(a.n, a.d, m, a.eps)
    phi = math.exp(P.phi_log(a.d, m, a.eps))
    rep1 = G.check_statement1(h, a.c, a.n, a.eps, m, d=a.d, test_grid=a.test_grid)
    out = {"statement1": {"holds": rep1.holds, "omega_size": len(rep1.omega),
                          "threshold": rep1.threshold}}
    if not rep1.holds:
        rep2 = G.check_statement2(h, a.c, a.n, M, phi, d=a.d)
        out["statement2"] = _jsonable(rep2)
        out["branch"] = 2 if rep2.z is not None else None
    else:
        out["branch"] = 1
    return _Outcome(out)


def _cmd_b1_trace(a):
    from . import geomlab as G
    h = _parse_map(a.map, a.d)
    tr = G.run_algorithm_b1(h, a.d, parse_modulus(a.modulus), a.eps, a.c,
                            max_iters=a.max_iters)
    payload = {
        "p": tr.p, "branch": tr.branch,
        "offsets": [_jsonable(z) for z in tr.offsets],
        "bi_l_omega": tr.bi_l_omega,
        "modulus_bound_ok": tr.modulus_bound_ok,
    }
    return _Outcome(payload)


def _cmd_volume_check(a):
    from . import geomlab as G
    h = _parse_map(a.map, a.d)
    rep = G.volume_diff_check(
        h, a.c, a.n, a.slab, parse_modulus(a.modulus), a.eps, d=a.d, mode=a.mode,
        budget=a.budget, seed=a.seed)
    return _Outcome(_jsonable(rep), failed=rep.passed is False)


def _cmd_symdiff(a):
    from . import geomlab as G
    rep = G.symdiff_bound_check(_parse_map(a.f, 2), _parse_map(a.g, 2),
                                grid_res=a.resolution)
    return _Outcome(_jsonable(rep), failed=rep.violations > 0)


def _cmd_boundary_measure(a):
    from . import geomlab as G
    f = _parse_map(a.map, 2)
    rows_data = G.boundary_neighborhood_measure(
        f, _float_list(a.eps_list, "eps-list"), grid_res=a.resolution)
    cols = ["eps", "measure", "raster_slack"]
    rows = [[r.eps, r.measure, r.raster_slack] for r in rows_data]
    return _Outcome({"rows": _jsonable(rows_data)}, rows, cols)


# ---------------------------------------------------------------------------
# the command table: each command's handler and its flags' types and defaults
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a flag that must be given


class _Flag:
    """A flag's type (int, float, bool, str or _fraction), its default (None:
    optional, with no value) and its smallest admitted value, if any."""

    def __init__(self, type, default=_REQUIRED, low=None):
        self.type, self.default, self.low = type, default, low


# the JSON value kinds each flag type takes; command-line values are strings
_ACCEPTS = {int: (int, str), float: (int, float, str), bool: (bool,),
            str: (str,), _fraction: (int, float, str)}

# flag groups that several commands share
_SEED = _Flag(int, 0)
_FAMILY_GROUP = {"d": _Flag(int), "modulus": _Flag(str, None),
                 "eps": _Flag(float, None), "c": _Flag(_fraction),
                 "levels": _Flag(int, 3), "offsets": _Flag(str, "zero"),
                 "schedule": _Flag(str, None), "seed": _SEED}
_CUBE_GROUP = {"rho": _Flag(str), "corner": _Flag(str, "0,0"),
               "side": _Flag(_fraction), "m": _Flag(int)}
_PAIR_GROUP = {"x": _Flag(str), "y": _Flag(str)}
_MAP_GROUP = {"map": _Flag(str), "modulus": _Flag(str), "eps": _Flag(float),
              "c": _Flag(float)}

_COMMANDS = {
    "moduli-check": (_cmd_moduli_check, {
        "modulus": _Flag(str), "grid_size": _Flag(int, 64),
        "tolerance": _Flag(float, 1e-12)}),
    "params": (_cmd_params, {
        "d": _Flag(int), "modulus": _Flag(str), "eps": _Flag(float),
        "c": _Flag(float), "max_levels": _Flag(int, 48),
        "certify": _Flag(bool, True), "L": _Flag(float, 1.0), "k": _Flag(int, 1, 0)}),
    "families": (_cmd_families, _FAMILY_GROUP),
    "chessboard": (_cmd_chessboard, {
        **_FAMILY_GROUP, "xi": _Flag(_fraction, Fraction(1, 10)),
        "delta_div": _Flag(int, 100, 1), "base": _Flag(_fraction, None)}),
    "net-build": (_cmd_net_build, {**_CUBE_GROUP, "binary": _Flag(bool, False)}),
    "net-audit": (_cmd_net_audit, {
        "points": _Flag(str), "window": _Flag(str, None),
        "resolution": _Flag(int, 256, 1)}),
    "net-discrepancy": (_cmd_net_discrepancy, _CUBE_GROUP),
    "distort-exact": (_cmd_distort_exact, {
        **_PAIR_GROUP, "node_limit": _Flag(int, 5_000_000)}),
    "distort-heuristic": (_cmd_distort_heuristic, {
        **_PAIR_GROUP, "restarts": _Flag(int, 8), "seed": _SEED}),
    "distort-profile": (_cmd_profile, {
        "rho": _Flag(str), "scales": _Flag(str), "modulus": _Flag(str, None),
        "m": _Flag(int, 2), "seed": _SEED}),
    "feige-ls": (_cmd_feige_ls, {"s": _Flag(str), "n": _Flag(int), "d": _Flag(int)}),
    "feige-cn": (_cmd_feige_cn, {
        "n": _Flag(int), "d": _Flag(int, low=1), "window": _Flag(str),
        "budget": _Flag(int, 2_000_000), "samples": _Flag(int, None), "seed": _SEED}),
    "dichotomy": (_cmd_dichotomy, {
        **_MAP_GROUP, "n": _Flag(int), "m": _Flag(int, None), "d": _Flag(int, 1),
        "test_grid": _Flag(int, 5, 1)}),
    "b1-trace": (_cmd_b1_trace, {
        **_MAP_GROUP, "d": _Flag(int, 1), "max_iters": _Flag(int, 6)}),
    "volume-check": (_cmd_volume_check, {
        **_MAP_GROUP, "n": _Flag(int), "slab": _Flag(int, 1), "d": _Flag(int, 2),
        "mode": _Flag(str, "auto"), "budget": _Flag(int, 200_000), "seed": _SEED}),
    "symdiff": (_cmd_symdiff, {
        "f": _Flag(str), "g": _Flag(str), "resolution": _Flag(int, 64, 1)}),
    "boundary-measure": (_cmd_boundary_measure, {
        "map": _Flag(str), "eps_list": _Flag(str), "resolution": _Flag(int, 256, 1)}),
}

# run options: where the configuration comes from and where output goes
_RUN_OPTIONS = ("command", "config", "out", "format")

# errors in what the caller asked for: exit 2
_CONFIG_ERRORS = (ConfigurationError, DomainError, RangeError, BudgetError)


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def _typed(name: str, flag: _Flag, value):
    """A command-line string or config-file JSON value as the flag's type."""
    if type(value) in _ACCEPTS[flag.type]:
        try:
            typed = flag.type(value)
        except (ValueError, ConfigurationError):
            pass
        else:
            if flag.low is None or typed >= flag.low:
                return typed
            raise ConfigurationError(
                f"{_option(name)} must be >= {flag.low}, got {typed}")
    raise ConfigurationError(
        f"{_option(name)}: expected {flag.type.__name__.strip('_')}, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    """Run options are accepted before and after the command; the copies
    after it default to SUPPRESS so they never overwrite the ones before."""
    parser = argparse.ArgumentParser(
        prog="netlab",
        description="moduli, tiled families, nets and distortion experiments")
    sub = parser.add_subparsers(dest="command")
    commands = {name: sub.add_parser(name) for name in _COMMANDS}
    for p in (parser, *commands.values()):
        top = p is parser
        p.add_argument("--config", default=None if top else argparse.SUPPRESS,
                       help="JSON config file; flags override it")
        p.add_argument("--out", default=None if top else argparse.SUPPRESS,
                       help="output path prefix (writes .json/.csv/.svg/.netf)")
        p.add_argument("--format", choices=["csv", "json"],
                       default="json" if top else argparse.SUPPRESS,
                       help="stdout format when --out is not given")
    parser.add_argument("--seed", default=argparse.SUPPRESS,
                        help="int, default 0; seeded commands only")
    for name, (_, flags) in _COMMANDS.items():
        for flag, spec in flags.items():
            default = "required" if spec.default is _REQUIRED else f"default {spec.default}"
            commands[name].add_argument(
                _option(flag), default=argparse.SUPPRESS,
                action=argparse.BooleanOptionalAction if spec.type is bool else None,
                help=f"{spec.type.__name__.strip('_')}, {default}"
                     + ("" if spec.low is None else f", at least {spec.low}"))
    return parser


def _read_config(path: str) -> tuple:
    """The command and the args of a config file."""
    config = _read_json(path)
    if not (isinstance(config, dict) and set(config) <= {"command", "args"}
            and isinstance(config.get("command", ""), str)
            and isinstance(config.get("args", {}), dict)):
        raise ConfigurationError(
            f'{path}: not an object of a "command" string and an "args" object')
    return config.get("command"), config.get("args", {})


def _resolve(args: argparse.Namespace) -> tuple[str, dict]:
    """The command and every one of its flags, typed, defaults filled in."""
    command, given = _read_config(args.config) if args.config else (None, {})
    command = args.command or command
    if command not in _COMMANDS:
        raise ConfigurationError(f"no valid command given (got {command!r})")
    flags = _COMMANDS[command][1]
    cli = {k: v for k, v in vars(args).items() if k not in _RUN_OPTIONS}
    for where, values in ((args.config, given), ("command line", cli)):
        for key in values:
            if key not in flags:
                raise ConfigurationError(f"{where}: {command} takes no {key!r} "
                                         f"(it takes {', '.join(flags)})")
    given = {**given, **cli}
    resolved = {}
    for name, flag in flags.items():
        if name in given:
            resolved[name] = _typed(name, flag, given[name])
        elif flag.default is _REQUIRED:
            raise ConfigurationError(f"{_option(name)} is required for {command}")
        else:
            resolved[name] = flag.default
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigurationError(f"--out: no directory {os.path.dirname(args.out)!r}")
    return command, resolved


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command, resolved = _resolve(args)
        outcome = _COMMANDS[command][0](argparse.Namespace(**resolved))
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
    doc = json.dumps({"meta": meta, "result": _jsonable(outcome.document)},
                     sort_keys=True, indent=1) + "\n"
    if args.out:
        _atomic_write(args.out + ".json", doc)
        if outcome.rows is not None:
            _atomic_write(args.out + ".csv", _csv_text(meta, outcome.columns, outcome.rows))
        for ext, data in outcome.files.items():
            _atomic_write(args.out + ext, data)
    else:
        if args.format == "csv" and outcome.rows is not None:
            sys.stdout.write(_csv_text(meta, outcome.columns, outcome.rows))
        else:
            sys.stdout.write(doc)
    if outcome.failed:
        print("netlab: an invariant check failed (see output)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""netlab benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's ``src``.
Each pass runs the workload's job list in a fresh Python process (cold
``lru_cache``s and a cold scipy import, as a command-line user sees them),
one client, jobs one after another.  Passes repeat while the timed job
time of one more would still fit in ``--seconds``; at least one always
runs.  Before the passes, fresh processes that only import ``netlab.cli``
give set-up time samples.

Pass and set-up times are normalised to a fixed reference CPU speed by the
calibration kernel of ``pace.py``, because a shared host's speed drifts by
more than a useful regression bound between runs; the raw times are in the
report.  With ``--trace 0`` the last line reports ``norm_wall_s`` (median
pass time), ``setup_s`` (median set-up time over the probes and the passes)
and ``peak_rss_mb`` (median peak RSS of the passes).  With ``--trace 1``
every round is an untraced pass followed by a traced one, and the last line
reports the per-layer metrics of the traced passes (medians; their times
are normalised too and include the kernel's ~2% share) with
``trace.overhead_s``.  The failure ratio is ``failed / attempted`` on that line.
A fuller report, with the machine fingerprint and every pass, goes to
``.perfbench_out/`` in the checkout, as do the spans of the traced pass.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PASS_TIMEOUT_S = 170

# Seed handling and the reason for each workload, recorded in every result.
WORKLOADS = {
    "far_regime": {
        "seed": "picks two (alpha, eps, c) logpow triples, d=2, from a pool of six "
                "near the README example; every triple makes the same model work "
                "(16.8k-17.2k G evaluations per certify_r)",
        "why": "the mpmath far-regime model is the largest single cost and nothing "
               "else runs it, so params does almost all the work here and almost "
               "none elsewhere",
    },
    "net_distortion_raster": {
        "seed": "draws the family offsets, picks the 3-4 level schedules and shifts "
                "the CLI net's corner; draws the exact distortion instances, moves the "
                "fixed heuristic instances by lattice isometries (same distances, same "
                "work) and shifts the Feige window; jitters the map parameters and the "
                "Monte-Carlo sample seed; sizes and the growth profile input stay fixed",
        "why": "exact rational integration (density) and point generation (netgen) "
               "with an audit and CSV/NETF round trips of the same cloud, where cli "
               "serialises its largest outputs; the O(n^5)-per-sweep local search next "
               "to a growth profile whose n > 40 skips 3-cycles; the Python-set rasters "
               "next to Monte-Carlo mode and the boundary measure, which share their "
               "entry points but skip the sets; the three share a workload so that "
               "each run times long enough to average out a shared host's drifting "
               "CPU speed",
    },
}
EXCLUDED = ("net-build/distort-profile --rho chessboard:FILE (KeyError: 'base')",
            "volume-check --map radial-bump:... (numpy.bool_ not JSON serialisable)")

class SetupError(RuntimeError):
    pass


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can
    # be compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_probe(env) -> tuple[float, float]:
    """Raw and normalised set-up time of one fresh process."""
    t0 = _clock()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), "--probe"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"cannot import netlab.cli:\n{proc.stderr.strip()}")
    ready, scale, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SetupError(f"netlab.cli resolved to {path}, outside this checkout")
    raw = float(ready) - t0
    return raw, raw * float(scale)


def run_pass(workload, seed, trace, env, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = _clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed),
             "1" if trace else "0", str(work)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        crash = None if proc.returncode == 0 else proc.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        crash = f"pass exceeded {PASS_TIMEOUT_S} s"
    elapsed = _clock() - t0
    result_path = work / "result.json"
    if crash is not None or not result_path.exists():
        return {"trace": trace, "crash": crash or "no result written",
                "attempted": 1, "failed": 1, "elapsed_s": elapsed}
    result = json.loads(result_path.read_text())
    raw_setup = result.pop("ready") - t0
    result.update(trace=trace, elapsed_s=elapsed, setup_raw_s=raw_setup,
                  setup_s=raw_setup * result["setup_scale"])
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        shutil.copy(work / "spans.jsonl", OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return result


def fingerprint() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    out["nproc"] = len(os.sched_getaffinity(0))
    out["cpu"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    out["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return out


def _median(values):
    # no sample (every pass crashed): null in the JSON, and correct is false
    return statistics.median(values) if values else None


def measure(workload, seed, seconds, trace) -> tuple[dict, dict]:
    env = _env()
    work = OUT_DIR / f"work-{os.getpid()}"
    probes = [setup_probe(env) for _ in range(SETUP_PROBES)]
    setup_raw = [raw for raw, _ in probes]
    setup = [norm for _, norm in probes]
    passes = []
    try:
        rounds, timed = 0, 0.0
        while True:
            for traced in ((False, True) if trace else (False,)):
                p = run_pass(workload, seed, traced, env, work)
                passes.append(p)
                timed += p.get("wall_s", p["elapsed_s"])
            rounds += 1
            if timed + timed / rounds > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [p for p in passes if "crash" not in p]
    plain = [p for p in ok if not p["trace"]]
    traced = [p for p in ok if p["trace"]]
    setup += [p["setup_s"] for p in ok]
    setup_raw += [p["setup_raw_s"] for p in ok]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = _median([p["norm_wall_s"] for p in plain])
    if trace:
        keys = traced[0]["layers"] if traced else {}
        metrics = {k: _median([p["layers"][k] for p in traced]) for k in keys}
        traced_wall = _median([p["norm_wall_s"] for p in traced])
        metrics["trace.overhead_s"] = (None if traced_wall is None or wall is None
                                       else traced_wall - wall)
    else:
        metrics = {"norm_wall_s": wall, "setup_s": _median(setup),
                   "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain])}
    summary = {"correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
               "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "notes": WORKLOADS[workload], "excluded_cli_paths": EXCLUDED,
        "fingerprint": fingerprint(), "ref_kernel_s": pace.REF_KERNEL_S,
        "raw_wall_s": _median([p["wall_s"] for p in plain]),
        "raw_setup_s": _median(setup_raw),
        "setup_samples_s": setup, "setup_raw_samples_s": setup_raw,
        "passes": passes, "fail_ratio": failed / attempted, **summary,
    }
    return summary, report


UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_err")):
        return "ratio"
    if name.endswith("io_bytes") or name.endswith("bytes_out"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "netlab" / "cli.py").is_file():
        print(f"perfbench: no netlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    for job_fails in (p.get("failures", {}) for p in report["passes"]):
        for job, problems in job_fails.items():
            print(f"perfbench: {job}: " + "; ".join(problems), file=sys.stderr)
    for p in report["passes"]:
        if "crash" in p:
            print(f"perfbench: pass crashed: {p['crash']}", file=sys.stderr)

    print(f"netlab benchmark: {args.workload}, seed {args.seed}, "
          f"{len(report['passes'])} pass(es), trace {'on' if args.trace else 'off'}")
    metrics = summary["metrics"]
    for key, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:26s} {shown:>14s} {_unit(key)}")
    if not args.trace:
        for key in ("raw_wall_s", "raw_setup_s"):
            shown = "n/a" if report[key] is None else f"{report[key]:.6g}"
            print(f"  {key:26s} {shown:>14s} s (not normalised)")
    print(f"  {'fail_ratio':26s} {report['fail_ratio']:14.6g} ratio "
          f"({summary['failed']}/{summary['attempted']} jobs)")
    print(f"  report: {OUT_DIR / name}")
    summary["metrics"] = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR
    python3 perfbench/worker.py --probe

``PYTHONPATH`` must lead to the checkout's ``src``.  The first import of
netlab is ``netlab.cli``, so the time from process start to ``READY`` is
the set-up a command-line user pays; the ``pace`` calibration kernel runs
during that import and gives ``SETUP_SCALE``, the factor that brings the
set-up time to the reference CPU speed.  With ``--probe`` the process
prints ``READY``, ``SETUP_SCALE`` and the path of ``netlab.cli`` and ends.
Otherwise the jobs run one after another; only their ``run`` calls are
timed, with the kernel interleaved again, and the traced layer times are
scaled by the pass's factor.  Set-up and layer times include the kernel's
~2% share.  Peak RSS is read before the checks run.  The result, and with
TRACE=1 the spans, go to WORKDIR.
"""

import time

import pace

_setup = pace.Pacer()
_setup.start()
import netlab.cli  # noqa: E402  (the measured set-up)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)
_setup.stop()
SETUP_SCALE = _setup.scale

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    if argv == ["--probe"]:
        print(READY, SETUP_SCALE, netlab.cli.__file__)
        return 0
    workload, seed, trace, work = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    refs = workloads.load_references()
    extras = {}
    jobs = workloads.build(workload, seed, work, refs, extras)

    tracer = tracing.Tracer() if trace else None
    pacer = pace.Pacer()
    outs, errors, job_s = [], [], {}
    if tracer:
        tracer.install()
    pacer.start()
    try:
        for job in jobs:
            sid = tracer.open("bench", f"job:{job.name}") if tracer else None
            t0 = time.perf_counter()
            try:
                out, err = job.run(), None
            except (Exception, SystemExit):  # argparse exits on a bad CLI call
                out, err = None, traceback.format_exc(limit=4)
            job_s[job.name] = time.perf_counter() - t0
            if tracer:
                tracer.close(sid)
            outs.append(out)
            errors.append(err)
    finally:
        pacer.stop()
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = {}
    for job, out, err in zip(jobs, outs, errors):
        if err is not None:
            failures[job.name] = [err]
            continue
        try:
            found = workloads.check(job, out, refs)
        except Exception:
            found = [traceback.format_exc(limit=4)]
        if found:
            failures[job.name] = found

    result = {
        "ready": READY,
        "setup_scale": SETUP_SCALE,
        "wall_s": pacer.raw_s,
        "norm_wall_s": pacer.normalised_s,
        "kernels": len(pacer.kernels),
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
    }
    if tracer:
        # layer times at the reference speed, like the pass time
        layers = {k: v * pacer.scale if k.endswith("_s") else v
                  for k, v in tracer.metrics().items()}
        layers["params.r_rel_err"] = extras.get("params.r_rel_err", 0.0)
        result["layers"] = layers
        tracer.dump(work / "spans.jsonl")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

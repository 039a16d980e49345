"""Regenerate perfbench/references.json.  A one-off: run it only when a
change to netlab is meant to change results, and say so in that change.

    PYTHONPATH=src python3 perfbench/make_references.py

Far regime: for every pool triple, ``r_hp`` is certify_r's r with the
model's working precision raised by 20 digits (the far-regime r at the
default precision is only good to about 17 digits), and ``kappa`` is the
default-precision value.  Every other job with a ``ref`` key stores its
summary from a pass at the default seed; the heuristic, Feige and profile
references do not depend on the seed.
"""

import json
import sys
import tempfile
from pathlib import Path

import netlab.cli  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from netlab import params as P  # noqa: E402
from netlab.moduli import logpow  # noqa: E402

EXTRA_DIGITS = 20


def far_references() -> dict:
    refs = {}
    default_dps = P._dps_for
    for alpha, eps, c in workloads.FAR_POOL:
        m = logpow(alpha)
        P._dps_for = lambda ph_log: default_dps(ph_log) + EXTRA_DIGITS
        try:
            r_hp = P.certify_r(2, m, eps, c).r
        finally:
            P._dps_for = default_dps
        kappa = P.kappa(2, m, 1.0, 1, eps, c)
        refs[workloads.far_key(alpha, eps, c)] = {"r_hp": str(r_hp), "kappa": kappa}
        print(f"far {alpha} {eps} {c}: r_hp={r_hp} kappa={kappa!r}", flush=True)
    return refs


def default_seed_references(refs) -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for name in workloads.JOB_LISTS:
            if name == "far_regime":
                continue
            jobs = workloads.build(name, workloads.DEFAULT_SEED, Path(tmp), refs, {})
            for job in jobs:
                result = job.run()
                problems = job.problems(result) if job.problems else []
                if problems:
                    raise SystemExit(f"{name}/{job.name}: {problems}")
                if job.ref is not None and job.summary is not None:
                    out[job.ref] = job.summary(result)
            print(f"{name}: {len(jobs)} jobs", flush=True)
    return out


def main() -> int:
    refs = far_references()
    refs.update(default_seed_references(refs))
    workloads.REFERENCES_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

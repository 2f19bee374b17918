"""One benchmark pass in a fresh process: set up, run the jobs once, check.

Run by ``run.py``; prints one JSON object on stdout.  A fresh process per
pass matters: the library caches results on objects and in
``lru_cache``-wrapped catalog builders, so a second pass in one process
would time cache hits.

    python3 bench/worker.py --workload W --seed N --pass-index I \
        --spawned-at T --tmpdir D [--setup-only] [--trace] [--reference]

With ``--reference`` the process also reads the host's speed
(``reference.py``): after set-up, and after every job of the pass.

Pass I of seed N draws its inputs from the random stream "N/I", so the
passes of one run measure different labellings and two runs of one seed
measure the same ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import fibercover  # noqa: E402

if not os.path.abspath(fibercover.__file__).startswith(SRC + os.sep):
    sys.exit(f"fibercover was imported from {fibercover.__file__}, not {SRC}")

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Reference seconds run after set-up, to read the host's speed then.
SETUP_REFERENCE_S = 0.1


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    setup, run, check, digest = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    inputs = setup(random.Random(f"{args.seed}/{args.pass_index}"), args.tmpdir)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.reference:
        ref = reference.Reference()
        ref.run(SETUP_REFERENCE_S)
        out["setup_speed"] = ref.speed()
    if args.setup_only:
        print(json.dumps(out))
        return
    if args.reference:
        workloads.REFERENCE = ref = reference.Reference()

    if tracer is not None:
        tracer.phase = "pass"
    results, times = run(inputs)
    out["wall_s"] = sum(times.values())
    if args.reference:
        workloads.REFERENCE = None
        out["speed"] = ref.speed()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.phase = "check"
    rows = check(inputs, results)
    out["jobs"] = len(rows)
    out["failures"] = [f"{job}: {detail}" for job, ok, detail in rows if not ok]
    text = json.dumps(digest(results), sort_keys=True, default=str)
    out["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        degree = tracing.busiest_degree(summary)
        out["trace"] = summary
        out["kernel_degree"] = degree
        out["kernel_ns"] = tracing.kernel_ns(degree, args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

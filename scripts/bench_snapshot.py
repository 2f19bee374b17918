#!/usr/bin/env python3
"""Write one point of the committed benchmark trajectory.

Runs ``bench/run.py --trace 0`` of a checkout on the ``nielsen``,
``fiber`` and ``growth`` workloads, one after another, each once at
the fixed ``SEED`` and ``SECONDS``, and writes ``BENCH_<n>.json`` at the
root of this repository:

    {"git_sha", "python", "nproc", "seed", "seconds",
     "workloads": {name: {"wall_s", "setup_s", "peak_rss_mib",
                          "success_rate", "correct"}}}

``--checkout`` names the checkout to measure (a git clone of an earlier
commit, say); it defaults to this repository.  Compare two snapshots
only when they were taken on the same host.  A snapshot is one run per
workload: it records where the trajectory stands, not a gain, which
only alternating pairs of runs can show.

    python3 scripts/bench_snapshot.py 1
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("nielsen", "fiber", "growth")
METRICS = ("wall_s", "setup_s", "peak_rss_mib", "success_rate")
SEED = 5
SECONDS = 40


def run_workload(checkout: str, workload: str) -> dict:
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row["correct"] = result["correct"]
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="the snapshot's index in BENCH_<n>.json")
    parser.add_argument("--checkout", default=ROOT)
    args = parser.parse_args()
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=args.checkout, capture_output=True, text=True, check=True,
    ).stdout.strip()
    snapshot = {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {w: run_workload(args.checkout, w) for w in WORKLOADS},
    }
    path = os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(path, "w") as out:
        json.dump(snapshot, out, indent=2)
        out.write("\n")
    print(path)


if __name__ == "__main__":
    main()

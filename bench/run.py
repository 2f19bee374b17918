#!/usr/bin/env python3
"""The fibercover benchmark.

    python3 bench/run.py --workload {nielsen,fiber,growth} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --write-manifest     # regenerate BENCHMARK.json

Run from the repository root.  A closed loop with one caller: each timed
pass is a fresh single-threaded worker process (``worker.py``) that sets
up the seeded inputs, runs the workload's jobs once and checks every
result; the next pass starts when the previous one has exited, while
another one is expected to fit in ``--seconds``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, medians over the run's samples, the times scaled by
the host's speed read at the same moments (``reference.py``).  With
``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics of the traced ones.  The lines before it print
every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
import tracing  # noqa: E402

# Every run must end within 180 s; a worker is stopped well before that.
RUN_LIMIT_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(args, tmpdir: str, deadline: float, index: int, *flags: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--pass-index", str(index),
        "--spawned-at", repr(spawned_at),
        "--tmpdir", tmpdir,
        *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    timeout = max(1.0, deadline - spawned_at)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, tmpdir: str) -> tuple[dict, list[str]]:
    """Run the passes; returns the result object and report lines.

    Pass i draws the labelling "seed/i", so runs of one seed measure the
    same inputs in the same order.  Passes start while another one is
    expected to end within ``--seconds``; there is always at least one.
    A traced run makes an untraced and a traced pass on each of a fixed
    number of inputs, so that its counts repeat exactly."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    setups: list[tuple[float, float]] = []  # (seconds, host speed)
    plain: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    digests: dict[int, set[str]] = {}

    def one(index: int, *flags: str) -> dict | None:
        try:
            out = spawn(args, tmpdir, deadline, index, *flags)
        except (WorkerError, ValueError) as exc:
            errors.append(str(exc))
            return None
        setups.append((out["setup_s"], out.get("setup_speed", 1.0)))
        return out

    if not args.trace:
        for index in range(spec.SETUP_SPAWNS):
            one(index, "--setup-only", "--reference")
    kinds = [(), ("--trace",)] if args.trace else [("--reference",)]
    index = 0
    longest = 0.0
    while not errors:
        begun = time.monotonic()
        for flags in kinds:
            out = one(index, *flags)
            if out is None:
                break
            (traced if "--trace" in flags else plain).append(out)
            digests.setdefault(index, set()).add(out["digest"])
        longest = max(longest, time.monotonic() - begun)
        index += 1
        if args.trace:
            if index == spec.TRACE_PAIRS[args.workload]:
                break
        elif time.monotonic() - started + longest > args.seconds:
            break

    done = plain + traced
    jobs = max((p["jobs"] for p in done), default=1)
    attempted = sum(p["jobs"] for p in done) + jobs * len(errors)
    failed = sum(len(p["failures"]) for p in done) + jobs * len(errors)
    inconsistent = [i for i, d in digests.items() if len(d) > 1]
    correct = failed == 0 and not inconsistent
    report = [f"{args.workload} seed {args.seed}: {len(done)} passes"]
    report += [f"  error: {e}" for e in errors]
    report += [f"  failed: {f}" for p in done for f in p["failures"][:5]]
    report += [f"  pass {i}: traced and untraced results differ" for i in inconsistent]

    walls = [p["wall_s"] for p in plain]
    if walls:
        report.append("  passes, raw:    " + " ".join(f"{w:7.3f}" for w in walls) + " s")
    if args.trace:
        metrics, lines = traced_metrics(traced, walls)
    else:
        speeds = [p["speed"] for p in plain]
        report.append("  host speed:     " + " ".join(f"{v:7.3f}" for v in speeds))
        metrics = {
            "wall_s": (median([w * v for w, v in zip(walls, speeds)]), "s", len(plain)),
            "setup_s": (median([s * v for s, v in setups]), "s", len(setups)),
            "peak_rss_mib": (
                median([p["peak_rss_mib"] for p in plain]),
                "MiB",
                len(plain),
            ),
            "success_rate": ((attempted - failed) / attempted, "ratio", attempted),
        }
        lines = []
    for name, (value, unit, n) in metrics.items():
        lines.append(f"  {name:34s} {value:>16.6f} {unit:6s} (n = {n})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }
    return result, report + lines


def traced_metrics(traced: list[dict], untraced_walls: list[float]):
    """Per-layer metrics: medians over the traced passes."""
    per_pass = []
    for p in traced:
        m = tracing.layer_metrics(p["trace"])
        m["permcore.mul_ns"] = p["kernel_ns"]["mul"]
        m["permcore.conjugate_ns"] = p["kernel_ns"]["conjugate"]
        m["trace.overhead_s"] = p["wall_s"]
        per_pass.append(m)
    metrics = {
        name: (median([m[name] for m in per_pass]), unit, len(per_pass))
        for name, unit, *_ in spec.PER_LAYER
    }
    traced_wall, unit, n = metrics["trace.overhead_s"]
    metrics["trace.overhead_s"] = (traced_wall - median(untraced_walls), unit, n)
    lines = [f"  kernel ns measured at degree {p['kernel_degree']}" for p in traced[:1]]
    return metrics, lines


def write_manifest() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.manifest(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fibercover", "__init__.py")):
        print(f"error: no fibercover sources under {ROOT}/src", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        result, lines = measure(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

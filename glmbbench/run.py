"""Benchmark of the geoglmb estimator; see README.md in this directory.

Run from the root of a checkout:

    python3 glmbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics, as the last line of standard output:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

This script uses the standard library only.  It primes the bytecode cache
with one interpreter and runs the workload in a process of its own, so that
its memory and timings belong to it alone.  ``setup_s`` is the median of
several fresh interpreters importing the package and loading the site
table, started before and after the workload, each normalized by the
machine's speed at that moment (see speed.py).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import statistics
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = (
    "onsoy-joint-ranked",
    "taipei-joint-gibbs",
    "taipei-clutter-ranked",
    "onsoy-independent-cli",
)
SETUP_STARTS_BEFORE, SETUP_STARTS_AFTER = 1, 2
DEADLINE_S = 170.0
SETUP_CODE = (
    "import geoglmb, geoglmb.cli; "
    "geoglmb.load_site_table(geoglmb.bundled_site_path({site!r}))"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geoglmb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = perf_counter()

    src = Path.cwd() / "src"
    if not (src / "geoglmb" / "__init__.py").is_file():
        print(f"error: no geoglmb package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # Each workload name starts with the site whose table it loads.
    setup = [sys.executable, "-c", SETUP_CODE.format(site=args.workload.split("-")[0])]

    def time_starts(count: int) -> list[float]:
        if args.trace:
            return []
        return speed.timed_repeats(
            lambda: subprocess.run(setup, env=env, check=True, timeout=60), count
        )

    try:
        subprocess.run(setup, env=env, check=True, timeout=60)
        speed.warm_up()
        starts = time_starts(SETUP_STARTS_BEFORE)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, DEADLINE_S - (perf_counter() - began)),
        )
        if proc.returncode == 0:
            starts += time_starts(SETUP_STARTS_AFTER)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload exited {proc.returncode}", file=sys.stderr)
        return 1

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"samples checked against brute force: {result['samples']}", file=sys.stderr)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(starts), "unit": "s"}
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

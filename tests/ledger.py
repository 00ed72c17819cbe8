"""Interpreter work ledger: the Python-level work one benchmark trial does.

Run from the root of a checkout:

    PYTHONPATH=src python tests/ledger.py --workload NAME [--workload NAME ...]

For each trial seed of each named ``glmbbench`` workload (all four when none
is named) it runs ``experiment.run_trial`` in this process and prints one
JSON line: the opcodes executed (``sys.settrace`` with ``f_trace_opcodes``),
the Python calls and the C calls (``sys.setprofile``), and the seconds the
recording took.  The trial configs and seeds are read from
``glmbbench/workload.py``'s ``WORKLOADS``; the CLI workload's config is its
command line's, run for its base seed alone.

Each trial is recorded right after one unrecorded run of itself, with the
collector off, so lazy imports and the process-wide caches are warm and the
counts do not depend on what ran before.  The counts are exact and repeat
from run to run, but they depend on the Python and numpy versions, and they
do not see work inside C loops such as numpy's.  So they are evidence beside
benchmark pairs, not a test gate.  The file's name keeps pytest from
collecting it.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from geoglmb.cli import _build_config, build_parser
from geoglmb.experiment import ExperimentConfig, run_trial
from geoglmb.scenario import bundled_records

BENCH_DIR = Path(__file__).resolve().parents[1] / "glmbbench"


def workloads() -> dict:
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from workload import WORKLOADS
    finally:
        sys.path.remove(str(BENCH_DIR))
    return WORKLOADS


def trials(spec: dict) -> tuple[ExperimentConfig, list[int]]:
    """A workload's trial config and the seeds to record."""
    if "cli" in spec:
        args = build_parser().parse_args(spec["cli"] + ["--seed", str(spec["base_seed"])])
        return _build_config(args), [spec["base_seed"]]
    return ExperimentConfig(site=spec["site"], **spec["config"]), list(spec["seeds"])


def record(fn, *args) -> dict:
    """Opcodes, Python calls and C calls of ``fn(*args)``."""
    counts = {"opcodes": 0, "python_calls": 0, "c_calls": 0}

    def local(frame, event, arg):
        if event == "opcode":
            counts["opcodes"] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def profile(frame, event, arg):
        if event == "call":
            counts["python_calls"] += 1
        elif event == "c_call":
            counts["c_calls"] += 1

    gc.collect()
    gc.disable()
    began = time.perf_counter()
    sys.settrace(start)
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
        gc.enable()
    counts["record_s"] = round(time.perf_counter() - began, 3)
    return counts


def main(argv=None) -> int:
    known = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(known))
    args = parser.parse_args(argv)
    for name in args.workload or known:
        spec = known[name]
        config, seeds = trials(spec)
        records = bundled_records(spec["site"])
        for seed in seeds:
            run_trial(records, config, seed, spec["site"])
            counts = record(run_trial, records, config, seed, spec["site"])
            print(json.dumps({"workload": name, "seed": seed, **counts}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

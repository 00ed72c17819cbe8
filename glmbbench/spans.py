"""In-memory span recording around the program's public functions.

A span is (name, start, end, parent, trial, data): ``parent`` is the index
of the enclosing span in the same list (-1 for a root) and ``data`` is an
optional tuple of work counts taken from the call's arguments and result.
Spans are recorded by replacing a function under the module attribute its
caller looks up, so nothing inside the program changes.

Pool workers started by fork inherit the installed wrappers.  A worker
notices that its pid differs from the recording process, drops the spans it
inherited, and appends its own spans to ``worker_dir`` after every trial, so
the recording process can merge them once the pool has shut down.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, worker_dir: Path | None = None):
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list = []
        self.stack: list[int] = []
        self.trial = -1
        self.in_worker = False

    def wrap(self, name, fn, data=None):
        """``fn`` recording one span per call; ``data(args, result)`` -> tuple."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                payload = data(args, result) if data is not None and result is not None else None
                spans[idx] = (name, start, end, parent, self.trial, payload)

        return traced

    def wrap_trial_worker(self, name, fn):
        """Span around a pool trial function; flushes spans when in a worker."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def worker(args):
            if os.getpid() != self.pid:
                self.pid = os.getpid()
                self.spans, self.stack = [], []
                self.in_worker = True
            self.trial = int(args[-1])
            result = inner(args)
            if self.in_worker:
                self._flush_worker()
            return result

        return worker

    def _flush_worker(self) -> None:
        path = self.worker_dir / f"worker-{self.pid}.tsv"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(format_spans(self.spans))
        self.spans = []

    def collect_workers(self) -> None:
        """Append the spans pool workers wrote, re-indexing their parents."""
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("worker-*.tsv")):
            offset = len(self.spans)
            for rec in parse_spans(path.read_text(encoding="utf-8")):
                name, start, end, parent, trial, data = rec
                self.spans.append(
                    (name, start, end, parent + offset if parent >= 0 else -1, trial, data)
                )
            path.unlink()

    def write(self, path: Path) -> None:
        path.write_text(format_spans(self.spans), encoding="utf-8")


def format_spans(spans) -> str:
    """Tab-separated lines; parents are indices into this chunk."""
    lines = []
    for name, start, end, parent, trial, data in spans:
        payload = "" if data is None else ",".join(str(v) for v in data)
        lines.append(f"{name}\t{start!r}\t{end!r}\t{parent}\t{trial}\t{payload}\n")
    return "".join(lines)


def parse_spans(text: str) -> list:
    out = []
    for line in text.splitlines():
        name, start, end, parent, trial, payload = line.split("\t")
        data = tuple(int(v) for v in payload.split(",")) if payload else None
        out.append((name, float(start), float(end), int(parent), int(trial), data))
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total time, self time and summed data.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since each process
    records spans from a single thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for idx, (name, start, end, _, _, data) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "data": None})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[idx]
        if data is not None:
            agg["data"] = data if agg["data"] is None else tuple(
                a + b for a, b in zip(agg["data"], data)
            )
    return out


def childless(spans, name: str, child: str) -> tuple[int, float]:
    """Calls and time of ``name`` spans that have no direct ``child`` span."""
    with_child = {parent for n, _, _, parent, _, _ in spans if n == child and parent >= 0}
    calls, total = 0, 0.0
    for idx, (n, start, end, _, _, _) in enumerate(spans):
        if n == name and idx not in with_child:
            calls += 1
            total += end - start
    return calls, total


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = wrapper`` for each (module name, attr, factory).

    ``factory`` receives the original function.  Originals come back on exit.
    """
    saved = []
    try:
        for module_name, attr, factory in replacements:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

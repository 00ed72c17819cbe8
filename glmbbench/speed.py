"""Timings normalized by the machine's current speed.

On the reference machine (a 2-core KVM guest on a shared host) the
processor's speed drifts by up to 2x, in phases from under a second to
minutes.  One Taipei Gibbs trial, repeated back to back for 100 s, took
0.17-0.43 s, with CPU time equal to wall time.  The fastest of several
passes still moved by 27% (interquartile range over median) between runs a
few minutes apart.

A fixed pure-Python kernel is run repeatedly for a short window right
before and right after each timed item.  It slows down with the machine: a
four times longer version took 10.6 ms in fast phases and 20 ms in slow
ones, while that Gibbs trial took 0.20 s and 0.37 s.  The item is reported as
``elapsed * REFERENCE_S / mean kernel time``: seconds at the machine's
fast-phase speed.  A window rather than a single kernel run, because the
speed also flickers within a second and a long item averages over that.  A
change to the program moves the elapsed time but not the kernel, so it
shows in full.  It helps most for short items: on the same trials, the
variation between repeats of one Taipei Gibbs trial fell from 13% to 7.6%,
while that of a 2.5 s onsoy joint trial stayed at about 11%.

Standard library only, so that ``run.py`` can use it too.
"""
from __future__ import annotations

import math
from time import perf_counter

# The kernel's time in the reference machine's fast phases (Python 3.11.7).
REFERENCE_S = 0.0025
WINDOW_S = 0.15


def _kernel() -> float:
    """Dictionary, tuple, float and sort work, like the program's Python paths."""
    table: dict = {}
    acc = 0.0
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + math.exp(-(i % 50) * 0.01)
        acc += math.log1p(i) * 0.5
    ranked = sorted(table.items(), key=lambda kv: -kv[1])
    return acc + ranked[0][1]


def kernel_s() -> float:
    """Mean kernel time over one window: the machine's speed right now."""
    times = []
    end = perf_counter() + WINDOW_S
    while True:
        start = perf_counter()
        _kernel()
        now = perf_counter()
        times.append(now - start)
        if now >= end:
            return math.fsum(times) / len(times)


def timed(fn, *args, **kwargs):
    """(result, normalized seconds) of one call."""
    before = kernel_s()
    start = perf_counter()
    result = fn(*args, **kwargs)
    elapsed = perf_counter() - start
    after = kernel_s()
    return result, elapsed * REFERENCE_S / ((before + after) / 2.0)


def timed_repeats(fn, count: int) -> list[float]:
    """Normalized seconds of ``count`` back-to-back calls of ``fn()``; each
    window serves the calls on both sides of it."""
    out = []
    before = kernel_s()
    for _ in range(count):
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        after = kernel_s()
        out.append(elapsed * REFERENCE_S / ((before + after) / 2.0))
        before = after
    return out


def warm_up() -> None:
    """Let the interpreter specialize the kernel's bytecode before timing."""
    for _ in range(5):
        _kernel()

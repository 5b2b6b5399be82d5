"""The worker count a thread pool would use.

charfol evaluates every command serially; only the benchmark harness
(`perfbench/run.py`) still imports `thread_count`, to record it with a
run. CHARFOL_THREADS caps the count; unset, it is min(8, CPU count).
"""

from __future__ import annotations

import os


def thread_count() -> int:
    raw = os.environ.get("CHARFOL_THREADS", "")
    try:
        k = int(raw)
    except ValueError:
        k = 0
    if k < 1:
        k = min(8, os.cpu_count() or 1)
    return k

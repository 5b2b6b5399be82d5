"""The worker count recorded with a benchmark run.

Every charfol command runs serially, in one thread; the benchmark
harness (`perfbench/run.py`) still imports `thread_count` to record it
with a run.
"""


def thread_count() -> int:
    """1: every command is serial."""
    return 1

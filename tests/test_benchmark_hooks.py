"""The names the benchmark harness in perfbench/ reads from charfol.

The harness wraps layer functions in place, probes one field evaluation
per workload and records `charfol.parallel.thread_count` with every
run. A renamed or deleted hook would otherwise show up only in
`perfbench/selftest.py`, which runs whole workloads.
"""

import importlib
from pathlib import Path

import pytest

import charfol.cli  # noqa: F401  (the tracer patches imported modules)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_installs_and_undoes_its_wrappers(tracer):
    from charfol.contact import FoliationField
    before = FoliationField.__dict__["vector"]
    with tracer.Tracer().installed():
        assert FoliationField.__dict__["vector"] is not before
    assert FoliationField.__dict__["vector"] is before


@pytest.mark.parametrize("workload", ["column", "shells", "grid"])
def test_probe_field_counts_operations(tracer, workload):
    counts = tracer.op_counts(*tracer.probe_field(workload))
    assert counts and all(isinstance(v, int) for v in counts.values())


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run")


# run.py counts what a job raises as a failed job, but what these raise
# stops the whole run
def test_run_metadata_reads_thread_count(bench_run):
    assert bench_run.metadata("shells", 0, 0.0, 0)["charfol_threads"] >= 1


def test_run_imports_charfol_from_this_checkout(bench_run):
    assert bench_run.import_charfol() is charfol.cli

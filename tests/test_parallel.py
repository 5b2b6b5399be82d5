"""The fork-join helper and the commands that run on it.

`parallel.pmap` forks one child per further usable CPU. The worker
count is pinned here through `parallel._cpus`, so that the forked path
runs on a one-CPU host too. Every test that forks checks afterwards
that no child is left to reap.
"""

import os
import signal

import numpy as np
import pytest

from charfol import certify, mori, parallel
from charfol.cli import main
from charfol.contact import FoliationField
from test_dynamics import graph_setup


def _workers(monkeypatch, n: int):
    monkeypatch.setattr(parallel, "_cpus", lambda: n)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(argv, tmp_path, capsys):
    """(exit code, report bytes, stdout, stderr) of one command line."""
    out = tmp_path / "r.json"
    rc = main([*argv, "--json", str(out)])
    got = capsys.readouterr()
    return rc, out.read_bytes() if out.exists() else None, got.out, got.err


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("size", [0, 1, 2, 5, 8])
def test_pmap_returns_the_items_in_order(monkeypatch, n, size):
    _workers(monkeypatch, n)
    parent = os.getpid()
    out = parallel.pmap(lambda x: (x * x, os.getpid()), range(size))
    assert [v for v, _ in out] == [x * x for x in range(size)]
    # share 0 is the caller's, every other share a child's
    assert [pid == parent for _, pid in out] == [
        i % min(size, n) == 0 for i in range(size)]
    _no_children_left()


def test_pmap_is_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert parallel.thread_count() == 1
    parent = os.getpid()
    assert parallel.pmap(lambda x: os.getpid(), range(4)) == [parent] * 4


def test_thread_count_is_the_usable_cpus():
    assert parallel.thread_count() == len(os.sched_getaffinity(0))


def test_nested_pmap_runs_serially(monkeypatch):
    _workers(monkeypatch, 2)

    def outer(x):
        return os.getpid(), parallel.pmap(lambda y: os.getpid(), range(4))

    out = parallel.pmap(outer, range(4))
    assert len({pid for pid, _ in out}) == 2
    for pid, inner in out:
        assert inner == [pid] * 4
    _no_children_left()


def test_a_share_whose_child_dies_is_computed_again(monkeypatch):
    _workers(monkeypatch, 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x + 1

    assert parallel.pmap(fn, range(5)) == [1, 2, 3, 4, 5]
    _no_children_left()


def test_the_first_item_that_raises_raises(monkeypatch):
    # item 1 is a child's and item 2 the caller's; the caller computes
    # its own share first, and still raises item 1's error, as a serial
    # run does
    _workers(monkeypatch, 2)

    def fn(x):
        if x >= 1:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="^item 1$"):
        parallel.pmap(fn, range(4))
    _no_children_left()


@pytest.mark.parametrize("argv", [["certify", "mori-column"],
                                  ["certify", "s2-height"]])
def test_reports_do_not_depend_on_the_worker_count(argv, monkeypatch,
                                                   tmp_path, capsys):
    _workers(monkeypatch, 1)
    serial = _run(argv, tmp_path, capsys)
    _workers(monkeypatch, 2)
    forked = _run(argv, tmp_path, capsys)
    _no_children_left()
    assert serial[0] == 0
    assert forked == serial


def test_the_column_uses_what_its_child_sent(monkeypatch):
    # a share computed again in the parent would give the same report,
    # only later; each result here names the process that computed it
    _workers(monkeypatch, 2)
    parent = os.getpid()
    column_orbit, seed_chases = mori._column_orbit, certify._seed_chases

    def shoot(*args):
        orbit = column_orbit(*args)
        orbit.pid = os.getpid()
        return orbit

    def chase(*args):
        ok, notes, records, reasons = seed_chases(*args)
        return ok, [*notes, os.getpid()], records, reasons

    monkeypatch.setattr(mori, "_column_orbit", shoot)
    monkeypatch.setattr(certify, "_seed_chases", chase)
    scene, surface, info = mori.column_scene(mori.PerturbationSpec())
    col = mori.column_certificate(FoliationField(scene, surface), info)
    _no_children_left()
    assert [o.pid == parent for o in col["orbits"]] == [True, False]
    assert [pid == parent for pid in col["certificate"].notes] == [
        True, False] * 5


def test_a_chase_that_raises_in_a_child_only_changes_nothing(
        monkeypatch, tmp_path, capsys):
    argv = ["certify", "s2-height"]
    _workers(monkeypatch, 1)
    serial = _run(argv, tmp_path, capsys)
    parent = os.getpid()
    chase = certify._chase

    def child_fails(*args):
        if os.getpid() != parent:
            raise ZeroDivisionError("in the child")
        return chase(*args)

    monkeypatch.setattr(certify, "_chase", child_fails)
    _workers(monkeypatch, 2)
    assert _run(argv, tmp_path, capsys) == serial
    _no_children_left()


def test_a_seed_that_raises_gives_the_serial_error(monkeypatch, tmp_path,
                                                   capsys):
    # at seed 0, `certify s2-height` chases seeds 1 and 2 first with
    # x < 0; seed 1 is in the child's share, seed 2 in the parent's
    seed_chases = certify._seed_chases

    def negative_x_fails(field, q, *args):
        if q[0] < 0.0:
            raise ZeroDivisionError(f"seed {np.round(q, 4)}")
        return seed_chases(field, q, *args)

    monkeypatch.setattr(certify, "_seed_chases", negative_x_fails)
    got = {}
    for n in (1, 2):
        _workers(monkeypatch, n)
        got[n] = _run(["certify", "s2-height"], tmp_path, capsys)
    _no_children_left()
    assert got[2] == got[1]
    assert got[1] == (2, None, "",
                      "error: seed [-0.3319 -0.5323 -0.7788]\n")


def test_a_recurrence_reason_is_stated_once(monkeypatch):
    # the torus of graph_setup has two closed orbits and no zeros; with
    # an empty census every chase of the 4 seeds reads recurrent
    _workers(monkeypatch, 2)
    field, _ = graph_setup(0.3)
    seeds = field.surface_samples(np.random.default_rng(3), 4)
    cert = certify.check_morse_smale(field, seeds)
    _no_children_left()
    assert cert.verdict == "fail"
    assert len(cert.recurrence) == 8
    assert cert.reasons == ["a sampled trajectory is recurrent without "
                            "being asymptotic to any element"]

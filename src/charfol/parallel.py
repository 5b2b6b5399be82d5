"""Fork-join over independent items, one worker per usable CPU.

`pmap(fn, items)` returns `[fn(x) for x in items]`, in item order. With
n > 1 usable CPUs (`os.sched_getaffinity`) and at least n items, the
calling process does every n-th item from the first (`items[0::n]`)
and forks one child for each further share (`items[k::n]`). A child
inherits `fn` and the items from the fork, so neither needs to be
picklable; it sends its share's results back pickled, down a pipe, and
always leaves through `os._exit`. Forked interpreters run the shares
truly side by side, where threads would take turns on the GIL. Forking
is safe because charfol starts no threads.

Each result is computed by the same code on the same inputs as in a
serial run, so a report has the same bytes whatever the worker count.
The traced kernels a child adds to a field stay in that child: the
parent traces its own where it needs them, and a kernel computes the
same floats wherever it was traced. Errors are the serial ones too: a
share that did not come back (its child raised, or died) is computed
again in the parent, in item order with every other missing item, so
the first item that raises raises in the parent, with the message and
exit code a serial run gives. Nothing else comes back: what `fn`
changes in a child's memory, counters and spies included, is lost
with the child.

pmap runs serially where there is one usable CPU or one item, where
`os.fork` or `os.sched_getaffinity` is missing, and inside a share of
another pmap, so nested calls never fork more workers than CPUs.
"""

from __future__ import annotations

import gc
import os
import pickle

# whether this process is computing a share of a pmap: a property of the
# process, which a forked child inherits set
_busy = False


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def thread_count() -> int:
    """The most workers a pmap runs on: one per usable CPU."""
    return _cpus()


def _child(fn, share, w: int):
    """Compute a share in a forked child, write its results, and exit.

    The objects inherited from the parent are frozen first
    (`gc.freeze`), so the child's collections never walk them, which
    would write to each and copy every page they sit on. The parent does
    not freeze: on `gc.unfreeze` its young garbage would join the oldest
    generation and outlive the call, raising its peak memory."""
    try:
        gc.freeze()
        data = pickle.dumps([fn(x) for x in share], pickle.HIGHEST_PROTOCOL)
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _reap(pid: int):
    """Kill a child, if it still runs, and wait for it."""
    from signal import SIGKILL      # keeps `signal` off start-up
    try:
        os.kill(pid, SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def pmap(fn, items) -> list:
    """[fn(x) for x in items], the shares computed side by side."""
    global _busy
    items = list(items)
    n = min(len(items), _cpus())
    if n < 2 or _busy:
        return [fn(x) for x in items]
    missing = object()
    out = [missing] * len(items)
    children = []                       # (pid, read end, share index)
    _busy = True
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break                   # its shares are computed below
            if pid == 0:
                os.close(r)
                _child(fn, items[k::n], w)
            os.close(w)
            children.append((pid, r, k))
        try:
            for i in range(0, len(items), n):
                out[i] = fn(items[i])
        except Exception:
            pass                        # raised again below, in item order
        while children:
            pid, r, k = children.pop(0)
            try:
                with os.fdopen(r, "rb") as fh:
                    out[k::n] = pickle.loads(fh.read())
            except Exception:
                pass                    # nothing came back; computed below
            finally:
                _reap(pid)
    finally:
        _busy = False
        for pid, r, _ in children:
            os.close(r)
            _reap(pid)
    return [_again(fn, x) if y is missing else y for x, y in zip(items, out)]


def _again(fn, x):
    """fn(x) again in the parent, for an item whose share raised, died or
    sent results that do not pickle."""
    return fn(x)

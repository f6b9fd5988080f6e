"""`fork_map(fn, items)`: `[fn(item) for item in items]` over forked workers.

One worker per usable CPU, at most one per item, inherits `fn` and all it
refers to at fork; only items and results are pickled. It runs in process
on one CPU, without fork, while other threads run (fork is unsafe then) and
inside a worker, so pools do not nest. Either way the caller gets the same
results and errors: a worker's warnings are re-issued in item order from
their own file and line, through their module's registry; the lowest
failing item's error is raised after its warnings; pending items are
cancelled and every worker is joined.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor

_fn = None  # the function a worker maps, inherited at fork
_in_worker = False  # set as a worker starts


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_worker(fn) -> None:
    global _fn, _in_worker
    _fn, _in_worker = fn, True


def _plain(caught) -> list:
    """Recorded warnings as (category, message, filename, lineno), which
    pickle whatever a warning carried."""
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _call(item):
    """`_fn(item)` and its warnings; on failure they ride on the error as
    its `_worker_warnings`."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _fn(item), _plain(caught)
        except Exception as exc:
            exc._worker_warnings = _plain(caught)
            raise


def _reissue(caught) -> None:
    """Issue warnings recorded in a worker with the module and registry
    `warnings.warn` would use at their file and line."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for category, message, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno,
                               getattr(module, "__name__", None), registry)


def fork_map(fn, items) -> list:
    """`[fn(item) for item in items]`, over forked workers where they may run."""
    items = list(items)
    workers = min(len(items), _usable_cpus())
    if (workers < 2 or _in_worker or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(item) for item in items]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn,))
    results = []
    try:
        for result, caught in pool.map(_call, items):
            _reissue(caught)
            results.append(result)
    except Exception as exc:
        _reissue(getattr(exc, "_worker_warnings", ()))
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return results

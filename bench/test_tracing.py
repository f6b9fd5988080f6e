"""Tests of the benchmark's span arithmetic and metric names.

    python3 -m pytest -q bench/test_tracing.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """Returns the next scripted time on every call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_nested_self_times_add_up_to_the_parent_duration():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 10.0]))
    root = tracer.enter("root")
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    tracer.exit(a)
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(root)
    selfs = tracing.self_times(tracer.spans)
    assert [s.parent for s in tracer.spans] == [-1, root, a, root]
    assert selfs == [3.0, 3.0, 2.0, 2.0]
    assert sum(selfs) == tracer.spans[root].duration
    assert tracing.under_root(tracer.spans, a) == [a, b]
    assert tracing.nesting_faults(tracer.spans, root) == []


def test_nesting_faults_name_spans_that_leave_their_parent_or_overlap():
    Span = tracing.Span
    # root [0, 10] > a [1, 6], b [5, 8] overlaps a, c [9, 11] ends after root
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 6.0, 0),
             Span("b", 5.0, 8.0, 0), Span("c", 9.0, 11.0, 0)]
    faults = tracing.nesting_faults(spans, 0)
    assert len(faults) == 2
    assert "span 2 (b) overlaps" in faults[0] and "span 3 (c) leaves" in faults[1]
    assert tracing.nesting_faults([Span("r", 2.0, 1.0, -1)], 0) == ["span 0 (r) ends before it starts"]


def test_wrapped_calls_nest_and_group_totals_count_nesting_once():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("g.inner", inner)

    def outer(x):
        return wrapped_inner(wrapped_inner(x))

    wrapped_outer = tracer.wrap("g.outer", outer, info=lambda fn, a, k, r: r)
    with tracer.root("pass") as root:
        assert wrapped_outer(1) == 3
    spans = tracer.spans
    v = tracing.view(spans, root)
    assert v.calls("g.inner") == 2 and v.infos("g.outer") == [3]
    assert v.total(("g.outer", "g.inner")) == v.total("g.outer")
    assert abs(sum(v.selfs[i] for i in v.indices) - spans[root].duration) < 1e-12


def test_call_cost_is_a_small_positive_time():
    assert 0.0 < tracing.call_cost(calls=20_000, repeats=3) < 1e-3


def test_install_wraps_imported_names_and_uninstall_restores_them():
    from freqsev import evaluation, glm

    original = glm.poisson_deviance_contributions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert glm.poisson_deviance_contributions is not original
        glm.poisson_deviance_contributions(np.ones(3), np.ones(3), np.ones(3))
    finally:
        tracer.uninstall()
    assert glm.poisson_deviance_contributions is original
    assert evaluation.poisson_deviance_contributions is original
    assert [s.name for s in tracer.spans] == ["evaluation.poisson_deviance_contributions"]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracing.per_layer_units()

"""Spans around the public functions of each freqsev module.

`Tracer.install()` replaces every wrapped function at each name through
which callers look it up: the attribute of its own module, the names
other freqsev modules imported with ``from .x import f``, and the class
attribute for methods. Each call records one span (name, start, end,
parent, info) in memory; `info` is a per-call count taken from the
arguments or the result, such as the trees a `fit_gbm` call grew.

`layer_metrics()` turns the spans of one traced pass into the per-layer
metrics listed in `LAYER_METRICS` and `TRACE_METRICS`. A span's self time
is its duration minus the durations of its direct children. When every
child lies inside its parent and siblings do not overlap, which
`nesting_faults()` checks, self times are never negative and those of a
root and all its descendants add up to the root's duration.

`call_cost()` measures what one wrapped call costs over a bare call; the
tracing overhead of a pass is estimated as its span count times that cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass

MODULES = (
    "data", "embedding", "glm", "gbm", "neural", "pipeline",
    "interpretation", "surrogate", "tariff", "evaluation",
)


def _rows(fn, args, kwargs, result):
    return len(result[0] if isinstance(result, tuple) else result)


def _gbm_trees(fn, args, kwargs, result):
    return result.n_trees


def _gbm_row_trees(fn, args, kwargs, result):
    model = args[0]
    n_trees = args[2] if len(args) > 2 else kwargs.get("n_trees")
    return len(result) * (len(model.trees) if n_trees is None else min(n_trees, len(model.trees)))


def _epochs(fn, args, kwargs, result):
    """(epochs run, whether early stopping ended training)."""
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    epochs = result.history["epochs"]
    return epochs, epochs < call.arguments["max_epochs"]


def _qualified(fn, args, kwargs, result):
    return int(result[2])


def _grid_points(fn, args, kwargs, result):
    return len(result.grid)


def _murphy_cells(fn, args, kwargs, result):
    return len(args[0]) * len(result.thetas)


def _surrogate_counts(fn, args, kwargs, result):
    family = args[2] if len(args) > 2 else kwargs["family"]
    return (family, len(result.report["candidates"]), len(result.report["selected"]["mains"]))


# (module, attribute, per-call info or None); the span is "module.attribute".
# An info callable takes (function, args, kwargs, result).
TARGETS = (
    ("data", "load_schema", None),
    ("data", "load_csv", None),
    ("data", "load_claims_csv", None),
    ("data", "severity_view", None),
    ("data", "stratified_folds", None),
    ("data", "generate_synthetic_portfolio", None),
    ("data", "Dataset.subset", None),
    ("data", "Dataset.with_column", None),
    ("embedding", "select_dimension", _qualified),
    ("embedding", "train_autoencoder", None),
    ("glm", "tree_bin", None),
    ("glm", "fit_glm", None),
    ("glm", "GlmModel.predict", None),
    ("gbm", "tune_gbm", None),
    ("gbm", "fit_gbm", _gbm_trees),
    ("gbm", "BoostedModel.predict", _gbm_row_trees),
    ("neural", "train_network", _epochs),
    ("neural", "forward", _rows),
    ("pipeline", "run_pipeline", None),
    ("pipeline", "build_fold_context", None),
    ("pipeline", "tune_network_specs", None),
    ("pipeline", "fit_fold_network", None),
    ("pipeline", "fit_fold_gbm", None),
    ("pipeline", "fit_fold_glm", None),
    ("pipeline", "fold_deviance", None),
    ("interpretation", "permutation_vip", None),
    ("interpretation", "partial_dependence", _grid_points),
    ("interpretation", "partial_dependence_2d", None),
    ("interpretation", "default_pd_grid", None),
    ("surrogate", "build_surrogate", _surrogate_counts),
    ("surrogate", "segment_variable", None),
    ("surrogate", "choose_k", None),
    ("surrogate", "dp_segment", None),
    ("tariff", "technical_premium", _rows),
    ("tariff", "compare_tariffs", None),
    ("evaluation", "poisson_deviance", None),
    ("evaluation", "poisson_deviance_contributions", None),
    ("evaluation", "gamma_deviance", None),
    ("evaluation", "gamma_deviance_contributions", None),
    ("evaluation", "diebold_mariano", None),
    ("evaluation", "default_theta_grid", None),
    ("evaluation", "murphy_curve", _murphy_cells),
    ("evaluation", "dominance", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed; restores the originals
    on `uninstall()`."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), 0.0, parent))
        self._stack.append(index)
        return index

    def exit(self, index: int, info=None) -> None:
        self.spans[index].end = self._clock()
        self.spans[index].info = info
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-level span, such as one pass; yields its index."""
        index = self.enter(name)
        try:
            yield index
        finally:
            self.exit(index)

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(index)
                raise
            self.exit(index, None if info is None else info(fn, args, kwargs, result))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"freqsev.{m}") for m in MODULES}
        for module_name, attr, info in TARGETS:
            name = f"{module_name}.{attr}"
            owner = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, original, info))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, info)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def nesting_faults(spans: list[Span], root: int) -> list[str]:
    """Spans below `root` that end before they start, leave their
    parent's interval or overlap an earlier sibling; empty when the
    spans nest."""
    faults, last_end = [], {}
    for i in under_root(spans, root):
        s = spans[i]
        if s.end < s.start:
            faults.append(f"span {i} ({s.name}) ends before it starts")
        if i == root:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            faults.append(f"span {i} ({s.name}) leaves its parent {s.parent} ({p.name})")
        if s.start < last_end.get(s.parent, s.start):
            faults.append(f"span {i} ({s.name}) overlaps an earlier sibling")
        last_end[s.parent] = s.end
    return faults


def under_root(spans: list[Span], root: int) -> list[int]:
    """Indices of the root and every span nested below it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


@dataclass(frozen=True)
class View:
    """The spans below one root, with per-name aggregates."""

    spans: list[Span]
    indices: list[int]
    selfs: list[float]

    def named(self, names):
        names = {names} if isinstance(names, str) else set(names)
        return [i for i in self.indices if self.spans[i].name in names]

    def outermost(self, names):
        """Spans of the group with no ancestor in the same group, so a
        group's time is not counted twice when its members nest."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for i in self.named(names):
            p = self.spans[i].parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def total(self, names) -> float:
        return sum(self.spans[i].duration for i in self.outermost(names))

    def calls(self, names) -> int:
        return len(self.named(names))

    def self_time(self, names) -> float:
        return sum(self.selfs[i] for i in self.named(names))

    def infos(self, names) -> list:
        return [self.spans[i].info for i in self.named(names)]


def view(spans: list[Span], root: int) -> View:
    return View(spans, under_root(spans, root), self_times(spans))


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _surrogate(v: View, family: str, field: int):
    return sum(i[field] for i in v.infos("surrogate.build_surrogate") if i[0] == family)


_SEGMENT = ("surrogate.segment_variable", "surrogate.choose_k", "surrogate.dp_segment")
_DEVIANCE = (
    "evaluation.poisson_deviance", "evaluation.poisson_deviance_contributions",
    "evaluation.gamma_deviance", "evaluation.gamma_deviance_contributions",
)

# name -> (unit, function of the pass view). `data.synth_s` is read from the
# set-up spans instead, because portfolios are generated during set-up.
LAYER_METRICS = {
    "data.load_csv_s": ("s", lambda v: v.total(("data.load_csv", "data.load_claims_csv", "data.load_schema"))),
    "data.folds_s": ("s", lambda v: v.total("data.stratified_folds")),
    "data.synth_s": ("s", lambda v: v.total("data.generate_synthetic_portfolio")),
    "data.subset_calls": ("count", lambda v: v.calls("data.Dataset.subset")),
    "data.subset_s": ("s", lambda v: v.total("data.Dataset.subset")),
    "data.with_column_calls": ("count", lambda v: v.calls("data.Dataset.with_column")),
    "embedding.select_dimension_s": ("s", lambda v: v.total("embedding.select_dimension")),
    "embedding.autoencoder_calls": ("count", lambda v: v.calls("embedding.train_autoencoder")),
    "embedding.qualified_share": ("share", lambda v: _ratio(
        sum(v.infos("embedding.select_dimension")), v.calls("embedding.select_dimension"))),
    "glm.tree_bin_s": ("s", lambda v: v.total("glm.tree_bin")),
    "glm.tree_bin_calls": ("count", lambda v: v.calls("glm.tree_bin")),
    "glm.fit_s": ("s", lambda v: v.total("glm.fit_glm")),
    "glm.fit_calls": ("count", lambda v: v.calls("glm.fit_glm")),
    "glm.predict_s": ("s", lambda v: v.total("glm.GlmModel.predict")),
    "gbm.tune_s": ("s", lambda v: v.total("gbm.tune_gbm")),
    "gbm.fit_s": ("s", lambda v: v.total("gbm.fit_gbm")),
    "gbm.trees_grown": ("count", lambda v: sum(v.infos("gbm.fit_gbm"))),
    "gbm.trees_per_s": ("1/s", lambda v: _ratio(sum(v.infos("gbm.fit_gbm")), v.total("gbm.fit_gbm"))),
    "gbm.predict_s": ("s", lambda v: v.total("gbm.BoostedModel.predict")),
    "gbm.predict_row_trees": ("count", lambda v: sum(v.infos("gbm.BoostedModel.predict"))),
    "gbm.row_trees_per_s": ("1/s", lambda v: _ratio(
        sum(v.infos("gbm.BoostedModel.predict")), v.total("gbm.BoostedModel.predict"))),
    "neural.train_s": ("s", lambda v: v.total("neural.train_network")),
    "neural.train_calls": ("count", lambda v: v.calls("neural.train_network")),
    "neural.epochs": ("count", lambda v: sum(e for e, _ in v.infos("neural.train_network"))),
    "neural.early_stop_share": ("share", lambda v: _ratio(
        sum(early for _, early in v.infos("neural.train_network")), v.calls("neural.train_network"))),
    "neural.forward_s": ("s", lambda v: v.total("neural.forward")),
    "neural.forward_rows": ("count", lambda v: sum(v.infos("neural.forward"))),
    "pipeline.fold_context_s": ("s", lambda v: v.total("pipeline.build_fold_context")),
    "pipeline.tune_networks_s": ("s", lambda v: v.total("pipeline.tune_network_specs")),
    "pipeline.fit_fold_network_s": ("s", lambda v: v.total("pipeline.fit_fold_network")),
    "pipeline.fit_fold_gbm_s": ("s", lambda v: v.total("pipeline.fit_fold_gbm")),
    "pipeline.run_self_s": ("s", lambda v: v.self_time("pipeline.run_pipeline")),
    "interpretation.vip_s": ("s", lambda v: v.total("interpretation.permutation_vip")),
    "interpretation.pd_s": ("s", lambda v: v.total("interpretation.partial_dependence")),
    "interpretation.pd_calls": ("count", lambda v: v.calls("interpretation.partial_dependence")),
    "interpretation.pd_grid_points": ("count", lambda v: sum(v.infos("interpretation.partial_dependence"))),
    "interpretation.pd2d_s": ("s", lambda v: v.total("interpretation.partial_dependence_2d")),
    "interpretation.pd_grid_s": ("s", lambda v: v.total("interpretation.default_pd_grid")),
    "surrogate.build_self_s": ("s", lambda v: v.self_time("surrogate.build_surrogate")),
    "surrogate.segment_s": ("s", lambda v: v.total(_SEGMENT)),
    "surrogate.candidates.freq": ("count", lambda v: _surrogate(v, "poisson_log", 1)),
    "surrogate.candidates.sev": ("count", lambda v: _surrogate(v, "gamma_log", 1)),
    "surrogate.mains_selected.freq": ("count", lambda v: _surrogate(v, "poisson_log", 2)),
    "surrogate.mains_selected.sev": ("count", lambda v: _surrogate(v, "gamma_log", 2)),
    "tariff.premium_s": ("s", lambda v: v.total("tariff.technical_premium")),
    "tariff.rows_per_s": ("1/s", lambda v: _ratio(
        sum(v.infos("tariff.technical_premium")), v.total("tariff.technical_premium"))),
    "tariff.compare_s": ("s", lambda v: v.total("tariff.compare_tariffs")),
    "evaluation.murphy_s": ("s", lambda v: v.total("evaluation.murphy_curve")),
    "evaluation.murphy_cells": ("count", lambda v: sum(v.infos("evaluation.murphy_curve"))),
    "evaluation.dm_s": ("s", lambda v: v.total("evaluation.diebold_mariano")),
    "evaluation.deviance_s": ("s", lambda v: v.total(_DEVIANCE)),
}

SETUP_METRICS = frozenset({"data.synth_s"})
TRACE_METRICS = {
    "trace.wall_s": "s",  # the traced pass
    "trace.overhead_s": "s",  # estimated: spans times the cost of one wrapped call
    "trace.root_self_s": "s",  # pass time outside every wrapped call
    "trace.spans": "count",
}


def call_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds over a bare call: the median over
    `repeats` of timing `calls` calls of a wrapped and a bare no-op."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return max(statistics.median(costs), 0.0)


def per_layer_units() -> dict[str, str]:
    """Name and unit of every metric a traced run reports."""
    return {**{n: u for n, (u, _) in LAYER_METRICS.items()}, **TRACE_METRICS}


def layer_metrics(spans: list[Span], setup_root: int, pass_root: int,
                  span_cost: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); `span_cost` is the cost of
    one wrapped call, from `call_cost()`."""
    setup, traced = view(spans, setup_root), view(spans, pass_root)
    out = {
        name: (float(fn(setup if name in SETUP_METRICS else traced)), unit)
        for name, (unit, fn) in LAYER_METRICS.items()
    }
    wall = spans[pass_root].duration
    values = {
        "trace.wall_s": wall,
        "trace.overhead_s": (len(traced.indices) - 1) * span_cost,
        "trace.root_self_s": traced.selfs[pass_root],
        "trace.spans": float(len(traced.indices)),
    }
    out.update({name: (values[name], unit) for name, unit in TRACE_METRICS.items()})
    return out

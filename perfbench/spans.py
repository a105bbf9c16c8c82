"""Spans, step marks and counters recorded around the calls into flowal.

Nothing here changes the library.  The benchmark replaces, for the length
of a ``patched`` block, the names that each calling module imported
(``flowal.engine.fit_forest``, ``flowal.bench.load_csv``, ...) with
wrappers, and puts the originals back afterwards.  A round run outside such
a block executes exactly the library's own code.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``attrs`` holds what the wrapper
counted, such as the rows a prediction call saw or the trees and nodes of
the model a fit returned.  Spans stay in memory until the benchmark writes
them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, None])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def traced(self, name: str, fn: Callable,
               attrs: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``attrs(args, result)`` fills its attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if attrs is not None:
                self.spans[index][ATTRS] = attrs(args, result)
            return result

        return wrapper

    def write_jsonl(self, fh, extra: Dict) -> None:
        """One JSON object per span, tagged with ``extra``."""
        for i, (name, start, end, parent, attrs) in enumerate(self.spans):
            record = dict(extra, id=i, name=name, start=start, end=end,
                          parent=parent)
            if attrs is not None:
                record["attrs"] = attrs
            fh.write(json.dumps(record) + "\n")


def maybe_span(tracer: Optional[Tracer], name: str):
    """A span on ``tracer``, or nothing when the round is untraced."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class StepMarks:
    """Timestamps at step boundaries, turned into step durations per loop.

    ``mark`` is called when a step begins; ``close`` when the loop that ran
    the steps returns, which ends its last step.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.durations = array("d")  # compact: a run keeps every step time
        self._marks: List[float] = []

    def mark(self) -> None:
        self._marks.append(self.clock())

    def close(self) -> None:
        ends = self._marks[1:] + [self.clock()]
        self.durations.extend(b - a for a, b in zip(self._marks, ends))
        self._marks = []

    def marking(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.mark()
            return fn(*args, **kwargs)

        return wrapper

    def closing(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper


class Counter:
    """Counts calls through a wrapped function."""

    def __init__(self):
        self.calls = 0

    def counting(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return wrapper


@contextlib.contextmanager
def patched(patches):
    """Apply ``(owner, attribute, make_wrapper)`` triples, undo them on exit.

    Triples apply in order, so a later one wraps what an earlier one left.
    """
    saved = []
    try:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _model_attrs(args, model):
    members = getattr(model, "members", (model,))
    trees = [t for m in members for t in m.trees]
    return {"trees": len(trees), "nodes": sum(len(t.feature) for t in trees)}


def _predict_attrs(args, result):
    rows = int(result.shape[0])
    return {"rows": rows, "routed": rows * args[0].n_trees}


def _score_attrs(args, result):
    return {"rows": int(result.shape[0])}


def layer_patches(tracer: Tracer):
    """Span wrappers on every layer entry point the benchmark measures."""
    import flowal.bench
    import flowal.cli
    import flowal.engine
    import flowal.strategies
    from flowal.forest import ForestModel

    def t(name, attrs=None):
        return lambda fn: tracer.traced(name, fn, attrs)

    return [
        (flowal.engine, "fit_forest", t("engine.fit_forest", _model_attrs)),
        (flowal.engine, "fit_committee", t("engine.fit_committee", _model_attrs)),
        (flowal.engine, "evaluate_accuracy", t("engine.evaluate_accuracy")),
        (flowal.engine, "select_batch", t("engine.select_batch")),
        (flowal.engine, "oracle_label", t("engine.oracle_label")),
        (flowal.engine, "train_lal_regressor", t("engine.train_lal_regressor")),
        (flowal.bench, "fit_forest", t("bench.fit_forest", _model_attrs)),
        (flowal.bench, "load_csv", t("bench.load_csv")),
        (flowal.bench, "run_pool_loop", t("engine.run_pool_loop")),
        (flowal.cli, "emit_report", t("cli.emit_report")),
        (flowal.cli, "generate_synthetic", t("dataset.generate_synthetic")),
        (flowal.strategies, "score_pool", t("strategies.score_pool", _score_attrs)),
        (flowal.strategies, "information_density",
         t("strategies.information_density")),
        (flowal.strategies, "fit_regression_forest",
         t("strategies.fit_regression_forest", _model_attrs)),
        (ForestModel, "vote_counts", t("forest.vote_counts", _predict_attrs)),
    ]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def nesting_errors(spans: List[list]) -> List[str]:
    """Spans that end before they start or stick out of their parent."""
    errors = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} {name} has no valid end")
        elif parent >= 0:
            p = spans[parent]
            if start < p[START] or end > p[END]:
                errors.append(f"span {i} {name} leaves its parent {p[NAME]}")
    return errors


FIT_SPANS = ("engine.fit_forest", "engine.fit_committee", "bench.fit_forest")
LOOP_SPANS = ("engine.run_pool_loop", "engine.run_stream_loop")


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer totals over the spans of one traced round or set-up.

    Times are sums of span durations (a layer's calls do not nest in one
    another); ``engine.loop_other_s`` is the self time of the loop spans,
    i.e. loop time outside every wrapped call.
    """
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    attr_sums: Dict[str, Dict[str, int]] = {}
    own = self_times(spans)
    loop_self = 0.0
    for i, (name, start, end, _, attrs) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if attrs:
            sums = attr_sums.setdefault(name, {})
            for k, v in attrs.items():
                sums[k] = sums.get(k, 0) + v
        if name in LOOP_SPANS:
            loop_self += own[i]

    def s(name):
        return total.get(name, 0.0)

    def a(name, key):
        return attr_sums.get(name, {}).get(key, 0)

    fit_s = sum(s(n) for n in FIT_SPANS)
    nodes = sum(a(n, "nodes") for n in FIT_SPANS)
    predict_calls = calls.get("forest.vote_counts", 0)
    predict_rows = a("forest.vote_counts", "rows")
    return {
        "dataset.generate_s": s("dataset.generate_synthetic"),
        "dataset.load_csv_s": s("bench.load_csv"),
        "forest.fit_s": fit_s,
        "forest.fit_calls": sum(calls.get(n, 0) for n in FIT_SPANS),
        "forest.trees": sum(a(n, "trees") for n in FIT_SPANS),
        "forest.nodes": nodes,
        "forest.fit_us_per_node": fit_s * 1e6 / nodes if nodes else 0.0,
        "forest.committee_fit_s": s("engine.fit_committee"),
        "forest.regression_fit_s": s("strategies.fit_regression_forest"),
        "forest.predict_s": s("forest.vote_counts"),
        "forest.predict_calls": predict_calls,
        "forest.predict_rows": a("forest.vote_counts", "routed"),
        "forest.rows_per_predict_call":
            predict_rows / predict_calls if predict_calls else 0.0,
        "strategies.score_s": s("strategies.score_pool"),
        "strategies.score_rows": a("strategies.score_pool", "rows"),
        "strategies.density_s": s("strategies.information_density"),
        "strategies.lal_train_s": s("engine.train_lal_regressor"),
        "strategies.lal_train_calls": calls.get("engine.train_lal_regressor", 0),
        "engine.evaluate_s": s("engine.evaluate_accuracy"),
        "engine.oracle_calls": calls.get("engine.oracle_label", 0),
        "engine.iterations": calls.get("engine.fit_forest", 0)
        + calls.get("engine.fit_committee", 0),
        "engine.loop_other_s": loop_self,
        "bench.full_fit_s": s("bench.fit_forest"),
        "bench.report_s": s("cli.emit_report"),
    }

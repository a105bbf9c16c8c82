"""Span bookkeeping of the benchmark: nesting, self times, step marks."""

import types

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _trace():
    tracer = spans.Tracer(FakeClock())
    with tracer.span("round"):
        with tracer.span("engine.run_pool_loop"):
            with tracer.span("engine.fit_forest"):
                pass
            with tracer.span("engine.evaluate_accuracy"):
                with tracer.span("forest.vote_counts"):
                    pass
    return tracer


def test_self_times_add_up_to_the_root():
    tracer = _trace()
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == root[spans.END] - root[spans.START]
    assert spans.nesting_errors(tracer.spans) == []


def test_loop_other_is_the_loop_self_time():
    tracer = _trace()
    metrics = spans.layer_metrics(tracer.spans)
    # the loop runs from 2 to 9, fit from 3 to 4, evaluate from 5 to 8
    assert metrics["engine.loop_other_s"] == 7 - 1 - 3
    assert metrics["engine.evaluate_s"] == 3
    assert metrics["engine.iterations"] == 1


def test_span_outside_its_parent_is_reported():
    tracer = _trace()
    tracer.spans[2][spans.END] = 100.0
    assert spans.nesting_errors(tracer.spans)


def test_patched_restores_the_original():
    owner = types.SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    marks = spans.StepMarks(FakeClock())
    with pytest.raises(ZeroDivisionError):
        with spans.patched([(owner, "f", marks.marking)]):
            assert owner.f(1) == 2
            assert owner.f is not original
            1 / 0
    assert owner.f is original


def test_step_marks_end_the_last_step_at_close():
    marks = spans.StepMarks(FakeClock())
    marks.mark()   # 1
    marks.mark()   # 2
    marks.close()  # 3
    marks.mark()   # 4
    marks.close()  # 5
    assert list(marks.durations) == [1.0, 1.0, 1.0]

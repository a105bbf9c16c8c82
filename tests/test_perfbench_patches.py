"""The benchmark's patch points exist in the library.

``perfbench/`` wraps named library attributes (``flowal.engine.fit_forest``,
``ForestModel.vote_counts``, ...) by ``getattr`` and ``setattr``.  A refactor
that moves or deletes one of them would only show when the benchmark runs;
this test applies every patch the benchmark makes, so it fails here first.
It imports the benchmark's modules without running or changing anything.
"""

import sys
from pathlib import Path

import pytest

import flowal.engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import spans
    import workloads
    return spans, workloads


def test_every_benchmark_patch_applies(perfbench_modules):
    spans, workloads = perfbench_modules
    patches = spans.layer_patches(spans.Tracer())
    for workload in workloads.WORKLOADS.values():
        instance = workload()
        patches += instance.step_patches(spans.StepMarks())
        patches += instance.capture_patches()
    # perfbench/run.py counts oracle calls through this hook on every round
    patches.append((flowal.engine, "oracle_label", spans.Counter().counting))
    originals = [getattr(owner, attr) for owner, attr, _ in patches]
    with spans.patched(patches):
        for (owner, attr, _), original in zip(patches, originals):
            assert getattr(owner, attr) is not original
    assert [getattr(owner, attr) for owner, attr, _ in patches] == originals

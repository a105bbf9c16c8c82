"""Run one flowal benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {grid,pool_select,stream_drift} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the flowal sources in the
checkout's ``src/`` and writes only under ``perfbench/out/``.

A run sets up the workload's inputs from ``--seed`` several times (and
reports the median), then repeats whole rounds of the workload for
``--seconds``: at least two rounds, and no further round once the median
round time would carry it past ``--seconds``.  It checks the outputs
after the last round and prints one JSON object as its last line:
``correct``, ``attempted`` and ``failed`` operations (one operation is one
step, see the README), and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, medians over rounds; with ``--trace 1`` rounds
alternate between untraced and traced, and the metrics are the per-layer
ones from the traced rounds plus the tracing overhead.

Details go to ``perfbench/out/<workload>-seed<n>-trace<t>.json``; with
``--trace 1`` the spans of the set-ups and of the first traced round go to
``perfbench/out/<workload>-seed<n>-trace1.trace.jsonl``.

The workload runs in this one process and one thread; BLAS is held to one
thread before numpy is imported.  With ``--trace 0`` the set-up also
starts four fresh interpreters, one at a time, that only time the imports.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_ROUNDS = 2

# the imports main() times; fresh interpreters repeat them for setup_s
IMPORTS = "import flowal.engine, numpy, reference, spans, workloads"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "train_s": "s", "select_s": "s",
    "step_p50_ms": "ms", "step_tail_ms": "ms", "peak_rss_mb": "MB",
    "labels_used": "count", "mean_accuracy": "fraction",
}

PER_LAYER_UNITS = {
    "dataset.generate_s": "s", "dataset.load_csv_s": "s",
    "forest.fit_s": "s", "forest.fit_calls": "count", "forest.trees": "count",
    "forest.nodes": "count", "forest.fit_us_per_node": "us",
    "forest.committee_fit_s": "s", "forest.regression_fit_s": "s",
    "forest.predict_s": "s", "forest.predict_calls": "count",
    "forest.predict_rows": "count", "forest.rows_per_predict_call": "rows/call",
    "strategies.score_s": "s", "strategies.score_rows": "count",
    "strategies.density_s": "s", "strategies.lal_train_s": "s",
    "strategies.lal_train_calls": "count",
    "engine.evaluate_s": "s", "engine.oracle_calls": "count",
    "engine.iterations": "count", "engine.loop_other_s": "s",
    "bench.full_fit_s": "s", "bench.report_s": "s",
    "trace.overhead_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "pool_select", "stream_drift"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_flowal():
    if not (SRC / "flowal" / "__init__.py").is_file():
        raise SystemExit(f"no flowal sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import flowal
    if Path(flowal.__file__).resolve().parent != SRC / "flowal":
        raise SystemExit(f"imported flowal from {flowal.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Time the benchmark's imports take in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
            f"t0 = time.perf_counter(); {IMPORTS}; "
            "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def main(argv) -> int:
    args = _parse(argv)
    _import_flowal()
    os.chdir(ROOT)
    import flowal.engine  # imports count as set-up
    import numpy as np
    import reference as ref
    import spans
    from workloads import OUT, WORKLOADS
    import_s = time.perf_counter() - _START

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload]()
    errors = []

    # set-up, repeated; the last one's inputs are the ones the rounds use
    setup_times, setup_layers, tracers = [], [], []
    for i in range(SETUP_REPEATS):
        tracer = spans.Tracer() if args.trace else None
        patches = spans.layer_patches(tracer) if tracer else []
        with spans.patched(patches):
            t0 = time.perf_counter()
            with spans.maybe_span(tracer, "setup"):
                workload.setup(args.seed, tracer)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            setup_layers.append(spans.layer_metrics(tracer.spans))
            tracers.append(({"phase": "setup", "index": i}, tracer))
    # a process imports once, so the other samples come from fresh interpreters
    import_times = [import_s]
    if not args.trace:
        import_times += [_import_seconds() for _ in range(SETUP_REPEATS - 1)]

    # rounds
    results, walls, traced_walls, traced_layers = [], [], [], []
    steps = array("d")
    started = time.perf_counter()
    r = 0
    # start another round only while it is expected to end within --seconds
    while r < MIN_ROUNDS or (time.perf_counter() - started
                             + statistics.median(walls + traced_walls)
                             <= args.seconds):
        traced = bool(args.trace) and r % 2 == 1
        marks = spans.StepMarks()
        oracle = spans.Counter()
        patches = workload.step_patches(marks)
        patches.append((flowal.engine, "oracle_label", oracle.counting))
        if r == 0:
            patches += workload.capture_patches()
        tracer = spans.Tracer() if traced else None
        if tracer:
            patches += spans.layer_patches(tracer)
        with spans.patched(patches):
            if tracer:
                with tracer.span("round") as root:
                    workload.run_round(tracer, marks)
                wall = tracer.spans[root][spans.END] - tracer.spans[root][spans.START]
            else:
                t0 = time.perf_counter()
                workload.run_round(None, marks)
                wall = time.perf_counter() - t0
        result = workload.collect(len(marks.durations), oracle.calls)
        results.append(result)
        if tracer:
            traced_walls.append(wall)
            errors += spans.nesting_errors(tracer.spans)
            own_sum = sum(spans.self_times(tracer.spans))
            if abs(own_sum - wall) > 1e-6:
                errors.append(f"span self times sum to {own_sum}, wall {wall}")
            traced_layers.append(spans.layer_metrics(tracer.spans))
            if len(traced_walls) == 1:  # the trace file keeps one round
                tracers.append(({"phase": "round", "index": r}, tracer))
        else:
            walls.append(wall)
            steps.extend(marks.durations)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors += workload.check(results)
    first = results[0]
    for i, res in enumerate(results[1:], start=1):
        if res.fingerprint != first.fingerprint:
            errors.append(f"round {i} outputs differ from round 0")
        if res.labels_used != first.labels_used or res.steps != first.steps:
            errors.append(f"round {i} labels or steps differ from round 0")
    for i, layers in enumerate(traced_layers):
        if layers["engine.oracle_calls"] != first.labels_used:
            errors.append(f"traced round {i} counted "
                          f"{layers['engine.oracle_calls']} oracle calls")

    med = statistics.median
    attempted = sum(res.steps for res in results)
    report = {"rounds": len(results), "setup_s": setup_times,
              "import_s": import_times, "errors": errors}
    if args.trace:
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name == "trace.overhead_s":
                value = med(traced_walls) - med(walls)
            elif name == "dataset.generate_s":
                value = med(m[name] for m in setup_layers)
            else:
                values = [m[name] for m in traced_layers]
                count = PER_LAYER_UNITS[name] == "count"
                if count and len(set(values)) != 1:
                    errors.append(f"{name} differs between traced rounds: {values}")
                value = values[0] if count else med(values)
            metrics[name] = value
        units = PER_LAYER_UNITS
    else:
        # fixed by the steps of the fewest rounds a run can have, so that a
        # faster program, fitting more rounds into a run, reports the same one
        p = ref.tail_percentile(MIN_ROUNDS * first.steps)
        metrics = {
            "setup_s": med(import_times) + med(setup_times),
            "wall_s": med(walls),
            "train_s": med(res.train_s for res in results),
            "select_s": med(res.select_s for res in results),
            "step_p50_ms": 1e3 * ref.percentile(steps, "50"),
            "step_tail_ms": 1e3 * ref.percentile(steps, p),
            "peak_rss_mb": peak_rss_mb,
            "labels_used": first.labels_used,
            "mean_accuracy": float(np.mean(first.accuracies)),
        }
        units = END_TO_END_UNITS
        report.update(steps=len(steps), tail_percentile=p, walls=walls,
                      train_s=[res.train_s for res in results],
                      select_s=[res.select_s for res in results])
    if tracers:
        with open(stem.with_suffix(".trace.jsonl"), "w", encoding="utf-8") as fh:
            for extra, tracer in tracers:
                tracer.write_jsonl(fh, extra)
    report.update(workload.report())
    report["metrics"] = metrics
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n",
                                         encoding="utf-8")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""
Stream-based selective sampling under concept drift
===================================================

Flows arrive one at a time.  The learner asks for a label only when its
uncertainty clears a threshold, so most of the stream is discarded unread.
Halfway through, every class mean shifts; the frozen baseline model never
notices, while the selective sampler spends labels exactly where the drift
created confusion.
"""

import numpy as np

from flowal import (
    DriftSpec,
    ForestParams,
    Oracle,
    StreamConfig,
    SyntheticSpec,
    evaluate_accuracy,
    fit_forest,
    generate_synthetic,
    run_stream_loop,
    subset_size,
)

n_classes, per_class, shift = 3, 300, 5.0
n = n_classes * per_class
stream = generate_synthetic(SyntheticSpec(
    n_classes=n_classes, per_class=per_class, n_features=4,
    class_mean_separation=5.0, noise_stddev=1.0,
    drift=DriftSpec(onset_index=n // 2, mean_shift=shift), seed=1))

# held-out sample drawn from the post-drift distribution
test = generate_synthetic(SyntheticSpec(
    n_classes=n_classes, per_class=150, n_features=4,
    class_mean_separation=5.0, noise_stddev=1.0,
    drift=DriftSpec(onset_index=0, mean_shift=shift), seed=1001))

params = ForestParams(n_trees=25)
oracle = Oracle(stream, noise_rate=0.0, seed=1)

n_seed = subset_size(0.05, n)
frozen = fit_forest(stream.subset(np.arange(n_seed)), params, seed=1)
print(f"frozen model (trained on the first {n_seed} flows, never updated): "
      f"post-drift accuracy {evaluate_accuracy(frozen, test):.4f}")

config = StreamConfig(measure="entropy", threshold=0.3,
                      max_label_budget=subset_size(0.2, n),
                      seed_fraction=0.05, retrain_every=20)
# no stopping criteria beyond the label budget, which the loop enforces itself
history = run_stream_loop(stream, test, config, params, oracle, None, seed=1)

print(f"\nselective sampler ({history.total_queries()} labels bought):")
print(f"{'labeled':>8s} {'accuracy':>9s}")
for it in history.iterations:
    print(f"{it.n_labeled:8d} {it.accuracy:9.4f}")
print(f"\nstopped because: {history.stop_reason.value}")

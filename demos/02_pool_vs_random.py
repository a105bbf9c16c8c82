"""
Pool-based active learning against passive sampling
====================================================

A 12-class traffic pool where only a few regions are genuinely confusable.
Uncertainty sampling spends its budget on those regions; random sampling
spreads labels evenly and learns the hard boundaries more slowly.
"""

from flowal import (
    ForestParams,
    Oracle,
    StoppingCriteria,
    StrategyConfig,
    SyntheticSpec,
    generate_synthetic,
    make_pool,
    run_pool_loop,
    subset_size,
)

ds = generate_synthetic(SyntheticSpec(n_classes=12, per_class=200,
                                      n_features=4, class_mean_separation=4.0,
                                      seed=7))
params = ForestParams(n_trees=25)
pool = make_pool(ds, test_fraction=0.3, n_seed=48, seed=0)
budget = subset_size(0.10, len(pool.unlabeled))
oracle = Oracle(ds, noise_rate=0.0, seed=0)
stop = StoppingCriteria(max_queries=budget)

print(f"{len(ds)} records, {len(pool.unlabeled)} unlabeled, "
      f"label budget {budget}\n")

histories = {}
for kind in ("entropy", "random"):
    histories[kind] = run_pool_loop(pool, StrategyConfig(kind=kind, seed=0),
                                    params, oracle, batch=24, stop=stop, seed=0)

print(f"{'labeled':>8s} {'entropy':>9s} {'random':>9s}")
for ent_it, rnd_it in zip(histories["entropy"].iterations,
                          histories["random"].iterations):
    print(f"{ent_it.n_labeled:8d} {ent_it.accuracy:9.4f} {rnd_it.accuracy:9.4f}")

gap = histories["entropy"].final_accuracy - histories["random"].final_accuracy
print(f"\nfinal gap (entropy - random): {gap:+.4f}")

# A noisy annotator degrades both lanes; uncertainty sampling keeps working
# as long as the noise rate stays moderate.
noisy = Oracle(ds, noise_rate=0.1, seed=0)
h = run_pool_loop(pool, StrategyConfig(kind="entropy", seed=0), params, noisy,
                  batch=24, stop=stop, seed=0)
print(f"entropy with a 10% noisy oracle: {h.final_accuracy:.4f}")

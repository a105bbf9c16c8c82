"""
Query strategies on a toy traffic pool
======================================

Walk through every scoring function the selector knows: the three
uncertainty measures, the two committee disagreement measures, density
weighting, and the learned (LAL) forecaster.
"""

import numpy as np

from flowal import (
    ForestParams,
    LalParams,
    StrategyConfig,
    SyntheticSpec,
    entropy,
    fit_committee,
    fit_forest,
    generate_synthetic,
    information_density,
    kl_disagreement,
    least_confidence,
    make_pool,
    margin,
    score_pool,
    select_batch,
    train_lal_regressor,
    vote_entropy,
)

# The scalar measures first.  A one-hot posterior is maximally certain, a
# uniform one maximally uncertain; margin runs the other way (small = hard).
for p in ([1.0, 0.0, 0.0], [0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3]):
    print(f"p={p}: entropy={entropy(p):.4f}  "
          f"least_confidence={least_confidence(p):.4f}  margin={margin(p):.4f}")

# Committee disagreement: three members that agree produce zero vote entropy
# and zero KL divergence from their consensus.
print("\nunanimous votes ->", vote_entropy([1, 1, 1], 3))
print("split votes     ->", round(vote_entropy([0, 0, 1], 3), 4))
print("opposed members ->", round(kl_disagreement([[1.0, 0.0], [0.0, 1.0]]), 4))

# Now a small flow-feature pool: 3 traffic classes, 40 records each.
ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=40, n_features=4,
                                      class_mean_separation=3.0, seed=0))
pool = make_pool(ds, test_fraction=0.25, n_seed=9, seed=0)
labeled = ds.subset(pool.labeled)
model = fit_forest(labeled, ForestParams(n_trees=25), seed=0)
committee = fit_committee(labeled, size=4, params=ForestParams(n_trees=15), seed=0)

print(f"\npool: {len(pool.labeled)} labeled, {len(pool.unlabeled)} unlabeled")
for kind, state in (("entropy", model), ("margin", model),
                    ("qbc_vote_entropy", committee), ("density", model),
                    ("random", model)):
    batch = select_batch(StrategyConfig(kind=kind, seed=1), state, pool, k=5)
    print(f"{kind:18s} queries records {batch}")

# Density reweighting: an outlier keeps a high raw score but loses after the
# similarity factor because nothing in the pool resembles it.
scores = score_pool(StrategyConfig(kind="entropy"), model, pool)
Z = ds.features[list(pool.unlabeled)]
weighted = information_density(scores, Z, beta=1.0)
moved = int(np.argmax(np.abs(np.argsort(-scores) - np.argsort(-weighted))))
print(f"\ndensity beta=1 changed the rank of position {moved} most")

# LAL: a regression forest of `trees` trees, trained on simulated labeling
# outcomes, forecasts how much test error a label would remove; selection
# takes the biggest forecast.
lal = LalParams(mc_rounds=8, seed=0, trees=20)
regressor = train_lal_regressor(lal)
batch = select_batch(StrategyConfig(kind="lal", lal_params=lal), model, pool,
                     k=5, lal_regressor=regressor)
print(f"lal                queries records {batch}")

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowal.forest
from flowal import (
    Committee,
    Dataset,
    FeatureSchema,
    ForestParams,
    SyntheticSpec,
    evaluate_accuracy,
    fit_committee,
    fit_forest,
    generate_synthetic,
)
from flowal.errors import (
    DimensionMismatch,
    EmptyTestSet,
    EmptyTrainingSet,
    InvalidCommitteeSize,
    InvalidDistribution,
    InvalidParams,
    SchemaMismatch,
)
from flowal.forest import (
    ForestModel,
    ProbabilityDistribution,
    RegressionForestModel,
    _Tree,
    _Workspace,
    _best_split,
    _gini_of_cuts,
    _grow_trees,
    _majority,
    _midpoint,
    _sse_of_cuts,
    fit_regression_forest,
)
from tests.test_engine import seeded_split

SCHEMA2 = FeatureSchema(("f0", "f1"), ("x", "y"))


def constant_tree(label):
    return _Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                 value=[label], depth=[0])


def threshold_tree(feature, threshold, left_label, right_label):
    return _Tree(feature=[feature, -1, -1], threshold=[threshold, 0.0, 0.0],
                 left=[1, -1, -1], right=[2, -1, -1],
                 value=[-1, left_label, right_label], depth=[0, 1, 1])


def hand_model(trees, schema=SCHEMA2):
    counts = np.zeros(schema.n_classes, dtype=np.int64)
    return ForestModel(schema, 0, trees, counts)


def nearest_centroid_accuracy(train, test):
    """Brute-force oracle: classify by the closest class mean."""
    means = np.stack([train.features[train.labels == c].mean(axis=0)
                      for c in range(train.schema.n_classes)])
    dists = np.linalg.norm(test.features[:, None, :] - means[None, :, :], axis=2)
    return float(np.mean(np.argmin(dists, axis=1) == test.labels))


class TestProbabilityDistribution:
    def test_validation(self):
        ProbabilityDistribution([0.5, 0.5])
        with pytest.raises(InvalidDistribution):
            ProbabilityDistribution([0.6, 0.6])
        with pytest.raises(InvalidDistribution):
            ProbabilityDistribution([1.2, -0.2])
        with pytest.raises(InvalidDistribution):
            ProbabilityDistribution([np.nan, 1.0])


class TestVoteFractions:
    def test_seven_of_ten_trees(self):
        trees = [constant_tree(0)] * 7 + [constant_tree(1)] * 3
        model = hand_model(trees)
        probs = model.predict_proba_many(np.zeros((1, 2)))[0]
        np.testing.assert_array_equal(probs, [0.7, 0.3])

    def test_single_class_training_set(self):
        # all records carry class 0 under a two-class schema
        ds = Dataset(SCHEMA2, np.random.default_rng(0).normal(size=(12, 2)),
                     np.zeros(12, dtype=int))
        model = fit_forest(ds, ForestParams(n_trees=9), 1)
        probe = np.array([[5.0, -3.0]])
        assert model.predict_many(probe)[0] == 0
        np.testing.assert_array_equal(model.predict_proba_many(probe)[0], [1.0, 0.0])

    def test_probabilities_normalize_on_fuzzed_models(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n_classes = int(rng.integers(2, 5))
            schema = FeatureSchema(("a", "b", "c"),
                                   tuple(f"k{i}" for i in range(n_classes)))
            ds = Dataset(schema, rng.normal(size=(30, 3)),
                         rng.integers(0, n_classes, size=30))
            model = fit_forest(ds, ForestParams(n_trees=int(rng.integers(1, 20))),
                               int(rng.integers(1 << 32)))
            P = model.predict_proba_many(rng.normal(size=(20, 3)))
            assert (P >= 0).all() and (P <= 1).all()
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)


class TestPredict:
    def test_tie_breaks_to_lowest_class(self):
        trees = [constant_tree(0)] * 5 + [constant_tree(1)] * 5
        model = hand_model(trees)
        assert model.predict_many(np.zeros((1, 2)))[0] == 0

    def test_argmax_of_three(self):
        trees = [constant_tree(0)] * 2 + [constant_tree(1)] * 7 + [constant_tree(2)]
        schema = FeatureSchema(("f0", "f1"), ("a", "b", "c"))
        model = hand_model(trees, schema)
        probe = np.zeros((1, 2))
        np.testing.assert_allclose(model.predict_proba_many(probe)[0], [0.2, 0.7, 0.1])
        assert model.predict_many(probe)[0] == 1

    def test_predict_agrees_with_argmax_on_fuzz(self):
        rng = np.random.default_rng(3)
        ds = Dataset(SCHEMA2, rng.normal(size=(40, 2)), rng.integers(0, 2, 40))
        model = fit_forest(ds, ForestParams(n_trees=11), 5)
        X = rng.normal(size=(50, 2))
        P = model.predict_proba_many(X)
        np.testing.assert_array_equal(model.predict_many(X), np.argmax(P, axis=1))

    def test_dimension_mismatch(self):
        model = hand_model([constant_tree(0)])
        with pytest.raises(DimensionMismatch):
            model.predict_many(np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            model.predict_proba_many(np.zeros(2))
        regressor = RegressionForestModel(2, [constant_tree(0.5)])
        for rows in (np.zeros((4, 3)), np.zeros(2)):
            with pytest.raises(DimensionMismatch):
                regressor.predict_many(rows)
        with pytest.raises(DimensionMismatch):
            model.vote_counts(np.zeros(2))
        with pytest.raises(DimensionMismatch):
            fit_regression_forest(np.zeros(5), np.zeros(5), ForestParams(n_trees=1), 0)


def reference_leaf(tree, x):
    """Scalar walk: left iff x[feature] <= threshold, so a NaN goes right."""
    node = 0
    while tree.feature[node] >= 0:
        goes_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if goes_left else tree.right[node]
    return node


# thresholds come from here, so rows land exactly on them
ROUTING_VALUES = [-1.5, -0.5, 0.0, 0.5, 2.0]


@st.composite
def routing_cases(draw):
    """(trees, X, n_classes, n_features): 1-3 random trees and rows to route.

    Trees are up to 4 levels deep and may be a single leaf.  X has 0-12
    rows of threshold values, +-inf and NaN, laid out C-contiguous, in
    Fortran order or as every second row of a larger matrix.
    """
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        feature, threshold, left, right, depth = [], [], [], [], []

        def grow(level):
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            depth.append(level)
            if level < 4 and draw(st.booleans()):
                feature[node] = draw(st.integers(0, d - 1))
                threshold[node] = draw(st.sampled_from(ROUTING_VALUES))
                left[node] = grow(level + 1)
                right[node] = grow(level + 1)
            return node

        grow(0)
        value = [draw(st.integers(0, n_classes - 1)) for _ in feature]
        trees.append(_Tree(feature, threshold, left, right, value, depth))
    m = draw(st.integers(0, 12))
    entries = st.sampled_from(ROUTING_VALUES + [1.0, np.inf, -np.inf, np.nan])
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    rows = 2 * m if layout == "strided" else m
    X = np.asarray(draw(st.lists(entries, min_size=rows * d,
                                 max_size=rows * d)), dtype=float)
    X = X.reshape(rows, d)
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        X = X[::2]
    return trees, X, n_classes, d


class TestRouting:
    @settings(max_examples=300, deadline=None)
    @given(routing_cases())
    def test_matches_scalar_walk(self, case):
        trees, X, n_classes, d = case
        leaves = [[reference_leaf(tree, x) for x in X] for tree in trees]
        for tree, expected in zip(trees, leaves):
            got = tree.apply(X)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, np.asarray(expected, dtype=np.int64))
        schema = FeatureSchema(tuple(f"f{i}" for i in range(d)),
                               tuple(f"c{i}" for i in range(n_classes)))
        votes = np.zeros((len(X), n_classes), dtype=np.int64)
        for tree, expected in zip(trees, leaves):
            for i, leaf in enumerate(expected):
                votes[i, tree.value[leaf]] += 1
        np.testing.assert_array_equal(hand_model(trees, schema).vote_counts(X),
                                      votes)
        # regression payloads on the same structures, summed in tree order
        regression = [_Tree(t.feature, t.threshold, t.left, t.right,
                            t.value / 3.0, t.depth) for t in trees]
        model = RegressionForestModel(d, regression)
        expected = [sum(t.value[leaf[i]] for t, leaf in zip(regression, leaves))
                    / len(trees) for i in range(len(X))]
        np.testing.assert_array_equal(model.predict_many(X),
                                      np.asarray(expected, dtype=float))

    @pytest.mark.parametrize("m", [0, 1])
    def test_zero_and_one_row(self, m):
        rng = np.random.default_rng(4)
        ds = Dataset(SCHEMA2, rng.normal(size=(60, 2)), rng.integers(0, 2, 60))
        model = fit_forest(ds, ForestParams(n_trees=5), 2)
        X = np.array([[np.nan, -np.inf]])[:m]
        for tree in model.trees:
            assert tree.feature[0] >= 0
            np.testing.assert_array_equal(
                tree.apply(X), [reference_leaf(tree, x) for x in X])
        counts = model.vote_counts(X)
        assert counts.shape == (m, 2) and counts.dtype == np.int64
        assert (counts.sum(axis=1) == 5).all()
        regressor = fit_regression_forest(ds.features, ds.features[:, 0],
                                          ForestParams(n_trees=3), 2)
        assert regressor.predict_many(X).shape == (m,)

    def test_root_leaf_trees(self):
        rng = np.random.default_rng(5)
        ds = Dataset(SCHEMA2, rng.normal(size=(40, 2)), rng.integers(0, 2, 40))
        model = fit_forest(ds, ForestParams(n_trees=4, max_depth=0), 3)
        X = np.array([[0.0, 1.0], [np.nan, np.inf], [-np.inf, 2.0]])
        for tree in model.trees:
            assert tree.feature.tolist() == [-1]
            np.testing.assert_array_equal(tree.apply(X), [0, 0, 0])
        votes = sum(np.eye(2, dtype=np.int64)[tree.value[0]]
                    for tree in model.trees)
        np.testing.assert_array_equal(model.vote_counts(X), [votes] * 3)
        targets = rng.normal(size=40)
        regressor = fit_regression_forest(ds.features, targets,
                                          ForestParams(n_trees=2, max_depth=0), 3)
        expected = sum(tree.value[0] for tree in regressor.trees) / 2
        np.testing.assert_array_equal(regressor.predict_many(X), [expected] * 3)


class TestFitForest:
    def test_empty_training_set(self):
        empty = Dataset(SCHEMA2, np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(EmptyTrainingSet):
            fit_forest(empty, ForestParams(), 0)
        with pytest.raises(EmptyTrainingSet):
            fit_regression_forest(np.empty((0, 2)), np.empty(0), ForestParams(), 0)

    def test_peak_memory_is_a_small_multiple_of_the_features(self, peak_bytes):
        # many features and classes, as in flow data: the split scan's
        # scratch buffers must not scale with features times classes
        ds = generate_synthetic(SyntheticSpec(n_classes=15, per_class=400,
                                              n_features=78, seed=0))
        peak = peak_bytes(lambda: fit_forest(ds, ForestParams(n_trees=1), 0))
        assert peak <= 3 * ds.features.nbytes

    def test_memory_grows_linearly_with_rows(self, peak_bytes):
        peaks = []
        for per_class in (500, 2000):
            ds = generate_synthetic(SyntheticSpec(n_classes=4, per_class=per_class,
                                                  n_features=12, seed=0))
            peaks.append(peak_bytes(lambda: fit_forest(ds, ForestParams(n_trees=2), 0)))
        assert peaks[1] <= 4.5 * peaks[0]

    def test_determinism(self):
        ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=30,
                                              n_features=4, seed=2))
        probe = np.random.default_rng(0).normal(size=(25, 4))
        a = fit_forest(ds, ForestParams(n_trees=20), 7)
        b = fit_forest(ds, ForestParams(n_trees=20), 7)
        np.testing.assert_array_equal(a.predict_proba_many(probe),
                                      b.predict_proba_many(probe))

    def test_without_bootstrap_every_tree_grows_on_every_row(self):
        # with every feature at every split no draw is left, so the trees
        # are identical and each one fits its training rows exactly
        ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=30,
                                              n_features=4, seed=2))
        params = ForestParams(n_trees=5, features_per_split=4, bootstrap=False)
        model = fit_forest(ds, params, 7)
        probe = np.random.default_rng(0).normal(scale=6.0, size=(25, 4))
        votes = model.vote_counts(np.vstack([ds.features, probe]))
        assert (votes.max(axis=1) == 5).all()
        assert evaluate_accuracy(model, ds) == 1.0

    def test_separable_blobs_beat_95_percent(self):
        # feasibility oracle first: nearest centroid must reach 0.99 here
        spec = SyntheticSpec(n_classes=2, per_class=300, n_features=6,
                             class_mean_separation=6.0, noise_stddev=1.0, seed=4)
        ds = generate_synthetic(spec)
        test, pool = seeded_split(ds, 1.0 / 3.0, 7)
        train = pool.subset(np.arange(200))
        assert nearest_centroid_accuracy(train, test) >= 0.99
        model = fit_forest(train, ForestParams(n_trees=30), 11)
        assert evaluate_accuracy(model, test) >= 0.95

    def test_more_data_never_hurts_on_separable_blobs(self):
        # statistical monotonicity: full pool beats a 1% subset in >= 8/10 seeds
        spec = SyntheticSpec(n_classes=4, per_class=500, n_features=8,
                             class_mean_separation=6.0, seed=6)
        ds = generate_synthetic(spec)
        wins = 0
        for seed in range(10):
            test, pool = seeded_split(ds, 0.3, seed)
            small = pool.subset(np.arange(max(4, len(pool) // 100)))
            params = ForestParams(n_trees=12)
            acc_small = evaluate_accuracy(fit_forest(small, params, seed), test)
            acc_full = evaluate_accuracy(fit_forest(pool, params, seed), test)
            wins += acc_full >= acc_small
        assert wins >= 8


class TestCommittee:
    def setup_method(self):
        self.ds = generate_synthetic(SyntheticSpec(n_classes=2, per_class=10,
                                                   n_features=3, seed=1))

    def test_minimal_committee_has_distinct_seeds(self):
        committee = fit_committee(self.ds.subset(np.arange(10)), 2,
                                  ForestParams(n_trees=5), 3)
        assert len(committee) == 2
        assert committee.members[0].seed != committee.members[1].seed

    def test_single_class_members_are_unanimous(self):
        ds = Dataset(SCHEMA2, np.random.default_rng(1).normal(size=(10, 2)),
                     np.zeros(10, dtype=int))
        committee = fit_committee(ds, 4, ForestParams(n_trees=5), 0)
        probe = np.random.default_rng(2).normal(size=(8, 2))
        assert (committee.member_probas(probe).argmax(axis=2) == 0).all()

    def test_determinism(self):
        params = ForestParams(n_trees=8)
        probe = np.random.default_rng(5).normal(size=(12, 3))
        a = fit_committee(self.ds, 3, params, 9)
        b = fit_committee(self.ds, 3, params, 9)
        np.testing.assert_array_equal(a.member_probas(probe).argmax(axis=2),
                                      b.member_probas(probe).argmax(axis=2))

    def test_member_probas_match_a_stack_of_members(self):
        committee = fit_committee(self.ds, 4, ForestParams(n_trees=7), 2)
        for probe in (np.random.default_rng(6).normal(size=(30, 3)),
                      self.ds.features[:1], np.empty((0, 3))):
            expected = np.stack([m.predict_proba_many(probe)
                                 for m in committee.members])
            got = committee.member_probas(probe)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_invalid_size(self):
        with pytest.raises(InvalidCommitteeSize):
            fit_committee(self.ds, 1, ForestParams(n_trees=3), 0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            fit_committee(self.ds.subset([]), 2, ForestParams(n_trees=3), 0)

    def test_invalid_members_rejected(self):
        a, b = (hand_model([constant_tree(0)]) for _ in range(2))
        other = hand_model([constant_tree(0)], FeatureSchema(("f0",), ("x", "y")))
        reseeded = ForestModel(SCHEMA2, 1, [constant_tree(0)],
                               np.zeros(2, dtype=np.int64))
        with pytest.raises(InvalidCommitteeSize, match="at least 2"):
            Committee([a])
        with pytest.raises(SchemaMismatch):
            Committee([reseeded, other])
        with pytest.raises(InvalidCommitteeSize, match="distinct"):
            Committee([a, b])
        assert len(Committee([a, reseeded])) == 2


class TestEvaluateAccuracy:
    def test_echoing_model_scores_one(self):
        model = hand_model([threshold_tree(0, 0.5, 0, 1)] * 3)
        test = Dataset(SCHEMA2, [[0.0, 9.0], [1.0, 9.0], [0.2, -1.0], [0.9, 0.0]],
                       [0, 1, 0, 1])
        assert evaluate_accuracy(model, test) == 1.0

    def test_half_right(self):
        model = hand_model([constant_tree(0)] * 3)
        test = Dataset(SCHEMA2, [[0.0, 0.0]] * 4, [0, 0, 1, 1])
        assert evaluate_accuracy(model, test) == 0.5

    def test_empty_test_set(self):
        model = hand_model([constant_tree(0)])
        empty = Dataset(SCHEMA2, np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(EmptyTestSet):
            evaluate_accuracy(model, empty)

    def test_schema_mismatch(self):
        model = hand_model([constant_tree(0)])
        other = Dataset(FeatureSchema(("a", "b", "c"), ("x", "y")),
                        [[1.0, 2.0, 3.0]], [0])
        # same features, different classes
        relabeled = Dataset(FeatureSchema(("f0", "f1"), ("x", "z")),
                            [[1.0, 2.0]], [0])
        for test in (other, relabeled):
            with pytest.raises(SchemaMismatch):
                evaluate_accuracy(model, test)


class TestForestParams:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            ForestParams(n_trees=0)
        with pytest.raises(InvalidParams):
            ForestParams(min_samples_split=1)
        with pytest.raises(InvalidParams):
            ForestParams(features_per_split="log2")
        with pytest.raises(InvalidParams):
            ForestParams(max_depth=-2)
        assert ForestParams(max_depth=0).max_depth == 0

    @pytest.mark.parametrize("field", ["n_trees", "max_depth",
                                       "min_samples_split", "features_per_split"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3"])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(InvalidParams):
            ForestParams(**{field: value})
        if field != "max_depth":
            with pytest.raises(InvalidParams):
                ForestParams(**{field: None})

    def test_numpy_integers_are_integers(self):
        params = ForestParams(n_trees=np.int64(3), max_depth=np.int32(2),
                              min_samples_split=np.int64(4),
                              features_per_split=np.int64(2))
        assert params.n_trees == 3 and params.features_per_split == 2

    def test_sqrt_rule(self):
        assert ForestParams().resolve_features_per_split(41) == 6
        assert ForestParams().resolve_features_per_split(1) == 1
        assert ForestParams(features_per_split=99).resolve_features_per_split(4) == 4


def reference_gini(cum, cut):
    n = cum.shape[0]
    nl = cut.astype(np.float64)
    nr = n - nl
    left = cum[cut - 1]
    right = cum[-1] - left
    gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
    return (nl * gini_l + nr * gini_r) / n


def reference_sse(cum, cut):
    n = cum.shape[0]
    s1, s2 = cum[:, 0], cum[:, 1]
    nl = cut.astype(np.float64)
    nr = n - nl
    sum_l = s1[cut - 1]
    sse_l = s2[cut - 1] - sum_l * sum_l / nl
    sum_r = s1[-1] - sum_l
    sse_r = (s2[-1] - s2[cut - 1]) - sum_r * sum_r / nr
    return sse_l + sse_r


def reference_cuts(X, payload, idx, f, regression):
    """(sorted values, valid cut positions, impurity at each valid cut) of
    feature f on the rows ``idx``, each a row of weight 1."""
    v = X[idx, f]
    order = np.argsort(v, kind="stable")
    vs = v[order]
    cum = np.cumsum(payload[idx][order], axis=0)
    cut = np.nonzero(vs[1:] > vs[:-1])[0] + 1
    return vs, cut, (reference_sse if regression else reference_gini)(cum, cut)


def reference_best_split(X, payload, idx, feats, regression):
    """Per-feature split scan: one argsort, cumsum and impurity pass per
    candidate feature in ascending order, keeping strictly better impurities
    only (ties go to the lowest feature, then the lowest threshold)."""
    best_score = np.inf
    best = None
    for f in feats:
        vs, cut, impurity = reference_cuts(X, payload, idx, f, regression)
        if cut.size == 0:
            continue
        j = int(np.argmin(impurity))
        if impurity[j] < best_score:
            best_score = float(impurity[j])
            best = (int(f), _midpoint(vs[cut[j] - 1], vs[cut[j]]))
    return best


@st.composite
def split_nodes(draw):
    """One node of a tree's sample: (X, weights, rows, idx, feats, regression).

    ``rows`` holds each sample row's unit payload (one-hot class or
    (t, t * t)) and ``weights`` its integer weight, 1 for regression as the
    regressor's rows are never collapsed.  Feature values are small integers
    over a scale, so cuts tie; rows repeat, some columns are constant or
    copies of another (equal impurity across features), nodes go down to 2
    rows and k up to d.  ``idx`` is an unordered subset of the sample's rows.
    """
    d = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 3.0, 7.0]))
    distinct = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                      max_size=d), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2,
                          max_size=30))
    X = np.asarray(distinct, dtype=float)[picks] / scale
    for f in range(d):
        column = draw(st.sampled_from(["own", "own", "constant", "copy"]))
        if column == "constant":
            X[:, f] = X[0, f]
        elif column == "copy":
            X[:, f] = X[:, draw(st.integers(0, d - 1))]
    n = X.shape[0]
    regression = draw(st.booleans())
    if regression:
        t = np.asarray(draw(st.lists(st.integers(-4, 4), min_size=n,
                                     max_size=n)), dtype=float) / scale
        rows = np.column_stack([t, t * t])
        weights = np.ones(n, dtype=np.int64)
    else:
        n_classes = draw(st.integers(1, 5))
        labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                               max_size=n))
        rows = np.zeros((n, n_classes))
        rows[np.arange(n), labels] = 1.0
        weights = np.asarray(draw(st.lists(st.integers(1, 5), min_size=n,
                                           max_size=n)))
    idx = np.asarray(draw(st.permutations(range(n))))[:draw(st.integers(2, n))]
    k = draw(st.integers(1, d))
    feats = np.sort(np.asarray(draw(st.permutations(range(d))))[:k])
    return X, weights, rows, idx, feats, regression


def expand(X, weights, rows, idx):
    """The node as unit-weight rows: each row repeated ``weights`` times,
    its copies in ``idx`` order."""
    first = np.cumsum(weights) - weights
    expanded = np.concatenate([np.arange(first[r], first[r] + weights[r])
                               for r in idx])
    return (np.repeat(X, weights, axis=0), np.repeat(rows, weights, axis=0),
            expanded)


def scan(X, weights, rows, idx, feats, regression):
    """``_best_split`` of the node, the weight trailing each payload row."""
    payload = np.column_stack([rows * weights[:, None], weights])
    ws = _Workspace(feats.size, X.shape[0], payload.shape[1])
    cut_impurity = _sse_of_cuts if regression else _gini_of_cuts
    return _best_split(np.ascontiguousarray(X.T), payload, idx,
                       float(weights[idx].sum()), feats, cut_impurity, ws)


class TestSplitScan:
    @settings(max_examples=400, deadline=None)
    @given(split_nodes())
    def test_matches_per_feature_reference(self, node):
        X, weights, rows, idx, feats, regression = node
        split = scan(X, weights, rows, idx, feats, regression)
        expected = reference_best_split(*expand(X, weights, rows, idx), feats,
                                        regression)
        if expected is None:
            assert split is None
            return
        f, thr, goes_left, left_weight = split
        assert (f, thr) == expected
        np.testing.assert_array_equal(goes_left, X[idx, f] <= thr)
        assert 0 < goes_left.sum() < idx.size
        assert left_weight == weights[idx[goes_left]].sum()

    @settings(max_examples=400, deadline=None)
    @given(split_nodes())
    def test_weighted_impurities_match_expanded_rows(self, node):
        # bit for bit at every valid cut: a Gini divided by anything but the
        # node's weight total would still pick the same split on most nodes
        X, weights, rows, idx, feats, regression = node
        Xe, rows_e, idx_e = expand(X, weights, rows, idx)
        payload = np.column_stack([rows * weights[:, None], weights])
        cut_impurity = _sse_of_cuts if regression else _gini_of_cuts
        ws = _Workspace(1, idx.size, payload.shape[1])
        for f in feats:
            order = idx[np.argsort(X[idx, f], kind="stable")]
            cum = np.cumsum(payload[order], axis=0)[None]
            impurity = cut_impurity(cum, float(weights[idx].sum()), ws)[0]
            valid = X[order[1:], f] > X[order[:-1], f]
            _, _, expected = reference_cuts(Xe, rows_e, idx_e, f, regression)
            np.testing.assert_array_equal(impurity[valid].view(np.int64),
                                          expected.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(split_nodes(), st.data())
    def test_feature_blocks_match_one_block(self, node, data):
        X, weights, rows, idx, feats, regression = node
        whole = scan(X, weights, rows, idx, feats, regression)
        block = data.draw(st.integers(1, max(1, feats.size - 1)))
        width = rows.shape[1] + 1
        with pytest.MonkeyPatch.context() as patch:
            # a node of m rows then scans its features ``block`` at a time
            patch.setattr(flowal.forest, "_SCAN_CELLS", block * idx.size * width)
            blocked = scan(X, weights, rows, idx, feats, regression)
        if whole is None:
            assert blocked is None
            return
        assert blocked[:2] == whole[:2] and blocked[3] == whole[3]
        np.testing.assert_array_equal(blocked[2], whole[2])


@st.composite
def tree_cases(draw):
    """(X, labels, n_classes, params, seed) for a small classifier forest.

    Rows are copies of a few distinct rows of small integers, so bootstrap
    samples repeat rows and every feature has tied values.
    """
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    distinct = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d,
                                      max_size=d), min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                          max_size=40))
    X = np.asarray(distinct, dtype=float)[picks]
    labels = np.asarray(draw(st.lists(st.integers(0, n_classes - 1),
                                      min_size=len(picks),
                                      max_size=len(picks))))
    params = ForestParams(
        n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
        min_samples_split=draw(st.integers(2, 8)),
        features_per_split=draw(st.integers(1, d)),
        bootstrap=draw(st.booleans()))
    return X, labels, n_classes, params, draw(st.integers(0, 2**32 - 1))


class TestCollapsedBootstrap:
    @settings(max_examples=500, deadline=None)
    @given(tree_cases())
    def test_trees_match_unit_weight_rows(self, case):
        X, labels, n_classes, params, seed = case
        schema = FeatureSchema(tuple(f"f{j}" for j in range(X.shape[1])),
                               tuple(f"c{c}" for c in range(n_classes)))
        collapsed = fit_forest(Dataset(schema, X, labels), params, seed).trees
        onehot = np.eye(n_classes)
        raw = _grow_trees(X, labels,
                          lambda ys, w: np.column_stack([onehot[ys], w]),
                          _gini_of_cuts, _majority, -1, params, seed, 0,
                          collapse=False)
        assert len(collapsed) == len(raw)
        for a, b in zip(collapsed, raw):
            for name in _Tree.__slots__:
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowal import (
    Committee,
    Dataset,
    FeatureSchema,
    ForestParams,
    LalParams,
    PoolState,
    StrategyConfig,
    SyntheticSpec,
    entropy,
    fit_committee,
    fit_forest,
    generate_synthetic,
    information_density,
    kl_disagreement,
    lal_state_features,
    least_confidence,
    make_pool,
    margin,
    score_pool,
    select_batch,
    train_lal_regressor,
    vote_entropy,
)
from flowal import strategies
from flowal.dataset import standardize
from flowal.errors import (
    BatchTooLarge,
    DimensionMismatch,
    EmptyCommittee,
    EmptyPool,
    InvalidDistribution,
    InvalidParams,
    LengthMismatch,
    UntrainedRegressor,
)
from flowal.forest import _Tree, fit_regression_forest
from flowal.strategies import _lal_training_pairs, uncertainty_scores
from tests.test_forest import constant_tree, hand_model


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_n(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_against_high_precision_oracle(self):
        # independent 50-digit summation of -sum p ln p
        with mpmath.workdps(50):
            expected = -sum(mpmath.mpf(p) * mpmath.log(mpmath.mpf(p))
                            for p in ("0.7", "0.2", "0.1"))
        value = entropy([0.7, 0.2, 0.1])
        assert value == pytest.approx(float(expected), abs=1e-12)
        assert value == pytest.approx(0.8018, abs=1e-4)

    def test_permutation_invariance_fuzz(self):
        rng = np.random.default_rng(11)
        for trial in range(1000):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            shuffled = rng.permutation(p)
            assert entropy(p) == pytest.approx(entropy(shuffled), abs=1e-12)
            assert 0.0 <= entropy(p) <= math.log(n) + 1e-12

    def test_uniform_is_unique_maximum(self):
        base = np.full(5, 0.2)
        for bump in (0.01, 0.05, 0.1):
            tilted = base.copy()
            tilted[0] += bump
            tilted[1] -= bump
            assert entropy(tilted) < entropy(base)

    def test_rejects_invalid(self):
        with pytest.raises(InvalidDistribution):
            entropy([0.9, 0.2])


class TestLeastConfidence:
    def test_values(self):
        assert least_confidence([1.0, 0.0]) == 0.0
        assert least_confidence([0.25] * 4) == pytest.approx(0.75, abs=1e-12)
        assert least_confidence([0.6, 0.3, 0.1]) == pytest.approx(0.4, abs=1e-12)


class TestMargin:
    def test_values(self):
        assert margin([0.5, 0.5]) == 0.0
        assert margin([1.0, 0.0]) == 1.0
        assert margin([0.6, 0.3, 0.1]) == pytest.approx(0.3, abs=1e-12)

    def test_needs_two_classes(self):
        with pytest.raises(InvalidDistribution):
            margin([1.0])


class TestVoteEntropy:
    def test_unanimity_is_zero(self):
        assert vote_entropy([1, 1, 1, 1], 3) == 0.0

    def test_even_split(self):
        assert vote_entropy([0, 1, 0, 1], 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_one_split(self):
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert vote_entropy([0, 0, 1], 2) == pytest.approx(expected, abs=1e-12)
        assert vote_entropy([0, 0, 1], 2) == pytest.approx(0.6365, abs=1e-4)

    def test_zero_iff_unanimous_fuzz(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            c = int(rng.integers(2, 9))
            votes = rng.integers(0, 3, size=c)
            value = vote_entropy(votes, 3)
            if len(set(votes.tolist())) == 1:
                assert value == 0.0
            else:
                assert value > 0.0

    def test_too_few_votes(self):
        with pytest.raises(EmptyCommittee):
            vote_entropy([0], 2)

    @pytest.mark.parametrize("votes", [[0.5, 1.5], [True, False],
                                       np.array([0.0, 1.0])])
    def test_votes_must_be_integers(self, votes):
        # floats would be truncated and bools read as classes 0 and 1
        with pytest.raises(InvalidDistribution, match="integers"):
            vote_entropy(votes, 2)
        assert vote_entropy(np.array([0, 1], dtype=np.uint8), 2) == math.log(2)


class TestKlDisagreement:
    def test_identical_members_zero(self):
        assert kl_disagreement([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]]) == 0.0

    def test_opposed_members(self):
        # each member is ln 2 away from the [0.5, 0.5] consensus
        assert kl_disagreement([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_nonnegative_and_zero_iff_identical_fuzz(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            members = [rng.dirichlet(np.ones(n)) for _ in range(c)]
            value = kl_disagreement(members)
            assert value >= 0.0
            same = [members[0]] * c
            assert kl_disagreement(same) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kl_disagreement([[0.5, 0.5], [0.2, 0.3, 0.5]])
        with pytest.raises(EmptyCommittee):
            kl_disagreement([[0.5, 0.5]])


def committee_stack(m, size=5, n_classes=4, trees=7, seed=0):
    """(m, size, n_classes) member vote fractions laid out as score_pool does.

    Vote fractions leave zero entries.  Rows 0, 4, 8, ... have identical
    members, and rows 2, 6, 10, ... hold the row before them with the
    members in a permuted order.
    """
    rng = np.random.default_rng(seed)
    member = rng.multinomial(trees, np.ones(n_classes) / n_classes,
                             size=(size, m)) / trees
    P = np.swapaxes(member, 0, 1)  # a view, as score_pool hands it over
    P[::4] = P[::4, :1]
    for i in range(2, m, 4):
        P[i] = P[i - 1, rng.permutation(size)]
    return P


class TestKlBlocks:
    @pytest.mark.parametrize("m", [1, 511, 512, 513, 2000])
    def test_blocks_match_one_block(self, monkeypatch, m):
        P = committee_stack(m, seed=m)
        blocked = strategies._kl_rows(P)
        monkeypatch.setattr(strategies, "_KL_BLOCK", m)
        whole = strategies._kl_rows(P)
        assert np.array_equal(blocked, whole)
        assert (blocked[::4] == 0.0).all()
        permuted = blocked[2::4]
        assert np.array_equal(permuted, blocked[1::4][:permuted.size])

    def test_committee_scoring_memory_is_one_stack_plus_a_block(self, peak_bytes):
        # 4 classes and 3 features: the (C, m, n) member array outweighs the
        # routed feature matrix, so whole-pool KL temporaries would dominate
        ds = generate_synthetic(SyntheticSpec(n_classes=4, per_class=6010,
                                              n_features=3, seed=4))
        labeled = np.arange(0, len(ds), 400)
        pool = PoolState(ds, labeled,
                         np.setdiff1d(np.arange(len(ds)), labeled), ())
        committee = fit_committee(ds.subset(labeled), 5,
                                  ForestParams(n_trees=4), 0)
        assert len(pool.unlabeled) >= 20_000
        member_bytes = 5 * len(pool.unlabeled) * 4 * 8
        peak = peak_bytes(
            lambda: score_pool(StrategyConfig(kind="qbc_kl"), committee, pool))
        assert peak < 2.5 * member_bytes


@pytest.mark.parametrize("kind", ["entropy", "least_confidence", "margin",
                                  "qbc_vote_entropy", "density", "lal"])
def test_scoring_memory_grows_linearly_with_the_pool(peak_bytes, kind):
    # qbc_kl's bound is in TestKlBlocks; unlabeled pools of 1,960 and 7,960 rows
    ds = generate_synthetic(SyntheticSpec(n_classes=4, per_class=2000,
                                          n_features=12, seed=0))
    labeled = np.arange(40)
    if kind == "qbc_vote_entropy":
        state = fit_committee(ds.subset(labeled), 3, ForestParams(n_trees=4), 0)
    else:
        state = fit_forest(ds.subset(labeled), ForestParams(n_trees=4), 0)
    regressor = train_lal_regressor(LalParams(
        mc_rounds=2, trees=4)) if kind == "lal" else None
    config = StrategyConfig(kind=kind)
    pools = [PoolState(ds, labeled, np.arange(40, m), ()) for m in (2000, 8000)]
    peaks = [peak_bytes(lambda: score_pool(config, state, pool, regressor))
             for pool in pools]
    assert peaks[1] <= 4.5 * peaks[0]


def brute_force_density_factors(Z):
    """Independent similarity oracle: explicit pairwise loops."""
    n = len(Z)
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for j in range(n):
            ni, nj = np.linalg.norm(Z[i]), np.linalg.norm(Z[j])
            if ni == 0 or nj == 0:
                cos = 0.0
            else:
                cos = float(Z[i] @ Z[j] / (ni * nj))
            total += (1 + cos) / 2
        out[i] = total / n
    return out


def quadratic_density_factors(Z):
    """Quadratic reference: row means of the full (m, m) similarity matrix."""
    norms = np.linalg.norm(Z, axis=1)
    U = np.zeros_like(Z)
    U[norms > 0] = Z[norms > 0] / norms[norms > 0, None]
    return ((1 + U @ U.T) / 2).mean(axis=1)


@st.composite
def density_pools(draw):
    """Feature matrices with exact duplicate rows, all-zero rows and m = 1."""
    d = draw(st.integers(1, 14))
    scale = draw(st.sampled_from([1.0, 3.0, 7.0, 1e-3, 1e3]))
    distinct = draw(st.lists(st.lists(st.integers(-6, 6), min_size=d,
                                      max_size=d), min_size=1, max_size=6))
    if draw(st.booleans()):
        distinct.append([0] * d)
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                          max_size=24))
    return np.asarray(distinct, dtype=float)[picks] / scale


def duplicate_groups(Z):
    """Index lists of rows that hold the same features, one list per value."""
    groups = {}
    for i, row in enumerate(Z):
        groups.setdefault(tuple(row), []).append(i)
    return list(groups.values())


def assert_reference_batch(chosen, scores, tol=1e-12):
    """``chosen`` is the best-first batch of ``scores``, up to reordering
    among scores within ``tol`` of one another."""
    key = -np.asarray(scores)
    chosen = np.asarray(chosen)
    assert len(set(chosen.tolist())) == chosen.size
    picked = key[chosen]
    assert (np.diff(picked) >= -tol).all()
    rest = np.setdiff1d(np.arange(key.size), chosen)
    if rest.size:
        assert picked.max() <= key[rest].min() + tol


class FeatureLookupModel:
    """Model whose posterior depends only on a row's feature values."""

    def __init__(self, X, P):
        self.table = {row.tobytes(): p for row, p in zip(X, P)}

    def predict_proba_many(self, X):
        return np.stack([self.table[row.tobytes()] for row in X])


class TestInformationDensity:
    def test_beta_zero_is_identity(self):
        base = np.array([0.4, 0.1, 0.9])
        Z = np.random.default_rng(0).normal(size=(3, 2))
        out = information_density(base, Z, 0.0)
        np.testing.assert_array_equal(out, base)

    def test_identical_points_leave_ranking(self):
        base = np.array([0.5, 0.2, 0.8])
        Z = np.ones((3, 4))
        out = information_density(base, Z, 1.0)
        np.testing.assert_allclose(out, base, atol=1e-12)

    def test_outlier_gets_smallest_factor(self):
        # two clustered directions and one outlier pointing away
        Z = np.array([[1.0, 0.1], [0.9, 0.0], [-1.0, -0.8]])
        oracle = brute_force_density_factors(Z)
        assert np.argmin(oracle) == 2
        base = np.ones(3)
        out = information_density(base, Z, 1.0)
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        assert np.argmin(out) == 2

    def test_zero_vector_sits_at_half_similarity(self):
        Z = np.array([[0.0, 0.0], [2.0, 0.0]])
        out = information_density(np.ones(2), Z, 1.0)
        np.testing.assert_allclose(out, brute_force_density_factors(Z), atol=1e-12)
        assert out[0] == pytest.approx(0.5, abs=1e-12)
        assert out[1] == pytest.approx(0.75, abs=1e-12)

    def test_errors(self):
        with pytest.raises(EmptyPool):
            information_density(np.zeros(0), np.zeros((0, 2)), 1.0)
        with pytest.raises(LengthMismatch):
            information_density(np.zeros(3), np.zeros((2, 2)), 1.0)
        with pytest.raises(InvalidParams):
            information_density(np.zeros(2), np.zeros((2, 2)), -1.0)

    @settings(max_examples=200, deadline=None)
    @given(density_pools())
    # a lone row whose rounded unit vector has a squared norm above 1
    @example(np.array([[-6.0, -5.0, -3.0, -6.0, -3.0, -2.0]]))
    def test_factors_match_quadratic_reference(self, Z):
        factor = information_density(np.ones(len(Z)), Z, 1.0)
        np.testing.assert_allclose(factor, quadratic_density_factors(Z),
                                   rtol=0, atol=1e-12)
        assert ((factor >= 0.0) & (factor <= 1.0)).all()
        for group in duplicate_groups(Z):
            assert len(set(factor[group].tolist())) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_batch_matches_quadratic_reference(self, data):
        X = data.draw(density_pools())
        m, d = X.shape
        n_classes = 3
        P = np.stack([data.draw(vote_fractions(n_classes)) for _ in range(m)])
        model = FeatureLookupModel(X, P)  # duplicate rows share one posterior
        schema = FeatureSchema(tuple(f"f{j}" for j in range(d)),
                               tuple(f"c{j}" for j in range(n_classes)))
        pool = PoolState(Dataset(schema, X, np.zeros(m, int)), (),
                         tuple(range(m)), ())
        base_kind = data.draw(st.sampled_from(
            ("entropy", "least_confidence", "margin")))
        cfg = StrategyConfig(kind="density", base_informativeness=base_kind,
                             beta=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
        base = uncertainty_scores(base_kind, model.predict_proba_many(X))
        if base_kind == "margin":
            base = 1.0 - base
        Z = standardize(pool.dataset).transform(X)
        reference = base * quadratic_density_factors(Z) ** cfg.beta
        scores = score_pool(cfg, model, pool)
        for group in duplicate_groups(X):
            assert len(set(scores[group].tolist())) == 1
        k = data.draw(st.integers(1, m))
        assert_reference_batch(select_batch(cfg, model, pool, k), reference)

    def test_memory_stays_linear_in_pool_size(self, peak_bytes):
        # an (m, m) float64 similarity matrix alone would take 200 MB here
        Z = np.random.default_rng(3).normal(size=(5000, 12))
        base = np.ones(5000)
        assert peak_bytes(lambda: information_density(base, Z, 1.0)) < 8_000_000


def constant_lal_regressor(params, target):
    """A regressor fit on ``params``' simulated states, every target ``target``."""
    states, _ = _lal_training_pairs(params)
    targets = np.full(len(states), target)
    return fit_regression_forest(states, targets,
                                 ForestParams(n_trees=params.trees), 0)


class TestLal:
    def test_minimal_run_shapes(self):
        states, targets = _lal_training_pairs(LalParams(mc_rounds=1, seed=0))
        assert states.shape[0] >= 1
        assert states.shape[1] == 8
        assert targets.shape == (states.shape[0],)

    @pytest.mark.parametrize("k", [1, 3])
    def test_trees_sets_the_regressor_size(self, k):
        assert len(train_lal_regressor(LalParams(mc_rounds=1, trees=k)).trees) == k

    def test_constant_target_hook(self):
        reg = constant_lal_regressor(
            LalParams(mc_rounds=2, seed=1, trees=10),
            0.125)
        probe = np.random.default_rng(0).normal(size=(20, 8))
        np.testing.assert_allclose(reg.predict_many(probe), 0.125, atol=1e-6)

    def test_deterministic_in_seed(self):
        params = LalParams(mc_rounds=3, seed=9, trees=8)
        probe = np.random.default_rng(1).normal(size=(10, 8))
        a = train_lal_regressor(params).predict_many(probe)
        b = train_lal_regressor(params).predict_many(probe)
        np.testing.assert_array_equal(a, b)

    def test_state_vector_length_eight(self):
        ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=20,
                                              n_features=5, seed=0))
        model = fit_forest(ds, ForestParams(n_trees=7), 0)
        state = lal_state_features(model, 12, ds.features[:1])
        assert state.shape == (1, 8)
        assert np.isfinite(state).all()
        with pytest.raises(DimensionMismatch):
            lal_state_features(model, 12, ds.features[0])

    def test_states_route_each_tree_once(self, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=20,
                                              n_features=5, seed=0))
        model = fit_forest(ds, ForestParams(n_trees=7), 0)
        X = ds.features[:15]
        depth = np.zeros(len(X))
        for tree in model.trees:
            depth += tree.depth[tree.apply(X)]
        P = model.predict_proba_many(X)
        routed = []
        apply = _Tree.apply
        monkeypatch.setattr(
            _Tree, "apply", lambda tree, X: routed.append(tree) or apply(tree, X))
        states = lal_state_features(model, 12, X)
        assert len(routed) == model.n_trees
        np.testing.assert_array_equal(states[:, 0], P.max(axis=1))
        np.testing.assert_array_equal(states[:, 6], depth / model.n_trees)

    def test_uncertain_candidates_score_higher(self):
        # oracle: the recorded Monte-Carlo pairs themselves, then the fitted
        # regressor must reproduce the ordering on probe candidates
        probe_spec = SyntheticSpec(n_classes=3, per_class=100, n_features=4,
                                   class_mean_separation=3.0, seed=77)
        ds = generate_synthetic(probe_spec)
        pool = make_pool(ds, 0.3, 15, 0)
        model = fit_forest(ds.subset(pool.labeled), ForestParams(n_trees=15), 0)
        XU = ds.features[list(pool.unlabeled)]
        P = model.predict_proba_many(XU)
        ent = -(np.where(P > 0, P * np.log(np.where(P > 0, P, 1)), 0)).sum(axis=1)
        uncertain = XU[np.argsort(ent)[-30:]]
        confident = XU[ent == 0][:30]
        hi_means, lo_means = [], []
        all_states, all_targets = [], []
        for seed in range(10):
            params = LalParams(mc_rounds=10, seed=seed, trees=25)
            reg = train_lal_regressor(params)
            states, targets = _lal_training_pairs(params)
            all_states.append(states)
            all_targets.append(targets)
            hi_means.append(reg.predict_many(
                lal_state_features(model, 15, uncertain)).mean())
            lo_means.append(reg.predict_many(
                lal_state_features(model, 15, confident)).mean())
        # oracle over the whole recorded corpus: reductions observed for
        # high-entropy states (column 2) beat those for low-entropy states
        states = np.vstack(all_states)
        targets = np.concatenate(all_targets)
        high_rows = states[:, 2] > np.median(states[:, 2])
        assert targets[high_rows].mean() >= targets[~high_rows].mean()
        assert np.mean(hi_means) >= np.mean(lo_means)

    def test_invalid_params(self):
        # floats and bools: test_bench.py's integer-settings test
        with pytest.raises(InvalidParams):
            LalParams(mc_rounds=0)
        with pytest.raises(InvalidParams):
            LalParams(trees=0)

    def test_pool_scoring_needs_a_regressor(self):
        pool = tiny_pool(2)
        model = fit_forest(pool.dataset.subset(pool.labeled),
                           ForestParams(n_trees=5), 1)
        cfg = StrategyConfig(kind="lal")
        with pytest.raises(UntrainedRegressor):
            score_pool(cfg, model, pool)
        with pytest.raises(UntrainedRegressor):
            select_batch(cfg, model, pool, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_state_matrix_rows_match_single_row_calls(self, data):
        # the simulation scores a round's candidates in one call; each state
        # row must equal the one-candidate call bit for bit
        d = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 1 << 30))
        ds = generate_synthetic(SyntheticSpec(
            n_classes=data.draw(st.integers(2, 4)), per_class=12,
            n_features=d, class_mean_separation=2.0, seed=seed))
        model = fit_forest(ds, ForestParams(n_trees=data.draw(st.integers(1, 9))),
                           seed)
        # rows from the training data hit split thresholds exactly
        row = st.one_of(
            st.sampled_from(range(len(ds))).map(lambda i: ds.features[i]),
            st.lists(st.floats(-20, 20, allow_nan=False), min_size=d,
                     max_size=d).map(np.array))
        X = np.array(data.draw(st.lists(row, min_size=1, max_size=12)))
        labeled_size = data.draw(st.integers(1, 40))
        batch = lal_state_features(model, labeled_size, X)
        assert batch.shape == (len(X), 8)
        for i, x in enumerate(X):
            single = lal_state_features(model, labeled_size, x[None])[0]
            assert batch[i].tobytes() == single.tobytes()


def tiny_pool(seed=0, n=40, n_classes=3, d=3):
    ds = generate_synthetic(SyntheticSpec(
        n_classes=n_classes, per_class=n // n_classes + 1, n_features=d,
        class_mean_separation=3.0, seed=seed))
    return make_pool(ds, 0.2, max(n_classes, 4), seed)


def naive_top_k(scores, indices, k, minimize=False):
    """Sort-everything oracle with the lowest-index tie-break."""
    keyed = sorted(zip(scores, indices),
                   key=lambda t: (t[0] if minimize else -t[0], t[1]))
    return [i for _, i in keyed[:k]]


class TestSelectBatch:
    def test_exhaustive_batch_returns_all(self):
        pool = tiny_pool(1)
        ds = pool.dataset
        model = fit_forest(ds.subset(pool.labeled), ForestParams(n_trees=5), 0)
        for kind in ("entropy", "random"):
            out = select_batch(StrategyConfig(kind=kind), model, pool,
                               len(pool.unlabeled))
            assert sorted(out) == sorted(pool.unlabeled)

    def test_random_is_reproducible(self):
        pool = tiny_pool(2)
        cfg = StrategyConfig(kind="random", seed=123)
        a = select_batch(cfg, None, pool, 5)
        b = select_batch(cfg, None, pool, 5)
        assert a == b
        assert len(set(a)) == 5
        assert set(a) <= set(pool.unlabeled)

    def test_all_ties_fall_back_to_lowest_indices(self):
        # constant model: every score identical, batch = lowest pool indices
        pool = tiny_pool(3)
        model = hand_model([constant_tree(0)],
                           FeatureSchema(("f0", "f1", "f2"),
                                         ("class_0", "class_1", "class_2")))
        out = select_batch(StrategyConfig(kind="entropy"), model, pool, 4)
        assert out == sorted(pool.unlabeled)[:4]

    def test_matches_sort_oracle_on_fuzzed_pools(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            pool = tiny_pool(seed=int(rng.integers(1 << 30)),
                             n=int(rng.integers(12, 60)))
            ds = pool.dataset
            labeled = ds.subset(pool.labeled)
            model = fit_forest(labeled, ForestParams(n_trees=7),
                               int(rng.integers(1 << 30)))
            committee = fit_committee(labeled, 3, ForestParams(n_trees=5),
                                      int(rng.integers(1 << 30)))
            k = int(rng.integers(1, len(pool.unlabeled) + 1))
            for kind, state in (("entropy", model), ("least_confidence", model),
                                ("margin", model), ("density", model),
                                ("qbc_vote_entropy", committee),
                                ("qbc_kl", committee)):
                cfg = StrategyConfig(kind=kind)
                scores = score_pool(cfg, state, pool)
                expected = naive_top_k(scores, list(pool.unlabeled), k,
                                       minimize=(kind == "margin"))
                assert select_batch(cfg, state, pool, k) == expected, kind

    def test_monotone_transform_invariance(self):
        pool = tiny_pool(4)
        model = fit_forest(pool.dataset.subset(pool.labeled),
                           ForestParams(n_trees=9), 2)
        cfg = StrategyConfig(kind="entropy")
        scores = score_pool(cfg, model, pool)
        k = 6
        chosen = select_batch(cfg, model, pool, k)
        for transform in (lambda s: 3 * s + 1, np.arctan,
                          lambda s: np.exp(s / 2)):
            expected = naive_top_k(transform(scores), list(pool.unlabeled), k)
            assert set(chosen) == set(expected)

    def test_never_returns_labeled_or_duplicates(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            pool = tiny_pool(seed=int(rng.integers(1 << 30)))
            model = fit_forest(pool.dataset.subset(pool.labeled),
                               ForestParams(n_trees=5), 1)
            k = int(rng.integers(1, len(pool.unlabeled)))
            out = select_batch(StrategyConfig(kind="least_confidence"),
                               model, pool, k)
            assert len(out) == k
            assert len(set(out)) == k
            assert set(out) <= set(pool.unlabeled)
            assert not set(out) & set(pool.labeled)

    def test_batch_bounds(self):
        pool = tiny_pool(5)
        model = fit_forest(pool.dataset.subset(pool.labeled),
                           ForestParams(n_trees=5), 1)
        with pytest.raises(BatchTooLarge):
            select_batch(StrategyConfig(kind="entropy"), model, pool,
                         len(pool.unlabeled) + 1)
        with pytest.raises(BatchTooLarge):
            select_batch(StrategyConfig(kind="entropy"), model, pool, 0)
        empty = PoolState(pool.dataset, pool.labeled, (),
                          pool.test)
        with pytest.raises(EmptyPool):
            select_batch(StrategyConfig(kind="entropy"), model, empty, 1)

    def test_constant_lal_regressor_falls_back_to_index_order(self):
        pool = tiny_pool(9)
        model = fit_forest(pool.dataset.subset(pool.labeled),
                           ForestParams(n_trees=5), 1)
        params = LalParams(mc_rounds=1, seed=2, trees=6)
        reg = constant_lal_regressor(params, 0.5)
        out = select_batch(StrategyConfig(kind="lal", lal_params=params),
                           model, pool, 5, lal_regressor=reg)
        assert out == sorted(pool.unlabeled)[:5]

    def test_lal_selection_matches_per_candidate_scores(self):
        pool = tiny_pool(6)
        model = fit_forest(pool.dataset.subset(pool.labeled),
                           ForestParams(n_trees=5), 1)
        params = LalParams(mc_rounds=2, seed=3, trees=8)
        reg = train_lal_regressor(params)
        scores = [reg.predict_many(lal_state_features(
            model, len(pool.labeled), pool.dataset.features[i][None]))[0]
            for i in pool.unlabeled]
        expected = naive_top_k(scores, list(pool.unlabeled), 3)
        got = select_batch(StrategyConfig(kind="lal", lal_params=params),
                           model, pool, 3, lal_regressor=reg)
        assert got == expected


class TestStrategyConfig:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            StrategyConfig(kind="gradient")
        with pytest.raises(InvalidParams):
            StrategyConfig(kind="entropy", beta=-1)
        with pytest.raises(InvalidParams):
            StrategyConfig(kind="qbc_kl", committee_size=1)
        with pytest.raises(InvalidParams):
            StrategyConfig(kind="density", base_informativeness="random")


def vote_fractions(n_classes):
    """Hard-vote posteriors: integer vote counts over their total."""
    return st.lists(st.integers(0, 9), min_size=n_classes,
                    max_size=n_classes).filter(any).map(
                        lambda c: np.asarray(c) / sum(c))


def row_schema(n_classes):
    return FeatureSchema(("row",), tuple(f"c{j}" for j in range(n_classes)))


def indexed_pool(m, n_classes):
    """Pool of m unlabeled rows whose single feature is the row index."""
    ds = Dataset(row_schema(n_classes), np.arange(m, dtype=float)[:, None],
                 np.zeros(m, int))
    return PoolState(ds, (), tuple(range(m)), ())


class TableModel:
    """Model whose posterior for row i is ``table[i]``."""

    def __init__(self, table):
        self.table = table

    def predict_proba_many(self, X):
        return self.table[X[:, 0].astype(int)]


class TableCommittee(Committee):
    """Committee whose member posteriors for row i are ``table[:, i]``."""

    def __init__(self, table, n_classes):
        self.table = table
        self.members = tuple(range(table.shape[0]))
        self.schema = row_schema(n_classes)

    def member_probas(self, X):
        return self.table[:, X[:, 0].astype(int)]


class TestTieProperties:
    """Rows that should tie score bit-identically, so selection falls back
    to the lowest pool index."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_permuted_rows_have_equal_entropy(self, data):
        n_classes = data.draw(st.integers(2, 12))
        p = data.draw(vote_fractions(n_classes))
        m = data.draw(st.integers(2, 12))
        P = np.stack([p[data.draw(st.permutations(range(n_classes)))]
                      for _ in range(m)])
        assert len({entropy(row) for row in P}) == 1
        k = data.draw(st.integers(1, m))
        got = select_batch(StrategyConfig(kind="entropy"), TableModel(P),
                           indexed_pool(m, n_classes), k)
        assert got == list(range(k))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_identical_members_have_exactly_zero_kl(self, data):
        n_classes = data.draw(st.integers(2, 8))
        size = data.draw(st.integers(2, 7))
        same = data.draw(st.lists(st.booleans(), min_size=2, max_size=16))
        # disagreeing rows: member j votes class j mod n_classes outright
        opposed = np.eye(n_classes)[np.arange(size) % n_classes]
        table = np.stack([np.tile(data.draw(vote_fractions(n_classes)),
                                  (size, 1)) if s else opposed
                          for s in same], axis=1)
        calm = [i for i, s in enumerate(same) if s]
        torn = [i for i, s in enumerate(same) if not s]
        for i in calm:
            assert kl_disagreement(list(table[:, i])) == 0.0
        committee = TableCommittee(table, n_classes)
        pool = indexed_pool(len(same), n_classes)
        cfg = StrategyConfig(kind="qbc_kl")
        scores = score_pool(cfg, committee, pool)
        assert (scores[calm] == 0.0).all() and (scores[torn] > 0).all()
        assert select_batch(cfg, committee, pool, len(same)) == torn + calm

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_permuted_committees_have_equal_kl(self, data):
        n_classes = data.draw(st.integers(2, 12))
        size = data.draw(st.integers(2, 7))
        members = np.stack([data.draw(vote_fractions(n_classes))
                            for _ in range(size)])
        m = data.draw(st.integers(2, 12))
        # row i: the same committee with its classes and members reordered
        table = np.stack([
            members[list(data.draw(st.permutations(range(size))))]
                   [:, list(data.draw(st.permutations(range(n_classes))))]
            for _ in range(m)], axis=1)
        assert len({kl_disagreement(list(table[:, i])) for i in range(m)}) == 1
        committee = TableCommittee(table, n_classes)
        pool = indexed_pool(m, n_classes)
        cfg = StrategyConfig(kind="qbc_kl")
        assert len(set(score_pool(cfg, committee, pool).tolist())) == 1
        k = data.draw(st.integers(1, m))
        assert select_batch(cfg, committee, pool, k) == list(range(k))


class TestVoteEntropyFromTheStack:
    """qbc_vote_entropy reads each member's vote off the member stack."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_stacked_member_predictions(self, data):
        n_classes = data.draw(st.integers(2, 4))
        d = data.draw(st.integers(1, 3))
        distinct = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d,
                                               max_size=d), min_size=1, max_size=5))
        # few distinct rows under clashing labels leave impure leaves, and
        # an even tree count lets a member's votes tie
        n = data.draw(st.integers(4, 30))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1),
                                   min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, n_classes - 1),
                                    min_size=n, max_size=n))
        ds = Dataset(FeatureSchema(tuple(f"f{j}" for j in range(d)),
                                   tuple(f"c{j}" for j in range(n_classes))),
                     np.asarray(distinct, dtype=float)[picks], labels)
        n_labeled = data.draw(st.integers(1, n - 1))
        pool = PoolState(ds, range(n_labeled), range(n_labeled, n), ())
        committee = fit_committee(
            ds.subset(pool.labeled), data.draw(st.integers(2, 5)),
            ForestParams(n_trees=data.draw(st.integers(1, 4))),
            data.draw(st.integers(0, 1 << 30)))
        XU = ds.features[pool.unlabeled]
        votes = np.stack([m.predict_many(XU) for m in committee.members])
        expected = strategies._vote_entropy_rows(votes, n_classes)
        got = score_pool(StrategyConfig(kind="qbc_vote_entropy"), committee, pool)
        assert got.tobytes() == expected.tobytes()

    def test_tied_member_posteriors_vote_for_the_lowest_class(self):
        third = [1 / 3] * 3
        # rows x members x classes; each member's top classes tie
        table = np.array([[[0, .5, .5], [.5, 0, .5]],
                          [[.5, .5, 0], [.5, .5, 0]],
                          [third, [0, 0, 1]]]).transpose(1, 0, 2)
        committee = TableCommittee(table, 3)
        pool = indexed_pool(3, 3)
        cfg = StrategyConfig(kind="qbc_vote_entropy")
        expected = [vote_entropy([1, 0], 3), vote_entropy([0, 0], 3),
                    vote_entropy([0, 2], 3)]
        assert score_pool(cfg, committee, pool).tolist() == expected
        # voting for the highest tied class would make every row unanimous
        assert expected[0] == expected[2] > expected[1] == 0.0
        assert select_batch(cfg, committee, pool, 2) == [0, 2]

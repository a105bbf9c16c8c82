"""Acceptance suite: one test per headline criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as the
criteria complete.  Statistical criteria are fully seeded, so their outcomes
are reproducible bit-for-bit.
"""

import csv
import json
import math
import time

import mpmath
import numpy as np
import pytest

from flowal import (
    ForestParams,
    LalParams,
    Oracle,
    StoppingCriteria,
    StopReason,
    StrategyConfig,
    StreamConfig,
    SyntheticSpec,
    TimingRecord,
    entropy,
    evaluate_accuracy,
    fit_committee,
    fit_forest,
    generate_synthetic,
    kl_disagreement,
    lal_score,
    least_confidence,
    make_pool,
    margin,
    round_half_up,
    run_pool_loop,
    run_stream_loop,
    select_batch,
    shuffle_and_subset,
    standardize,
    tar,
    train_lal_regressor,
    ttr,
    vote_entropy,
)
from flowal.cli import cli_main


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


class TestCriterion1FormulaExactness:
    def test_ratios_bit_exact_and_rounding(self):
        assert tar(0.74, 0.99) == 0.74 / 0.99
        value = ttr(TimingRecord(3.4, 0.0, 139.8))
        assert value == 3.4 / 139.8
        assert round(value, 4) == 0.0243
        assert round(value, 3) == 0.024
        # injected fuzz: both ratios are exact rational functions
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0.01, 1.0, size=2)
            t1, t2, t3 = rng.uniform(0.01, 100.0, size=3)
            assert tar(a, b) == a / b
            assert ttr(TimingRecord(t1, t2, t3)) == (t1 + t2) / t3
        report(1, "tar and ttr reproduce their defining ratios bit-exactly; "
                  "ttr(3.4, 139.8) = 0.0243 -> 0.024 after rounding")


class TestCriterion2EntropySuite:
    def test_entropy_values_and_invariance(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0
        for n in (2, 3, 4, 7):
            assert entropy([1.0 / n] * n) == pytest.approx(math.log(n), abs=1e-12)
        with mpmath.workdps(50):
            oracle = float(-sum(mpmath.mpf(p) * mpmath.log(mpmath.mpf(p))
                                for p in ("0.7", "0.2", "0.1")))
        assert entropy([0.7, 0.2, 0.1]) == pytest.approx(oracle, abs=1e-12)
        assert entropy([0.7, 0.2, 0.1]) == pytest.approx(0.8018, abs=1e-4)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
            assert entropy(rng.permutation(p)) == pytest.approx(
                entropy(p), abs=1e-12)
        report(2, "entropy: 0 at one-hot, ln n at uniform, 0.8018 on the "
                  "high-precision oracle, permutation-invariant over 1000 draws")


def _single_scores(kind, model, committee, regressor, pool, labeled_ds):
    """Score candidates one at a time through the public scalar operations."""
    ds = pool.dataset
    out = []
    if kind == "density":
        train_idx = sorted(pool.labeled) + sorted(pool.unlabeled)
        scaler = standardize(ds.subset(train_idx))
        Z = scaler.transform(ds.features[list(pool.unlabeled)])
        norms = np.linalg.norm(Z, axis=1)
        unit = np.divide(Z, norms[:, None], out=np.zeros_like(Z),
                         where=norms[:, None] > 0)
        factors = ((1.0 + unit @ unit.T) / 2.0).mean(axis=1)
    for pos, idx in enumerate(pool.unlabeled):
        x = ds.features[idx]
        if kind == "entropy":
            out.append(entropy(model.predict_proba(x)))
        elif kind == "least_confidence":
            out.append(least_confidence(model.predict_proba(x)))
        elif kind == "margin":
            out.append(margin(model.predict_proba(x)))
        elif kind == "qbc_vote_entropy":
            votes = [m.predict(x) for m in committee.members]
            out.append(vote_entropy(votes, ds.schema.n_classes))
        elif kind == "qbc_kl":
            out.append(kl_disagreement(
                [m.predict_proba(x) for m in committee.members]))
        elif kind == "density":
            out.append(entropy(model.predict_proba(x)) * factors[pos])
        elif kind == "lal":
            out.append(lal_score(regressor, model, len(pool.labeled), x))
    return out


def _oracle_top_k(scores, indices, k, minimize):
    keyed = sorted(zip(scores, indices),
                   key=lambda t: (t[0] if minimize else -t[0], t[1]))
    return [i for _, i in keyed[:k]]


class TestCriterion3SelectionOracle:
    def test_select_batch_matches_full_sort_oracle(self):
        kinds = ("entropy", "least_confidence", "margin", "qbc_vote_entropy",
                 "qbc_kl", "density", "lal", "random")
        lal_params = LalParams(mc_rounds=2, seed=5,
                               regressor=ForestParams(n_trees=8))
        regressor = train_lal_regressor(lal_params)
        rng = np.random.default_rng(99)
        cases = 0
        for trial in range(100):
            n_classes = int(rng.integers(2, 5))
            per_class = int(rng.integers(6, 26))
            ds = generate_synthetic(SyntheticSpec(
                n_classes=n_classes, per_class=per_class,
                n_features=int(rng.integers(2, 5)),
                class_mean_separation=float(rng.uniform(1.5, 5.0)),
                seed=int(rng.integers(1 << 30))))
            pool = make_pool(ds, 0.2, max(n_classes, 3),
                             int(rng.integers(1 << 30)))
            assert len(pool.unlabeled) <= 200
            labeled_ds = ds.subset(pool.labeled)
            model = fit_forest(labeled_ds, ForestParams(n_trees=7),
                               int(rng.integers(1 << 30)))
            committee = fit_committee(labeled_ds, 3, ForestParams(n_trees=5),
                                      int(rng.integers(1 << 30)))
            k = int(rng.integers(1, len(pool.unlabeled) + 1))
            strategy_seed = int(rng.integers(1 << 30))
            for kind in kinds:
                cfg = StrategyConfig(kind=kind, lal_params=lal_params,
                                     seed=strategy_seed)
                state = committee if kind.startswith("qbc") else model
                got = select_batch(cfg, state, pool, k, lal_regressor=regressor)
                if kind == "random":
                    # independent re-derivation of the documented draw
                    mask = (1 << 64) - 1
                    oracle_rng = np.random.default_rng(
                        [strategy_seed & mask, 6, len(pool.labeled) & mask,
                         len(pool.unlabeled) & mask])
                    picks = oracle_rng.choice(len(pool.unlabeled), size=k,
                                              replace=False)
                    expected = sorted(pool.unlabeled[p] for p in picks)
                else:
                    scores = _single_scores(kind, model, committee, regressor,
                                            pool, labeled_ds)
                    expected = _oracle_top_k(scores, list(pool.unlabeled), k,
                                             minimize=(kind == "margin"))
                assert got == expected, f"{kind} diverged on trial {trial}"
            cases += 1
        assert cases >= 100
        report(3, f"select_batch equals the score-all-then-sort oracle for all "
                  f"8 strategies over {cases} fuzzed pools")


HARD12 = SyntheticSpec(n_classes=12, per_class=417, n_features=4,
                       class_mean_separation=4.0, noise_stddev=1.0, seed=7)
EASY12 = SyntheticSpec(n_classes=12, per_class=417, n_features=12,
                       class_mean_separation=6.0, noise_stddev=1.0, seed=11)


@pytest.mark.slow
class TestCriterion4PoolBeatsRandom:
    def test_entropy_vs_random_paired_seeds(self):
        started = time.perf_counter()
        ds = generate_synthetic(HARD12)
        assert len(ds) >= 5000
        params = ForestParams(n_trees=30)
        wins = 0
        gaps = []
        for seed in range(10):
            pool = make_pool(ds, 0.3, 60, seed)
            budget = round_half_up(0.10 * len(pool.unlabeled))
            oracle = Oracle(ds, 0.0, seed)
            stop = StoppingCriteria(max_queries=budget)
            accs = {}
            for kind in ("entropy", "random"):
                history = run_pool_loop(
                    pool, StrategyConfig(kind=kind, seed=seed), params,
                    oracle, 25, stop, seed)
                accs[kind] = history.final_accuracy
            gaps.append(accs["entropy"] - accs["random"])
            wins += accs["entropy"] >= accs["random"]
        elapsed = time.perf_counter() - started
        assert wins >= 8, f"entropy >= random in only {wins}/10 seeds ({gaps})"
        report(4, f"entropy >= random in {wins}/10 paired seeds at a 10% "
                  f"label budget on 5004 records ({elapsed:.0f}s)")


class TestCriterion5StreamScenario:
    def test_stream_reaches_95_within_budget(self):
        started = time.perf_counter()
        ds = generate_synthetic(EASY12)
        params = ForestParams(n_trees=25)
        test0, rest0 = shuffle_and_subset(ds, 0.3, 999)
        full_acc = evaluate_accuracy(fit_forest(rest0, params, 0), test0)
        assert full_acc >= 0.98  # feasibility oracle before the criterion
        hits = 0
        for seed in range(10):
            test, stream = shuffle_and_subset(ds, 0.3, seed)
            budget = round_half_up(0.15 * len(stream))
            cfg = StreamConfig(measure="entropy", threshold=0.5,
                               max_label_budget=budget, seed_fraction=0.01,
                               retrain_every=25)
            history = run_stream_loop(stream, test, cfg, params,
                                      Oracle(stream, 0.0, seed),
                                      StoppingCriteria(accuracy_threshold=0.95),
                                      seed)
            if history.stop_reason == StopReason.ACCURACY_THRESHOLD:
                assert history.total_queries() <= budget
                hits += 1
        elapsed = time.perf_counter() - started
        assert hits >= 8, f"stream reached 0.95 in only {hits}/10 seeds"
        report(5, f"stream loop reached the 0.95 threshold within a 15% budget "
                  f"in {hits}/10 seeds; full-data accuracy {full_acc:.3f} "
                  f"({elapsed:.0f}s)")


class TestCriterion6StrategyCostOrdering:
    def test_selection_time_ordering(self):
        started = time.perf_counter()
        ds = generate_synthetic(SyntheticSpec(
            n_classes=6, per_class=400, n_features=8,
            class_mean_separation=4.0, seed=21))
        pool = make_pool(ds, 0.125, 100, 0)
        assert len(pool.unlabeled) == 2000
        params = ForestParams(n_trees=25)
        labeled_ds = ds.subset(pool.labeled)
        model = fit_forest(labeled_ds, params, 0)
        committee = fit_committee(labeled_ds, 5, params, 0)

        def timed(cfg, state, **kw):
            t0 = time.perf_counter()
            select_batch(cfg, state, pool, 20, **kw)
            return time.perf_counter() - t0

        t_random, t_entropy, t_qbc, t_lal = [], [], [], []
        for rep in range(10):
            t_random.append(timed(StrategyConfig(kind="random", seed=rep), model))
            t_entropy.append(timed(StrategyConfig(kind="entropy"), model))
            t_qbc.append(timed(StrategyConfig(kind="qbc_vote_entropy",
                                              committee_size=5), committee))
            lal_params = LalParams(mc_rounds=6, seed=rep,
                                   regressor=ForestParams(n_trees=20))
            t0 = time.perf_counter()
            regressor = train_lal_regressor(lal_params)
            select_batch(StrategyConfig(kind="lal", lal_params=lal_params),
                         model, pool, 20, lal_regressor=regressor)
            t_lal.append(time.perf_counter() - t0)
        ordering = sum(r < e < q for r, e, q in zip(t_random, t_entropy, t_qbc))
        lal_slowest = sum(l > max(r, e, q) for l, r, e, q
                          in zip(t_lal, t_random, t_entropy, t_qbc))
        elapsed = time.perf_counter() - started
        assert ordering >= 9, f"random < entropy < qbc held in {ordering}/10"
        assert lal_slowest >= 9, f"lal slowest in {lal_slowest}/10"
        report(6, f"per-batch cost ordering random < entropy < QBC(C=5) in "
                  f"{ordering}/10 reps; LAL total slowest in {lal_slowest}/10 "
                  f"({elapsed:.0f}s)")


@pytest.mark.slow
class TestCriterion7AccuracyMonotonicity:
    def test_mean_accuracy_rises_with_fraction(self):
        from flowal import ExperimentConfig, run_experiment

        started = time.perf_counter()
        config = ExperimentConfig(
            source=SyntheticSpec(n_classes=4, per_class=300, n_features=4,
                                 class_mean_separation=3.5, seed=5),
            strategies=(StrategyConfig(kind="entropy"),
                        StrategyConfig(kind="random")),
            seeds=(0, 1, 2, 3, 4),
            learner=ForestParams(n_trees=20),
            fractions=(0.02, 0.05, 0.12, 0.3, 0.6),
            batch=15,
        )
        rows = run_experiment(config)
        summaries = []
        for strategy in ("entropy", "random"):
            means = []
            for fraction in config.fractions:
                cell = [r.accuracy for r in rows
                        if r.strategy == strategy and r.fraction == fraction]
                assert len(cell) == len(config.seeds)
                means.append(float(np.mean(cell)))
            drops = [a - b for a, b in zip(means, means[1:]) if a > b]
            assert len(drops) <= 1, f"{strategy}: {means}"
            if drops:
                assert drops[0] <= 0.02, f"{strategy}: inversion {drops[0]:.4f}"
            summaries.append(f"{strategy} {['%.3f' % m for m in means]}")
        elapsed = time.perf_counter() - started
        report(7, f"mean accuracy nondecreasing across the fraction ladder "
                  f"(<= 1 inversion <= 0.02): {'; '.join(summaries)} "
                  f"({elapsed:.0f}s)")


class TestCriterion8InvariantSuites:
    def test_invariants(self):
        rng = np.random.default_rng(77)
        # probability normalization at 1e-9 across fuzzed models
        for _ in range(10):
            n_classes = int(rng.integers(2, 6))
            ds = generate_synthetic(SyntheticSpec(
                n_classes=n_classes, per_class=20,
                n_features=3, class_mean_separation=2.0,
                seed=int(rng.integers(1 << 30))))
            model = fit_forest(ds, ForestParams(n_trees=int(rng.integers(1, 25))),
                               int(rng.integers(1 << 30)))
            P = model.predict_proba_many(rng.normal(size=(30, 3)))
            assert (P >= 0).all() and (P <= 1).all()
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

        # pool partition preservation + budget ceiling over a real run
        ds = generate_synthetic(SyntheticSpec(
            n_classes=3, per_class=60, n_features=3,
            class_mean_separation=5.0, seed=2))
        pool = make_pool(ds, 0.25, 9, 3)
        history = run_pool_loop(pool, StrategyConfig(kind="entropy"),
                                ForestParams(n_trees=8), Oracle(ds, 0.0, 3),
                                7, StoppingCriteria(max_queries=23), 3)
        assert history.total_queries() == 23
        labeled, unlabeled = set(pool.labeled), set(pool.unlabeled)
        universe = labeled | unlabeled | set(pool.test)
        for it in history.iterations:
            queried = set(it.queried)
            assert queried <= unlabeled
            labeled |= queried
            unlabeled -= queried
            assert labeled | unlabeled | set(pool.test) == universe
            assert it.n_labeled == len(labeled)

        # determinism of the non-time history fields under repetition
        def run_once():
            h = run_pool_loop(pool, StrategyConfig(kind="entropy"),
                              ForestParams(n_trees=8), Oracle(ds, 0.0, 3),
                              7, StoppingCriteria(max_queries=23), 3)
            return [(it.n_labeled, it.queried, it.accuracy)
                    for it in h.iterations], h.stop_reason
        assert run_once() == run_once()

        # QBC disagreement vanishes exactly on unanimity
        single_class = generate_synthetic(SyntheticSpec(
            n_classes=2, per_class=10, n_features=2, seed=5))
        ones = single_class.subset(np.nonzero(single_class.labels == 1)[0])
        committee = fit_committee(ones, 4, ForestParams(n_trees=5), 1)
        probe = rng.normal(size=(12, 2))
        votes = committee.member_votes(probe)
        for col in range(probe.shape[0]):
            assert vote_entropy(votes[:, col], 2) == 0.0
        member_probs = [m.predict_proba(probe[0]) for m in committee.members]
        assert kl_disagreement(member_probs) == 0.0

        # density beta = 0 leaves scores untouched
        base = rng.uniform(size=20)
        from flowal import information_density
        Z = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(information_density(base, Z, 0.0), base)
        report(8, "normalization, partition preservation, budget ceiling, "
                  "history determinism, QBC unanimity, density identity all hold")


class TestCriterion9CliPipeline:
    def test_generate_run_report_round_trip(self, tmp_path):
        conf = tmp_path / "bench.conf"
        conf.write_text("""
synthetic.classes = 3
synthetic.per_class = 120
synthetic.features = 4
synthetic.separation = 5.0
synthetic.seed = 13

strategies = entropy,random
fractions = 0.05,0.15
seeds = 0,1
batch = 15
learner.trees = 8
""", encoding="utf-8")
        data = tmp_path / "flows.csv"
        assert cli_main(["generate", "--config", str(conf), "--output",
                         str(data), "--quiet"]) == 0

        run_conf = tmp_path / "run.conf"
        run_conf.write_text(f"""
data.csv = {data}
data.label_column = label
strategies = entropy,random
fractions = 0.05,0.15
seeds = 0,1
batch = 15
learner.trees = 8
""", encoding="utf-8")
        rows_json = tmp_path / "rows.json"
        assert cli_main(["run", "--config", str(run_conf), "--output",
                         str(rows_json), "--format", "json", "--quiet"]) == 0

        report_csv = tmp_path / "report.csv"
        assert cli_main(["report", str(rows_json), "--format", "csv",
                         "--output", str(report_csv), "--quiet"]) == 0

        payload = json.loads(rows_json.read_text(encoding="utf-8"))
        assert len(payload) == 2 * 2 * 2 + 2
        for row in payload:
            assert abs(row["tar"] - row["accuracy"] / row["full_accuracy"]) <= 1e-9
            recomputed = (row["train_time_s"] + row["select_time_s"]) \
                / row["full_train_time_s"]
            assert abs(row["ttr"] - recomputed) <= 1e-9

        with open(report_csv, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(payload)
        by_key = {(r["strategy"], float(r["fraction"]), int(r["seed"])): r
                  for r in records}
        for row in payload:
            got = by_key[(row["strategy"], round(row["fraction"], 4), row["seed"])]
            assert float(got["tar"]) == round(row["tar"], 4)
            assert float(got["ttr"]) == round(row["ttr"], 4)
            assert float(got["accuracy"]) == round(row["accuracy"], 4)
        report(9, "generate -> run -> report pipeline exits 0; csv parses and "
                  "tar/ttr recompute from the json raw fields to 1e-9")

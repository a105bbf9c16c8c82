"""Query strategies: score unlabeled instances, pick the batch to label.

Eight selectable kinds:

  entropy            -sum p_i ln p_i over the model's class posterior
  least_confidence   1 - max(p)
  margin             top-1 minus top-2 probability (lower = more uncertain)
  qbc_vote_entropy   entropy of the committee's hard-vote distribution
  qbc_kl             mean KL(member || consensus) over committee members
  density            base informativeness x (mean similarity to pool)^beta
  lal                regressor-forecast error reduction from labeling
  random             uniform draw without replacement

All log terms are natural logs with the 0 * log 0 := 0 convention; the base
only rescales scores and never changes a top-k selection.  Batch selection
maximizes every score except margin, which it minimizes, and all ties break
toward the lowest pool index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .dataset import (SyntheticSpec, _indices, generate_synthetic,
                      holdout_split, standardize)
from .errors import (
    BatchTooLarge,
    EmptyCommittee,
    EmptyPool,
    InvalidDistribution,
    InvalidParams,
    LengthMismatch,
    UntrainedRegressor,
    _check_finite, _check_int,
)
from .forest import (
    Committee,
    ForestModel,
    ForestParams,
    ProbabilityDistribution,
    RegressionForestModel,
    evaluate_accuracy,
    fit_forest,
    fit_regression_forest,
)
from .rng import derive_seed, make_rng

if TYPE_CHECKING:  # pragma: no cover
    from .engine import PoolState

STRATEGY_KINDS = (
    "entropy",
    "least_confidence",
    "margin",
    "qbc_vote_entropy",
    "qbc_kl",
    "density",
    "lal",
    "random",
)

UNCERTAINTY_KINDS = ("entropy", "least_confidence", "margin")
_QBC_KINDS = ("qbc_vote_entropy", "qbc_kl")


def _as_probs(p) -> np.ndarray:
    if isinstance(p, ProbabilityDistribution):
        return p.probs
    return ProbabilityDistribution(p).probs


def _entropy_rows(P: np.ndarray) -> np.ndarray:
    # summing each row in sorted order makes the float result independent
    # of class order, so rows that are permutations of each other tie exactly
    P = np.sort(P, axis=-1)
    # log of a zero entry is never consumed: where masks it to log(1) = 0;
    # the log and product run in place, so only two (m, n) arrays live
    terms = np.where(P > 0, P, 1.0)
    np.log(terms, out=terms)
    terms *= P
    return -terms.sum(axis=-1)


def uncertainty_scores(kind: str, P: np.ndarray) -> np.ndarray:
    """Row-wise uncertainty of a (m, n_classes) probability matrix."""
    if kind == "entropy":
        return _entropy_rows(P)
    if kind == "least_confidence":
        return 1.0 - P.max(axis=1)
    if kind == "margin":
        part = np.sort(P, axis=1)
        return part[:, -1] - part[:, -2]
    raise InvalidParams(f"not an uncertainty kind: {kind!r}")


def oriented(kind: str, scores):
    """``kind``'s scores, or a threshold, turned so larger is more uncertain."""
    return -scores if kind == "margin" else scores  # negation is exact


def _vote_entropy_rows(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """Entropy of each column's vote histogram in a (C, m) vote matrix."""
    counts = (votes[:, :, None] == np.arange(n_classes)).sum(axis=0)
    return _entropy_rows(counts / votes.shape[0])


def entropy(p) -> float:
    """Natural-log entropy of a class posterior; 0 at one-hot, ln n at uniform."""
    return float(uncertainty_scores("entropy", _as_probs(p)[None, :])[0])


def least_confidence(p) -> float:
    """1 - max(p); higher means the model is less sure of its top class."""
    return float(uncertainty_scores("least_confidence", _as_probs(p)[None, :])[0])


def margin(p) -> float:
    """Gap between the two largest probabilities; small gap = hard instance."""
    probs = _as_probs(p)
    if probs.size < 2:
        raise InvalidDistribution("margin needs at least two classes")
    return float(uncertainty_scores("margin", probs[None, :])[0])


def vote_entropy(votes, n_classes: int) -> float:
    """Entropy of the committee's vote histogram; 0 exactly at unanimity."""
    votes = _indices(votes, InvalidDistribution)
    if votes.size < 2:
        raise EmptyCommittee("vote entropy needs at least 2 committee votes")
    if (votes < 0).any() or (votes >= n_classes).any():
        raise InvalidDistribution("vote outside [0, n_classes)")
    return float(_vote_entropy_rows(votes[:, None], n_classes)[0])


def kl_disagreement(member_probs) -> float:
    """Mean KL divergence of each member's posterior from the consensus.

    Terms where a member assigns zero mass contribute zero; wherever a member
    has mass the consensus mean is strictly positive, so the ratio is safe.
    """
    rows = [_as_probs(p) for p in member_probs]
    if len(rows) < 2:
        raise EmptyCommittee("KL disagreement needs at least 2 members")
    sizes = {r.size for r in rows}
    if len(sizes) != 1:
        raise LengthMismatch("member distributions differ in length")
    return float(_kl_rows(np.stack(rows)[None, :, :])[0])


# rows per block of _kl_rows: its temporaries are one block's, whatever the pool
_KL_BLOCK = 512


def _kl_rows(P: np.ndarray) -> np.ndarray:
    """Mean member-vs-consensus KL for a (m, C, n_classes) stack.

    Rows whose members are all identical score exactly zero, not the dust a
    rounded consensus leaves, so they tie and fall back to index order.
    Other rows are clamped at zero: the divergence is nonnegative by Gibbs'
    inequality, and the clamp keeps rounding dust from leaking tiny negatives.
    The consensus, each member's KL and the member mean are all summed in
    sorted order, so the score does not depend on class or member order.
    Every step reads only a row's own (C, n_classes) slice, so scoring the
    rows in blocks of ``_KL_BLOCK`` gives the same bits as one pass would.
    """
    kl = np.empty(P.shape[0])
    for lo in range(0, P.shape[0], _KL_BLOCK):
        B = P[lo:lo + _KL_BLOCK]
        consensus = np.sort(B, axis=1).mean(axis=1, keepdims=True)
        ratio = np.where(B > 0, B / np.where(consensus > 0, consensus, 1.0), 1.0)
        terms = np.where(B > 0, B * np.log(ratio), 0.0)
        member_kl = np.sort(terms, axis=-1).sum(axis=-1)
        mean_kl = np.maximum(np.sort(member_kl, axis=-1).mean(axis=-1), 0.0)
        identical = (B == B[:, :1]).all(axis=(1, 2))
        kl[lo:lo + _KL_BLOCK] = np.where(identical, 0.0, mean_kl)
    return kl


def information_density(base_scores, pool_features, beta: float) -> np.ndarray:
    """Reweight scores by each instance's average similarity to the pool.

    Similarity is cosine on standardized features mapped into [0, 1] via
    (1 + cos)/2; all-zero vectors sit at 0.5 similarity to everything, which
    falls out of normalizing them to the zero vector.  beta = 0 returns the
    base scores unchanged.

    With u_i the unit vectors and u_bar their mean, the row mean of
    (1 + u_i . u_j)/2 over j is exactly (1 + u_i . u_bar)/2, so the factor
    costs O(m d) time and memory; no (m, m) similarity matrix is built.
    Each dot product is summed within its own row, so duplicate rows get
    bit-identical factors, and the factor is clamped to [0, 1] so rounding
    of a unit norm cannot push it outside.
    """
    _check_finite(beta, "density beta", InvalidParams, 0)
    base = np.asarray(base_scores, dtype=np.float64)
    Z = np.asarray(pool_features, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise EmptyPool("density needs a non-empty pool feature matrix")
    if base.shape != (Z.shape[0],):
        raise LengthMismatch(
            f"{base.shape} base scores for {Z.shape[0]} pool instances"
        )
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    unit = np.divide(Z, norms, out=np.zeros_like(Z), where=norms > 0)
    # a BLAS matrix-vector product may sum rows in different orders by position
    cos_to_mean = (unit * unit.mean(axis=0)).sum(axis=1)
    factor = np.clip((1.0 + cos_to_mean) / 2.0, 0.0, 1.0)
    return base * factor ** beta


@dataclass(frozen=True)
class LalParams:
    """Monte-Carlo recipe for training the error-reduction regressor.

    Each round draws a small synthetic classification task, fits a forest on
    a few labeled points, and measures the true held-out error change from
    adding one more labeled candidate.  A regression forest of ``trees``
    trees learns to map an 8-entry learning-state vector to that error
    reduction.
    """

    mc_rounds: int = 40
    trees: int = 40
    seed: int = 0

    def __post_init__(self):
        _check_int(self.mc_rounds, "mc_rounds", InvalidParams, 1)
        _check_int(self.trees, "trees", InvalidParams, 1)
        _check_int(self.seed, "seed", InvalidParams)


def lal_state_features(model: ForestModel, labeled_size: int,
                       candidate) -> np.ndarray:
    """(m, 8) learning-state matrix for an (m, n_features) candidate matrix.

    Order: max probability, margin, entropy, across-tree vote variance,
    labeled-set size, labeled class-balance entropy, mean leaf depth reached,
    candidate L2 norm.
    """
    X = np.asarray(candidate, dtype=np.float64)
    counts, mean_depth = model.vote_counts_and_mean_depth(X)
    P = counts / model.n_trees
    # sum of per-class Bernoulli variances of the tree votes
    vote_var = 1.0 - np.sum(P * P, axis=1)
    c = model.train_class_counts
    balance = _entropy_rows(c / max(c.sum(), 1))
    return np.column_stack([
        P.max(axis=1),
        uncertainty_scores("margin", P),
        uncertainty_scores("entropy", P),
        vote_var,
        np.full(len(P), float(labeled_size)),
        np.full(len(P), balance),
        mean_depth,
        np.linalg.norm(X, axis=1),
    ])


def _lal_training_pairs(params: LalParams) -> Tuple[np.ndarray, np.ndarray]:
    """Simulated (states, error reductions) pairs the regressor learns from."""
    rng = make_rng(params.seed, 4)
    inner = ForestParams(n_trees=12)
    states: List[np.ndarray] = []
    targets: List[float] = []
    for _ in range(params.mc_rounds):
        n_classes = int(rng.integers(2, 4))
        n_features = int(rng.integers(3, 7))
        per_class = int(rng.integers(20, 36))
        separation = float(rng.uniform(1.0, 4.0))
        spec = SyntheticSpec(
            n_classes=n_classes,
            per_class=per_class,
            n_features=n_features,
            class_mean_separation=separation,
            noise_stddev=1.0,
            seed=int(rng.integers(0, 1 << 62)),
        )
        task = generate_synthetic(spec)
        test_idx, pool_idx = holdout_split(len(task), 0.4, spec.seed)
        test, pool = task.subset(test_idx), task.subset(pool_idx)
        n_labeled = int(rng.integers(max(n_classes + 1, 5), 21))
        n_labeled = min(n_labeled, len(pool) - 1)
        base_seed = int(rng.integers(0, 1 << 62))
        labeled = pool.subset(np.arange(n_labeled))
        model = fit_forest(labeled, inner, base_seed)
        base_error = 1.0 - evaluate_accuracy(model, test)
        n_candidates = min(8, len(pool) - n_labeled)
        candidates = n_labeled + np.arange(n_candidates)
        states.append(lal_state_features(model, n_labeled,
                                         pool.features[candidates]))
        for cand_index in candidates:
            extended = pool.subset(
                np.concatenate([np.arange(n_labeled), [cand_index]])
            )
            refit = fit_forest(extended, inner, base_seed)
            reduction = base_error - (1.0 - evaluate_accuracy(refit, test))
            targets.append(reduction)
    return np.vstack(states), np.asarray(targets)


def train_lal_regressor(params: LalParams) -> RegressionForestModel:
    """Run the Monte-Carlo simulation and fit the error-reduction regressor."""
    states, targets = _lal_training_pairs(params)
    return fit_regression_forest(states, targets,
                                 ForestParams(n_trees=params.trees),
                                 derive_seed(params.seed, 5))


@dataclass(frozen=True)
class StrategyConfig:
    """Which query policy to run and its knobs.

    ``base_informativeness`` applies to the density strategy only and names
    the score that gets density-weighted (margin is folded to 1 - margin so
    that larger always means more informative inside the product).
    """

    kind: str
    beta: float = 1.0
    base_informativeness: str = "entropy"
    committee_size: int = 5
    lal_params: LalParams = LalParams()
    seed: int = 0
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise InvalidParams(f"unknown strategy kind {self.kind!r}")
        _check_int(self.seed, "seed", InvalidParams)
        _check_finite(self.beta, "beta", InvalidParams, 0)
        if self.kind in _QBC_KINDS:
            _check_int(self.committee_size, "committee_size", InvalidParams, 2)
        if self.base_informativeness not in UNCERTAINTY_KINDS:
            raise InvalidParams(
                "base_informativeness must be one of "
                f"{UNCERTAINTY_KINDS}, got {self.base_informativeness!r}"
            )

    @property
    def display_name(self) -> str:
        return self.name if self.name else self.kind


def needs_committee(config: StrategyConfig) -> bool:
    return config.kind in _QBC_KINDS


def score_pool(config: StrategyConfig, state, pool: "PoolState",
               lal_regressor: Optional[RegressionForestModel] = None) -> np.ndarray:
    """Score vector aligned with ``pool.unlabeled`` (random kind excluded).

    The lal kind scores with ``lal_regressor``, which the caller trains.
    """
    U = np.asarray(pool.unlabeled, dtype=np.int64)
    if U.size == 0:
        raise EmptyPool("no unlabeled instances to score")
    XU = pool.dataset.features[U]
    kind = config.kind
    if kind in UNCERTAINTY_KINDS:
        return uncertainty_scores(kind, state.predict_proba_many(XU))
    if kind in _QBC_KINDS:
        if not isinstance(state, Committee):
            raise InvalidParams("QBC strategies need a Committee state")
        if kind == "qbc_kl":  # _kl_rows reads the (C, m, n) stack as (m, C, n)
            return _kl_rows(np.swapaxes(state.member_probas(XU), 0, 1))
        # a member votes for its top class, ties to the lowest, as it
        # predicts; the stack is freed before the votes are scored
        return _vote_entropy_rows(state.member_probas(XU).argmax(axis=2),
                                  state.schema.n_classes)
    if kind == "density":
        base = uncertainty_scores(config.base_informativeness,
                                  state.predict_proba_many(XU))
        if config.base_informativeness == "margin":
            base = 1.0 - base
        train_idx = np.concatenate([np.asarray(pool.labeled, dtype=np.int64), U])
        scaler = standardize(pool.dataset.subset(train_idx))
        return information_density(base, scaler.transform(XU), config.beta)
    if kind == "lal":
        if lal_regressor is None:
            raise UntrainedRegressor("train the LAL regressor before scoring")
        states = lal_state_features(state, len(pool.labeled), XU)
        return lal_regressor.predict_many(states)
    raise InvalidParams(f"{kind!r} has no score vector")


def select_batch(config: StrategyConfig, state, pool: "PoolState", k: int,
                 lal_regressor: Optional[RegressionForestModel] = None) -> List[int]:
    """Pick k distinct unlabeled indices under the configured policy.

    Scoring strategies return indices best-first; equal scores fall back to
    ascending pool index.  The random strategy draws uniformly without
    replacement, deterministically in (seed, |labeled|, |unlabeled|), and
    returns ascending indices.
    """
    _check_int(k, "batch size", InvalidParams)
    U = np.asarray(pool.unlabeled, dtype=np.int64)
    if U.size == 0:
        raise EmptyPool("cannot select from an empty unlabeled pool")
    if k < 1 or k > U.size:
        raise BatchTooLarge(f"batch of {k} from a pool of {U.size}")
    if config.kind == "random":
        rng = make_rng(config.seed, 6, len(pool.labeled), U.size)
        picks = rng.choice(U.size, size=k, replace=False)
        return sorted(int(U[p]) for p in picks)
    scores = score_pool(config, state, pool, lal_regressor=lal_regressor)
    if not np.isfinite(scores).all():
        raise InvalidParams("strategy produced non-finite scores")
    # stable: ties keep ascending index
    order = np.argsort(-oriented(config.kind, scores), kind="stable")
    return [int(U[i]) for i in order[:k]]

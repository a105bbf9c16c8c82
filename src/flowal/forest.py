"""Random-forest base learner with hard-vote class probabilities.

Trees are CART grown on Gini impurity with bootstrap sampling and per-split
random feature subsets.  Class probabilities are the fraction of trees voting
for each class, which is the quantity the uncertainty strategies consume.
Tree t's randomness derives from (seed, stream, t), so a fitted model is a
pure function of (data, params, seed) regardless of fitting order.  The
regressor LAL needs grows and routes through the same loops.

Determinism rules baked in here:
  * split search takes the first candidate feature, in ascending index
    order, that reaches the lowest impurity, so ties go to the lowest
    feature index;
  * within a feature, ties go to the lowest threshold;
  * leaf labels and argmax predictions break ties toward the lowest class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dataset import Dataset, FeatureSchema
from .errors import (
    DimensionMismatch,
    EmptyTestSet,
    EmptyTrainingSet,
    InvalidCommitteeSize,
    InvalidDistribution,
    SchemaMismatch,
)
from .rng import derive_seed, make_rng


class ProbabilityDistribution:
    """Validated per-class posterior: entries in [0, 1] summing to 1 (1e-9)."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise InvalidDistribution("probabilities must be a non-empty vector")
        if not np.isfinite(p).all():
            raise InvalidDistribution("non-finite probability entries")
        if (p < 0).any() or (p > 1).any():
            raise InvalidDistribution("entries outside [0, 1]")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise InvalidDistribution(f"probabilities sum to {p.sum()!r}, not 1")
        p = p.copy()
        p.flags.writeable = False
        self.probs = p

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        return f"ProbabilityDistribution({self.probs.tolist()})"


@dataclass(frozen=True)
class ForestParams:
    """Forest hyperparameters (standard Breiman defaults).

    ``features_per_split`` is either the string "sqrt" (floor of the square
    root of the feature count) or an explicit positive integer.
    """

    n_trees: int = 100
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    features_per_split: Union[str, int] = "sqrt"
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if isinstance(self.features_per_split, str):
            if self.features_per_split != "sqrt":
                raise ValueError("features_per_split must be 'sqrt' or an int")
        elif self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")

    def resolve_features_per_split(self, n_features: int) -> int:
        if self.features_per_split == "sqrt":
            k = int(math.floor(math.sqrt(n_features)))
        else:
            k = int(self.features_per_split)
        return max(1, min(k, n_features))


class _Tree:
    """Flat-array decision tree; ``value`` holds leaf payloads.

    feature[i] >= 0 marks an internal node; leaves have feature[i] == -1.
    Routing sends x left iff x[feature] <= threshold, so a NaN goes right.
    Rows are routed node by node: each internal node reached splits the
    indices of its rows with one gather of its feature, so routing m rows
    costs m times the depth reached plus a constant per node reached.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "depth")

    def __init__(self, feature, threshold, left, right, value, depth):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value)
        self.depth = np.asarray(depth, dtype=np.int64)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of X.

        Rows are read from the feature-major ``X.T``, a copy unless X is in
        Fortran order, so a caller routing X through many trees passes
        ``np.asfortranarray(X)`` to copy it once.
        """
        Xt = np.ascontiguousarray(X.T)
        feature = self.feature.tolist()
        threshold = self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        leaves = np.empty(Xt.shape[1], dtype=np.int64)
        # stack entries: (node id, indices of the rows that reach it)
        stack = [(0, np.arange(Xt.shape[1]))]
        while stack:
            node, rows = stack.pop()
            f = feature[node]
            if f < 0:
                leaves[rows] = node
                continue
            goes_left = Xt[f].take(rows) <= threshold[node]
            n_left = np.count_nonzero(goes_left)
            if n_left == rows.size:
                stack.append((left[node], rows))
            elif n_left == 0:
                stack.append((right[node], rows))
            else:
                stack.append((right[node], rows.compress(~goes_left)))
                stack.append((left[node], rows.compress(goes_left)))
        return leaves


class _Workspace:
    """Scratch buffers for one tree's split scans, sized for its root node.

    A node of m rows scoring k candidate features works in views of the
    leading entries and fills them with ``out=``, so a tree allocates its
    (k, m, payload width) temporaries once instead of per feature and node.
    """

    __slots__ = ("cum", "terms", "left", "right", "non_cut", "sizes")

    def __init__(self, k: int, n: int, width: int):
        cuts = k * max(n - 1, 0)
        self.cum = np.empty(k * n * width)
        self.terms = np.empty(cuts * width)
        self.left = np.empty(cuts)
        self.right = np.empty(cuts)
        self.non_cut = np.empty(cuts, dtype=bool)
        # left-child sizes 1 .. n - 1; a node takes the first m - 1 of them
        # and, reversed, its right-child sizes
        self.sizes = np.arange(1.0, n)


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    return buf[:math.prod(shape)].reshape(shape)


def _best_split(Xt, payload, idx, feats, cut_impurity, ws: _Workspace):
    """Lowest-impurity (feature, threshold, goes_left) over candidate features.

    ``Xt`` is the tree's feature-major sample.  All k candidate features of
    the node are scored together: one (k, m) gather of the node's values,
    one stable argsort per row, one (k, m, P) gather and cumsum of the
    node's ``payload`` rows in each feature's sorted order, and
    ``cut_impurity(cum, nl, nr, ws)`` scores the cut after every sorted
    row, nl rows left and nr right.  Positions between equal values are
    not cuts.
    ``feats`` must be in ascending order; the first feature reaching the
    overall minimum wins (ties go to the lowest feature index) and argmin
    keeps the lowest threshold.  ``goes_left`` marks the node's rows routed
    left.  Returns None when every candidate feature is constant on the node.
    """
    k, m = feats.size, idx.size
    column = feats[:, None]
    rows = idx[Xt[column, idx].argsort(axis=1, kind="stable")]
    ordered = Xt[column, rows]
    cum = _view(ws.cum, k, m, payload.shape[1])
    # rows are in range; mode="clip" lets take write to out unbuffered
    payload.take(rows, axis=0, out=cum, mode="clip")
    cum.cumsum(axis=1, out=cum)
    impurity = cut_impurity(cum, ws.sizes[:m - 1], ws.sizes[m - 2::-1], ws)
    non_cut = _view(ws.non_cut, k, m - 1)
    np.greater(ordered[:, 1:], ordered[:, :-1], out=non_cut)
    np.logical_not(non_cut, out=non_cut)
    np.copyto(impurity, np.inf, where=non_cut)
    lowest = impurity.min(axis=1)
    # a NaN minimum never wins, as under a strictly-better comparison
    i = int(np.where(lowest < np.inf, lowest, np.inf).argmin())
    if not lowest[i] < np.inf:
        return None
    j = int(impurity[i].argmin())
    threshold = _midpoint(ordered[i, j], ordered[i, j + 1])
    return int(feats[i]), threshold, Xt[feats[i], idx] <= threshold


def _gini_of_cuts(cum, nl, nr, ws):
    """Size-weighted Gini impurity of every cut; ``cum`` sums one-hot rows.

    Each cut divides, squares and sums its class row over the contiguous
    class axis, in the order the golden trees were recorded with; a change
    to that order can flip near-tied splits.
    """
    k, m, n_classes = cum.shape
    terms = _view(ws.terms, k, m - 1, n_classes)
    gini_l = _view(ws.left, k, m - 1)
    gini_r = _view(ws.right, k, m - 1)
    left = cum[:, :-1]
    np.divide(left, nl[:, None], out=terms)
    np.square(terms, out=terms)
    terms.sum(axis=2, out=gini_l)
    np.subtract(1.0, gini_l, out=gini_l)
    np.subtract(cum[:, -1:], left, out=terms)
    np.divide(terms, nr[:, None], out=terms)
    np.square(terms, out=terms)
    terms.sum(axis=2, out=gini_r)
    np.subtract(1.0, gini_r, out=gini_r)
    np.multiply(nl, gini_l, out=gini_l)
    np.multiply(nr, gini_r, out=gini_r)
    np.add(gini_l, gini_r, out=gini_l)
    return np.divide(gini_l, m, out=gini_l)


def _sse_of_cuts(cum, nl, nr, ws):
    """Total squared error of every cut; ``cum`` sums (t, t * t) rows."""
    k, m, _ = cum.shape
    s1, s2 = cum[:, :, 0], cum[:, :, 1]
    sse_l = _view(ws.left, k, m - 1)
    sse_r = _view(ws.right, k, m - 1)
    tail = _view(ws.terms, k, m - 1)
    sum_l = s1[:, :-1]
    np.multiply(sum_l, sum_l, out=sse_l)
    np.divide(sse_l, nl, out=sse_l)
    np.subtract(s2[:, :-1], sse_l, out=sse_l)
    np.subtract(s1[:, -1:], sum_l, out=sse_r)
    np.multiply(sse_r, sse_r, out=sse_r)
    np.divide(sse_r, nr, out=sse_r)
    np.subtract(s2[:, -1:], s2[:, :-1], out=tail)
    np.subtract(tail, sse_r, out=sse_r)
    return np.add(sse_l, sse_r, out=sse_l)


def _midpoint(lo: float, hi: float) -> float:
    # the float midpoint of two adjacent values can round up to hi, which
    # would route every sample left of nothing; fall back to lo
    mid = 0.5 * (lo + hi)
    return float(lo) if mid >= hi else float(mid)


def _grow_trees(X, labels, payload_rows, cut_impurity, leaf_value, placeholder,
                params: ForestParams, seed: int, stream: int) -> list:
    """Grow ``params.n_trees`` CART trees; tree t draws from (seed, stream, t).

    ``payload_rows(ys)`` gives one payload row per sampled label, summed by
    ``cut_impurity`` over each candidate cut.  A leaf's value is
    ``leaf_value`` of its rows' ``labels`` (classes or targets); internal
    nodes store ``placeholder``.  Nodes are created depth-first, left before
    right, which fixes the sequence of rng draws (bootstrap first, then one
    feature subset per split) and makes each tree a pure function of (data,
    params, rng seed).
    """
    n, d = X.shape
    k = params.resolve_features_per_split(d)
    # every tree's sample has n rows, so the forest shares one workspace
    ws = _Workspace(k, n, payload_rows(labels[:1]).shape[1])
    trees = []
    for t in range(params.n_trees):
        rng = make_rng(seed, stream, t)
        if params.bootstrap:
            sample = rng.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        Xt = np.ascontiguousarray(X[sample].T)
        ys = labels[sample]
        payload = payload_rows(ys)
        feature, threshold, left, right, value, depth_arr = [], [], [], [], [], []

        # stack entries: (row indices, depth, parent node id, is_right_child)
        stack = [(np.arange(n), 0, -1, False)]
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node_id = len(feature)
            if parent >= 0:
                (right if is_right else left)[parent] = node_id
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            depth_arr.append(depth)

            node_labels = ys[idx]
            can_split = (
                idx.size >= params.min_samples_split
                and not (node_labels == node_labels[0]).all()
                and (params.max_depth is None or depth < params.max_depth)
            )
            split = None
            if can_split:
                feats = np.sort(rng.choice(d, size=k, replace=False))
                split = _best_split(Xt, payload, idx, feats, cut_impurity, ws)
            if split is None:
                value.append(leaf_value(node_labels))
                continue
            f, thr, goes_left = split
            feature[node_id] = f
            threshold[node_id] = thr
            value.append(placeholder)
            # push right first so the left child is created (and draws rng) first
            stack.append((idx[~goes_left], depth + 1, node_id, True))
            stack.append((idx[goes_left], depth + 1, node_id, False))
        trees.append(_Tree(feature, threshold, left, right, value, depth_arr))
        # free this tree's sample before the next tree allocates its own
        del Xt, payload
    return trees


def _majority(labels: np.ndarray) -> int:
    # the first max of the counts is the lowest majority class
    return int(np.bincount(labels).argmax())


def _check_matrix(X, n_features: int) -> np.ndarray:
    """X as a float (m, n_features) matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatch(f"expected {n_features} features, got shape {X.shape}")
    return X


def _leaves(trees: Sequence[_Tree], X: np.ndarray):
    """Yield (tree, leaf ids of X's rows) for each tree, in tree order."""
    # feature-major once, so no tree copies X again
    Xf = np.asfortranarray(X)
    for tree in trees:
        yield tree, tree.apply(Xf)


class ForestModel:
    """Fitted random-forest classifier; immutable after construction."""

    def __init__(self, schema: FeatureSchema, params: ForestParams, seed: int,
                 trees: Sequence[_Tree], train_class_counts: np.ndarray):
        self.schema = schema
        self.params = params
        self.seed = seed
        self.trees = tuple(trees)
        self.train_class_counts = train_class_counts

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def vote_counts(self, X) -> np.ndarray:
        """(m, n_classes) integer matrix of per-class tree votes."""
        return self._route(X, with_depth=False)[0]

    def vote_counts_and_mean_depth(self, X):
        """Vote counts and per-row mean leaf depth from one routing of X."""
        counts, total = self._route(X, with_depth=True)
        return counts, total / self.n_trees

    def _route(self, X, with_depth: bool):
        """Route X through every tree once; depths are summed in tree order."""
        X = _check_matrix(X, self.schema.n_features)
        m = X.shape[0]
        counts = np.zeros((m, self.schema.n_classes), dtype=np.int64)
        total = np.zeros(m) if with_depth else None
        # each row's offset in the flat counts; a row occurs once per tree
        starts = np.arange(m) * self.schema.n_classes
        for tree, leaves in _leaves(self.trees, X):
            counts.reshape(-1)[starts + tree.value[leaves]] += 1
            if with_depth:
                total += tree.depth[leaves]
        return counts, total

    def predict_proba_many(self, X) -> np.ndarray:
        return self.vote_counts(X) / self.n_trees

    def predict_proba(self, features) -> ProbabilityDistribution:
        """Vote-fraction distribution for a single feature vector."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise DimensionMismatch("predict_proba takes a single feature vector")
        return ProbabilityDistribution(self.predict_proba_many(features[None, :])[0])

    def predict_many(self, X) -> np.ndarray:
        return np.argmax(self.vote_counts(X), axis=1)

    def predict(self, features) -> int:
        """Majority-vote class; ties break toward the lowest class index."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise DimensionMismatch("predict takes a single feature vector")
        return int(self.predict_many(features[None, :])[0])


def fit_forest(labeled: Dataset, params: ForestParams, seed: int) -> ForestModel:
    """Fit ``params.n_trees`` CART trees; tree t is seeded by (seed, 0, t)."""
    if len(labeled) == 0:
        raise EmptyTrainingSet("cannot fit a forest on zero records")
    onehot = np.eye(labeled.schema.n_classes)
    trees = _grow_trees(labeled.features, labeled.labels, lambda ys: onehot[ys],
                        _gini_of_cuts, _majority, -1, params, seed, 0)
    return ForestModel(labeled.schema, params, seed, trees, labeled.class_counts())


class Committee:
    """Bag of independently trained forests used for query-by-committee."""

    def __init__(self, members: Sequence[ForestModel]):
        if len(members) < 2:
            raise InvalidCommitteeSize("a committee needs at least 2 members")
        if len({m.schema for m in members}) != 1:
            raise SchemaMismatch("committee members disagree on schema")
        seeds = [m.seed for m in members]
        if len(set(seeds)) != len(seeds):
            raise InvalidCommitteeSize("member seeds must be pairwise distinct")
        self.members = tuple(members)
        self.schema = members[0].schema

    def __len__(self) -> int:
        return len(self.members)

    def member_votes(self, X) -> np.ndarray:
        """(C, m) matrix of each member's predicted class per row."""
        return np.stack([m.predict_many(X) for m in self.members])

    def member_probas(self, X) -> np.ndarray:
        """(C, m, n_classes) member vote fractions, filled member by member."""
        X = _check_matrix(X, self.schema.n_features)
        out = np.empty((len(self.members), X.shape[0], self.schema.n_classes))
        for member, probs in zip(self.members, out):
            probs[...] = member.predict_proba_many(X)
        return out

    def predict_proba_many(self, X) -> np.ndarray:
        """Consensus distribution: element-wise mean over members."""
        return self.member_probas(X).mean(axis=0)

    def predict_many(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba_many(X), axis=1)


def fit_committee(labeled: Dataset, size: int, params: ForestParams,
                  seed: int) -> Committee:
    """Fit ``size`` forests on independent bootstrap resamples of ``labeled``.

    Member m's resample and model seed both derive from (seed, m).
    """
    if size < 2:
        raise InvalidCommitteeSize(f"committee size must be >= 2, got {size}")
    if len(labeled) == 0:
        raise EmptyTrainingSet("cannot fit a committee on zero records")
    n = len(labeled)
    members = []
    for m in range(size):
        resample = make_rng(seed, 1, m).integers(0, n, size=n)
        member_seed = derive_seed(seed, 2, m)
        members.append(fit_forest(labeled.subset(resample), params, member_seed))
    return Committee(members)


def evaluate_accuracy(model, test: Dataset) -> float:
    """Fraction of test records whose prediction equals the true label.

    Accepts a ForestModel or a Committee (consensus vote).
    """
    if len(test) == 0:
        raise EmptyTestSet("cannot evaluate on an empty test set")
    if test.schema != model.schema:
        raise SchemaMismatch("test schema does not match the model's")
    predictions = model.predict_many(test.features)
    return float(np.mean(predictions == test.labels))


class RegressionForestModel:
    """Random-forest regressor (mean-leaf CART on variance splits)."""

    def __init__(self, n_features: int, params: ForestParams, seed: int,
                 trees: Sequence[_Tree]):
        self.n_features = n_features
        self.params = params
        self.seed = seed
        self.trees = tuple(trees)

    def predict_many(self, X) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        total = np.zeros(X.shape[0])
        for tree, leaves in _leaves(self.trees, X):
            total += tree.value[leaves]
        return total / len(self.trees)


def fit_regression_forest(X, targets, params: ForestParams,
                          seed: int) -> RegressionForestModel:
    """Fit LAL's regression forest on raw arrays; tree t is seeded by (seed, 3, t)."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyTrainingSet("regression forest needs a non-empty matrix")
    if t.shape != (X.shape[0],):
        raise DimensionMismatch("one target per row required")
    trees = _grow_trees(X, t, lambda ys: np.column_stack([ys, ys * ys]),
                        _sse_of_cuts, np.mean, 0.0, params, seed, 3)
    return RegressionForestModel(X.shape[1], params, seed, trees)

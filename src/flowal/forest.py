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
    InvalidParams,
    NonNumericValue,
    SchemaMismatch,
    _check_int,
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
        _check_int(self.n_trees, "n_trees", InvalidParams, 1)
        if self.max_depth is not None:
            _check_int(self.max_depth, "max_depth", InvalidParams, 0)
        _check_int(self.min_samples_split, "min_samples_split", InvalidParams, 2)
        if self.features_per_split != "sqrt":
            _check_int(self.features_per_split, "features_per_split other than 'sqrt'",
                       InvalidParams, 1)

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
        Fortran order, so models route the feature-major matrix that
        ``_check_matrix`` returns and no tree copies X again.
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


# a node's split scan takes its candidate features in blocks of at most this
# many payload cells (node rows times payload width) each, or one feature
_SCAN_CELLS = 1 << 16


class _Workspace:
    """Scratch buffers for one tree's split scans, sized by its sample.

    A node of m rows and payload width P scans its k candidate features in
    blocks of ``max(1, _SCAN_CELLS // (m * P))``.  Each block works in views
    of the leading entries and fills them with ``out=``, so a tree allocates
    its temporaries once instead of per block and node.  A tree of n sample
    rows holds at most max(_SCAN_CELLS, n * P) payload cells, whatever k.
    """

    __slots__ = ("cum", "terms", "left", "right", "nr", "non_cut")

    def __init__(self, k: int, n: int, width: int):
        rows = min(k * n, max(_SCAN_CELLS // width, n))
        self.cum = np.empty(rows * width)
        self.terms = np.empty(rows * width)
        self.left = np.empty(rows)
        self.right = np.empty(rows)
        self.nr = np.empty(rows)
        self.non_cut = np.empty(rows, dtype=bool)


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    return buf[:math.prod(shape)].reshape(shape)


def _best_split(Xt, payload, idx, total, feats, cut_impurity, ws: _Workspace):
    """Lowest-impurity split of a node's rows ``idx`` over candidate features.

    ``Xt`` is the tree's feature-major sample, and ``payload`` has one row
    per sample row whose last entry is the row's weight; ``total`` is the
    weight of the node.  The features are scored in blocks (see
    ``_Workspace``): one gather of the block's values on the node, one
    stable argsort per feature, one gather and cumsum of the node's
    ``payload`` rows in each feature's sorted order, and
    ``cut_impurity(cum, total, ws)`` scores the cut after every sorted row.
    Positions between equal values are not cuts.
    ``feats`` must be in ascending order; the first feature reaching the
    overall minimum wins (ties go to the lowest feature index, across blocks
    by a strictly-better comparison) and argmin keeps the lowest threshold.
    Returns None when every candidate feature is constant on the node, else
    (feature, threshold, goes_left, left weight), where ``goes_left`` marks
    the node's rows routed left.
    """
    m, width = idx.size, payload.shape[1]
    step = max(1, _SCAN_CELLS // (m * width))
    best, best_impurity = None, np.inf
    for start in range(0, feats.size, step):
        column = feats[start:start + step, None]
        k = column.shape[0]
        rows = idx[Xt[column, idx].argsort(axis=1, kind="stable")]
        ordered = Xt[column, rows]
        cum = _view(ws.cum, k, m, width)
        # rows are in range; mode="clip" lets take write to out unbuffered
        payload.take(rows, axis=0, out=cum, mode="clip")
        cum.cumsum(axis=1, out=cum)
        impurity = cut_impurity(cum, total, ws)
        non_cut = _view(ws.non_cut, k, m - 1)
        np.greater(ordered[:, 1:], ordered[:, :-1], out=non_cut)
        np.logical_not(non_cut, out=non_cut)
        np.copyto(impurity, np.inf, where=non_cut)
        lowest = impurity.min(axis=1)
        # a NaN minimum never wins, as under a strictly-better comparison
        i = int(np.where(lowest < np.inf, lowest, np.inf).argmin())
        if lowest[i] < best_impurity:
            j = int(impurity[i].argmin())
            best_impurity = lowest[i]
            best = (int(column[i, 0]), ordered[i, j], ordered[i, j + 1],
                    float(cum[i, j, -1]))
    if best is None:
        return None
    f, lo, hi, left_weight = best
    threshold = _midpoint(lo, hi)
    return f, threshold, Xt[f, idx] <= threshold, left_weight


def _gini_of_cuts(cum, total, ws):
    """Weighted Gini impurity of every cut, divided by the node's weight.

    ``cum`` sums rows of per-class weights followed by the row weight, so a
    cut's left weight nl is its last entry and nr = total - nl.  Each cut
    divides, squares and sums its class row over the contiguous class axis,
    in the order the golden trees were recorded with; a change to that order
    can flip near-tied splits.
    """
    k, m, width = cum.shape
    terms = _view(ws.terms, k, m - 1, width - 1)
    gini_l = _view(ws.left, k, m - 1)
    gini_r = _view(ws.right, k, m - 1)
    nl = cum[:, :-1, -1]
    nr = np.subtract(total, nl, out=_view(ws.nr, k, m - 1))
    left = cum[:, :-1, :-1]
    np.divide(left, nl[..., None], out=terms)
    np.square(terms, out=terms)
    terms.sum(axis=2, out=gini_l)
    np.subtract(1.0, gini_l, out=gini_l)
    np.subtract(cum[:, -1:, :-1], left, out=terms)
    np.divide(terms, nr[..., None], out=terms)
    np.square(terms, out=terms)
    terms.sum(axis=2, out=gini_r)
    np.subtract(1.0, gini_r, out=gini_r)
    np.multiply(nl, gini_l, out=gini_l)
    np.multiply(nr, gini_r, out=gini_r)
    np.add(gini_l, gini_r, out=gini_l)
    return np.divide(gini_l, total, out=gini_l)


def _sse_of_cuts(cum, total, ws):
    """Total squared error of every cut; ``cum`` sums (t, t * t, 1) rows."""
    k, m, _ = cum.shape
    s1, s2 = cum[:, :, 0], cum[:, :, 1]
    nl = cum[:, :-1, 2]
    nr = np.subtract(total, nl, out=_view(ws.nr, k, m - 1))
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
                params: ForestParams, seed: int, stream: int,
                collapse: bool) -> list:
    """Grow ``params.n_trees`` CART trees; tree t draws from (seed, stream, t).

    With ``collapse``, a tree grows on the distinct rows of its sample, each
    weighted by the number of times it was drawn; without, on every drawn
    row with weight 1.  A Gini cut reads class weight sums and nl, nr, all
    integers exact in float64, so a classifier's trees are bit-identical
    either way; summed regression targets would round differently.
    ``payload_rows(ys, w)`` gives one payload row per sample row, the row's
    weight last, and ``cut_impurity`` sums them over each candidate cut.  A
    node splits only if its weight reaches ``min_samples_split``.  A leaf's
    value is ``leaf_value`` of its rows' ``labels`` (classes or targets) and
    weights; internal nodes store ``placeholder``.  Nodes are created
    depth-first, left before right, which fixes the sequence of rng draws
    (bootstrap first, then one feature subset per split) and makes each tree
    a pure function of (data, params, rng seed).  Each tree has its own
    sample-sized ``_Workspace``.
    """
    n, d = X.shape
    k = params.resolve_features_per_split(d)
    trees = []
    for t in range(params.n_trees):
        rng = make_rng(seed, stream, t)
        if params.bootstrap:
            sample = rng.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        if collapse:
            sample, counts = np.unique(sample, return_counts=True)
            weights = counts.astype(np.float64)
        else:
            weights = np.ones(n)
        Xt = np.ascontiguousarray(X[sample].T)
        ys = labels[sample]
        payload = payload_rows(ys, weights)
        ws = _Workspace(k, sample.size, payload.shape[1])
        feature, threshold, left, right, value, depth_arr = [], [], [], [], [], []

        # stack entries: (row indices, weight, depth, parent node id,
        # is_right_child)
        stack = [(np.arange(sample.size), float(n), 0, -1, False)]
        while stack:
            idx, total, depth, parent, is_right = stack.pop()
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
                total >= params.min_samples_split
                and not (node_labels == node_labels[0]).all()
                and (params.max_depth is None or depth < params.max_depth)
            )
            split = None
            if can_split:
                feats = np.sort(rng.choice(d, size=k, replace=False))
                split = _best_split(Xt, payload, idx, total, feats,
                                    cut_impurity, ws)
            if split is None:
                value.append(leaf_value(node_labels, weights[idx]))
                continue
            f, thr, goes_left, left_total = split
            feature[node_id] = f
            threshold[node_id] = thr
            value.append(placeholder)
            # push right first so the left child is created (and draws rng) first
            stack.append((idx[~goes_left], total - left_total, depth + 1,
                          node_id, True))
            stack.append((idx[goes_left], left_total, depth + 1, node_id, False))
        trees.append(_Tree(feature, threshold, left, right, value, depth_arr))
        # free this tree's sample and workspace before the next tree's
        del Xt, payload, ws
    return trees


def _majority(labels: np.ndarray, weights: np.ndarray) -> int:
    # the first max of the weighted counts is the lowest majority class
    return int(np.bincount(labels, weights=weights).argmax())


def _check_matrix(X, n_features: int) -> np.ndarray:
    """X as a feature-major (Fortran-order) float (m, n_features) matrix.

    Routing reads X one feature at a time, so this is the one copy of X a
    prediction makes; a matrix it already returned passes through uncopied.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatch(f"expected {n_features} features, got shape {X.shape}")
    return np.asfortranarray(X)


class ForestModel:
    """Fitted random-forest classifier; immutable after construction."""

    def __init__(self, schema: FeatureSchema, seed: int,
                 trees: Sequence[_Tree], train_class_counts: np.ndarray):
        self.schema = schema
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
        for tree in self.trees:
            leaves = tree.apply(X)
            counts.reshape(-1)[starts + tree.value[leaves]] += 1
            if with_depth:
                total += tree.depth[leaves]
        return counts, total

    def predict_proba_many(self, X) -> np.ndarray:
        return self.vote_counts(X) / self.n_trees

    def predict_many(self, X) -> np.ndarray:
        return np.argmax(self.vote_counts(X), axis=1)


def fit_forest(labeled: Dataset, params: ForestParams, seed: int) -> ForestModel:
    """Fit ``params.n_trees`` CART trees; tree t is seeded by (seed, 0, t)."""
    if len(labeled) == 0:
        raise EmptyTrainingSet("cannot fit a forest on zero records")
    # one-hot class rows with a trailing 1, scaled by the row weights
    onehot = np.eye(labeled.schema.n_classes, labeled.schema.n_classes + 1)
    onehot[:, -1] = 1.0
    trees = _grow_trees(labeled.features, labeled.labels,
                        lambda ys, w: onehot[ys] * w[:, None], _gini_of_cuts,
                        _majority, -1, params, seed, 0, collapse=True)
    return ForestModel(labeled.schema, seed, trees, labeled.class_counts())


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

    def member_probas(self, X) -> np.ndarray:
        """(C, m, n_classes) member vote fractions, filled member by member.

        X is checked and made feature-major once; every member's
        ``vote_counts`` routes that matrix as it is.
        """
        X = _check_matrix(X, self.schema.n_features)
        out = np.empty((len(self.members), X.shape[0], self.schema.n_classes))
        for member, probs in zip(self.members, out):
            np.divide(member.vote_counts(X), member.n_trees, out=probs)
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
    _check_int(size, "committee size", InvalidCommitteeSize, 2)
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

    def __init__(self, n_features: int, trees: Sequence[_Tree]):
        self.n_features = n_features
        self.trees = tuple(trees)

    def predict_many(self, X) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.value[tree.apply(X)]
        return total / len(self.trees)


def fit_regression_forest(X, targets, params: ForestParams,
                          seed: int) -> RegressionForestModel:
    """Fit LAL's regression forest on raw arrays; tree t is seeded by (seed, 3, t)."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[0] == 0:
        raise EmptyTrainingSet("regression forest needs a non-empty matrix")
    if t.shape != (X.shape[0],):
        raise DimensionMismatch("one target per row required")
    if not (np.isfinite(X).all() and np.isfinite(t).all()):
        raise NonNumericValue(-1, "<in-memory>", "non-finite")
    trees = _grow_trees(X, t, lambda ys, w: np.column_stack([ys, ys * ys, w]),
                        _sse_of_cuts, lambda ys, w: np.mean(ys), 0.0, params,
                        seed, 3, collapse=False)
    return RegressionForestModel(X.shape[1], trees)

"""Flow-feature datasets: representation, CSV ingestion, synthesis, splitting.

A dataset is an ordered, immutable table of numeric flow-feature vectors with
integer class labels and a schema naming both features and classes.  All
randomized operations take explicit 64-bit seeds and are pure functions of
their inputs.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DatasetError,
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    InvalidPool,
    InvalidSchema,
    InvalidSpec,
    MissingColumn,
    NonNumericValue,
    SchemaMismatch,
    _check_finite, _check_int,
)
from .rng import make_rng


def _indices(values, error: type) -> np.ndarray:
    """``values`` as int64 indices; floats or a boolean mask raise ``error``."""
    idx = np.asarray(values)
    if idx.size and idx.dtype.kind not in "iu":  # np.asarray([]) is float64
        raise error(f"indices must be integers, got {idx.dtype} values")
    return idx.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FeatureSchema:
    """Names and counts of the feature and class dimensions.

    Invariants: at least one feature, at least two classes, no duplicate
    names in either list.
    """

    feature_names: tuple
    class_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if len(self.feature_names) < 1:
            raise InvalidSchema("schema needs at least one feature")
        if len(self.class_names) < 2:
            raise InvalidSchema(
                f"schema needs at least two classes, got {list(self.class_names)}"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise InvalidSchema("duplicate feature names")
        if len(set(self.class_names)) != len(self.class_names):
            raise InvalidSchema("duplicate class names")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


class Dataset:
    """Immutable ordered collection of flow records under one schema.

    Features are stored as one (n, d) float64 matrix and labels as an (n,)
    int64 vector; both are marked read-only so a dataset stays a pure value,
    and what is computed from it a pure function of its inputs (README,
    "Determinism").
    """

    def __init__(self, schema: FeatureSchema, features, labels):
        X = np.asarray(features, dtype=np.float64)
        y = _indices(labels, SchemaMismatch)
        if X.ndim == 1 and X.size == 0:
            X = X.reshape(0, schema.n_features)
        if X.ndim != 2 or X.shape[1] != schema.n_features:
            raise DimensionMismatch(
                f"feature matrix shape {X.shape} does not match "
                f"{schema.n_features} schema features"
            )
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"{y.shape[0] if y.ndim == 1 else y.shape} labels "
                f"for {X.shape[0]} records"
            )
        if X.size and not np.isfinite(X).all():
            raise NonNumericValue(-1, "<in-memory>", "non-finite")
        if y.size and (y.min() < 0 or y.max() >= schema.n_classes):
            raise SchemaMismatch("label index outside [0, n_classes)")
        X = X.copy()
        y = y.copy()
        X.flags.writeable = False
        y.flags.writeable = False
        self.schema = schema
        self.features = X
        self.labels = y

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = _indices(indices, IndexOutOfRange)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexOutOfRange(f"record index outside [0, {len(self)})")
        return Dataset(self.schema, self.features[idx], self.labels[idx])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.schema.n_classes)


@dataclass(frozen=True)
class DriftSpec:
    """Mean shift applied to every class after a point in the stream order.

    ``mean_shift`` is either a scalar (added to every feature) or a vector of
    length n_features.
    """

    onset_index: int
    mean_shift: Union[float, Sequence[float]]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a Gaussian-blob dataset with optional injected drift.

    Records are emitted in round-robin class order (record i belongs to class
    i mod n_classes) so a prefix of the stream covers every class and a drift
    onset splits each class into a before and an after segment.
    """

    n_classes: int
    per_class: int
    n_features: int
    class_mean_separation: float = 6.0
    noise_stddev: float = 1.0
    drift: Optional[DriftSpec] = None
    seed: int = 0

    def __post_init__(self):
        _check_int(self.n_classes, "n_classes", InvalidSpec, 2)
        _check_int(self.per_class, "per_class", InvalidSpec, 1)
        _check_int(self.n_features, "n_features", InvalidSpec, 1)
        _check_int(self.seed, "seed", InvalidSpec)
        _check_finite(self.class_mean_separation, "class_mean_separation", InvalidSpec)
        _check_finite(self.noise_stddev, "noise_stddev", InvalidSpec, 0)
        if self.drift is not None:
            _check_int(self.drift.onset_index, "drift onset_index", InvalidSpec)
            if not 0 <= self.drift.onset_index <= self.n_classes * self.per_class:
                raise InvalidSpec("drift onset_index outside [0, record count]")
            shift = np.atleast_1d(np.asarray(self.drift.mean_shift, dtype=np.float64))
            if shift.ndim != 1 or shift.size not in (1, self.n_features):
                raise InvalidSpec("mean_shift must be scalar or length n_features")
            for value in shift:
                _check_finite(value, "mean_shift", InvalidSpec)


@dataclass(frozen=True)
class IngestionConfig:
    """How to read a flow CSV: which column holds labels, which features to keep.

    When ``feature_columns`` is None every non-label column is a feature, in
    header order.  ``strict`` rejects the whole file on the first bad row;
    non-strict skips bad rows instead.
    """

    label_column: str
    feature_columns: Optional[Sequence[str]] = None
    strict: bool = True


def subset_size(fraction: float, n: int) -> int:
    """Half-up rounding of ``fraction * n``, exact for a decimal ``fraction``.

    The product is taken on the fraction's decimal text, not its binary
    float, so 0.35 * 90 is exactly 31.5 and gives 32 (the float product is
    31.499999999999996, which would give 31).  A NaN or infinite fraction
    raises ``InvalidPool``.
    """
    _check_finite(fraction, "fraction", InvalidPool)
    return math.floor(Fraction(str(fraction)) * n + Fraction(1, 2))


def _class_means(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic class-mean layout with pairwise distance >= separation.

    Class c sits at separation * (1 + c // d) along axis (c mod d); any two
    means on the same axis differ by at least one separation step and means
    on different axes are farther apart still.
    """
    s = spec.class_mean_separation
    d = spec.n_features
    means = np.zeros((spec.n_classes, d))
    for c in range(spec.n_classes):
        means[c, c % d] = s * (1 + c // d)
    return means


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Build a Gaussian-blob dataset from ``spec``; pure in the spec.

    Each class contributes ``per_class`` records with i.i.d. per-feature
    noise around its mean.  If drift is present, records at positions
    >= onset_index are drawn around shifted class means.
    """
    n = spec.n_classes * spec.per_class
    rng = make_rng(spec.seed)
    labels = np.arange(n, dtype=np.int64) % spec.n_classes
    means = _class_means(spec)
    X = means[labels] + rng.normal(0.0, spec.noise_stddev, size=(n, spec.n_features))
    if spec.drift is not None and spec.drift.onset_index < n:
        shift = np.asarray(spec.drift.mean_shift, dtype=np.float64)
        X[spec.drift.onset_index:] += shift
    schema = FeatureSchema(
        feature_names=tuple(f"f{j}" for j in range(spec.n_features)),
        class_names=tuple(f"class_{c}" for c in range(spec.n_classes)),
    )
    return Dataset(schema, X, labels)


def _number(cell: str) -> float:
    """``float(cell)``, or NaN when the cell is not a number."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def load_csv(path, config: IngestionConfig) -> Dataset:
    """Read a UTF-8, comma-separated flow CSV with one header row, in one pass.

    Class indices follow first-appearance order among the rows kept.  Errors
    name the 1-based physical line (the header is line 1) and a blank label
    or the first bad cell in feature order; cells are stripped, a leading
    BOM skipped.  A column that is read must appear once in the header and
    in ``feature_columns``.  Rows go onto one flat float buffer, so a
    skipped row adds no class.  ``Dataset`` copies it: ingest peaks near 2x
    the matrix.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if config.label_column not in header:
            raise MissingColumn(f"label column {config.label_column!r} not in header")
        if config.feature_columns is not None:
            feature_names = [str(c) for c in config.feature_columns]
            if config.label_column in feature_names:
                raise InvalidSchema("label column listed among feature columns")
            for i, name in enumerate(feature_names):
                if name not in header:
                    raise MissingColumn(f"feature column {name!r} not in header")
                if name in feature_names[:i]:
                    raise InvalidSchema(f"feature column {name!r} listed twice")
        else:
            feature_names = [h for h in header if h != config.label_column]
        if not feature_names:
            raise InvalidSchema("no feature columns remain after excluding the label")
        for name in (config.label_column, *feature_names):
            if header.count(name) > 1:
                raise InvalidSchema(f"column {name!r} appears more than once in the header")
        cols = [header.index(name) for name in feature_names]
        label_col = header.index(config.label_column)

        buf = array("d")
        labels = array("q")
        class_index: dict = {}
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                if config.strict:
                    raise DimensionMismatch(
                        f"row {lineno}: expected {len(header)} cells, got {len(cells)}"
                    )
                continue
            values = [_number(cells[c].strip()) for c in cols]
            label = cells[label_col].strip()
            if not label or not all(map(math.isfinite, values)):
                if config.strict and not label:
                    raise DatasetError(f"row {lineno}: blank {config.label_column!r} cell")
                if config.strict:
                    j = next(j for j, v in enumerate(values) if not math.isfinite(v))
                    raise NonNumericValue(lineno, feature_names[j],
                                          cells[cols[j]].strip())
                continue
            buf.extend(values)
            labels.append(class_index.setdefault(label, len(class_index)))

    if not labels:
        raise EmptyDataset(f"{path}: no data rows")
    schema = FeatureSchema(tuple(feature_names), tuple(class_index))
    return Dataset(schema, np.frombuffer(buf).reshape(-1, len(cols)),
                   np.frombuffer(labels, dtype=np.int64))


def holdout_split(n: int, test_fraction: float, seed: int):
    """Uniform seeded test split of ``range(n)``: (test, rest) index arrays.

    The test set is the first ``subset_size(test_fraction, n)`` entries of a
    seeded permutation; ``rest`` keeps the permutation's order.  Together
    they are a permutation of ``range(n)``, and neither may be empty.
    """
    n_test = subset_size(test_fraction, n)
    if n_test < 1:
        raise InvalidPool(
            f"test_fraction {test_fraction} of {n} records leaves no test set")
    if n_test >= n:
        raise InvalidPool(
            f"test_fraction {test_fraction} of {n} records leaves no train pool")
    perm = np.arange(n)
    make_rng(seed, 10).shuffle(perm)
    return perm[:n_test], perm[n_test:]


@dataclass(frozen=True)
class Scaler:
    """Per-feature z-score parameters fitted on a training dataset.

    Uses the population variance convention (ddof=0).  Features that are
    constant on the training data transform to exactly zero.
    """

    schema: FeatureSchema
    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.schema.n_features:
            raise SchemaMismatch(
                f"expected {self.schema.n_features} features, got {X.shape[-1]}"
            )
        safe = np.where(self.std > 0, self.std, 1.0)
        out = (X - self.mean) / safe
        out[..., self.std == 0] = 0.0
        return out


def standardize(train: Dataset) -> Scaler:
    """Fit z-score parameters on ``train`` only (never on held-out data)."""
    if len(train) == 0:
        raise EmptyDataset("cannot standardize an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # population convention
    return Scaler(train.schema, mean, std)

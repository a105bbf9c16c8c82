import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowal import (
    Dataset,
    DriftSpec,
    FeatureSchema,
    IngestionConfig,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
    load_csv,
    standardize,
    subset_size,
)
from flowal.errors import (
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
)


def write(tmp_path, text, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_record_invariants(ds):
    assert ds.features.shape == (len(ds), ds.schema.n_features)
    assert np.isfinite(ds.features).all()
    assert ((ds.labels >= 0) & (ds.labels < ds.schema.n_classes)).all()


class TestSchema:
    def test_counts(self):
        s = FeatureSchema(("a", "b"), ("x", "y", "z"))
        assert s.n_features == 2 and s.n_classes == 3

    def test_rejects_duplicates_and_empties(self):
        with pytest.raises(InvalidSchema):
            FeatureSchema(("a", "a"), ("x", "y"))
        with pytest.raises(InvalidSchema):
            FeatureSchema(("a",), ("x",))
        with pytest.raises(InvalidSchema):
            FeatureSchema((), ("x", "y"))


class TestLoadCsv:
    def test_header_only_strict_is_empty(self, tmp_path):
        path = write(tmp_path, "a,b,label\n")
        with pytest.raises(EmptyDataset):
            load_csv(path, IngestionConfig(label_column="label"))

    def test_three_row_fixture(self, tmp_path):
        # hand parse: labels a,a,b appear in that order -> indices 0,0,1
        path = write(tmp_path, "f1,f2,label\n1,2,a\n3,4,a\n5,6,b\n")
        ds = load_csv(path, IngestionConfig(label_column="label"))
        assert ds.schema.n_classes == 2
        assert len(ds) == 3
        assert ds.labels.tolist() == [0, 0, 1]
        assert ds.schema.feature_names == ("f1", "f2")
        np.testing.assert_array_equal(ds.features[2], [5.0, 6.0])
        assert_record_invariants(ds)

    def test_twelve_traffic_categories(self, tmp_path):
        categories = ["WWW", "MAIL", "ATTACK", "P2P", "SERVICES", "DATABASE",
                      "INTERACTIVE", "MULTIMEDIA", "GAMES", "FTP-CONTROL",
                      "FTP-DATA", "FTP-PASV"]
        lines = ["dur,pkts,label"]
        for i, cat in enumerate(categories * 3):
            lines.append(f"{i}.5,{i},{cat}")
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"),
                      IngestionConfig(label_column="label"))
        assert ds.schema.n_classes == 12
        assert ds.schema.class_names == tuple(categories)
        assert_record_invariants(ds)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(path, IngestionConfig(label_column="label"))

    def test_missing_feature_column(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n")
        with pytest.raises(MissingColumn):
            load_csv(path, IngestionConfig(label_column="label",
                                           feature_columns=["a", "zzz"]))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n1,oops,y\n")
        with pytest.raises(NonNumericValue) as err:
            load_csv(path, IngestionConfig(label_column="label"))
        assert err.value.row == 3  # header is line 1
        assert err.value.column == "b"

    def test_nan_and_empty_cells_rejected(self, tmp_path):
        for bad in ("nan", "inf", ""):
            path = write(tmp_path, f"a,label\n{bad},x\n1,y\n", name=f"{bad or 'blank'}.csv")
            with pytest.raises(NonNumericValue):
                load_csv(path, IngestionConfig(label_column="label"))

    def test_non_strict_skips_bad_rows(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\noops,x\n2,y\n")
        ds = load_csv(path, IngestionConfig(label_column="label", strict=False))
        assert len(ds) == 2
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_label_rejected_when_strict(self, tmp_path, blank):
        path = write(tmp_path, f"a,b,class\n1,2,x\n3,4,{blank}\n5,6,y\n")
        with pytest.raises(DatasetError, match=r"^row 3: blank 'class' cell$"):
            load_csv(path, IngestionConfig(label_column="class"))

    def test_blank_label_row_skipped_when_not_strict(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n3,4,\n5,6,y\n7,8,  \n")
        ds = load_csv(path, IngestionConfig(label_column="label", strict=False))
        assert ds.schema.class_names == ("x", "y")
        assert ds.labels.tolist() == [0, 1]
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [5.0, 6.0]])

    def test_blank_line_is_skipped(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n\n2,y\n")
        ds = load_csv(path, IngestionConfig(label_column="label"))
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0]])
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("text, features, column", [
        ("a,label,b,label\n1,x,2,z\n3,y,4,w\n", None, "label"),
        ("a,a,label\n1,2,x\n3,4,y\n", ["a"], "a"),
    ], ids=["label", "feature"])
    def test_repeated_read_column_rejected(self, tmp_path, strict, text,
                                           features, column):
        with pytest.raises(InvalidSchema, match=f"column '{column}' appears"):
            load_csv(write(tmp_path, text),
                     IngestionConfig(label_column="label",
                                     feature_columns=features, strict=strict))

    @pytest.mark.parametrize("strict", [True, False])
    def test_feature_listed_twice_rejected_before_the_first_row(self, tmp_path,
                                                                 strict):
        path = write(tmp_path, "a,b,label\n1,2,x\nbad,3,y\n")
        with pytest.raises(InvalidSchema, match="'a' listed twice"):
            load_csv(path, IngestionConfig(label_column="label",
                                           feature_columns=["a", "a"],
                                           strict=strict))

    def test_repeated_unread_column_allowed(self, tmp_path):
        path = write(tmp_path, "a,b,b,label\n1,2,3,x\n4,5,6,y\n")
        ds = load_csv(path, IngestionConfig(label_column="label",
                                            feature_columns=["a"]))
        np.testing.assert_array_equal(ds.features, [[1.0], [4.0]])

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\n1,2\n3,4,y\n")
        with pytest.raises(DimensionMismatch):
            load_csv(path, IngestionConfig(label_column="label"))

    def test_feature_subset_and_order(self, tmp_path):
        path = write(tmp_path, "a,b,c,label\n1,2,3,x\n4,5,6,y\n")
        ds = load_csv(path, IngestionConfig(label_column="label",
                                            feature_columns=["c", "a"]))
        assert ds.schema.feature_names == ("c", "a")
        np.testing.assert_array_equal(ds.features[0], [3.0, 1.0])

    def test_single_class_file_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n2,x\n")
        with pytest.raises(InvalidSchema):
            load_csv(path, IngestionConfig(label_column="label"))

    @pytest.mark.parametrize("text, features", [
        ("label,f0,f1\nx,1,2\ny,3,4\nx,5,6\n", None),
        ("f0,f1,label\n1,2,x\n3,4,y\n5,6,x\n", None),
        ("f0,f1,label\n1,2,x\n3,4,y\n5,6,x\n", ["f0", "f1"]),
    ])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, features):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        config = IngestionConfig(label_column="label", feature_columns=features)
        plain = load_csv(write(tmp_path, text), config)
        marked = load_csv(write(tmp_path, "\ufeff" + text, name="bom.csv"), config)
        assert marked.schema == plain.schema
        assert plain.schema.feature_names == ("f0", "f1")
        np.testing.assert_array_equal(marked.features, plain.features)
        np.testing.assert_array_equal(marked.labels, plain.labels)

    def test_label_listed_as_feature_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n2,y\n")
        with pytest.raises(InvalidSchema):
            load_csv(path, IngestionConfig(label_column="label",
                                           feature_columns=["a", "label"]))

    def test_padded_numeric_cells_parse(self, tmp_path):
        # str.strip() drops "\x1c" too, although float() alone rejects it
        for pad in (" ", "\t", "\x1c"):
            path = write(tmp_path, f"a,b,label\n{pad}1.5{pad},2,x\n3,{pad}-4,y\n",
                         name=f"pad{ord(pad)}.csv")
            ds = load_csv(path, IngestionConfig(label_column="label"))
            np.testing.assert_array_equal(ds.features, [[1.5, 2.0], [3.0, -4.0]])

    def test_first_bad_cell_in_feature_order_is_named(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,x\noops, nan ,y\n")
        for features, column, cell in ((None, "a", "oops"),
                                       (["b", "a"], "b", "nan")):
            with pytest.raises(NonNumericValue) as err:
                load_csv(path, IngestionConfig(label_column="label",
                                               feature_columns=features))
            got = err.value
            assert (got.row, got.column, got.value) == (3, column, cell)

    def test_skipped_rows_add_no_class(self, tmp_path):
        # "late" first appears on a bad row and "ragged" only on a ragged one
        path = write(tmp_path, "a,b,label\noops,1,late\n1,2,ragged,extra\n"
                               "1,2,x\n3,4,y\n5,inf,z\n5,6,late\n7,8,x\n")
        ds = load_csv(path, IngestionConfig(label_column="label", strict=False))
        assert ds.schema.class_names == ("x", "y", "late")
        assert ds.labels.tolist() == [0, 1, 2, 0]
        np.testing.assert_array_equal(ds.features[:, 0], [1, 3, 5, 7])

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_ingest_peak_stays_within_three_feature_matrices(self, tmp_path,
                                                             peak_bytes, n):
        X = np.random.default_rng(n).normal(size=(n, 12))
        lines = [",".join([f"f{j}" for j in range(12)] + ["label"])]
        lines += [",".join(map(repr, x)) + f",c{i % 3}"
                  for i, x in enumerate(X.tolist())]
        path = write(tmp_path, "\n".join(lines) + "\n")
        config = IngestionConfig(label_column="label")
        peak = peak_bytes(lambda: load_csv(path, config))
        assert peak <= 3 * X.nbytes
        np.testing.assert_array_equal(load_csv(path, config).features, X)


def toy_dataset(n, d=1):
    schema = FeatureSchema(tuple(f"f{j}" for j in range(d)), ("x", "y"))
    features = np.arange(n * d, dtype=float).reshape(n, d)
    labels = np.arange(n) % 2
    return Dataset(schema, features, labels)


SEEDS = st.integers(0, (1 << 64) - 1)


class TestHoldoutSplit:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 400), fraction=st.floats(0.0, 1.0), seed=SEEDS)
    def test_partition_property(self, n, fraction, seed):
        n_test = subset_size(fraction, n)
        assume(0 < n_test < n)
        test, rest = holdout_split(n, fraction, seed)
        assert len(test) == n_test and len(rest) == n - n_test
        assert sorted(np.concatenate([test, rest]).tolist()) == list(range(n))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 400), seed=SEEDS)
    def test_determinism(self, n, seed):
        test1, rest1 = holdout_split(n, 0.3, seed)
        test2, rest2 = holdout_split(n, 0.3, seed)
        np.testing.assert_array_equal(test1, test2)
        np.testing.assert_array_equal(rest1, rest2)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 400), fraction=st.floats(-0.5, 1.5), seed=SEEDS)
    @example(n=5, fraction=0.0, seed=0)
    @example(n=5, fraction=-0.2, seed=0)
    @example(n=5, fraction=1.5, seed=0)
    def test_invalid_fractions(self, n, fraction, seed):
        # InvalidPool exactly when the test set or the train pool is empty
        n_test = subset_size(fraction, n)
        if 0 < n_test < n:
            holdout_split(n, fraction, seed)
            return
        empty = "no test set" if n_test < 1 else "no train pool"
        with pytest.raises(InvalidPool, match=empty):
            holdout_split(n, fraction, seed)

    def test_identity_fraction_leaves_no_train_pool(self):
        with pytest.raises(InvalidPool, match="leaves no train pool"):
            holdout_split(10, 1.0, 3)
        # 0.001 * 100 rounds to an empty test side, and the message says so
        with pytest.raises(InvalidPool, match="leaves no test set"):
            holdout_split(100, 0.001, 3)

    def test_round_half_up_sizing_on_9159(self):
        # 0.005 * 9159 = 45.795, which rounds up to 46
        test, rest = holdout_split(9159, 0.005, 0)
        assert len(test) == 46
        assert len(rest) == 9159 - 46


class TestGenerateSynthetic:
    def test_counts_per_class(self):
        ds = generate_synthetic(SyntheticSpec(n_classes=3, per_class=10,
                                              n_features=2, seed=0))
        assert len(ds) == 30
        assert ds.class_counts().tolist() == [10, 10, 10]
        assert_record_invariants(ds)

    def test_pure_in_spec(self):
        spec = SyntheticSpec(n_classes=2, per_class=7, n_features=3, seed=99)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_drift_at_end_is_no_drift(self):
        base = SyntheticSpec(n_classes=2, per_class=10, n_features=2, seed=5)
        drifted = SyntheticSpec(n_classes=2, per_class=10, n_features=2, seed=5,
                                drift=DriftSpec(onset_index=20, mean_shift=3.0))
        np.testing.assert_array_equal(generate_synthetic(base).features,
                                      generate_synthetic(drifted).features)

    def test_drift_shifts_segment_means(self):
        # sample means over each class segment must move by the shift,
        # up to 3 sigma / sqrt(segment size) sampling noise per feature
        per_class, n_classes, shift, sigma = 400, 2, 2.5, 0.7
        n = per_class * n_classes
        spec = SyntheticSpec(n_classes=n_classes, per_class=per_class,
                             n_features=3, class_mean_separation=8.0,
                             noise_stddev=sigma, seed=3,
                             drift=DriftSpec(onset_index=n // 2, mean_shift=shift))
        ds = generate_synthetic(spec)
        onset = n // 2
        tol = 3 * sigma / math.sqrt(per_class / 2)
        for c in range(n_classes):
            rows = np.nonzero(ds.labels == c)[0]
            before = ds.features[rows[rows < onset]].mean(axis=0)
            after = ds.features[rows[rows >= onset]].mean(axis=0)
            np.testing.assert_allclose(after - before, shift, atol=tol)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_classes=1, per_class=5, n_features=2)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_classes=2, per_class=0, n_features=2)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_classes=2, per_class=5, n_features=2, noise_stddev=-1)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_classes=2, per_class=5, n_features=2,
                          drift=DriftSpec(onset_index=11, mean_shift=1.0))


class TestStandardize:
    def test_constant_column_maps_to_zero(self):
        schema = FeatureSchema(("a", "b"), ("x", "y"))
        ds = Dataset(schema, [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
        out = standardize(ds).transform(ds.features)
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0, 0.0])

    def test_single_row_matches_matrix_row(self):
        schema = FeatureSchema(("a", "b", "c"), ("x", "y"))
        ds = Dataset(schema, [[5.0, 1.0, 0.0], [5.0, 2.0, 4.0], [5.0, 3.0, 1.0]],
                     [0, 1, 0])
        scaler = standardize(ds)
        row = np.array([7.0, 2.5, -1.0])
        single = scaler.transform(row)
        assert single.shape == (3,)
        assert single[0] == 0.0
        np.testing.assert_array_equal(single, scaler.transform(row[None, :])[0])

    def test_population_convention_closed_form(self):
        # column [1,2,3]: mean 2, population stddev sqrt(2/3)
        schema = FeatureSchema(("a",), ("x", "y"))
        ds = Dataset(schema, [[1.0], [2.0], [3.0]], [0, 1, 0])
        scaler = standardize(ds)
        assert scaler.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert scaler.std[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
        out = scaler.transform(ds.features)
        expected = 1.0 / math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out[:, 0],
                                   [-expected, 0.0, expected], atol=1e-12)
        assert expected == pytest.approx(1.2247, abs=1e-4)

    def test_train_maps_to_zero_mean(self):
        rng = np.random.default_rng(4)
        schema = FeatureSchema(tuple(f"f{j}" for j in range(4)), ("x", "y"))
        ds = Dataset(schema, rng.normal(3.0, 2.5, size=(40, 4)),
                     rng.integers(0, 2, size=40))
        out = standardize(ds).transform(ds.features)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)

    def test_schema_mismatch_on_apply(self):
        ds = toy_dataset(6, d=2)
        with pytest.raises(SchemaMismatch):
            standardize(ds).transform(np.zeros((2, 5)))

    def test_empty_train_rejected(self):
        schema = FeatureSchema(("a",), ("x", "y"))
        empty = Dataset(schema, np.empty((0, 1)), np.empty(0, dtype=int))
        with pytest.raises(EmptyDataset):
            standardize(empty)


class TestRoundHalfUp:
    # subset_size(x, 1) is the library's half-up rounding of the decimal x
    @pytest.mark.parametrize("x,expected", [
        (45.795, 46), (45.5, 46), (45.4999, 45), (0.5, 1), (0.49, 0), (2.0, 2),
    ])
    def test_values(self, x, expected):
        assert subset_size(x, 1) == expected


# fractions in (0, 1) with one to four decimal digits
DECIMAL_FRACTIONS = st.integers(1, 4).flatmap(
    lambda digits: st.integers(1, 10 ** digits - 1).map(
        lambda k: Decimal(k).scaleb(-digits)))


class TestSubsetSize:
    @settings(max_examples=300, deadline=None)
    @given(fraction=DECIMAL_FRACTIONS, n=st.integers(0, 50_000))
    @example(fraction=Decimal("0.35"), n=90)  # float product 31.499999999999996
    @example(fraction=Decimal("0.7"), n=45)   # float product 31.499999999999996
    @example(fraction=Decimal("0.005"), n=9159)
    def test_exact_decimal_half_up(self, fraction, n):
        want = int((fraction * n).quantize(Decimal(1), rounding=ROUND_HALF_UP))
        assert subset_size(float(fraction), n) == want

    def test_tie_the_float_product_misses(self):
        assert 0.35 * 90 < 31.5
        assert subset_size(0.35, 90) == 32
        test, rest = holdout_split(90, 0.35, 0)
        assert len(test) == 32 and len(rest) == 58

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf])
    def test_non_finite_fraction_is_an_invalid_pool(self, fraction):
        with pytest.raises(InvalidPool, match="^fraction must be finite$"):
            subset_size(fraction, 10)
        with pytest.raises(InvalidPool):
            holdout_split(10, fraction, 0)


class TestDatasetContainer:
    def test_immutable_arrays(self):
        ds = toy_dataset(4)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_dimension_checks(self):
        schema = FeatureSchema(("a", "b"), ("x", "y"))
        with pytest.raises(DimensionMismatch):
            Dataset(schema, [[1.0, 2.0, 3.0]], [0])
        with pytest.raises(DimensionMismatch):
            Dataset(schema, [[1.0, 2.0]], [0, 1])

    def test_label_range_check(self):
        schema = FeatureSchema(("a",), ("x", "y"))
        with pytest.raises(SchemaMismatch):
            Dataset(schema, [[1.0]], [2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_feature_rejected(self, bad):
        schema = FeatureSchema(("a", "b"), ("x", "y"))
        with pytest.raises(NonNumericValue):
            Dataset(schema, [[1.0, 2.0], [3.0, bad]], [0, 1])

    def test_subset_keeps_order(self):
        ds = toy_dataset(6, d=2)
        sub = ds.subset([4, 1])
        np.testing.assert_array_equal(sub.features[0], ds.features[4])
        np.testing.assert_array_equal(sub.features[1], ds.features[1])

    @pytest.mark.parametrize("indices", [
        [1.5], np.array([0.0, 2.0]), np.arange(6) < 2], ids=["float", "floats", "mask"])
    def test_subset_rejects_non_integer_indices(self, indices):
        # floats would be truncated and a mask read as indices 0 and 1
        with pytest.raises(IndexOutOfRange, match="integers"):
            toy_dataset(6).subset(indices)

    @pytest.mark.parametrize("indices", [[-1], np.array([-6]), [6], [0, 7]])
    def test_subset_rejects_indices_outside_the_dataset(self, indices):
        # a negative index would read from the end, one past it leak IndexError
        with pytest.raises(IndexOutOfRange, match="outside"):
            toy_dataset(6).subset(indices)

    @pytest.mark.parametrize("indices", [[], (), np.array([], dtype=np.uint8),
                                         [np.int32(3), 0]])
    def test_subset_takes_empty_and_numpy_integer_indices(self, indices):
        ds = toy_dataset(6)
        sub = ds.subset(indices)
        np.testing.assert_array_equal(sub.labels, ds.labels[list(indices)])

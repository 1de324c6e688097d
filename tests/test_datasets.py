import numpy as np
import pytest

import gpspca.datasets
from gpspca import (
    DatasetFormatError,
    FixedSplit,
    GroupedSplit,
    PerClassCount,
    knn_classify,
    load_dataset,
    make_splits,
    synthetic_sparse_factors,
)
import gpspca.parallel
from gpspca.datasets import LabeledDataset, read_svmlight, read_table


class TestLoadDataset:
    def test_header_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\n0,1.5,2.5\n1,3.0,4.0\n0,5.0,6.0\n")
        ds = load_dataset(path)
        assert ds.n_samples == 3 and ds.n_features == 2
        assert ds.labels.tolist() == [0, 1, 0]

    def test_headerless_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("2,0.5,1.5\n3,2.5,3.5\n")
        ds = load_dataset(path)
        assert ds.labels.tolist() == [2, 3]

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1.0,2.0\n0,1.0,oops\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="label"):
            load_dataset(path)

    @pytest.mark.parametrize("label", ["nan", "inf", "1e300"])
    def test_label_outside_int64_names_line(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"0,1.0,2.0\n{label},1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_trailing_commas_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f2,\n0,1.5,2.5,\n1,3.0,4.0,,\n")
        ds = load_dataset(path)
        assert np.array_equal(ds.samples, [[1.5, 2.5], [3.0, 4.0]])
        assert ds.labels.tolist() == [0, 1]

    def test_usps_shaped_file(self, tmp_path):
        # 9298 samples x 256 features with the standard 7291/2007 split
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=9298)
        features = rng.integers(0, 3, size=(9298, 256))
        lines = [
            str(labels[i]) + "," + ",".join(map(str, features[i]))
            for i in range(9298)
        ]
        path = tmp_path / "usps.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_dataset(path)
        assert ds.n_samples == 9298 and ds.n_features == 256
        split = make_splits(
            ds, FixedSplit(np.arange(7291), np.arange(7291, 9298))
        )
        assert split.train_indices.size == 7291
        assert split.test_indices.size == 2007


class TestReadSvmlight:
    def test_integral_float_label_accepted(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("3.0 1:0.5\n-1 2:1.0\n")
        labels, features = read_svmlight(path)
        assert labels.tolist() == [3, -1]
        assert np.array_equal(features, [[0.5, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("label", ["2.7", "nan", "inf", "1e300"])
    def test_non_integer_label_names_line(self, tmp_path, label):
        path = tmp_path / "d.svm"
        path.write_text(f"1 1:0.5\n{label} 2:1.0\n")
        with pytest.raises(DatasetFormatError, match="line 2: label"):
            read_svmlight(path)

    @pytest.mark.parametrize("value", ["1e999", "-inf", "nan"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "d.svm"
        path.write_text(f"1 1:0.5\n2 1:1.0 2:{value}\n")
        with pytest.raises(DatasetFormatError, match="line 2: non-finite value"):
            read_svmlight(path)

    def test_width_beyond_memory_refused_before_allocating(self, tmp_path, monkeypatch):
        # With 1000 kB available, three rows fit 42666 columns, not 10**6.
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemAvailable: 1000 kB\n")
        monkeypatch.setattr(gpspca.parallel, "MEMINFO", str(meminfo))
        path = tmp_path / "d.svm"
        path.write_text("1 1:0.5\n2 3:1.0 1000000:2.0\n3 999999:1.0\n")
        with pytest.raises(DatasetFormatError, match="line 2: feature index 1000000 "):
            read_svmlight(path)
        with pytest.raises(DatasetFormatError, match="n_features 2000000 "):
            read_svmlight(path, n_features=2_000_000)
        narrow = tmp_path / "narrow.svm"
        narrow.write_text("1 40000:1.0\n")
        assert read_svmlight(narrow)[1].shape == (1, 40000)


class TestLoadMatrixCsv:
    """read_table on an unlabeled matrix CSV, as `gpspca solve` reads it."""

    def test_optional_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        out = read_table(path)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_table(path)


# (id, file bytes, sep, label column, the reader that serves it: "c" for
# numpy's C reader, "loop" for the line loop, "error" when both refuse).
READER_CORPUS = [
    ("header", b"label,f1,f2\n1,0.5,2.25\n2,-1e-3,3\n", ",", 0, "c"),
    ("no-header", b"1,0.5,2.25\n2,-1e-3,3\n", ",", 0, "c"),
    ("unlabeled", b"1.5,2\n-3,4e2\n", ",", None, "c"),
    ("label-last", b"a,b,y\n0.5,2,7\n1,3,8\n", ",", -1, "c"),
    ("crlf", b"label,a\r\n1,0.5\r\n2,0.25\r\n", ",", 0, "c"),
    ("blank-lines", b"\n1,2\n\n3,4\n\n", ",", 0, "c"),
    ("blank-first-line-then-header", b"\nlabel,a\n1,2\n", ",", 0, "error"),
    ("spaces-around-values", b" 1 , 2.5 \n3,\t4\n", ",", 0, "c"),
    ("whitespace-only-lines", b"1,2\n   \n\t\n3,4\n  \n", ",", 0, "c"),
    ("comma-only-line", b"1,2\n,,\n3,4\n", ",", 0, "c"),
    ("trailing-commas", b"1,2,\n3,4,,\n", ",", 0, "c"),
    ("whitespace-separated", b"1 2.5\n3\t4\n", None, 0, "c"),
    ("whitespace-header", b"label x y\n1 2 3\n4 5 6\n", None, 0, "c"),
    ("whitespace-trailing-comma", b"1 2,\n3 4\n", None, 0, "c"),
    ("underscore-digits", b"1,1_000\n2,3\n", ",", 0, "loop"),
    ("non-ascii-digits", "1,\u0661\u0662\n2,\uff13\n".encode(), ",", 0, "loop"),
    ("hash-header", b"#label,a\n1,2\n", ",", 0, "c"),
    ("hash-line-is-data", b"1,2\n#3,4\n", ",", 0, "error"),
    ("inf", b"1,inf\n2,3\n", ",", 0, "error"),
    ("nan", b"1,2\n2,nan\n", ",", None, "error"),
    ("overflow", b"1,2\n2,1e999\n", ",", 0, "error"),
    ("ragged", b"1,2\n3\n", ",", 0, "error"),
    ("non-integer-label", b"1,2\n1.5,2\n", ",", 0, "error"),
    ("label-beyond-int64", b"9223372036854775808,1\n", ",", 0, "error"),
    ("non-numeric", b"1,2\n3,x\n", ",", 0, "error"),
    ("empty", b"", ",", 0, "error"),
    ("header-only", b"label,a,b\n", ",", 0, "error"),
    ("blank-only", b"\n\n", ",", None, "error"),
    ("non-utf8", b"1,2\n\xff,3\n", ",", 0, "error"),
    ("non-utf8-header", b"\xffabel,a\n1,2\n", ",", 0, "error"),
]


class TestReadTableReaders:
    """read_table parses with numpy's C reader and falls back to its line
    loop; every file must read as the loop alone reads it, bitwise, or
    fail with the loop's message."""

    @staticmethod
    def outcome(path, sep, label):
        try:
            out = read_table(path, sep, label)
        except DatasetFormatError as err:
            return str(err)
        arrays = out if isinstance(out, tuple) else (out,)
        return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]

    @pytest.mark.parametrize("name, data, sep, label, reader", READER_CORPUS,
                             ids=[case[0] for case in READER_CORPUS])
    def test_same_result_as_the_line_loop(self, tmp_path, monkeypatch, recwarn,
                                          name, data, sep, label, reader):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        served = []
        c_table = gpspca.datasets._c_table
        monkeypatch.setattr(gpspca.datasets, "_c_table",
                            lambda *a: served.append(c_table(*a)) or served[-1])
        got = self.outcome(path, sep, label)
        monkeypatch.setattr(gpspca.datasets, "_c_table", lambda *a: None)
        want = self.outcome(path, sep, label)
        assert got == want
        assert isinstance(got, str) == (reader == "error")
        if reader == "c":
            assert served[0] is not None
        if reader == "loop":
            assert served[0] is None
        assert not recwarn.list

    def test_error_names_the_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"label,a\n1,2\n\n2,1e999\n")
        with pytest.raises(DatasetFormatError, match="^line 4: non-finite value$"):
            read_table(path, label=0)
        path.write_bytes(b"label,a\n1,2\n2.5,1\n")
        with pytest.raises(DatasetFormatError, match="^line 3: label 2.5 is not an integer$"):
            read_table(path, label=0)


def toy_dataset(per_class=72, classes=20, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    return LabeledDataset(
        samples=rng.standard_normal((per_class * classes, 3)), labels=labels
    )


class TestMakeSplits:
    def test_per_class_count_sizes(self):
        ds = toy_dataset()
        split = make_splits(ds, PerClassCount(24), seed=7)
        assert split.train_indices.size == 480
        assert split.test_indices.size == 1440 - 480
        train_labels = ds.labels[split.train_indices]
        assert all(np.sum(train_labels == c) == 24 for c in range(20))

    def test_fixed_echoes_indices(self):
        ds = toy_dataset(per_class=4, classes=2)
        train = np.array([0, 1, 4, 5])
        test = np.array([2, 3, 6, 7])
        split = make_splits(ds, FixedSplit(train, test))
        assert np.array_equal(split.train_indices, train)
        assert np.array_equal(split.test_indices, test)

    def test_same_seed_same_split(self):
        ds = toy_dataset()
        a = make_splits(ds, PerClassCount(24), seed=3)
        b = make_splits(ds, PerClassCount(24), seed=3)
        assert np.array_equal(a.train_indices, b.train_indices)
        c = make_splits(ds, PerClassCount(24), seed=4)
        assert not np.array_equal(a.train_indices, c.train_indices)

    def test_infeasible_per_class(self):
        ds = toy_dataset(per_class=10)
        with pytest.raises(DatasetFormatError):
            make_splits(ds, PerClassCount(11))

    def test_grouped_holds_out_groups(self):
        ds = toy_dataset(per_class=5, classes=4)  # 20 samples
        groups = np.tile(np.arange(5), 4)
        split = make_splits(ds, GroupedSplit(groups, (3, 4)))
        assert set(groups[split.test_indices]) == {3, 4}
        assert set(groups[split.train_indices]) == {0, 1, 2}

    def test_disjoint_exhaustive_enforced(self):
        ds = toy_dataset(per_class=4, classes=2)
        with pytest.raises(DatasetFormatError):
            make_splits(ds, FixedSplit([0, 1, 2], [2, 3, 4, 5, 6, 7]))

    def test_test_label_missing_from_train(self):
        ds = LabeledDataset(samples=np.zeros((4, 2)), labels=np.array([0, 0, 0, 1]))
        with pytest.raises(DatasetFormatError, match="never appear"):
            make_splits(ds, FixedSplit([0, 1], [2, 3]))

    def test_sides_need_a_split(self, tmp_path):
        # Indexing with the unset indices would return (1, 30, 8) samples.
        path = tmp_path / "d.csv"
        rows = np.random.default_rng(8).standard_normal((30, 8))
        path.write_text("".join(f"{i % 3}," + ",".join(map(str, r)) + "\n"
                                for i, r in enumerate(rows)))
        ds = load_dataset(path)
        for side in (ds.train, ds.test):
            with pytest.raises(ValueError, match="make_splits"):
                side()
        split = make_splits(ds, FixedSplit(np.arange(20), np.arange(20, 30)))
        train_x, train_y = split.train()
        test_x, test_y = split.test()
        assert np.array_equal(train_x, ds.samples[:20]) and np.array_equal(train_y, ds.labels[:20])
        assert np.array_equal(test_x, ds.samples[20:]) and np.array_equal(test_y, ds.labels[20:])


class TestKnnClassify:
    def test_exact_training_point_wins(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([1, 2])
        pred = knn_classify(train, labels, np.array([[5.0, 5.0]]))
        assert pred.tolist() == [2]

    def test_one_dimensional_example(self):
        pred = knn_classify([[0.0], [10.0]], np.array([0, 1]), [[2.0]])
        assert pred.tolist() == [0]

    def test_distance_tie_lowest_index(self):
        train = np.array([[1.0], [-1.0]])
        labels = np.array([7, 8])
        pred = knn_classify(train, labels, [[0.0]])
        assert pred.tolist() == [7]

    def test_separated_blobs_against_brute_force(self):
        rng = np.random.default_rng(70)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        train = np.vstack([c + rng.standard_normal((50, 2)) for c in centers])
        train_labels = np.repeat([0, 1, 2], 50)
        test = np.vstack([c + rng.standard_normal((50, 2)) for c in centers])
        test_labels = np.repeat([0, 1, 2], 50)
        pred = knn_classify(train, train_labels, test)
        # independent brute-force distance matrix
        d = ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(pred, train_labels[np.argmin(d, axis=1)])
        assert np.mean(pred == test_labels) >= 0.99

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            knn_classify(np.zeros((0, 2)), np.array([]), np.zeros((1, 2)))


class TestSyntheticSparseFactors:
    def test_shapes_and_determinism(self):
        a = synthetic_sparse_factors(n_classes=4, per_class=6, n_features=30,
                                     n_factors=3, support_size=5, seed=9)
        b = synthetic_sparse_factors(n_classes=4, per_class=6, n_features=30,
                                     n_factors=3, support_size=5, seed=9)
        assert a.samples.shape == (24, 30)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_overlapping_supports(self):
        with pytest.raises(ValueError):
            synthetic_sparse_factors(n_features=10, n_factors=3, support_size=5)

import numpy as np
import pytest

from gpspca import (
    DatasetFormatError,
    FixedSplit,
    GroupedSplit,
    PerClassCount,
    knn_classify,
    load_dataset,
    load_matrix_csv,
    make_splits,
    synthetic_sparse_factors,
)
from gpspca.datasets import LabeledDataset, read_svmlight


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


class TestLoadMatrixCsv:
    def test_optional_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        out = load_matrix_csv(path)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_matrix_csv(path)


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


class TestKnnClassify:
    def test_exact_training_point_wins(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([1, 2])
        pred, acc = knn_classify(train, labels, np.array([[5.0, 5.0]]), [2])
        assert pred.tolist() == [2] and acc == 1.0

    def test_one_dimensional_example(self):
        pred, _ = knn_classify([[0.0], [10.0]], np.array([0, 1]), [[2.0]])
        assert pred.tolist() == [0]

    def test_distance_tie_lowest_index(self):
        train = np.array([[1.0], [-1.0]])
        labels = np.array([7, 8])
        pred, _ = knn_classify(train, labels, [[0.0]])
        assert pred.tolist() == [7]

    def test_separated_blobs_against_brute_force(self):
        rng = np.random.default_rng(70)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        train = np.vstack([c + rng.standard_normal((50, 2)) for c in centers])
        train_labels = np.repeat([0, 1, 2], 50)
        test = np.vstack([c + rng.standard_normal((50, 2)) for c in centers])
        test_labels = np.repeat([0, 1, 2], 50)
        pred, acc = knn_classify(train, train_labels, test, test_labels)
        # independent brute-force distance matrix
        d = ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(pred, train_labels[np.argmin(d, axis=1)])
        assert acc >= 0.99

    def test_k_three_majority(self):
        train = np.array([[0.0], [0.2], [0.3], [9.0]])
        labels = np.array([1, 1, 2, 2])
        pred, _ = knn_classify(train, labels, [[0.1]], k=3)
        assert pred.tolist() == [1]

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

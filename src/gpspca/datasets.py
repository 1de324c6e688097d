"""Dataset ingestion, train/test splitting, and nearest-neighbor scoring.

One normalized on-disk format is supported: UTF-8 CSV with an optional
single header row, one sample per row, the integer class label in the
first column and the features after it.  read_table also reads the raw
delimited layouts and read_svmlight the sparse one that `gpspca datasets
convert` turns into it; conversion notes for the usual benchmark corpora
live in the README.
"""

import math
from dataclasses import dataclass

import numpy as np


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed or a split is invalid."""


@dataclass(frozen=True)
class LabeledDataset:
    """Samples (N x n), integer labels (N), and an optional train/test split."""

    samples: np.ndarray
    labels: np.ndarray
    train_indices: np.ndarray = None
    test_indices: np.ndarray = None

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_features(self):
        return self.samples.shape[1]

    def train(self):
        return self.samples[self.train_indices], self.labels[self.train_indices]

    def test(self):
        return self.samples[self.test_indices], self.labels[self.test_indices]


# Split policies.  make_splits dispatches on the type.


@dataclass(frozen=True)
class FixedSplit:
    """Use the given train/test index arrays verbatim."""

    train_indices: object
    test_indices: object


@dataclass(frozen=True)
class PerClassCount:
    """Randomly draw k training samples from every class; rest is test."""

    k: int


@dataclass(frozen=True)
class GroupedSplit:
    """Hold out whole groups: samples whose group id is in test_groups
    form the test set (e.g. speaker-disjoint folds)."""

    groups: object
    test_groups: tuple


def numbered_lines(path):
    """(1-based line number, line) for each line of a UTF-8 text file;
    a file that does not decode is a DatasetFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as err:
            raise DatasetFormatError(f"{path}: not UTF-8 text ({err.reason})") from None


def read_table(path, sep=",", label=None):
    """Parse a delimited numeric table: comma-separated, or whitespace
    when sep is None.

    Blank lines are skipped, trailing commas are ignored, and a first
    line that does not parse as numbers is a header.  Every row must
    have the same width and finite values; errors name the 1-based line.
    Returns the float matrix, or with label (a column index) that column
    as int64 labels and the remaining columns: (labels, features).
    """
    rows, line_numbers = [], []
    for line_no, line in numbered_lines(path):
        line = line.strip().rstrip(",")
        if not line:
            continue
        try:
            row = np.array(line.split(sep), dtype=np.float64)
        except ValueError:
            if line_no == 1:
                continue
            raise DatasetFormatError(f"line {line_no}: non-numeric value") from None
        if rows and len(row) != len(rows[0]):
            raise DatasetFormatError(
                f"line {line_no}: expected {len(rows[0])} columns, got {len(row)}"
            )
        rows.append(row)
        line_numbers.append(line_no)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
    # Drop the row list before the features are copied out, so that copy
    # adds nothing to the peak memory.
    del rows
    # A value such as 1e999 parses, to inf.
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise DatasetFormatError(f"line {line_numbers[bad[0]]}: non-finite value")
    if label is None:
        return values
    labels = values[:, label]
    # abs < 2**63 also rejects labels that overflow int64.
    bad = np.flatnonzero(~(np.abs(labels) < 2.0**63) | (labels != np.trunc(labels)))
    if bad.size:
        raise DatasetFormatError(
            f"line {line_numbers[bad[0]]}: label {float(labels[bad[0]])!r} is not an integer"
        )
    return labels.astype(np.int64), np.delete(values, label, axis=1)


def read_svmlight(path, n_features=0):
    """Parse svmlight records `label index:value ...` (1-based indices,
    `#` comments) into int64 labels and a dense feature matrix at least
    n_features wide."""
    labels, records = [], []
    for line_no, line in numbered_lines(path):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
            pairs = [(int(i), float(v)) for i, v in (tok.split(":") for tok in tokens[1:])]
        except ValueError:
            raise DatasetFormatError(f"line {line_no}: bad svmlight record") from None
        # abs < 2**63 also rejects nan and labels that overflow int64.
        if not (abs(label) < 2.0**63 and label == int(label)):
            raise DatasetFormatError(f"line {line_no}: label {label!r} is not an integer")
        labels.append(int(label))
        if any(i < 1 for i, _ in pairs):
            raise DatasetFormatError(f"line {line_no}: feature indices start at 1")
        # A value such as 1e999 parses, to inf.
        if not all(math.isfinite(v) for _, v in pairs):
            raise DatasetFormatError(f"line {line_no}: non-finite value")
        records.append(pairs)
    if not records:
        raise DatasetFormatError(f"{path}: no data rows")
    width = max([n_features] + [i for pairs in records for i, _ in pairs])
    features = np.zeros((len(records), width))
    for row, pairs in zip(features, records):
        for i, v in pairs:
            row[i - 1] = v
    return np.array(labels, dtype=np.int64), features


def load_dataset(path):
    """Parse a labeled CSV (label in the first column) into a
    LabeledDataset (no split yet); see read_table for the format."""
    labels, samples = read_table(path, label=0)
    if samples.shape[1] < 1:
        raise DatasetFormatError(f"{path}: expected a label plus at least one feature")
    return LabeledDataset(samples=samples, labels=labels)


def load_matrix_csv(path):
    """Parse an unlabeled CSV matrix (optional header, one sample per row)."""
    return read_table(path)


def _validate_split(dataset, train_idx, test_idx):
    n = dataset.n_samples
    train_idx = np.asarray(train_idx, dtype=np.int64)
    test_idx = np.asarray(test_idx, dtype=np.int64)
    combined = np.concatenate([train_idx, test_idx])
    if combined.size != n or np.unique(combined).size != n:
        raise DatasetFormatError("split indices must be disjoint and exhaustive")
    if combined.min() < 0 or combined.max() >= n:
        raise DatasetFormatError("split indices out of range")
    train_labels = set(dataset.labels[train_idx].tolist())
    missing = set(dataset.labels[test_idx].tolist()) - train_labels
    if missing:
        raise DatasetFormatError(
            f"test labels {sorted(missing)} never appear in the training set"
        )
    return train_idx, test_idx


def make_splits(dataset, policy, seed=0):
    """Attach a train/test split to a dataset; deterministic under seed."""
    if isinstance(policy, FixedSplit):
        train_idx = np.asarray(policy.train_indices, dtype=np.int64)
        test_idx = np.asarray(policy.test_indices, dtype=np.int64)
    elif isinstance(policy, PerClassCount):
        if policy.k < 1:
            raise DatasetFormatError("per-class count must be >= 1")
        rng = np.random.default_rng(seed)
        train_parts = []
        for label in np.unique(dataset.labels):
            members = np.nonzero(dataset.labels == label)[0]
            if members.size < policy.k:
                raise DatasetFormatError(
                    f"class {label} has {members.size} samples, fewer than k={policy.k}"
                )
            train_parts.append(rng.permutation(members)[: policy.k])
        train_idx = np.sort(np.concatenate(train_parts))
        mask = np.ones(dataset.n_samples, dtype=bool)
        mask[train_idx] = False
        test_idx = np.nonzero(mask)[0]
        if test_idx.size == 0:
            raise DatasetFormatError("per-class split leaves no test sample")
    elif isinstance(policy, GroupedSplit):
        groups = np.asarray(policy.groups)
        if groups.shape != (dataset.n_samples,):
            raise DatasetFormatError("groups must give one id per sample")
        test_mask = np.isin(groups, np.asarray(policy.test_groups))
        if not test_mask.any() or test_mask.all():
            raise DatasetFormatError("grouped split leaves train or test empty")
        train_idx = np.nonzero(~test_mask)[0]
        test_idx = np.nonzero(test_mask)[0]
    else:
        raise DatasetFormatError(f"unknown split policy {policy!r}")
    train_idx, test_idx = _validate_split(dataset, train_idx, test_idx)
    return LabeledDataset(
        samples=dataset.samples,
        labels=dataset.labels,
        train_indices=train_idx,
        test_indices=test_idx,
    )


def _squared_distances(test, train):
    # ||t - s||^2 expanded; tiny negatives from cancellation are clamped.
    d = (
        np.sum(test * test, axis=1)[:, None]
        - 2.0 * test @ train.T
        + np.sum(train * train, axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def knn_classify(train_embedding, train_labels, test_embedding, test_labels=None, k=1):
    """Nearest-neighbor prediction in the embedded space.

    Euclidean metric; distance ties go to the lowest train index.  For
    k > 1 the majority label wins, vote ties resolved in favor of the
    label holding the nearest neighbor.  Returns (predictions, accuracy);
    accuracy is None when test_labels is not given.
    """
    train = np.asarray(train_embedding, dtype=np.float64)
    test = np.asarray(test_embedding, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    if train.shape[0] == 0:
        raise ValueError("training set is empty")
    if train.ndim != 2 or test.ndim != 2 or train.shape[1] != test.shape[1]:
        raise ValueError("train and test embeddings must share the column count")
    if not 1 <= k <= train.shape[0]:
        raise ValueError("k must be between 1 and the training-set size")
    predictions = np.empty(test.shape[0], dtype=train_labels.dtype)
    # Chunk test rows so the distance matrix stays modest.
    step = max(1, int(2**22 // max(train.shape[0], 1)))
    for lo in range(0, test.shape[0], step):
        d = _squared_distances(test[lo : lo + step], train)
        if k == 1:
            predictions[lo : lo + d.shape[0]] = train_labels[np.argmin(d, axis=1)]
            continue
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        for r in range(order.shape[0]):
            votes = train_labels[order[r]]
            labels, counts = np.unique(votes, return_counts=True)
            winners = labels[counts == counts.max()]
            if winners.size == 1:
                predictions[lo + r] = winners[0]
            else:
                # First neighbor whose label is among the tied winners.
                for idx in order[r]:
                    if train_labels[idx] in winners:
                        predictions[lo + r] = train_labels[idx]
                        break
    accuracy = None
    if test_labels is not None:
        test_labels = np.asarray(test_labels)
        accuracy = float(np.mean(predictions == test_labels))
    return predictions, accuracy


def synthetic_sparse_factors(
    n_classes=20,
    per_class=25,
    n_features=200,
    n_factors=5,
    support_size=10,
    class_scale=4.0,
    within_scale=1.0,
    noise_scale=1.0,
    seed=0,
):
    """Labeled data whose class structure lives in a few sparse directions.

    Each of the n_factors latent directions is supported on its own
    disjoint block of support_size features; class means are drawn in
    latent space, and isotropic Gaussian noise covers every feature.
    Ground truth for benchmarking sparse-versus-dense projections.
    """
    if n_factors * support_size > n_features:
        raise ValueError("disjoint supports need n_factors*support_size <= n_features")
    rng = np.random.default_rng(seed)
    W = np.zeros((n_features, n_factors))
    for f in range(n_factors):
        block = slice(f * support_size, (f + 1) * support_size)
        entries = rng.standard_normal(support_size)
        W[block, f] = entries / np.linalg.norm(entries)
    class_means = rng.standard_normal((n_classes, n_factors)) * class_scale
    total = n_classes * per_class
    labels = np.repeat(np.arange(n_classes), per_class)
    latent = class_means[labels] + rng.standard_normal((total, n_factors)) * within_scale
    samples = latent @ W.T + rng.standard_normal((total, n_features)) * noise_scale
    return LabeledDataset(samples=samples, labels=labels.astype(np.int64))

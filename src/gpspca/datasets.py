"""Dataset ingestion, train/test splitting, and 1-nearest-neighbor scoring.

One normalized on-disk format is supported: UTF-8 CSV with an optional
single header row, one sample per row, the integer class label in the
first column and the features after it.  read_table also reads the raw
delimited layouts and read_svmlight the sparse one that `gpspca datasets
convert` turns into it; conversion notes for the usual benchmark corpora
live in the README.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .parallel import check_allocation


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
        return self._side(self.train_indices)

    def test(self):
        return self._side(self.test_indices)

    def _side(self, indices):
        # Indexing with None would add an axis: (1, N, n) samples.
        if indices is None:
            raise ValueError("dataset has no train/test split; draw one with make_splits")
        return self.samples[indices], self.labels[indices]


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

    numpy's C reader (np.loadtxt) parses the lines first, stripped as
    above.  Where it raises, as on a ragged row or a value such as 1_000
    that float() accepts and it does not, or where it finds no rows, a
    non-finite value or a label that is not an integer, the file is read
    again one line at a time.  That loop parses each value with float(),
    which rounds as the C reader does, and names the line of the first
    error.
    """
    values = _c_table(path, sep)
    if values is None or _first_bad_row(values, label) is not None:
        values, line_numbers = _table_lines(path, sep)
        bad = _first_bad_row(values, label)
        if bad is not None:
            row, reason = bad
            raise DatasetFormatError(f"line {line_numbers[row]}: {reason}")
    if label is None:
        return values
    return values[:, label].astype(np.int64), np.delete(values, label, axis=1)


def _strip(line):
    # A line as both readers see it: outer whitespace and trailing commas off.
    return line.strip().rstrip(",")


def _parse_row(line, sep):
    """A line's values, or None for a blank line; ValueError when a value
    does not parse."""
    line = _strip(line)
    return np.array(line.split(sep), dtype=np.float64) if line else None


def _c_table(path, sep):
    """np.loadtxt's parse of the lines the line loop parses: stripped,
    without blank lines or a header.  None where it raises or warns (an
    empty table does)."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            try:
                _parse_row(first, sep)
            except ValueError:
                first = ""
            lines = (line for line in map(_strip, itertools.chain([first], fh)) if line)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(lines, delimiter=sep, comments=None, ndmin=2)
    except Exception:
        # Whatever the C reader refuses, the line loop reads or names.
        return None


def _table_lines(path, sep):
    """(values, 1-based line number of each row), one line at a time."""
    rows, line_numbers = [], []
    for line_no, line in numbered_lines(path):
        try:
            row = _parse_row(line, sep)
        except ValueError:
            if line_no == 1:
                continue
            raise DatasetFormatError(f"line {line_no}: non-numeric value") from None
        if row is None:
            continue
        if rows and len(row) != len(rows[0]):
            raise DatasetFormatError(
                f"line {line_no}: expected {len(rows[0])} columns, got {len(row)}"
            )
        rows.append(row)
        line_numbers.append(line_no)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), line_numbers


def _first_bad_row(values, label):
    """(row index, reason) of the first row with a non-finite value or,
    with label, a label that is not an integer; None when every row is
    good."""
    # A value such as 1e999 parses, to inf.
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        return bad[0], "non-finite value"
    if label is not None:
        labels = values[:, label]
        # abs < 2**63 also rejects labels that overflow int64.
        bad = np.flatnonzero(~(np.abs(labels) < 2.0**63) | (labels != np.trunc(labels)))
        if bad.size:
            return bad[0], f"label {float(labels[bad[0]])!r} is not an integer"
    return None


def read_svmlight(path, n_features=0):
    """Parse svmlight records `label index:value ...` (1-based indices,
    `#` comments) into int64 labels and a dense feature matrix at least
    n_features wide.  A width that cannot fit in memory is refused, naming
    the line with the largest index, before the matrix is allocated."""
    labels, records = [], []
    width, widest_line = n_features, None
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
        top = max((i for i, _ in pairs), default=0)
        if top > width:
            width, widest_line = top, line_no
    if not records:
        raise DatasetFormatError(f"{path}: no data rows")
    try:
        check_allocation(len(records), width)
    except MemoryError as err:
        where = "n_features" if widest_line is None else f"line {widest_line}: feature index"
        raise DatasetFormatError(f"{where} {width} is too large ({err})") from None
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


def _validate_split(dataset, kind, train_idx, test_idx):
    n = dataset.n_samples
    train_idx = np.asarray(train_idx, dtype=np.int64)
    test_idx = np.asarray(test_idx, dtype=np.int64)
    for side, idx in (("training", train_idx), ("test", test_idx)):
        if idx.size == 0:
            raise DatasetFormatError(f"{kind} split leaves no {side} sample")
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
    """Attach a train/test split to a dataset; deterministic under seed.
    A split that leaves either side empty is a DatasetFormatError."""
    if isinstance(policy, FixedSplit):
        kind, train_idx, test_idx = "fixed", policy.train_indices, policy.test_indices
    elif isinstance(policy, PerClassCount):
        kind = "per-class"
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
    elif isinstance(policy, GroupedSplit):
        kind = "grouped"
        groups = np.asarray(policy.groups)
        if groups.shape != (dataset.n_samples,):
            raise DatasetFormatError("groups must give one id per sample")
        test_mask = np.isin(groups, np.asarray(policy.test_groups))
        train_idx = np.nonzero(~test_mask)[0]
        test_idx = np.nonzero(test_mask)[0]
    else:
        raise DatasetFormatError(f"unknown split policy {policy!r}")
    train_idx, test_idx = _validate_split(dataset, kind, train_idx, test_idx)
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


def knn_classify(train_embedding, train_labels, test_embedding):
    """1-nearest-neighbor predictions in the embedded space.

    Euclidean metric; each test row takes the label of its nearest
    training row, distance ties going to the lowest train index.
    """
    train = np.asarray(train_embedding, dtype=np.float64)
    test = np.asarray(test_embedding, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    if train.shape[0] == 0:
        raise ValueError("training set is empty")
    if train.ndim != 2 or test.ndim != 2 or train.shape[1] != test.shape[1]:
        raise ValueError("train and test embeddings must share the column count")
    predictions = np.empty(test.shape[0], dtype=train_labels.dtype)
    # Chunk test rows so the distance matrix stays modest.
    step = max(1, 2**22 // train.shape[0])
    for lo in range(0, test.shape[0], step):
        d = _squared_distances(test[lo : lo + step], train)
        predictions[lo : lo + d.shape[0]] = train_labels[np.argmin(d, axis=1)]
    return predictions


def synthetic_sparse_factors(
    n_classes=20,
    per_class=25,
    n_features=200,
    n_factors=5,
    support_size=10,
    class_scale=4.0,
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
    latent = class_means[labels] + rng.standard_normal((total, n_factors))
    samples = latent @ W.T + rng.standard_normal((total, n_features)) * noise_scale
    return LabeledDataset(samples=samples, labels=labels.astype(np.int64))

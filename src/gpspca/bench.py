"""Benchmark harness: timing sweeps and recognition experiments.

This module owns the samples-as-rows boundary: data is centered with
training-set feature means here, solvers consume the centered matrix
directly (training samples are the sphere dimension, features are the
variables), and PCA components and sparse loadings end up in the same
feature space.  Recognition scores the embedded test rows with the
1-nearest-neighbor classifier (datasets.knn_classify), which has no
setting.
"""

import sys
import time
from dataclasses import dataclass

import numpy as np

from .block import RankDeficiencyError, solve_block
from .core import DataMatrix, SolverConfig, _standard_normal_matrix
from .datasets import (
    knn_classify,
    load_dataset,  # noqa: F401  unused here, but perfbench wraps it by this name
    make_splits,
)
from .parallel import check_allocation, check_workers
from .pca import PcaFactors, center_rows, pca_fit
from .pca import project  # noqa: F401  unused here, but perfbench wraps it by this name
from .single_unit import ComponentSequence, solve_multi_sequential

SPCA_VARIANTS = ("sl1", "sl0", "bl1", "bl0")
VARIANTS = SPCA_VARIANTS + ("pca",)
# The peak of a timing sweep with pca, in P x N matrices, less the m / P
# its components add: pca_fit holds a centered copy of the shared instance
# and factorizes its P x P sample Gram.  Measured with tracemalloc at
# N = 4000, one instance: 2.20-2.26 at m = 5, 2.30 at m = 50 and 3.14 at
# m = 399, where a full SVD of the centered copy peaked at 3.12-3.18, 3.23
# and 4.10.  m = P is above the centered rows' rank, so that fit takes the SVD
# and peaks at 4.20.  A sweep of the sparse variants is checked for the one
# instance (see check_allocation).
PCA_SWEEP_MATRICES = 2.3


@dataclass
class ExperimentConfig:
    """Settings for one experiment sweep; seed fixes all randomness."""

    variant: str = "sl1"
    m: tuple = (5,)
    gamma: float = 0.1
    mu: float = 1.0
    repetitions: int = 1
    seed: int = 0
    out: str = None
    workers: int = 1
    tol: float = 1e-6
    max_iter: int = 1000
    split: object = None
    timing_sizes: tuple = (500, 1000, 2000)
    timing_gammas: tuple = (0.01, 0.05)
    timing_variants: tuple = SPCA_VARIANTS
    timing_instances: int = 20
    timing_workers: tuple = None

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if isinstance(self.m, int):
            self.m = (self.m,)
        self.m = tuple(int(v) for v in self.m)
        # A fit's exception becomes an error row, so a bad worker count is
        # rejected here rather than in every fit.
        for workers in (self.workers, *(self.timing_workers or ())):
            check_workers(workers)


def fit_projection(train_samples, variant, m, gamma, mu=1.0, tol=1e-6, max_iter=1000,
                   seed=0, workers=1, center=True, reuse=None):
    """Learn an n x m projection from training rows.

    Returns (loadings, mean, report) where report is None for the PCA
    baseline.  Sparse variants consume the centered training matrix
    as-is: its rows are the sphere dimension, its columns the variables.
    train_samples may be a DataMatrix, which center=False hands to the
    solver unchanged (timing runs share one per raw synthetic instance);
    center=True builds the centered matrix straight into a DataMatrix's
    column-major storage, so the solver makes no copy of it.  reuse, a
    dict shared by fits of the same training rows and settings that
    differ only in m, keeps work a later fit can extend or slice: the
    pca.PcaFactors, the sl1/sl0 component sequence, and the centered
    matrix and its (read-only) mean, which every sparse fit after the
    first takes as they are, so the training rows are centered once.  The
    results are bitwise those of a fresh fit.  Training rows whose
    centering overflows raise DatasetFormatError (see pca.center_rows).
    """
    if isinstance(train_samples, DataMatrix):
        samples = train_samples.values
    else:
        samples = train_samples = np.asarray(train_samples, dtype=np.float64)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    penalty = "l1" if variant.endswith("1") else "l0"
    sequential = variant.startswith("s")
    # Built for pca too, which reads none of it, so every variant checks it.
    config = SolverConfig(
        penalty=penalty, m=m, gamma=gamma, mu=mu, tol=tol, max_iter=max_iter,
        init="max_norm_column" if sequential else "random_orthonormal", seed=seed,
    )
    if variant == "pca":
        if reuse is not None:
            if "pca" not in reuse:
                reuse["pca"] = PcaFactors(samples)
            samples = reuse["pca"]
        model = pca_fit(samples, m)
        return model.components, model.mean, None
    if reuse is not None and "centered" in reuse:
        centered, mean = reuse["centered"]
    elif center:
        centered, mean = center_rows(samples, order="F")
        centered = DataMatrix._own(centered)
    else:
        mean = np.zeros(samples.shape[1])
        centered = train_samples
    if reuse is not None:
        mean.flags.writeable = False
        reuse["centered"] = centered, mean
    if sequential:
        # Sequential component j depends on gamma_j, not on m or mu, so a
        # larger m extends the last fit's components exactly; a
        # per-component gamma is tied to its m, which the sequence holds
        # to.  Block fits (bl1/bl0) couple all m components and fit from
        # scratch.
        sequence = None
        if reuse is not None:
            if "sequence" not in reuse:
                reuse["sequence"] = ComponentSequence(centered, config, workers)
            sequence = reuse["sequence"]
        loadings, report = solve_multi_sequential(centered, config, workers, sequence=sequence)
    else:
        loadings, report = solve_block(centered, config, workers)
    return loadings.values, mean, report


def _per_class_accuracy(predictions, test_labels, all_labels):
    out = {}
    for label in all_labels:
        mask = test_labels == label
        key = f"acc_class_{label}"
        out[key] = float(np.mean(predictions[mask] == label)) if mask.any() else None
    return out


def _centered_rows(train_x, test_x, mean):
    """The training rows less the training mean, and the test rows centered
    in place (the caller's own copy, which it only embeds): pca.project's
    subtraction, so that a product with loadings embeds them exactly as
    project does.  (One product over both, stacked, rounds differently at
    m = 2.)"""
    np.subtract(test_x, mean, out=test_x)
    return train_x - mean, test_x


def run_recognition_experiment(config, dataset):
    """Fit on train, embed everything, 1-NN classify; repeat and sweep m.

    Returns the CSV rows (one per repetition and m, mean rows appended)
    and writes them to config.out when set.  The fits of one repetition
    share a reuse state (see fit_projection): the training rows are
    centered once, into one matrix and mean that every sparse fit of the
    repetition reads, so a row's fit_seconds is the fit time spent in its
    repetition so far, its own fit included.  Every fit of a repetition
    returns that training mean, so the rows it embeds are centered once
    too, and each m embeds them with one product per set.
    converged is 1 when every component of a sparse fit converged, 0
    otherwise, and empty for pca.  Settings no fit can take (a gamma or
    mu list whose length misses an m) raise ValueError before the first
    fit; a fit's own failure is recorded in the row's error column, not
    raised.
    """
    if config.split is None:
        raise ValueError("recognition experiment needs a split policy")
    _check_fit_settings(config, (config.gamma,))
    all_labels = np.unique(dataset.labels)
    rows = []
    for rep in range(config.repetitions):
        split = make_splits(dataset, config.split, seed=[config.seed, rep])
        train_x, train_y = split.train()
        test_x, test_y = split.test()
        reuse = {}
        centered = None
        fit_seconds = 0.0
        for m in config.m:
            row = {
                "method": config.variant,
                "m": m,
                "gamma": _render_gamma(config.gamma),
                "repetition": rep,
                "overall_accuracy": None,
            }
            row.update({f"acc_class_{label}": None for label in all_labels})
            row.update({"nnz_per_component": "", "fit_seconds": None, "converged": None,
                        "error": ""})
            try:
                start = time.perf_counter()
                try:
                    loadings, mean, report = fit_projection(
                        train_x, config.variant, m, config.gamma, config.mu,
                        config.tol, config.max_iter, seed=[config.seed, rep],
                        workers=config.workers, reuse=reuse,
                    )
                finally:
                    fit_seconds += time.perf_counter() - start
                if centered is None:
                    centered = _centered_rows(train_x, test_x, mean)
                train_emb, test_emb = (rows @ loadings for rows in centered)
                predictions, accuracy = knn_classify(train_emb, train_y, test_emb, test_y)
                row["overall_accuracy"] = accuracy
                row.update(_per_class_accuracy(predictions, test_y, all_labels))
                nnz = np.count_nonzero(loadings, axis=0)
                row["nnz_per_component"] = ";".join(str(int(v)) for v in nnz)
                row["fit_seconds"] = fit_seconds
                row["converged"] = None if report is None else int(report.converged)
            except Exception as err:  # recorded per repetition, sweep continues
                row["error"] = f"{type(err).__name__}: {err}"
            rows.append(row)
    rows.extend(_mean_rows(rows, all_labels, config))
    if config.out:
        emit_report(rows, config.out)
    return rows


def _check_fit_settings(config, gammas):
    # A setting SolverConfig refuses raises here, before the first fit,
    # rather than filling every row's error column.
    for m in config.m:
        for gamma in gammas:
            SolverConfig(m=m, gamma=gamma, mu=config.mu, tol=config.tol,
                         max_iter=config.max_iter)


def _render_gamma(gamma):
    if np.ndim(gamma) == 0:
        return float(gamma)
    return ";".join(f"{float(g):.17g}" for g in np.asarray(gamma).ravel())


def _mean_rows(rows, all_labels, config):
    means = []
    for m in config.m:
        group = [
            r for r in rows
            if r["m"] == m and r["repetition"] != "mean" and not r["error"]
        ]
        if not group:
            continue
        row = {
            "method": config.variant,
            "m": m,
            "gamma": group[0]["gamma"],
            "repetition": "mean",
            "overall_accuracy": float(np.mean([r["overall_accuracy"] for r in group])),
        }
        for label in all_labels:
            key = f"acc_class_{label}"
            vals = [r[key] for r in group if r[key] is not None]
            row[key] = float(np.mean(vals)) if vals else None
        nnz = [
            np.array([int(v) for v in r["nnz_per_component"].split(";")])
            for r in group
        ]
        row["nnz_per_component"] = ";".join(
            f"{v:.17g}" for v in np.mean(nnz, axis=0)
        )
        row["fit_seconds"] = float(np.mean([r["fit_seconds"] for r in group]))
        row["converged"] = (
            None if config.variant == "pca" else float(np.mean([r["converged"] for r in group]))
        )
        row["error"] = ""
        means.append(row)
    return means


def run_timing_experiment(config):
    """Wall-time sweep over random dense instances on the (N, P=N/10) grid.

    Each instance is drawn once, straight into the solvers' column-major
    storage, and that one matrix is shared by every variant, gamma and
    worker count, so the comparison is paired and a sweep of the sparse
    variants peaks at about one P x N matrix (PCA_SWEEP_MATRICES with
    pca).  Rows carry per-solve seconds, iteration counts and whether the
    solve converged (1/0; empty for pca, which has no solver report),
    grouped by cell (variant, gamma, workers) with the cell's median row
    after its instances; the median's converged cell is the share of
    instances that converged.  A fit that raises RankDeficiencyError (a
    gamma that zeroes a block component) is recorded in its row's error
    column, with iterations and converged left empty, and the median row
    counts only the instances without one.  A size whose peak cannot fit
    in memory is skipped, before its first instance is drawn, and the
    sweep continues.  Settings no sweep can run, such as a size off the
    grid, two values of m, an m above P for a block or pca fit, or a mu
    list whose length is not m, raise ValueError before the first fit.
    """
    if len(config.m) != 1:
        raise ValueError(f"a timing sweep takes one m, got {config.m}")
    m = config.m[0]
    if config.timing_instances < 1:
        raise ValueError("timing_instances must be >= 1")
    for variant in config.timing_variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
    for N in config.timing_sizes:
        if N < 10 or N % 10:
            raise ValueError(f"size {N} violates the P = N/10 grid")
        if m > N // 10 and any(not v.startswith("s") for v in config.timing_variants):
            raise ValueError(f"m={m} exceeds P = {N // 10} at size N={N}, for block or pca")
    _check_fit_settings(config, config.timing_gammas)
    worker_counts = config.timing_workers or (config.workers,)
    cells = [
        (variant, gamma, workers)
        for variant in config.timing_variants
        for gamma in config.timing_gammas
        for workers in worker_counts
    ]
    rows = []
    for N in sorted(config.timing_sizes):
        P = N // 10
        try:
            check_allocation(P, N)
            if "pca" in config.timing_variants:
                check_allocation(P, N, PCA_SWEEP_MATRICES + (m / P if m < P else 2.0))
        except MemoryError as err:
            print(f"skipping N={N}: {err}", file=sys.stderr)
            continue
        cell_rows = [(cell, []) for cell in cells]
        for instance in range(config.timing_instances):
            A = _standard_normal_matrix(np.random.default_rng([config.seed, N, instance]), P, N)
            for (variant, gamma, workers), out in cell_rows:
                start = time.perf_counter()
                error = ""
                try:
                    _, _, report = fit_projection(
                        A, variant, m, gamma, config.mu, config.tol,
                        config.max_iter, seed=[config.seed, N, instance],
                        workers=workers, center=False,
                    )
                except RankDeficiencyError as err:
                    report, error = None, f"{type(err).__name__}: {err}"
                out.append({
                    "variant": variant, "N": N, "P": P, "gamma": gamma,
                    "workers": workers, "instance": instance,
                    "seconds": time.perf_counter() - start,
                    "iterations": report.iterations if report else (None if error else 0),
                    "converged": int(report.converged) if report else None,
                    "error": error,
                })
            # Release this instance before the next one is drawn.
            del A
        for (variant, gamma, workers), out in cell_rows:
            rows.extend(out)
            done = [r for r in out if not r["error"]]
            rows.append({
                "variant": variant, "N": N, "P": P, "gamma": gamma,
                "workers": workers, "instance": "median",
                "seconds": _median(done, "seconds"),
                "iterations": _median(done, "iterations"),
                "converged": None if variant == "pca" or not done else float(np.mean(
                    [r["converged"] for r in done])),
                "error": "",
            })
    if config.out:
        emit_report(rows, config.out)
    return rows


def _median(rows, key):
    return float(np.median([r[key] for r in rows])) if rows else None


def emit_report(rows, path):
    """Write rows as UTF-8 CSV: header, LF endings, round-trippable floats."""
    if not rows:
        raise ValueError("nothing to report")
    fields = list(rows[0].keys())
    for i, row in enumerate(rows):
        if list(row.keys()) != fields:
            raise ValueError(f"row {i} does not match the header {fields}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(_render_field(row[k]) for k in fields) + "\n")


def _render_field(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text

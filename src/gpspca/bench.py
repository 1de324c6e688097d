"""Benchmark harness: the paper's two experiments and their CSV output.

run_recognition_experiment (the 1-NN m-sweep) and run_timing_experiment
(the P = N/10 timing grid) each take the settings they read, and no
other, as keywords.  Each checks every fit it will run before the first
one, with the check fit_projection makes (_fit_config), so a setting no
fit takes raises ValueError rather than filling error rows.

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


def _fit_config(variant, m, gamma, mu=1.0, tol=1e-6, max_iter=1000, seed=0):
    """The SolverConfig a fit of variant takes: the one check of what a
    fit accepts, which fit_projection makes and both sweeps make for
    every setting before their first fit.  An unknown variant, or a
    setting SolverConfig refuses, raises ValueError.  It is built for pca
    too, which reads none of it, so every variant checks it."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return SolverConfig(
        penalty="l1" if variant.endswith("1") else "l0", m=m, gamma=gamma, mu=mu, tol=tol,
        max_iter=max_iter,
        init="max_norm_column" if variant.startswith("s") else "random_orthonormal", seed=seed,
    )


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
    config = _fit_config(variant, m, gamma, mu, tol, max_iter, seed)
    sequential = variant.startswith("s")
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


def run_recognition_experiment(dataset, split, *, variant="sl1", m=(5,), gamma=0.1, mu=1.0,
                               repetitions=1, seed=0, out=None, workers=1, tol=1e-6,
                               max_iter=1000):
    """Fit on train, embed everything, 1-NN classify; repeat and sweep m.

    split is the split policy (datasets.make_splits) each repetition
    draws with seed [seed, repetition]; m is the sweep's list of
    component counts, each at most once.  gamma and mu are one value or
    one per component, as SolverConfig takes them.  Returns the CSV rows
    (one per repetition and m, mean rows appended) and writes them to out
    when set.  The fits of one repetition share a reuse state (see
    fit_projection): the training rows are centered once, into one
    matrix and mean that every sparse fit of the repetition reads, so a
    row's fit_seconds is the fit time spent in its repetition so far, its
    own fit included.  Every fit of a repetition returns that training
    mean, so the rows it embeds are centered once too, and each m embeds
    them with one product per set.  converged is 1 when every component
    of a sparse fit converged, 0 otherwise, and empty for pca.  Settings
    no fit can take (an unknown variant, a gamma or mu list whose length
    misses an m, a worker count below 1) and an m listed twice raise
    ValueError before the first fit; a fit's own failure is recorded in
    the row's error column, not raised.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if len(set(m)) != len(m):
        raise ValueError(f"m lists a value more than once: {','.join(str(v) for v in m)}")
    _check_fits([variant], m, [gamma], mu, tol, max_iter, [workers])
    all_labels = np.unique(dataset.labels)
    rows = []
    for rep in range(repetitions):
        drawn = make_splits(dataset, split, seed=[seed, rep])
        train_x, train_y = drawn.train()
        test_x, test_y = drawn.test()
        reuse = {}
        centered = None
        fit_seconds = 0.0
        for count in m:
            row = {
                "method": variant,
                "m": count,
                "gamma": _render_gamma(gamma),
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
                        train_x, variant, count, gamma, mu, tol, max_iter,
                        seed=[seed, rep], workers=workers, reuse=reuse,
                    )
                finally:
                    fit_seconds += time.perf_counter() - start
                if centered is None:
                    centered = _centered_rows(train_x, test_x, mean)
                train_emb, test_emb = (rows @ loadings for rows in centered)
                predictions = knn_classify(train_emb, train_y, test_emb)
                row["overall_accuracy"] = float(np.mean(predictions == test_y))
                row.update(_per_class_accuracy(predictions, test_y, all_labels))
                nnz = np.count_nonzero(loadings, axis=0)
                row["nnz_per_component"] = ";".join(str(int(v)) for v in nnz)
                row["fit_seconds"] = fit_seconds
                row["converged"] = None if report is None else int(report.converged)
            except Exception as err:  # recorded per repetition, sweep continues
                row["error"] = f"{type(err).__name__}: {err}"
            rows.append(row)
    rows.extend(_mean_rows(rows, all_labels, variant, m))
    if out:
        emit_report(rows, out)
    return rows


def _check_fits(variants, ms, gammas, mu, tol, max_iter, worker_counts):
    # A fit's exception becomes an error row, so every fit a sweep will
    # run is checked here, before the first one.
    for variant in variants:
        for count in ms:
            for gamma in gammas:
                _fit_config(variant, count, gamma, mu, tol, max_iter)
    for workers in worker_counts:
        check_workers(workers)


def _render_gamma(gamma):
    if np.ndim(gamma) == 0:
        return float(gamma)
    return ";".join(f"{float(g):.17g}" for g in np.asarray(gamma).ravel())


def _mean_rows(rows, all_labels, variant, ms):
    means = []
    for m in ms:
        group = [r for r in rows if r["m"] == m and not r["error"]]
        if not group:
            continue
        row = {
            "method": variant,
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
            None if variant == "pca" else float(np.mean([r["converged"] for r in group]))
        )
        row["error"] = ""
        means.append(row)
    return means


def run_timing_experiment(*, sizes=(500, 1000, 2000), gammas=(0.01, 0.05),
                          variants=SPCA_VARIANTS, instances=20, m=5, workers=(1,), mu=1.0,
                          seed=0, out=None, tol=1e-6, max_iter=1000):
    """Wall-time sweep over random dense instances on the (N, P=N/10) grid.

    Every variant fits m components at every gamma and worker count (a
    tuple of counts) on instances instances of each size N, drawn with
    seed [seed, N, instance].  Each instance is drawn once, straight into
    the solvers' column-major storage, and that one matrix is shared by
    every variant, gamma and worker count, so the comparison is paired
    and a sweep of the sparse variants peaks at about one P x N matrix
    (PCA_SWEEP_MATRICES with pca).  Returns the rows, and writes them to
    out when set.  Rows carry per-solve seconds, iteration counts and
    whether the solve converged (1/0; empty for pca, which has no solver
    report), grouped by cell (variant, gamma, workers) with the cell's
    median row after its instances; the median's converged cell is the
    share of instances that converged.  A fit that raises
    RankDeficiencyError (a gamma that zeroes a block component) is
    recorded in its row's error column, with iterations and converged
    left empty, and the median row counts only the instances without one.
    A size whose peak cannot fit in memory is skipped, before its first
    instance is drawn, and the sweep continues.  Settings no sweep can
    run, such as a size off the grid, an unknown variant, an m above P for
    a block or pca fit, a mu list whose length is not m, or a worker count
    below 1, raise ValueError before the first fit.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    _check_fits(variants, [m], gammas, mu, tol, max_iter, workers)
    for N in sizes:
        if N < 10 or N % 10:
            raise ValueError(f"size {N} violates the P = N/10 grid")
        if m > N // 10 and any(not v.startswith("s") for v in variants):
            raise ValueError(f"m={m} exceeds P = {N // 10} at size N={N}, for block or pca")
    cells = [
        (variant, gamma, count)
        for variant in variants
        for gamma in gammas
        for count in workers
    ]
    rows = []
    for N in sorted(sizes):
        P = N // 10
        try:
            check_allocation(P, N)
            if "pca" in variants:
                check_allocation(P, N, PCA_SWEEP_MATRICES + (m / P if m < P else 2.0))
        except MemoryError as err:
            print(f"skipping N={N}: {err}", file=sys.stderr)
            continue
        cell_rows = [(cell, []) for cell in cells]
        for instance in range(instances):
            A = _standard_normal_matrix(np.random.default_rng([seed, N, instance]), P, N)
            for (variant, gamma, count), rows_of_cell in cell_rows:
                start = time.perf_counter()
                error = ""
                try:
                    _, _, report = fit_projection(
                        A, variant, m, gamma, mu, tol, max_iter,
                        seed=[seed, N, instance], workers=count, center=False,
                    )
                except RankDeficiencyError as err:
                    report, error = None, f"{type(err).__name__}: {err}"
                rows_of_cell.append({
                    "variant": variant, "N": N, "P": P, "gamma": gamma,
                    "workers": count, "instance": instance,
                    "seconds": time.perf_counter() - start,
                    "iterations": report.iterations if report else (None if error else 0),
                    "converged": int(report.converged) if report else None,
                    "error": error,
                })
            # Release this instance before the next one is drawn.
            del A
        for (variant, gamma, count), rows_of_cell in cell_rows:
            rows.extend(rows_of_cell)
            done = [r for r in rows_of_cell if not r["error"]]
            rows.append({
                "variant": variant, "N": N, "P": P, "gamma": gamma,
                "workers": count, "instance": "median",
                "seconds": _median(done, "seconds"),
                "iterations": _median(done, "iterations"),
                "converged": None if variant == "pca" or not done else float(np.mean(
                    [r["converged"] for r in done])),
                "error": "",
            })
    if out:
        emit_report(rows, out)
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

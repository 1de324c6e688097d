"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for desk-scale hardware.
"""

import csv
import os
import time
from itertools import combinations

import numpy as np
import pytest

import gpspca.block
import gpspca.parallel
from gpspca import (
    DataMatrix,
    ExperimentConfig,
    PerClassCount,
    SolverConfig,
    par_matvec_t,
    par_threshold_accumulate,
    recover_pattern,
    run_recognition_experiment,
    run_timing_experiment,
    solve_block,
    solve_multi_sequential,
    synthetic_sparse_factors,
)
from gpspca.block import RankDeficiencyError, polar_projection
from gpspca.parallel import measure_scaling, threshold_weights

GAMMAS = (0.0, 0.01, 0.05, 0.3)


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def csv_without(path, column):
    """The CSV's records as field lists, with the named column dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    drop = records[0].index(column)
    return [record[:drop] + record[drop + 1:] for record in records]


def physical_cores():
    try:
        import psutil

        return psutil.cpu_count(logical=False) or os.cpu_count()
    except ImportError:
        return os.cpu_count()


def test_criterion_01_monotone_ascent():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = {"sl1": 0, "sl0": 0, "bl1": 0, "bl0": 0}
    for _ in range(1000):
        p = int(rng.integers(2, 31))
        n = int(rng.integers(3, 101))
        A = rng.standard_normal((p, n))
        gamma = float(rng.choice(GAMMAS))
        m = 2 if min(p, n) >= 2 else 1
        for penalty in ("l1", "l0"):
            cfg = SolverConfig(penalty=penalty, gamma=gamma, max_iter=300)
            _, rep = solve_multi_sequential(A, cfg)
            assert np.all(np.diff(rep.objective_history) >= -1e-12)
            checked["s" + penalty] += 1
            cfg_b = SolverConfig(
                penalty=penalty, m=m, gamma=gamma,
                init="random_orthonormal", seed=int(rng.integers(1 << 16)),
                max_iter=300,
            )
            try:
                _, rep_b = solve_block(A, cfg_b)
                history = rep_b.objective_history
            except RankDeficiencyError as err:
                history = err.history
            assert np.all(np.diff(history) >= -1e-12)
            checked["b" + penalty] += 1
    elapsed = time.perf_counter() - start
    assert all(v == 1000 for v in checked.values())
    assert elapsed < 60
    report(1, f"monotone ascent on 1000 instances x 4 variants in {elapsed:.1f}s")


def test_criterion_02_brute_force_optimality_p2():
    start = time.perf_counter()
    theta = np.linspace(0, 2 * np.pi, 1_000_000, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)])
    rng = np.random.default_rng(102)
    worst = {"l1": 0.0, "l0": 0.0}
    for _ in range(50):
        n = int(rng.integers(3, 31))
        A = rng.standard_normal((2, n))
        gamma = float(rng.choice([0.01, 0.05, 0.3, 0.7]))
        grid = {"l1": 0.0, "l0": 0.0}
        for lo in range(0, circle.shape[1], 250_000):
            C = A.T @ circle[:, lo : lo + 250_000]
            grid["l1"] = max(
                grid["l1"],
                float((np.maximum(np.abs(C) - gamma, 0.0) ** 2).sum(axis=0).max()),
            )
            grid["l0"] = max(
                grid["l0"], float(np.maximum(C * C - gamma, 0.0).sum(axis=0).max())
            )
        for penalty in ("l1", "l0"):
            cfg = SolverConfig(
                penalty=penalty, gamma=gamma, tol=1e-12, max_iter=2000,
                restarts=n, refine=True,
            )
            _, rep = solve_multi_sequential(A, cfg)
            gap = grid[penalty] - rep.objective_history[-1]
            worst[penalty] = max(worst[penalty], gap)
            assert gap <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(
        2,
        "solver within 1e-4 of the 1e6-point grid max on 50 p=2 instances "
        f"per variant (worst gaps l1={worst['l1']:.2e}, l0={worst['l0']:.2e}, "
        f"{elapsed:.1f}s)",
    )


def gapped_instance(rng, p, n, m):
    """Random matrix whose m-th singular-value gap is at least 0.1."""
    k = min(p, n)
    while True:
        s = np.sort(rng.uniform(0.5, 4.0, size=k))[::-1]
        if all(s[j] - s[j + 1] >= 0.1 for j in range(m)):
            break
    U = np.linalg.qr(rng.standard_normal((p, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return U @ np.diag(s) @ V.T, V


def test_criterion_03_pca_equivalence_at_gamma_zero():
    rng = np.random.default_rng(103)
    for trial in range(100):
        p = int(rng.integers(4, 16))
        n = int(rng.integers(4, 16))
        A, V = gapped_instance(rng, p, n, m=2)
        penalty = "l1" if trial % 2 == 0 else "l0"
        cfg = SolverConfig(penalty=penalty, gamma=0.0, tol=1e-14, max_iter=20000)
        loadings, _ = solve_multi_sequential(A, cfg)
        assert abs(loadings.values[:, 0] @ V[:, 0]) >= 1 - 1e-8
        cfg_b = SolverConfig(
            penalty=penalty, m=2, gamma=0.0,
            init="random_orthonormal", seed=trial, tol=1e-14, max_iter=20000,
        )
        loadings_b, _ = solve_block(A, cfg_b)
        Q = np.linalg.qr(loadings_b.values)[0]
        cosines = np.linalg.svd(Q.T @ V[:, :2], compute_uv=False)
        assert np.arccos(np.clip(cosines.min(), 0.0, 1.0)) <= 1e-4
    report(
        3,
        "gamma=0 single-unit aligns with the leading right singular vector "
        "(|cos| >= 1-1e-8) and block m=2 matches the top-2 subspace "
        "(angle <= 1e-4) on 100 gapped instances",
    )


def enumerate_l0_supports(A, gamma):
    """Exhaustive search over all supports: value and best-response z."""
    n = A.shape[1]
    sigma = A.T @ A
    best_val, best_z = 0.0, np.zeros(n)
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            w, V = np.linalg.eigh(sigma[np.ix_(S, S)])
            val = w[-1] - gamma * size
            if val > best_val:
                z = np.zeros(n)
                z[list(S)] = V[:, -1]
                best_val, best_z = val, z
    return best_val, best_z


def test_criterion_04_support_brute_force_l0():
    rng = np.random.default_rng(104)
    for _ in range(25):
        A = rng.standard_normal((2, 4))
        gamma = float(rng.uniform(0.05, 0.8))
        cfg = SolverConfig(
            penalty="l0", gamma=gamma, tol=1e-12, max_iter=2000,
            restarts=32, refine=True,
        )
        loadings, rep = solve_multi_sequential(A, cfg)
        val, z_star = enumerate_l0_supports(A, gamma)
        assert abs(rep.objective_history[-1] - val) <= 1e-6
        want = set(np.nonzero(np.abs(z_star) > 1e-12)[0].tolist())
        assert set(loadings.pattern[0].tolist()) == want
    report(4, "l0 support and objective match 16-support enumeration on 25 2x4 instances")


def test_criterion_05_stiefel_feasibility(monkeypatch):
    errors = []
    original = polar_projection

    def recording_polar(G):
        X = original(G)
        errors.append(np.linalg.norm(X.T @ X - np.eye(X.shape[1])))
        return X

    monkeypatch.setattr(gpspca.block, "polar_projection", recording_polar)
    rng = np.random.default_rng(105)
    for _ in range(100):
        p = int(rng.integers(3, 20))
        n = int(rng.integers(3, 40))
        A = rng.standard_normal((p, n))
        m = int(rng.integers(1, min(p, n, 4) + 1))
        for penalty in ("l1", "l0"):
            cfg = SolverConfig(
                penalty=penalty, m=m, gamma=float(rng.choice(GAMMAS)),
                init="random_orthonormal", seed=int(rng.integers(1 << 16)),
                max_iter=200,
            )
            try:
                solve_block(A, cfg)
            except RankDeficiencyError:
                pass
    assert len(errors) > 1000
    assert max(errors) <= 1e-10
    report(
        5,
        f"||X'X - I||_F <= 1e-10 at every one of {len(errors)} block iterations "
        f"(max {max(errors):.2e})",
    )


def test_criterion_06_parallel_determinism(tmp_path, monkeypatch):
    rng = np.random.default_rng(106)
    worker_counts = (1, 2, 4, 8)
    layouts = []
    real_map_chunks = gpspca.parallel._map_chunks

    def recording_map_chunks(fn, bounds, workers):
        layouts.append([hi - lo for lo, hi in bounds])
        return real_map_chunks(fn, bounds, workers)

    # A budget of 256 columns of 64 rows: 16 chunks per call, where the
    # default budget would run 64 x 4096 as a single chunk.
    monkeypatch.setattr(gpspca.parallel, "GEMM_BUDGET", 256 * 64)
    monkeypatch.setattr(gpspca.parallel, "_map_chunks", recording_map_chunks)
    for _ in range(20):
        A = DataMatrix(rng.standard_normal((64, 4096)))
        x = rng.standard_normal(64)
        z = rng.standard_normal(4096)
        c = par_matvec_t(A, x)
        for kernel, args in (
            (par_matvec_t, (A, x)),
            (par_threshold_accumulate, (A, z)),
            (par_threshold_accumulate, (A, threshold_weights(c, 0.05, "l1"))),
            (par_threshold_accumulate, (A, threshold_weights(c, 0.05, "l0"))),
        ):
            outs = [kernel(*args, workers) for workers in worker_counts]
            for other in outs[1:]:
                assert np.array_equal(outs[0], other)
    monkeypatch.undo()
    assert len(layouts) == 20 * (1 + 4 * len(worker_counts))
    assert all(widths == [256] * 16 for widths in layouts)
    # full recognition pipeline: CSV byte-identical across worker counts
    # but for the wall-clock fit_seconds column
    ds = synthetic_sparse_factors(
        n_classes=5, per_class=12, n_features=64, n_factors=3, support_size=8,
        seed=6,
    )
    blobs = []
    for workers in (1, 4):
        path = tmp_path / f"rec_w{workers}.csv"
        config = ExperimentConfig(
            variant="sl1", m=(2,), gamma=0.5, repetitions=2, seed=9,
            split=PerClassCount(7), workers=workers, out=str(path),
        )
        run_recognition_experiment(config, dataset=ds)
        blobs.append(csv_without(path, "fit_seconds"))
    assert blobs[0] == blobs[1]
    report(
        6,
        "both kernels (dense, l1 and l0 weights) bitwise identical across workers "
        "{1,2,4,8} on 20 64x4096 instances in 16 chunks of 256; recognition CSV "
        "byte-identical across worker counts, fit_seconds aside",
    )


def test_criterion_07_parallel_scaling_soft():
    cores = physical_cores()
    rows = measure_scaling(
        "threshold_accumulate", [(800, 8000)], [1, 4], instances=20, seed=7
    )
    by_workers = {r["workers"]: r for r in rows}
    speedup = by_workers[4]["speedup"]
    if cores >= 4:
        assert speedup >= 2.0
        verdict = f"speedup {speedup:.2f} >= 2.0 on {cores} physical cores"
    else:
        verdict = (
            f"soft report only: {cores} physical cores (< 4 required); "
            f"measured 4-worker speedup {speedup:.2f}"
        )
    report(7, verdict)


def test_criterion_08_recognition_spca_vs_pca():
    start = time.perf_counter()
    ds = synthetic_sparse_factors(
        n_classes=20, per_class=25, n_features=500, n_factors=5, support_size=10,
        class_scale=2.5, noise_scale=1.0, seed=8,
    )
    means = {}
    for variant, gamma in (("sl1", 2.0), ("pca", 0.0)):
        config = ExperimentConfig(
            variant=variant, m=(2, 5), gamma=gamma, repetitions=5, seed=8,
            split=PerClassCount(10), max_iter=500,
        )
        rows = run_recognition_experiment(config, dataset=ds)
        means[variant] = {
            r["m"]: r["overall_accuracy"] for r in rows if r["repetition"] == "mean"
        }
    for m in (2, 5):
        assert means["sl1"][m] >= means["pca"][m]
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(
        8,
        "sparse-factor analogue: SPCA >= PCA mean 1-NN accuracy at m=2 "
        f"({means['sl1'][2]:.3f} vs {means['pca'][2]:.3f}) and m=5 "
        f"({means['sl1'][5]:.3f} vs {means['pca'][5]:.3f}) over 5 repetitions "
        f"({elapsed:.0f}s)",
    )


def test_criterion_09_timing_harness_shape(tmp_path):
    start = time.perf_counter()
    path = tmp_path / "timing.csv"
    config = ExperimentConfig(
        m=(5,), seed=9, out=str(path),
        timing_sizes=(500, 1000, 2000), timing_gammas=(0.01, 0.05),
        timing_variants=("sl1", "sl0", "bl1", "bl0"), timing_instances=20,
        max_iter=200,
    )
    rows = run_timing_experiment(config)
    elapsed = time.perf_counter() - start
    # schema-valid, complete CSV: every (variant, size, gamma) cell has all
    # twenty instances plus its median row, P = N/10 throughout
    text = path.read_text().splitlines()
    assert text[0] == ("variant,N,P,gamma,workers,instance,seconds,iterations,converged,"
                       "error")
    assert len(text) == 1 + len(rows)
    cells = {}
    for r in rows:
        assert r["P"] * 10 == r["N"]
        assert r["gamma"] in (0.01, 0.05)
        cells.setdefault((r["variant"], r["N"], r["gamma"]), []).append(r["instance"])
    assert len(cells) == 4 * 3 * 2
    for members in cells.values():
        assert members == list(range(20)) + ["median"]
    for line in text[1:]:
        fields = line.split(",")
        float(fields[6])  # seconds parses
        float(fields[7])  # iterations parses
    assert elapsed < 600
    report(9, f"timing sweep emitted {len(rows)} schema-valid rows in {elapsed:.0f}s")


def test_criterion_10_gamma_monotone_support():
    rng = np.random.default_rng(110)
    for _ in range(1000):
        p = int(rng.integers(2, 12))
        n = int(rng.integers(3, 30))
        A = rng.standard_normal((p, n))
        x = rng.standard_normal(p)
        x /= np.linalg.norm(x)
        gamma = float(rng.uniform(0.0, 1.0))
        gamma_hi = gamma + float(rng.uniform(0.0, 1.0))
        for penalty in ("l1", "l0"):
            lo = set(np.nonzero(recover_pattern(A, x, gamma, penalty))[0].tolist())
            hi = set(np.nonzero(recover_pattern(A, x, gamma_hi, penalty))[0].tolist())
            assert hi <= lo
    report(10, "support inclusion holds on 1000 (A, x, gamma < gamma') triples, both penalties")

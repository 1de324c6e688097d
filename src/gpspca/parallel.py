"""Deterministic data-parallel kernels over column chunks.

Every solver funnels its column-indexed inner loops through the two
kernels here: batched column dot products (par_matvec_t) and weighted
column accumulation (par_threshold_accumulate, over weights the caller
has already thresholded).  Work is split into column chunks, and each
worker takes one contiguous run of them (one pool task per worker, not
per chunk).  The chunk width is derived from the call's shape alone
(rows p and iterate columns m, see GEMM_BUDGET); the worker count does
not set it.  Every chunk's partial result is computed the same way
whichever worker runs it, and the partials are combined by a pairwise
tree whose shape depends only on the chunk layout, never on scheduling,
so kernel output is bitwise identical for any worker count.
Given the active columns and their weights alone, the accumulation sums
those columns on the calling thread (_gathered_product, shared by
block's dense-step route), so that sum never reads the worker count.
The caller decides when the weights are sparse enough for that; block's
step makes the decision once per iterate, and states where a step's
products come from.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import _standard_normal_matrix, as_data_matrix

# The measure_scaling cases: gram_apply times the accumulation on dense
# random weights, threshold_accumulate an l1 threshold plus the
# accumulation, as one solver step runs them.
KERNELS = ("matvec_t", "gram_apply", "threshold_accumulate")


# Multiply-adds (chunk * p * m) per chunk GEMM.  OpenBLAS 0.3.31 runs a
# chunk's A_c'X about twice as fast below roughly 1e6 of them as above:
# at 800x8000, m=5, one thread, it takes 5.2 ms at 248 columns and
# 11.0 ms at 256, and the same cliff shows at 400x1000 (between 320 and
# 512 columns) and 200x2000 (between 512 and 1024).  2**19 keeps every
# chunk well below it.
GEMM_BUDGET = 2**19
# A tall matrix still gets chunks of a few dozen columns, not one call
# per column.
MIN_CHUNK = 32
# Columns are gathered this many bytes at a time: one copy of them all
# leaves the cache once it outgrows it.  At 800x8000, one thread, 1866
# columns took 2.8 ms for a vector and 7.7 ms at m = 5 in one copy, 1.8
# and 2.2 ms in blocks of 1 MiB.
GATHER_BYTES = 2**20


def check_workers(workers):
    """Reject a worker count below 1; every kernel call runs this first."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _chunk_bounds(p, n, iterate):
    """Column ranges of one kernel call on a p x n matrix; m, in the
    budget, is the iterate's (or weights') column count, 1 for a vector."""
    m = iterate.shape[1] if iterate.ndim == 2 else 1
    chunk = min(max(GEMM_BUDGET // max(p * m, 1), MIN_CHUNK), n)
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


# Worker pools are kept alive per worker count: pool start-up costs about
# a millisecond, which would swamp kernels in the low-millisecond range.
_POOLS = {}
_POOLS_LOCK = threading.Lock()


def _pool(workers):
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"gpspca-{workers}"
            )
            _POOLS[workers] = pool
        return pool


def _map_chunks(fn, bounds, workers):
    # One pool task per worker, each over a contiguous run of chunks, so a
    # call pays `workers` handoffs rather than one per chunk.  Every chunk
    # is still computed by the same fn(lo, hi) call and the partials come
    # back in chunk order, whichever worker ran them.
    tasks = min(workers, len(bounds))
    if tasks == 1:
        return [fn(lo, hi) for lo, hi in bounds]
    runs = [bounds[i * len(bounds) // tasks:(i + 1) * len(bounds) // tasks]
            for i in range(tasks)]
    parts = _pool(workers).map(lambda run: [fn(lo, hi) for lo, hi in run], runs)
    return [part for run_parts in parts for part in run_parts]


def _pairwise_combine(parts):
    # Fixed-shape binary tree over the chunk index; summation order is a
    # function of the chunk count alone.
    while len(parts) > 1:
        merged = [parts[i] + parts[i + 1] for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def _check_rows(v, rows, name):
    # A vector (one component) or a matrix with one column per component.
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got shape {v.shape}")
    return v


def par_matvec_t(A, x, workers=1):
    """All column dot products a_i'x: length n for a length-p x, n x m for
    a p x m block (one GEMM per chunk instead of m GEMVs)."""
    check_workers(workers)
    A = as_data_matrix(A)
    x = _check_rows(x, A.p, "x")
    values = A.values
    out = np.empty((A.n,) + x.shape[1:])
    # Each worker writes its chunks straight into their output rows.
    _map_chunks(
        lambda lo, hi: np.matmul(values[:, lo:hi].T, x, out=out[lo:hi]),
        _chunk_bounds(A.p, A.n, x), workers,
    )
    return out


def _gathered_product(values, rows, D):
    """values[:, rows] @ D on the calling thread, gathered GATHER_BYTES at
    a time; exact zeros for no rows."""
    width = max(1, GATHER_BYTES // (8 * values.shape[0]))
    out = values[:, rows[:width]] @ D[:width]
    for lo in range(width, len(rows), width):
        out += values[:, rows[lo:lo + width]] @ D[lo:lo + width]
    return out


def threshold_weights(correlations, gamma, penalty):
    """Per-column gradient weights w(c_i, gamma) for the given penalty.

    l1: sign(c_i) * max(|c_i| - gamma, 0); l0: c_i where c_i^2 > gamma,
    else 0 (ties at the threshold count as inactive).  For an n x m
    block, gamma may hold one threshold per column.
    """
    c = np.asarray(correlations, dtype=np.float64)
    if penalty == "l1":
        return np.sign(c) * np.maximum(np.abs(c) - gamma, 0.0)
    if penalty == "l0":
        return np.where(c * c > gamma, c, 0.0)
    raise ValueError(f"unknown penalty {penalty!r}")


def threshold_residual(correlations, weights, gamma, penalty):
    """What thresholding removed, c_i - w_i, for the weights
    w = threshold_weights(c, gamma, penalty).

    l1: c_i clipped to [-gamma, gamma], so a column that stays active
    with the same sign keeps the residual gamma * sign(c_i) bitwise,
    where the subtraction would round it differently at every iterate;
    l0: the subtraction, which is exact (w_i is c_i or 0).
    """
    c = np.asarray(correlations, dtype=np.float64)
    if penalty == "l1":
        return np.minimum(np.maximum(c, -gamma), gamma)
    if penalty == "l0":
        return c - weights
    raise ValueError(f"unknown penalty {penalty!r}")


def par_threshold_accumulate(A, weights, workers=1, active=None):
    """Weighted column sum sum_i w_i a_i: A w for length-n weights, A W
    for an n x m block.

    In the solvers the weights are threshold_weights of the current
    correlations, so the result is the ascent direction up to the
    scheme's constant factor.  Given active, every row with a nonzero
    weight, weights holds those rows' weights alone, in active's order,
    and it sums those columns alone on the calling thread (exact zeros
    for none); otherwise the chunk engine sums all n.
    """
    check_workers(workers)
    A = as_data_matrix(A)
    values = A.values
    if active is not None:
        return _gathered_product(values, active, _check_rows(weights, len(active), "weights"))
    w = _check_rows(weights, A.n, "weights")
    # (W_c' A_c')' rather than A_c W_c: the same sum, which OpenBLAS runs
    # 25-30% faster at 800x8000, m=5 (and 10-20% slower at 200x2000, m=5,
    # where the derived chunk still gains more than that end to end).
    bounds = _chunk_bounds(A.p, A.n, w)
    parts = _map_chunks(lambda lo, hi: (w[lo:hi].T @ values[:, lo:hi].T).T, bounds, workers)
    return _pairwise_combine(parts)


MEMINFO = "/proc/meminfo"


def _available_memory():
    """Bytes that can be allocated without swapping, or None if unknown.

    Prefers MemAvailable from MEMINFO, which counts reclaimable page
    cache; free pages alone (sysconf) understate it on a warm machine.
    """
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None


def check_allocation(P, N, matrices=1):
    """Raise MemoryError before allocating if `matrices` P x N float64
    matrices cannot plausibly fit in physical memory.

    Callers pass the matrices they hold at their peak: one for a scaling
    run, a data load, or the instance a timing sweep shares among its
    fits, bench.PCA_SWEEP_MATRICES for a sweep with pca.  The sparse fits'
    temporaries (gathered columns, block's K = A A') take a sparse sweep
    to 1.2-1.3 matrices at N = 4000 and 1.7 at N = 2000 (tracemalloc),
    which the check leaves as slack.
    """
    needed = int(matrices * int(P) * int(N) * 8)
    available = _available_memory()
    if available is None:
        return
    if needed > available:
        raise MemoryError(
            f"{matrices} {P}x{N} matrices need {needed} bytes but only {available} "
            "are available"
        )


def _kernel_invocation(kernel, A, rng):
    if kernel == "matvec_t":
        x = rng.standard_normal(A.p)
        return lambda workers: par_matvec_t(A, x, workers)
    if kernel == "gram_apply":
        z = rng.standard_normal(A.n)
        return lambda workers: par_threshold_accumulate(A, z, workers)
    if kernel == "threshold_accumulate":
        x = rng.standard_normal(A.p)
        c = par_matvec_t(A, x)
        gamma = 0.05 * float(np.max(np.abs(c)))
        return lambda workers: par_threshold_accumulate(
            A, threshold_weights(c, gamma, "l1"), workers
        )
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


def measure_scaling(kernel, sizes, workers, instances=20, seed=0):
    """Median kernel wall times over a (P, N) size grid and worker counts.

    Returns a list of row dicts (kernel, N, P, workers, median_seconds,
    speedup) sorted by N then workers, where speedup is relative to the
    workers=1 median for the same size.  instances independent random
    matrices are timed per size, in the chunk layout the solvers run.
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if instances < 1:
        raise ValueError("instances must be >= 1")
    workers = sorted(set(int(w) for w in workers))
    if 1 not in workers:
        workers = [1] + workers
    rows = []
    for P, N in sorted(sizes, key=lambda s: s[1]):
        check_allocation(P, N)
        times = {w: [] for w in workers}
        for instance in range(instances):
            rng = np.random.default_rng([seed, N, instance])
            A = _standard_normal_matrix(rng, P, N)
            run = _kernel_invocation(kernel, A, rng)
            for w in workers:
                start = time.perf_counter()
                run(w)
                times[w].append(time.perf_counter() - start)
        base = float(np.median(times[1]))
        for w in workers:
            med = float(np.median(times[w]))
            rows.append(
                {
                    "kernel": kernel,
                    "N": N,
                    "P": P,
                    "workers": w,
                    "median_seconds": med,
                    "speedup": base / med if med > 0 else float("nan"),
                }
            )
    return rows

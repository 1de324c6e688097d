import numpy as np
import pytest

from gpspca import DataMatrix, KernelPlan, par_gram_apply, par_matvec_t, par_threshold_accumulate
import gpspca.parallel
from gpspca.block import ascend
from gpspca.parallel import (
    GEMM_BUDGET,
    MIN_CHUNK,
    check_allocation,
    measure_scaling,
    threshold_weights,
)

WORKER_COUNTS = (1, 2, 4, 8)


def reference_accumulate(values, weights, chunk):
    """Independent re-statement of the summation order: chunk partials
    combined by a pairwise tree over the chunk index."""
    n = values.shape[1]
    parts = [values[:, lo : lo + chunk] @ weights[lo : lo + chunk] for lo in range(0, n, chunk)]
    while len(parts) > 1:
        merged = []
        for i in range(0, len(parts) - 1, 2):
            merged.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


class TestParMatvecT:
    def test_identity(self):
        out = par_matvec_t(DataMatrix(np.eye(3)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_zero_vector(self):
        A = DataMatrix(np.random.default_rng(0).standard_normal((5, 9)))
        assert np.array_equal(par_matvec_t(A, np.zeros(5)), np.zeros(9))

    def test_bitwise_identical_across_workers(self):
        rng = np.random.default_rng(1)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        x = rng.standard_normal(64)
        outs = [par_matvec_t(A, x, KernelPlan(workers=w, chunk=64)) for w in WORKER_COUNTS]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    @pytest.mark.parametrize("shape", [(64,), (64, 5)], ids=["vector", "block"])
    def test_each_chunk_is_a_plain_matmul(self, shape):
        rng = np.random.default_rng(12)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        x = rng.standard_normal(shape)
        want = np.concatenate(
            [A.values[:, lo : lo + 64].T @ x for lo in range(0, 1000, 64)]
        )
        for w in (1, 3):
            assert np.array_equal(par_matvec_t(A, x, KernelPlan(workers=w, chunk=64)), want)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            par_matvec_t(DataMatrix(np.eye(3)), np.ones(4))

    def test_block_matches_dense_product_and_workers(self):
        rng = np.random.default_rng(7)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        X = rng.standard_normal((64, 5))
        outs = [par_matvec_t(A, X, KernelPlan(workers=w, chunk=64)) for w in WORKER_COUNTS]
        assert outs[0].shape == (1000, 5)
        assert np.allclose(outs[0], A.values.T @ X, atol=1e-12)
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)


class TestParGramApply:
    def test_single_column_weight(self):
        A = DataMatrix(np.arange(6.0).reshape(2, 3))
        z = np.array([0.0, 2.0, 0.0])
        assert np.array_equal(par_gram_apply(A, z), 2.0 * A.values[:, 1])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((7, 300))
        z = rng.standard_normal(300)
        out = par_gram_apply(DataMatrix(A), z, KernelPlan(chunk=32))
        assert np.allclose(out, A @ z, atol=1e-12)

    def test_bitwise_identical_across_workers(self):
        rng = np.random.default_rng(3)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        z = rng.standard_normal(1000)
        outs = [par_gram_apply(A, z, KernelPlan(workers=w, chunk=64)) for w in WORKER_COUNTS]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)


class TestParThresholdAccumulate:
    def test_all_weights_zero(self):
        rng = np.random.default_rng(4)
        A = DataMatrix(rng.standard_normal((6, 40)))
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        c = par_matvec_t(A, x)
        gamma = float(np.abs(c).max()) + 1.0
        assert np.array_equal(par_threshold_accumulate(A, c, gamma, "l1"), np.zeros(6))

    def test_single_active_column(self):
        A = DataMatrix(np.eye(2))
        c = np.array([1.0, 0.0])
        out = par_threshold_accumulate(A, c, 0.25, "l1")
        assert np.array_equal(out, [0.75, 0.0])

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_bitwise_identical_across_workers(self, penalty):
        rng = np.random.default_rng(5)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        c = par_matvec_t(A, rng.standard_normal(64))
        outs = [
            par_threshold_accumulate(A, c, 0.3, penalty, KernelPlan(workers=w, chunk=64))
            for w in WORKER_COUNTS
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_workers_one_equals_reference_order(self, penalty):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((16, 530))
        c = rng.standard_normal(530)
        w = threshold_weights(c, 0.2, penalty)
        expected = reference_accumulate(np.asfortranarray(values), w, chunk=64)
        got = par_threshold_accumulate(
            DataMatrix(values), c, 0.2, penalty, KernelPlan(workers=1, chunk=64)
        )
        assert np.array_equal(expected, got)

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_block_columns_use_their_own_gamma(self, penalty):
        rng = np.random.default_rng(8)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        C = par_matvec_t(A, rng.standard_normal((64, 3)))
        gamma = np.array([0.1, 0.3, 0.6])
        outs = [
            par_threshold_accumulate(A, C, gamma, penalty, KernelPlan(workers=w, chunk=64))
            for w in WORKER_COUNTS
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        for j in range(3):
            want = par_threshold_accumulate(A, C[:, j], gamma[j], penalty)
            assert np.allclose(outs[0][:, j], want, atol=1e-12)

    def test_l0_tie_is_inactive(self):
        A = DataMatrix(np.eye(2))
        c = np.array([1.0, 0.0])
        # c^2 == gamma exactly: the tied column must not contribute
        out = par_threshold_accumulate(A, c, 1.0, "l0")
        assert np.array_equal(out, np.zeros(2))


class TestWorkerRuns:
    """Each worker takes one contiguous run of chunks; output depends only
    on (n, chunk), including when no worker count divides the chunk count
    and when there are more workers than chunks."""

    @staticmethod
    def kernels(A, rng, block):
        p, n = A.shape
        x = rng.standard_normal((p, 3) if block else p)
        c = par_matvec_t(A, x)
        gamma = np.array([0.1, 0.3, 0.6]) if block else 0.3
        calls = [
            lambda plan: par_matvec_t(A, x, plan),
            lambda plan: par_threshold_accumulate(A, c, gamma, "l1", plan),
        ]
        if not block:
            z = rng.standard_normal(n)
            calls.append(lambda plan: par_gram_apply(A, z, plan))
        return calls

    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    @pytest.mark.parametrize(
        "n, workers",
        [(700, (2, 3, 4)), (150, (8,))],
        ids=["11-chunks", "3-chunks"],
    )
    def test_bitwise_identical_across_workers(self, n, workers, block):
        rng = np.random.default_rng(9)
        A = DataMatrix(rng.standard_normal((32, n)))
        for call in self.kernels(A, rng, block):
            want = call(KernelPlan(workers=1, chunk=64))
            for w in workers:
                assert np.array_equal(call(KernelPlan(workers=w, chunk=64)), want)

    def test_at_most_one_task_per_worker(self, monkeypatch):
        pool = gpspca.parallel._pool(3)
        real_map = pool.map
        submitted = []

        def counting_map(fn, items):
            items = list(items)
            submitted.append(len(items))
            return real_map(fn, items)

        monkeypatch.setattr(pool, "map", counting_map)
        rng = np.random.default_rng(10)
        A = DataMatrix(rng.standard_normal((16, 700)))  # 11 chunks of 64
        for call in self.kernels(A, rng, block=False):
            call(KernelPlan(workers=3, chunk=64))
        assert submitted == [3, 3, 3]


@pytest.fixture
def chunk_widths(monkeypatch):
    """Column widths of every chunk run by each kernel call."""
    calls = []
    real = gpspca.parallel._map_chunks

    def recording(fn, bounds, workers):
        calls.append([hi - lo for lo, hi in bounds])
        return real(fn, bounds, workers)

    monkeypatch.setattr(gpspca.parallel, "_map_chunks", recording)
    return calls


class TestDerivedChunk:
    """The default plan sizes each chunk from the call's own shape: a
    chunk GEMM does at most GEMM_BUDGET multiply-adds, but no fewer
    columns than MIN_CHUNK, whatever the worker count."""

    @pytest.mark.parametrize("p, n, m", [(800, 8000, 1), (800, 8000, 5), (200, 2000, 5)])
    def test_chunk_gemm_stays_within_budget(self, chunk_widths, p, n, m):
        A = DataMatrix(np.ones((p, n)))
        x = np.ones(p) if m == 1 else np.ones((p, m))
        par_threshold_accumulate(A, par_matvec_t(A, x), 0.5, "l1")
        assert len(chunk_widths) == 2
        for widths in chunk_widths:
            chunk = max(widths)
            assert chunk * p * m <= GEMM_BUDGET or chunk == MIN_CHUNK
            # ...and no smaller than it has to be.
            assert 2 * chunk * p * m > GEMM_BUDGET
            assert sum(widths) == n

    def test_tall_matrix_keeps_the_floor(self, chunk_widths):
        A = DataMatrix(np.ones((40000, 200)))
        par_matvec_t(A, np.ones(40000))
        assert chunk_widths == [[MIN_CHUNK] * 6 + [200 - 6 * MIN_CHUNK]]

    @pytest.mark.parametrize("m", [1, 5], ids=["vector", "block"])
    def test_bitwise_identical_across_workers(self, chunk_widths, m):
        rng = np.random.default_rng(11)
        p, n = 1024, 2600
        A = DataMatrix(rng.standard_normal((p, n)))
        shape = (p,) if m == 1 else (p, m)
        x = np.linalg.qr(rng.standard_normal((p, m)))[0].reshape(shape)
        c = par_matvec_t(A, x)
        gamma = 0.3 * np.abs(c).max(axis=0)
        calls = [
            lambda plan: par_matvec_t(A, x, plan),
            lambda plan: par_threshold_accumulate(A, c, gamma, "l1", plan),
            # X, S and the objective history after five steps
            lambda plan: ascend(A, x, gamma, 1.0, "l1", 1e-12, 5, plan)[:3],
        ]
        if m == 1:
            z = rng.standard_normal(n)
            calls.append(lambda plan: par_gram_apply(A, z, plan))
        chunk_widths.clear()
        # GEMM_BUDGET // (p * m) columns: 512 for a vector, 102 for p x 5.
        chunks = {1: 6, 5: 26}[m]
        for call in calls:
            want = call(KernelPlan(workers=1))
            for w in (2, 3):
                got = call(KernelPlan(workers=w))
                if isinstance(want, tuple):
                    assert all(np.array_equal(a, b) for a, b in zip(want, got))
                else:
                    assert np.array_equal(want, got)
        assert {len(widths) for widths in chunk_widths} == {chunks}


class TestThresholdWeights:
    def test_l1_soft_threshold(self):
        c = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        out = threshold_weights(c, 0.5, "l1")
        assert np.allclose(out, [-1.5, 0.0, 0.0, 0.0, 1.5])

    def test_l0_hard_threshold(self):
        c = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        out = threshold_weights(c, 0.5, "l0")
        assert np.allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])


class TestKernelPlan:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            KernelPlan(workers=0)


class TestCheckAllocation:
    def test_reads_mem_available(self, tmp_path, monkeypatch):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal: 4000 kB\nMemFree: 10 kB\nMemAvailable: 2000 kB\n")
        monkeypatch.setattr(gpspca.parallel, "MEMINFO", str(meminfo))
        monkeypatch.setattr(gpspca.parallel.os, "sysconf", lambda name: 1)
        check_allocation(1000, 256)  # 2048000 bytes == 2000 kB fits
        with pytest.raises(MemoryError):
            check_allocation(1000, 257)

    def test_falls_back_to_free_pages(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gpspca.parallel, "MEMINFO", str(tmp_path / "absent"))
        pages = {"SC_AVPHYS_PAGES": 100, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(gpspca.parallel.os, "sysconf", pages.__getitem__)
        check_allocation(100, 512)  # 409600 bytes == 100 pages
        with pytest.raises(MemoryError):
            check_allocation(100, 513)

    def test_unknown_memory_never_refuses(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gpspca.parallel, "MEMINFO", str(tmp_path / "absent"))

        def no_sysconf(name):
            raise ValueError(name)

        monkeypatch.setattr(gpspca.parallel.os, "sysconf", no_sysconf)
        check_allocation(10**6, 10**6)


class TestMeasureScaling:
    def test_workers_one_speedup_exactly_one(self):
        rows = measure_scaling("matvec_t", [(10, 100)], [1, 2], instances=3)
        base = [r for r in rows if r["workers"] == 1]
        assert all(r["speedup"] == 1.0 for r in base)

    def test_sorted_by_size_regardless_of_input_order(self):
        rows = measure_scaling(
            "threshold_accumulate", [(20, 200), (10, 100)], [1], instances=2
        )
        assert [r["N"] for r in rows] == [100, 200]

    def test_complete_table_on_grid(self):
        # structural check over the P = N/10 shaped grid, scaled down
        sizes = [(N // 10, N) for N in (500, 1000)]
        rows = measure_scaling("gram_apply", sizes, [1, 2], instances=2)
        assert {(r["N"], r["P"]) for r in rows} == {(500, 50), (1000, 100)}
        assert {r["workers"] for r in rows} == {1, 2}
        assert all(r["median_seconds"] > 0 for r in rows)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            measure_scaling("matvec_t", [], [1])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            measure_scaling("fft", [(10, 100)], [1], instances=1)

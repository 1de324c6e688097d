import numpy as np
import pytest

from gpspca import (
    ComponentSequence,
    DataMatrix,
    SolverConfig,
    par_matvec_t,
    par_threshold_accumulate,
    synthetic_sparse_factors,
)
import gpspca.block
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


@pytest.fixture
def chunk_of(monkeypatch):
    """Set GEMM_BUDGET so that calls on p rows with m iterate columns run
    in chunks of the given width: a small matrix then gets the many-chunk
    layout of a large one."""

    def set_width(width, p, m=1):
        monkeypatch.setattr(gpspca.parallel, "GEMM_BUDGET", width * p * m)

    return set_width


def layout(n, chunk):
    """Chunk widths of n columns cut every chunk columns."""
    return [min(chunk, n - lo) for lo in range(0, n, chunk)]


def accumulated(A, W, workers=1):
    """The kernel as a step calls it for the weights W: given the active
    rows block._active_columns finds, when at most n // GATHER_DIVISOR,
    and the weights of those rows alone; otherwise given all n."""
    rows = gpspca.block._active_columns(W, len(W) // gpspca.block.GATHER_DIVISOR)
    return par_threshold_accumulate(A, W if rows is None else W[rows], workers, rows)


def thresholded(A, c, gamma, penalty, workers=1):
    """One matrix step's accumulation: the threshold weights of c, the
    step's scan for their active rows, then the kernel."""
    return accumulated(A, threshold_weights(c, gamma, penalty), workers)


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

    def test_bitwise_identical_across_workers(self, chunk_of, chunk_widths):
        rng = np.random.default_rng(1)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        x = rng.standard_normal(64)
        chunk_of(64, 64)
        outs = [par_matvec_t(A, x, w) for w in WORKER_COUNTS]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert chunk_widths == [layout(1000, 64)] * len(WORKER_COUNTS)

    @pytest.mark.parametrize("shape", [(64,), (64, 5)], ids=["vector", "block"])
    def test_each_chunk_is_a_plain_matmul(self, chunk_of, chunk_widths, shape):
        rng = np.random.default_rng(12)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        x = rng.standard_normal(shape)
        want = np.concatenate(
            [A.values[:, lo : lo + 64].T @ x for lo in range(0, 1000, 64)]
        )
        chunk_of(64, *shape)
        for w in (1, 3):
            assert np.array_equal(par_matvec_t(A, x, w), want)
        assert chunk_widths == [layout(1000, 64)] * 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            par_matvec_t(DataMatrix(np.eye(3)), np.ones(4))

    def test_block_matches_dense_product_and_workers(self, chunk_of, chunk_widths):
        rng = np.random.default_rng(7)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        X = rng.standard_normal((64, 5))
        chunk_of(64, 64, 5)
        outs = [par_matvec_t(A, X, w) for w in WORKER_COUNTS]
        assert outs[0].shape == (1000, 5)
        assert np.allclose(outs[0], A.values.T @ X, atol=1e-12)
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert chunk_widths == [layout(1000, 64)] * len(WORKER_COUNTS)


class TestParGramApply:
    """The accumulation kernel on plain weights (measure_scaling's
    gram_apply case): the product A z, whatever the weights."""

    def test_single_column_weight(self):
        A = DataMatrix(np.arange(6.0).reshape(2, 3))
        z = np.array([0.0, 2.0, 0.0])
        assert np.array_equal(par_threshold_accumulate(A, z), 2.0 * A.values[:, 1])

    def test_matches_dense_product(self, chunk_of, chunk_widths):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((7, 300))
        z = rng.standard_normal(300)
        chunk_of(32, 7)
        out = par_threshold_accumulate(DataMatrix(A), z)
        assert np.allclose(out, A @ z, atol=1e-12)
        assert chunk_widths == [layout(300, 32)]

    def test_bitwise_identical_across_workers(self, chunk_of, chunk_widths):
        rng = np.random.default_rng(3)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        z = rng.standard_normal(1000)
        chunk_of(64, 64)
        outs = [par_threshold_accumulate(A, z, w) for w in WORKER_COUNTS]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert chunk_widths == [layout(1000, 64)] * len(WORKER_COUNTS)

    def test_block_weights_give_one_column_each(self, chunk_of, chunk_widths):
        rng = np.random.default_rng(13)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        Z = rng.standard_normal((1000, 3))
        chunk_of(64, 64, 3)
        outs = [par_threshold_accumulate(A, Z, w) for w in WORKER_COUNTS]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert chunk_widths == [layout(1000, 64)] * len(WORKER_COUNTS)
        assert outs[0].shape == (64, 3)
        assert np.allclose(outs[0], A.values @ Z, atol=1e-12)

    @pytest.mark.parametrize("shape", [(999,), (1000, 2, 1), (999, 3)])
    def test_weights_need_one_row_per_column(self, shape):
        A = DataMatrix(np.ones((4, 1000)))
        with pytest.raises(ValueError, match="weights must have 1000 rows"):
            par_threshold_accumulate(A, np.ones(shape))


class TestParThresholdAccumulate:
    """Threshold weights, then the accumulation kernel, as a matrix step
    of the power loop runs them."""

    def test_all_weights_zero(self):
        rng = np.random.default_rng(4)
        A = DataMatrix(rng.standard_normal((6, 40)))
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        c = par_matvec_t(A, x)
        gamma = float(np.abs(c).max()) + 1.0
        assert np.array_equal(thresholded(A, c, gamma, "l1"), np.zeros(6))

    def test_single_active_column(self):
        A = DataMatrix(np.eye(2))
        c = np.array([1.0, 0.0])
        out = thresholded(A, c, 0.25, "l1")
        assert np.array_equal(out, [0.75, 0.0])

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_bitwise_identical_across_workers(self, chunk_of, chunk_widths, penalty):
        rng = np.random.default_rng(5)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        c = par_matvec_t(A, rng.standard_normal(64))
        chunk_of(64, 64)
        chunk_widths.clear()
        outs = [
            thresholded(A, c, 0.3, penalty, w)
            for w in WORKER_COUNTS
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert chunk_widths == [layout(1000, 64)] * len(WORKER_COUNTS)

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_workers_one_equals_reference_order(self, chunk_of, chunk_widths, penalty):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((16, 530))
        c = rng.standard_normal(530)
        w = threshold_weights(c, 0.2, penalty)
        expected = reference_accumulate(np.asfortranarray(values), w, chunk=64)
        chunk_of(64, 16)
        got = thresholded(DataMatrix(values), c, 0.2, penalty)
        assert np.array_equal(expected, got)
        assert chunk_widths == [layout(530, 64)]

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_block_columns_use_their_own_gamma(self, chunk_of, chunk_widths, penalty):
        rng = np.random.default_rng(8)
        A = DataMatrix(rng.standard_normal((64, 1000)))
        C = par_matvec_t(A, rng.standard_normal((64, 3)))
        gamma = np.array([0.1, 0.3, 0.6])
        chunk_of(64, 64, 3)
        chunk_widths.clear()
        outs = [
            thresholded(A, C, gamma, penalty, w)
            for w in WORKER_COUNTS
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert chunk_widths == [layout(1000, 64)] * len(WORKER_COUNTS)
        for j in range(3):
            want = thresholded(A, C[:, j], gamma[j], penalty)
            assert np.allclose(outs[0][:, j], want, atol=1e-12)

    def test_l0_tie_is_inactive(self):
        A = DataMatrix(np.eye(2))
        c = np.array([1.0, 0.0])
        # c^2 == gamma exactly: the tied column must not contribute
        out = thresholded(A, c, 1.0, "l0")
        assert np.array_equal(out, np.zeros(2))


class TestWorkerRuns:
    """Each worker takes one contiguous run of chunks; output depends only
    on (n, chunk), including when no worker count divides the chunk count
    and when there are more workers than chunks.  The budget is set for
    chunks of 64 columns."""

    @staticmethod
    def kernels(A, rng, block):
        p, n = A.shape
        x = rng.standard_normal((p, 3) if block else p)
        c = par_matvec_t(A, x)
        gamma = np.array([0.1, 0.3, 0.6]) if block else 0.3
        calls = [
            lambda workers: par_matvec_t(A, x, workers),
            lambda workers: thresholded(A, c, gamma, "l1", workers),
        ]
        if not block:
            z = rng.standard_normal(n)
            calls.append(lambda workers: par_threshold_accumulate(A, z, workers))
        return calls

    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    @pytest.mark.parametrize(
        "n, workers",
        [(700, (2, 3, 4)), (150, (8,))],
        ids=["11-chunks", "3-chunks"],
    )
    def test_bitwise_identical_across_workers(self, chunk_of, chunk_widths, n, workers, block):
        rng = np.random.default_rng(9)
        A = DataMatrix(rng.standard_normal((32, n)))
        calls = self.kernels(A, rng, block)
        chunk_of(64, 32, 3 if block else 1)
        chunk_widths.clear()
        for call in calls:
            want = call(1)
            for w in workers:
                assert np.array_equal(call(w), want)
        assert chunk_widths == [layout(n, 64)] * (len(calls) * (1 + len(workers)))

    def test_at_most_one_task_per_worker(self, monkeypatch, chunk_of, chunk_widths):
        pool = gpspca.parallel._pool(3)
        real_map = pool.map
        submitted = []

        def counting_map(fn, items):
            items = list(items)
            submitted.append(len(items))
            return real_map(fn, items)

        monkeypatch.setattr(pool, "map", counting_map)
        rng = np.random.default_rng(10)
        A = DataMatrix(rng.standard_normal((16, 700)))
        calls = self.kernels(A, rng, block=False)
        chunk_of(64, 16)
        chunk_widths.clear()
        for call in calls:
            call(3)
        assert submitted == [3, 3, 3]
        assert chunk_widths == [[64] * 10 + [60]] * 3  # 11 chunks per call


class TestDerivedChunk:
    """The default plan sizes each chunk from the call's own shape: a
    chunk GEMM does at most GEMM_BUDGET multiply-adds, but no fewer
    columns than MIN_CHUNK, whatever the worker count."""

    @pytest.mark.parametrize("p, n, m", [(800, 8000, 1), (800, 8000, 5), (200, 2000, 5)])
    def test_chunk_gemm_stays_within_budget(self, chunk_widths, p, n, m):
        A = DataMatrix(np.ones((p, n)))
        x = np.ones(p) if m == 1 else np.ones((p, m))
        thresholded(A, par_matvec_t(A, x), 0.5, "l1")
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
            lambda workers: par_matvec_t(A, x, workers),
            lambda workers: thresholded(A, c, gamma, "l1", workers),
            # X, S and the objective history after five steps
            lambda workers: ascend(A, x, gamma, 1.0, "l1", 1e-12, 5, workers)[:3],
        ]
        if m == 1:
            z = rng.standard_normal(n)
            calls.append(lambda workers: par_threshold_accumulate(A, z, workers))
        chunk_widths.clear()
        # GEMM_BUDGET // (p * m) columns: 512 for a vector, 102 for p x 5.
        chunks = {1: 6, 5: 26}[m]
        for call in calls:
            want = call(1)
            for w in (2, 3):
                got = call(w)
                if isinstance(want, tuple):
                    assert all(np.array_equal(a, b) for a, b in zip(want, got))
                else:
                    assert np.array_equal(want, got)
        assert {len(widths) for widths in chunk_widths} == {chunks}


class TestSparseSequenceWorkers:
    def test_gram_route_loadings_bitwise_across_workers(self, monkeypatch, chunk_of,
                                                         chunk_widths):
        # Sparse single-unit steps read rows of G = A'A, each computed
        # without the engine the first time its column is active; the start
        # correlations, the dense steps and each climb's final iterate run
        # chunked kernels (7 chunks on all 200 columns here).
        ds = synthetic_sparse_factors(n_classes=8, per_class=5, n_features=200,
                                      n_factors=5, support_size=5, seed=3)
        A = ds.samples - ds.samples.mean(axis=0)
        cfg = SolverConfig(penalty="l1", gamma=3.0, m=6, restarts=2, refine=True)
        chunk_of(32, 40)
        gram_steps = []
        original = gpspca.block._Fit.gram_products
        monkeypatch.setattr(gpspca.block._Fit, "gram_products",
                            lambda *a: gram_steps.append(1) or original(*a))
        runs = []
        for workers in (1, 2, 4):
            gram_steps.clear()
            chunk_widths.clear()
            runs.append(ComponentSequence(A, cfg, workers).solve(6))
            assert len(gram_steps) > 20
            assert [32] * 6 + [8] in chunk_widths
        (want, want_report), *others = runs
        for loadings, report in others:
            assert np.array_equal(loadings.values, want.values)
            assert report.component_histories == want_report.component_histories


@pytest.fixture
def gathered_rows(monkeypatch):
    """Row count of each sum the accumulation kernel hands to
    _gathered_product, its sparse branch."""
    counts = []
    real = gpspca.parallel._gathered_product

    def recording(values, rows, D):
        counts.append(len(rows))
        return real(values, rows, D)

    monkeypatch.setattr(gpspca.parallel, "_gathered_product", recording)
    return counts


def sparse_correlations(rng, n, m, active, spread=False):
    """Correlations whose l1 weights at gamma 1 are nonzero in exactly the
    given rows: |c| of 1.5-3 there, below 1 elsewhere.  With spread, an
    active row passes the threshold in column row % m only."""
    shape = (n,) if m == 1 else (n, m)
    c = rng.uniform(-0.9, 0.9, shape)
    big = rng.choice([-1.0, 1.0], shape) * rng.uniform(1.5, 3.0, shape)
    if spread and m > 1:
        c[active, active % m] = big[active, active % m]
    else:
        c[active] = big[active]
    return c


class TestActiveColumns:
    """When at most n // GATHER_DIVISOR columns carry a nonzero weight, a
    step hands them to the accumulation, which sums them alone in
    _gathered_product, on the calling thread, without the chunk engine;
    given no set, the kernel reads every column whatever the weights."""

    @pytest.mark.parametrize("share", [0.01, 0.10, 0.25])
    @pytest.mark.parametrize("m", [1, 5], ids=["vector", "block"])
    def test_gathered_sum_matches_dense_product(self, gathered_rows, chunk_widths, m, share):
        rng = np.random.default_rng(20)
        p, n = 48, 2000
        A = DataMatrix(rng.standard_normal((p, n)))
        active = np.sort(rng.choice(n, int(share * n), replace=False))
        c = sparse_correlations(rng, n, m, active)
        cases = [(
            lambda: thresholded(A, c, 1.0, "l1"),
            A.values @ threshold_weights(c, 1.0, "l1"),
        )]
        if m == 1:
            z = np.zeros(n)
            z[active] = rng.standard_normal(active.size)
            cases.append((lambda: accumulated(A, z), A.values @ z))
        for call, want in cases:
            gathered_rows.clear()
            got = call()
            assert gathered_rows == [active.size]
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert chunk_widths == []
        # Without the set, the same sparse weights go through the engine.
        W = threshold_weights(c, 1.0, "l1")
        got = par_threshold_accumulate(A, W)
        assert np.linalg.norm(got - cases[0][1]) <= 1e-12 * np.linalg.norm(cases[0][1])
        assert [sum(widths) for widths in chunk_widths] == [n]

    def test_bitwise_identical_across_workers(self, gathered_rows, chunk_widths):
        rng = np.random.default_rng(21)
        p, n = 800, 8000
        A = DataMatrix(rng.standard_normal((p, n)))
        active = np.sort(rng.choice(n, n // 5, replace=False))
        c = sparse_correlations(rng, n, 1, active)
        C = sparse_correlations(rng, n, 5, active, spread=True)
        z = np.where(np.isin(np.arange(n), active), rng.standard_normal(n), 0.0)
        calls = [
            lambda workers: thresholded(A, c, 1.0, "l1", workers),
            lambda workers: thresholded(A, C, np.ones(5), "l0", workers),
            lambda workers: accumulated(A, z, workers),
        ]
        for call in calls:
            gathered_rows.clear()
            want = call(1)
            for w in (2, 3):
                assert np.array_equal(call(w), want)
            assert gathered_rows == [n // 5] * 3
        assert chunk_widths == []

    @pytest.mark.parametrize("m", [1, 5], ids=["vector", "block"])
    def test_no_active_column_gives_exact_zeros(self, gathered_rows, chunk_widths, m):
        rng = np.random.default_rng(22)
        A = DataMatrix(rng.standard_normal((16, 400)))
        c = sparse_correlations(rng, 400, m, np.array([], dtype=int))
        out = thresholded(A, c, 1.0, "l1")
        assert out.shape == ((16,) if m == 1 else (16, m))
        assert np.array_equal(out, np.zeros(out.shape))
        if m == 1:
            z = np.zeros(400)
            assert np.array_equal(accumulated(A, z), np.zeros(16))
        assert gathered_rows == [0] * (2 if m == 1 else 1)
        assert chunk_widths == []

    def test_zero_gradient_start_is_converged(self):
        rng = np.random.default_rng(23)
        A = DataMatrix(rng.standard_normal((16, 400)))
        x = rng.standard_normal(16)
        x /= np.linalg.norm(x)
        gamma = float(np.abs(par_matvec_t(A, x)).max()) + 1.0
        X, _, history, converged = ascend(A, x, gamma, 1.0, "l1", 1e-8, 50)
        assert converged
        assert history == [0.0]
        assert np.array_equal(X, x)

    @pytest.mark.parametrize(
        "m, spread", [(1, False), (5, False), (5, True)],
        ids=["vector", "block", "block-one-column-per-row"],
    )
    @pytest.mark.parametrize("placement", ["leading", "random"])
    def test_gathers_at_a_quarter_and_not_above(self, gathered_rows, chunk_widths, m, spread,
                                                placement):
        # A step (not sparse enough for the rows of A'A: p // 4 = 2 here)
        # hands n // 4 active rows to _gathered_product; with one more,
        # its accumulation sums all n columns in the chunk engine instead.
        # The new iterate's correlations then run the engine either way.
        rng = np.random.default_rng(24)
        p, n = 8, 1000
        A = DataMatrix(rng.standard_normal((p, n)))
        gamma = np.ones(m) if m > 1 else 1.0
        X = np.linalg.qr(rng.standard_normal((p, m)))[0]
        for k, gathered, engine in ((n // 4, [n // 4], [n]), (n // 4 + 1, [], [n, n])):
            if placement == "leading":
                active = np.arange(k)
            else:
                active = np.sort(rng.choice(n, k, replace=False))
            c = sparse_correlations(rng, n, m, active, spread)
            step = gpspca.block._Retraction(gpspca.block._Fit(A), X[:, 0] if m == 1 else X,
                                            gamma, 1.0, "l1", 1)
            gathered_rows.clear()
            chunk_widths.clear()
            assert step(*step.weights(c)) is not None
            assert gathered_rows == gathered
            assert [sum(widths) for widths in chunk_widths] == engine


class TestThresholdWeights:
    def test_l1_soft_threshold(self):
        c = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        out = threshold_weights(c, 0.5, "l1")
        assert np.allclose(out, [-1.5, 0.0, 0.0, 0.0, 1.5])

    def test_l0_hard_threshold(self):
        c = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        out = threshold_weights(c, 0.5, "l0")
        assert np.allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])


class TestWorkerCount:
    @pytest.mark.parametrize("path", ["dense", "gathered", "all_inactive"])
    def test_zero_workers_rejected_before_any_work(self, chunk_widths, gathered_rows, path):
        # Dense weights reach the chunk engine over every column; sparse
        # and all-zero ones, given their active rows, go to
        # _gathered_product, which never reads the worker count, yet a
        # count below 1 is still rejected.
        rng = np.random.default_rng(31)
        A = DataMatrix(rng.standard_normal((8, 200)))
        c = {"dense": 0.5 * rng.standard_normal(200), "gathered": np.eye(200)[0],
             "all_inactive": np.zeros(200)}[path]
        calls = [
            lambda workers: accumulated(A, c, workers),
            lambda workers: thresholded(A, c, 0.1, "l1", workers),
            lambda workers: thresholded(A, np.outer(c, [1.0, 2.0]),
                                        np.array([0.1, 0.1]), "l0", workers),
        ]
        if path == "dense":
            x = rng.standard_normal(8)
            calls.append(lambda workers: par_matvec_t(A, x, workers))
        for call in calls:
            call(1)
            with pytest.raises(ValueError, match="workers must be >= 1"):
                call(0)
        assert len(chunk_widths) == (len(calls) if path == "dense" else 0)
        assert gathered_rows == {"dense": [], "gathered": [1] * 3, "all_inactive": [0] * 3}[path]

    def test_measure_scaling_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            measure_scaling("gram_apply", [(10, 100)], [0, 1], instances=1)


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

    def test_draws_unchanged(self, monkeypatch):
        # Each instance is rng.standard_normal((P, N)), and the kernel's own
        # inputs come from the rng state after that draw.
        seen = []
        invocation = gpspca.parallel._kernel_invocation

        def recording_invocation(kernel, A, rng):
            seen.append((A.values.copy(), rng.bit_generator.state))
            return invocation(kernel, A, rng)

        monkeypatch.setattr(gpspca.parallel, "_kernel_invocation", recording_invocation)
        measure_scaling("matvec_t", [(30, 300)], [1], instances=2, seed=7)
        for instance, (values, state) in enumerate(seen):
            rng = np.random.default_rng([7, 300, instance])
            assert values.tobytes() == rng.standard_normal((30, 300)).tobytes()
            assert state == rng.bit_generator.state
        assert len(seen) == 2

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            measure_scaling("matvec_t", [], [1])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            measure_scaling("fft", [(10, 100)], [1], instances=1)

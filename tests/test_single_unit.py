import numpy as np
import pytest

from gpspca import (
    ComponentSequence,
    DataMatrix,
    SolverConfig,
    ascend,
    ascent_direction,
    deflate,
    objective,
    recover_pattern,
    solve_multi_sequential,
    synthetic_sparse_factors,
)
from gpspca import block, single_unit
from gpspca.parallel import threshold_weights

# The parametrized ids name the single-unit variant each case exercises.
SL_IDS = {
    "objective": ["l1-objective_sl1", "l0-objective_sl0"],
    "ascent_direction": ["l1-ascent_direction_sl1", "l0-ascent_direction_sl0"],
    "recover_pattern": ["l1-recover_pattern_sl1", "l0-recover_pattern_sl0"],
    "power_step": [
        "l1-objective_sl1-ascent_direction_sl1",
        "l0-objective_sl0-ascent_direction_sl0",
    ],
}


# ------------------------------------------------------------------ oracles


def scalar_objective(A, y, gamma, penalty):
    """Term-by-term evaluation with plain python sums; defined for any y,
    not just sphere points, so it can also be differenced."""
    total = 0.0
    for i in range(A.shape[1]):
        c = float(A[:, i] @ y)
        if penalty == "l1":
            t = max(abs(c) - gamma, 0.0)
            total += t * t
        else:
            total += max(c * c - gamma, 0.0)
    return total


def central_difference(A, x, gamma, penalty, step=1e-5):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (
            scalar_objective(A, x + e, gamma, penalty)
            - scalar_objective(A, x - e, gamma, penalty)
        ) / (2 * step)
    return g


def near_kink(A, x, gamma, penalty, window=1e-4):
    c = A.T @ x
    if penalty == "l1":
        return bool(np.any(np.abs(np.abs(c) - gamma) < window) or np.any(np.abs(c) < window))
    return bool(np.any(np.abs(c * c - gamma) < window))


def random_unit(rng, p):
    x = rng.standard_normal(p)
    return x / np.linalg.norm(x)


# --------------------------------------------------------------- objectives


class TestObjectives:
    def test_sl1_identity_examples(self):
        A = np.eye(2)
        assert objective(A, [1.0, 0.0], 0.0, "l1") == pytest.approx(1.0)
        assert objective(A, [1.0, 0.0], 0.5, "l1") == pytest.approx(0.25)

    def test_sl0_identity_examples(self):
        A = np.eye(2)
        assert objective(A, [1.0, 0.0], 0.0, "l0") == pytest.approx(1.0)
        assert objective(A, [1.0, 0.0], 2.0, "l0") == 0.0

    @pytest.mark.parametrize("penalty", ["l1", "l0"], ids=SL_IDS["objective"])
    def test_matches_scalar_loop(self, penalty):
        rng = np.random.default_rng(10)
        for _ in range(25):
            A = rng.standard_normal((3, 5))
            x = random_unit(rng, 3)
            assert objective(A, x, 0.05, penalty) == pytest.approx(
                scalar_objective(A, x, 0.05, penalty), rel=1e-12, abs=1e-12
            )

    def test_rejects_non_unit_x(self):
        with pytest.raises(ValueError):
            objective(np.eye(2), [1.0, 1.0], 0.0, "l1")

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective(np.eye(3), [1.0, 0.0], 0.0, "l0")

    def test_scale_equivariance_sl1(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.standard_normal((4, 7))
            x = random_unit(rng, 4)
            gamma, c = 0.3, 2.5
            assert objective(c * A, x, c * gamma, "l1") == pytest.approx(
                c * c * objective(A, x, gamma, "l1"), rel=1e-10
            )


# ---------------------------------------------------------------- gradients


class TestAscentDirections:
    def test_sl1_examples(self):
        A = np.eye(2)
        assert np.allclose(ascent_direction(A, [1.0, 0.0], 0.0, "l1"), [2.0, 0.0])
        assert np.array_equal(ascent_direction(A, [1.0, 0.0], 1.5, "l1"), [0.0, 0.0])

    def test_sl0_examples(self):
        A = np.eye(2)
        assert np.allclose(ascent_direction(A, [1.0, 0.0], 0.5, "l0"), [2.0, 0.0])
        assert np.array_equal(ascent_direction(A, [1.0, 0.0], 2.0, "l0"), [0.0, 0.0])

    @pytest.mark.parametrize("penalty", ["l1", "l0"], ids=SL_IDS["ascent_direction"])
    def test_matches_finite_differences(self, penalty):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 25:
            A = rng.standard_normal((4, 8))
            x = random_unit(rng, 4)
            gamma = float(rng.uniform(0.05, 0.6))
            if near_kink(A, x, gamma, penalty):
                continue
            got = ascent_direction(A, x, gamma, penalty)
            want = central_difference(A, x, gamma, penalty)
            assert np.allclose(got, want, atol=1e-6)
            checked += 1

    def test_zero_iff_no_active_column(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((3, 6))
        x = random_unit(rng, 3)
        gamma = float(np.abs(A.T @ x).max())
        assert np.array_equal(ascent_direction(A, x, gamma, "l1"), np.zeros(3))
        assert np.any(ascent_direction(A, x, 0.9 * gamma, "l1") != 0)


class TestPowerStep:
    """One step of ascend on a vector iterate: x+ = g / ||g||."""

    def test_normalizes(self):
        # correlations (3, 0) at gamma 0 give g = 6 (3, 4), so x+ = (0.6, 0.8)
        A = DataMatrix([[3.0, 0.0], [4.0, 0.0]])
        x, _, history, _ = ascend(A, np.array([1.0, 0.0]), 0.0, 1.0, "l1", 1e-6, 1)
        assert np.allclose(x, [0.6, 0.8])
        assert len(history) == 2

    def test_zero_direction_is_fixed_point(self):
        A = DataMatrix(np.eye(2))
        x0 = np.array([1.0, 0.0])
        x, _, history, converged = ascend(A, x0, 2.0, 1.0, "l1", 1e-6, 10)
        assert converged and x is x0 and history == [0.0]

    def test_off_sphere_start_rejected(self):
        rng = np.random.default_rng(15)
        A = DataMatrix(rng.standard_normal((6, 20)))
        x = random_unit(rng, 6)
        with pytest.raises(ValueError, match="off the sphere"):
            ascend(A, 3 * x, 0.1, 1.0, "l1", 1e-6, 100)

    def test_plain_array_converted_once(self, monkeypatch):
        # Every kernel call of the climb reuses the one DataMatrix.
        builds = []
        real_adopt = DataMatrix._adopt

        def counting_adopt(matrix, arr):
            builds.append(arr.shape)
            real_adopt(matrix, arr)

        monkeypatch.setattr(DataMatrix, "_adopt", counting_adopt)
        rng = np.random.default_rng(16)
        A = rng.standard_normal((40, 100))
        _, _, history, _ = ascend(A, random_unit(rng, 40), 0.0, 1.0, "l1", 0.0, 50)
        assert len(history) == 51
        assert builds == [(40, 100)]

    @pytest.mark.parametrize("penalty", ["l1", "l0"], ids=SL_IDS["power_step"])
    def test_never_decreases_objective(self, penalty):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            A = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 9))))
            x = random_unit(rng, A.shape[0])
            gamma = float(rng.uniform(0.0, 1.0))
            g = ascent_direction(A, x, gamma, penalty)
            if np.any(g):
                step = g / np.linalg.norm(g)
                assert objective(A, step, gamma, penalty) >= (
                    objective(A, x, gamma, penalty) - 1e-12
                )


# ----------------------------------------------------------- pattern recovery


class TestRecoverPattern:
    def test_sl1_single_survivor(self):
        z = recover_pattern(np.eye(2), [1.0, 0.0], 0.5, "l1")
        assert np.array_equal(z, [1.0, 0.0])

    def test_sl1_threshold_kills_everything(self):
        z = recover_pattern(np.eye(2), [1.0, 0.0], 1.5, "l1")
        assert np.array_equal(z, np.zeros(2))

    def test_sl1_hand_derived_and_grid(self):
        A = np.array([[1.0, 0.6], [0.0, 0.8]])
        x = np.array([1.0, 0.0])
        z = recover_pattern(A, x, 0.5, "l1")
        # correlations (1, 0.6) soft-thresholded by 0.5 -> (0.5, 0.1), normalized
        expected = np.array([5.0, 1.0]) / np.sqrt(26.0)
        assert np.allclose(z, expected, atol=1e-12)
        # independent check: the inner problem max_z  c'z - gamma*||z||_1
        # over the unit circle, on a fine angular grid
        c = A.T @ x
        theta = np.linspace(0, 2 * np.pi, 2_000_000, endpoint=False)
        zs = np.stack([np.cos(theta), np.sin(theta)])
        vals = c @ zs - 0.5 * np.abs(zs).sum(axis=0)
        best = zs[:, np.argmax(vals)]
        assert np.allclose(best, z, atol=1e-5)

    def test_sl0_examples(self):
        assert np.array_equal(recover_pattern(np.eye(2), [1.0, 0.0], 0.5, "l0"), [1.0, 0.0])
        assert np.array_equal(recover_pattern(np.eye(2), [1.0, 0.0], 2.0, "l0"), np.zeros(2))

    @pytest.mark.parametrize("penalty", ["l1", "l0"], ids=SL_IDS["recover_pattern"])
    def test_gamma_monotone_support(self, penalty):
        rng = np.random.default_rng(15)
        for _ in range(200):
            A = rng.standard_normal((3, 8))
            x = random_unit(rng, 3)
            lo = float(rng.uniform(0.0, 0.8))
            hi = lo + float(rng.uniform(0.0, 0.8))
            support_hi = set(np.nonzero(recover_pattern(A, x, hi, penalty))[0].tolist())
            support_lo = set(np.nonzero(recover_pattern(A, x, lo, penalty))[0].tolist())
            assert support_hi <= support_lo


# ------------------------------------------------------------------- solves


class TestSolveSingleUnit:
    """One-component solves: solve_multi_sequential at m = 1."""

    def test_gamma_zero_recovers_leading_singular_vector(self):
        rng = np.random.default_rng(16)
        for penalty in ("l1", "l0"):
            A = rng.standard_normal((6, 10))
            cfg = SolverConfig(penalty=penalty, gamma=0.0, tol=1e-14, max_iter=5000)
            loadings, report = solve_multi_sequential(A, cfg)
            v1 = np.linalg.svd(A)[2][0]
            assert abs(loadings.values[:, 0] @ v1) >= 1 - 1e-8
            assert report.converged

    def test_diag_l0_selects_strong_axis(self):
        A = np.diag([3.0, 1.0])
        cfg = SolverConfig(penalty="l0", gamma=0.1)
        loadings, _ = solve_multi_sequential(A, cfg)
        assert np.allclose(np.abs(loadings.values[:, 0]), [1.0, 0.0])

    def test_gamma_above_max_norm_returns_zero(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((4, 6))
        gamma = float(np.linalg.norm(A, axis=0).max())
        loadings, report = solve_multi_sequential(A, SolverConfig(penalty="l1", gamma=gamma))
        assert not np.any(loadings.values)
        assert report.converged and report.iterations == 0

    def test_l0_zero_needs_squared_norm_threshold(self):
        # columns with norm > 1: the l0 activation threshold is the
        # squared norm, so gamma = max norm still leaves signal
        A = np.diag([3.0, 1.0])
        loadings, _ = solve_multi_sequential(A, SolverConfig(penalty="l0", gamma=3.0))
        assert np.any(loadings.values)
        loadings, _ = solve_multi_sequential(A, SolverConfig(penalty="l0", gamma=9.0))
        assert not np.any(loadings.values)

    def test_all_zero_matrix(self):
        loadings, report = solve_multi_sequential(np.zeros((3, 4)), SolverConfig())
        assert not np.any(loadings.values)
        assert report.converged

    def test_monotone_history(self):
        rng = np.random.default_rng(18)
        for penalty in ("l1", "l0"):
            for _ in range(50):
                A = rng.standard_normal((5, 12))
                cfg = SolverConfig(penalty=penalty, gamma=float(rng.uniform(0, 0.5)))
                _, report = solve_multi_sequential(A, cfg)
                assert np.all(np.diff(report.objective_history) >= -1e-12)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(19)
        A = DataMatrix(rng.standard_normal((4, 9)))
        x0 = random_unit(rng, 4)
        for penalty in ("l1", "l0"):
            out = []
            for sign in (1.0, -1.0):
                x, _, history, _ = ascend(A, sign * x0, 0.2, 1.0, penalty, 1e-12, 1000)
                out.append((recover_pattern(A, x, 0.2, penalty), history[-1]))
            (z_a, f_a), (z_b, f_b) = out
            assert abs(f_a - f_b) <= 1e-10
            assert np.allclose(z_a, z_b, atol=1e-9) or np.allclose(z_a, -z_b, atol=1e-9)

    def test_fixed_point_stationarity(self):
        # The stopping rule watches the objective, which is quadratically
        # flat at a maximum, so the iterate residual scales like sqrt(tol).
        rng = np.random.default_rng(20)
        tol = 1e-10
        for penalty in ("l1", "l0"):
            A = DataMatrix(rng.standard_normal((5, 11)))
            x0 = random_unit(rng, 5)
            x, _, _, converged = ascend(A, x0, 0.1, 1.0, penalty, tol, 5000)
            assert converged
            grad = ascent_direction(A, x, 0.1, penalty)
            assert np.linalg.norm(grad) > 0
            assert np.linalg.norm(x - grad / np.linalg.norm(grad)) <= 10 * np.sqrt(tol)


class TestDeflate:
    def test_annihilates_first_row(self):
        out = deflate(np.eye(2), np.array([1.0, 0.0]))
        assert np.allclose(out.values, [[0.0, 0.0], [0.0, 1.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((4, 6))
        x = random_unit(rng, 4)
        once = deflate(A, x)
        twice = deflate(once, x)
        assert np.allclose(twice.values, once.values, atol=1e-14)

    def test_result_orthogonal_to_direction(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((5, 8))
        x = random_unit(rng, 5)
        out = deflate(A, x)
        assert np.linalg.norm(x @ out.values) <= 1e-10

    def test_bitwise_equal_to_outer_product_form(self):
        # Same arithmetic as deflate: x renormalized, and x'A taken on the
        # column-major copy (BLAS summation order follows the layout).
        rng = np.random.default_rng(23)
        A = np.asfortranarray(rng.standard_normal((30, 50)))
        x = random_unit(rng, 30)
        out = deflate(A, x)
        x = x / np.linalg.norm(x)
        assert np.array_equal(out.values, A - np.outer(x, x @ A))

    def test_result_is_read_only(self):
        rng = np.random.default_rng(24)
        out = deflate(rng.standard_normal((4, 6)), random_unit(rng, 4))
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[0, 0] = 1.0

    def test_overflow_is_rejected(self):
        # x'a = 1.5e308 * sqrt(2) overflows, so the result holds -inf
        A = np.full((2, 3), 1.5e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            deflate(A, np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestSolveMultiSequential:
    def test_m_one_identical_to_single_unit(self):
        # The single-unit solve (m = 1) is bitwise the first component of
        # a longer sequence.
        rng = np.random.default_rng(23)
        A = rng.standard_normal((4, 7))
        z_single, rep_single = solve_multi_sequential(
            A, SolverConfig(penalty="l1", gamma=0.1, m=1))
        z_multi, rep_multi = solve_multi_sequential(
            A, SolverConfig(penalty="l1", gamma=0.1, m=3))
        assert np.array_equal(z_single.values[:, 0], z_multi.values[:, 0])
        assert rep_single.objective_history == rep_multi.objective_history

    def test_diag_recovers_axes(self):
        A = np.diag([3.0, 2.0, 1.0])
        cfg = SolverConfig(penalty="l0", gamma=0.05, m=2, tol=1e-12)
        loadings, _ = solve_multi_sequential(A, cfg)
        assert np.allclose(np.abs(loadings.values[:, 0]), [1.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(np.abs(loadings.values[:, 1]), [0.0, 1.0, 0.0], atol=1e-6)

    def test_gamma_zero_spans_top_subspace(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((6, 9))
        cfg = SolverConfig(penalty="l1", gamma=0.0, m=2, tol=1e-14, max_iter=5000)
        loadings, _ = solve_multi_sequential(A, cfg)
        V2 = np.linalg.svd(A)[2][:2].T
        Q, _ = np.linalg.qr(loadings.values)
        angles = np.arccos(np.clip(np.linalg.svd(Q.T @ V2, compute_uv=False), 0, 1))
        assert np.max(angles) <= 1e-4

    def test_zero_component_zero_fills_remainder(self):
        # one strong column: after deflating it, nothing survives gamma
        A = np.zeros((3, 2))
        A[0, 0] = 5.0
        A[1, 1] = 0.3
        cfg = SolverConfig(penalty="l1", gamma=1.0, m=2)
        loadings, report = solve_multi_sequential(A, cfg)
        assert loadings.nnz_per_component() == [1, 0]
        assert report.converged

    def test_per_component_gamma(self):
        A = np.diag([3.0, 2.0, 1.0])
        cfg = SolverConfig(penalty="l1", gamma=[0.0, 10.0], m=2)
        loadings, _ = solve_multi_sequential(A, cfg)
        assert loadings.nnz_per_component()[1] == 0


class TestComponentSequence:
    def test_extension_is_bitwise_a_fresh_solve(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((12, 40))
        cfg = {m: SolverConfig(penalty="l1", gamma=0.3, m=m, max_iter=500) for m in (2, 5)}
        sequence = ComponentSequence(A, cfg[2])
        first, _ = solve_multi_sequential(A, cfg[2], sequence=sequence)
        grown, report = solve_multi_sequential(A, cfg[5], sequence=sequence)
        fresh, fresh_report = solve_multi_sequential(A, cfg[5])
        assert np.array_equal(first.values, fresh.values[:, :2])
        assert np.array_equal(grown.values, fresh.values)
        assert report.component_histories == fresh_report.component_histories
        assert report.converged == fresh_report.converged
        assert report.iterations == sum(len(h) - 1 for h in report.component_histories[2:])
        again, report = sequence.solve(3)
        assert np.array_equal(again.values, fresh.values[:, :3])
        assert report.iterations == 0

    def test_zero_component_ends_the_sequence(self, monkeypatch):
        A = np.zeros((3, 2))
        A[0, 0] = 5.0
        A[1, 1] = 0.3
        sequence = ComponentSequence(A, SolverConfig(penalty="l1", gamma=1.0, m=1))
        sequence.solve(2)
        monkeypatch.setattr(single_unit, "_solve_component", None)  # no further solve
        loadings, report = sequence.solve(4)
        assert loadings.nnz_per_component() == [1, 0, 0, 0]
        assert report.component_histories[1:] == [[0.0]] * 3
        assert report.converged and report.iterations == 0

    def test_per_component_gamma_fixes_m(self):
        A = np.diag([3.0, 2.0, 1.0])
        sequence = ComponentSequence(A, SolverConfig(penalty="l1", gamma=[0.1, 0.2], m=2))
        sequence.solve(2)
        with pytest.raises(ValueError, match="per-component gamma"):
            sequence.solve(3)


def sparse_factor_matrix():
    """Centered 40 x 200 samples of five sparse factors: at gamma 3 most
    single-unit steps have at most 10 = p // GRAM_DIVISOR active columns."""
    ds = synthetic_sparse_factors(n_classes=8, per_class=5, n_features=200, n_factors=5,
                                  support_size=5, seed=3)
    return ds.samples - ds.samples.mean(axis=0)


def take_step(step, S, gamma, penalty):
    # One step as block.climb takes it, with the weights of S.
    return step(threshold_weights(S, gamma, penalty))


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


class RowWrites(np.ndarray):
    """A row cache that logs the rows each write fills; reads return plain
    arrays."""

    def __setitem__(self, rows, value):
        self.log.append(np.asarray(rows).ravel().tolist())
        super().__setitem__(rows, value)

    def __getitem__(self, rows):
        return self.view(np.ndarray)[rows]


def log_row_writes(data):
    # Swaps the cache of data, empty or not, for one that logs its writes.
    if data.gram is None:
        data.gram = np.empty((data.A.n, data.A.n))
        data.cached = np.zeros(data.A.n, dtype=bool)
    data.gram = data.gram.view(RowWrites)
    data.gram.log = []
    return data.gram.log


class TestImplicitDeflation:
    """Components after the first are solved on (I - XX')A without forming
    it; sparse steps read their correlations from the rows of G = A'A,
    each computed the first time its column is active."""

    @pytest.mark.parametrize("penalty, gamma", [("l1", 3.0), ("l0", 12.0)])
    def test_gram_route_matches_matrix_route(self, monkeypatch, penalty, gamma):
        A = sparse_factor_matrix()
        cfg = SolverConfig(penalty=penalty, gamma=gamma, m=8, max_iter=500)
        gram_steps = count_calls(monkeypatch, block._Fit, "gram_products")
        sequence = ComponentSequence(A, cfg)
        gram, gram_report = sequence.solve(8)
        assert sequence._data.gram is not None and len(gram_steps) > 20
        monkeypatch.setattr(block, "GRAM_MAX_BYTES", 0)
        gram_steps.clear()
        matrix, matrix_report = solve_multi_sequential(A, cfg)
        assert gram_steps == []
        assert np.array_equal(gram.values != 0, matrix.values != 0)
        for h_gram, h_matrix in zip(gram_report.component_histories,
                                    matrix_report.component_histories):
            assert abs(h_gram[-1] - h_matrix[-1]) <= 1e-12 * abs(h_matrix[-1])

    def test_route_switches_at_the_limit(self, monkeypatch):
        rng = np.random.default_rng(40)
        A = DataMatrix(rng.standard_normal((40, 200)))
        limit = 40 // block.GRAM_DIVISOR
        matvecs = count_calls(monkeypatch, block, "par_matvec_t")
        for k, gram_route in ((limit, True), (limit + 1, False)):
            data = single_unit._Deflated(A)
            step = block._Retraction(data, random_unit(rng, 40), 1.0, 1.0, "l1", 1)
            S = np.zeros(200)
            S[rng.choice(200, k, replace=False)] = 2.0
            matvecs.clear()
            S_new = take_step(step, S, 1.0, "l1")
            # A Gram step reads G and calls no kernel; a matrix step
            # correlates its iterate with A.
            assert (data.gram is not None) == gram_route
            assert len(matvecs) == (0 if gram_route else 1)
            x = step.iterate()
            want = A.values.T @ x
            assert np.linalg.norm(S_new - want) <= 1e-12 * np.linalg.norm(want)

    def test_sparse_step_computes_only_its_uncached_rows(self, monkeypatch):
        rng = np.random.default_rng(42)
        A = DataMatrix(rng.standard_normal((40, 200)))
        data = single_unit._Deflated(A)
        step = block._Retraction(data, random_unit(rng, 40), 1.0, 1.0, "l1", 1)
        matvecs = count_calls(monkeypatch, block, "par_matvec_t")
        first = rng.choice(200, 10, replace=False)
        second = np.concatenate([first[:6], rng.choice(np.setdiff1d(np.arange(200), first),
                                                       4, replace=False)])

        def sparse_step(support):
            S = np.zeros(200)
            S[support] = rng.uniform(2.0, 3.0, support.size)
            S_new = take_step(step, S, 1.0, "l1")
            want = A.values.T @ step.iterate()
            assert np.linalg.norm(S_new - want) <= 1e-12 * np.linalg.norm(want)

        # The first sparse step allocates the cache and fills its rows.
        sparse_step(first)
        assert np.array_equal(np.flatnonzero(data.cached), np.sort(first))
        # The same support again computes no row; one that overlaps it
        # computes only its new rows, in one product.
        writes = log_row_writes(data)
        sparse_step(first)
        assert writes == []
        sparse_step(second)
        assert writes == [sorted(set(second.tolist()) - set(first.tolist()))]
        assert matvecs == []
        cached = np.flatnonzero(data.cached)
        assert np.array_equal(cached, np.union1d(first, second))
        G = A.values.T @ A.values
        assert np.max(np.abs(data.gram[cached] - G[cached])) <= 1e-12 * np.max(np.abs(G))

    def test_grown_sequence_computes_no_row_twice(self):
        # Restarts, refine trials and later solve() calls share one cache.
        A = sparse_factor_matrix()
        cfg = SolverConfig(penalty="l1", gamma=3.0, m=8, restarts=2, refine=True)
        sequence = ComponentSequence(A, cfg)
        writes = log_row_writes(sequence._data)
        for m in (2, 5, 8):
            grown, _ = sequence.solve(m)
        rows = [i for write in writes for i in write]
        assert len(writes) > 1 and len(rows) == len(set(rows))
        assert sorted(rows) == np.flatnonzero(sequence._data.cached).tolist()
        fresh, _ = ComponentSequence(A, cfg).solve(8)
        assert np.array_equal(grown.values, fresh.values)

    def test_dense_sequence_never_builds_gram(self):
        # desk-like: n = 10 p and nearly every column active.
        rng = np.random.default_rng(41)
        A = rng.standard_normal((40, 400))
        sequence = ComponentSequence(A, SolverConfig(penalty="l1", gamma=0.05, m=4))
        loadings, _ = sequence.solve(4)
        assert min(loadings.nnz_per_component()) > 300
        assert sequence._data.gram is None and sequence._data.cached is None

    def test_gram_over_the_byte_cap_is_never_built(self, monkeypatch):
        A = sparse_factor_matrix()
        cfg = SolverConfig(penalty="l1", gamma=3.0, m=3)
        for cap, built in ((8 * 200 * 200 - 1, False), (8 * 200 * 200, True)):
            monkeypatch.setattr(block, "GRAM_MAX_BYTES", cap)
            sequence = ComponentSequence(A, cfg)
            sequence.solve(3)
            assert (sequence._data.gram is not None) == built

    @pytest.mark.parametrize("init", ["max_norm_column", "random_orthonormal"])
    @pytest.mark.parametrize("gram", [True, False], ids=["gram", "matrix"])
    def test_restarts_and_refine_match_explicit_deflation(self, monkeypatch, init, gram):
        A = sparse_factor_matrix()
        cfg = SolverConfig(penalty="l1", gamma=3.0, m=3, restarts=3, refine=True,
                           init=init, seed=5)
        if not gram:
            monkeypatch.setattr(block, "GRAM_MAX_BYTES", 0)
        sequence = ComponentSequence(A, cfg)
        loadings, report = sequence.solve(3)
        assert (sequence._data.gram is not None) == gram
        # The reference deflates explicitly and climbs the deflated copy on
        # the matrix route.
        monkeypatch.setattr(block, "GRAM_MAX_BYTES", 0)
        deflated = A
        for j in range(1, 3):
            deflated = deflate(deflated, sequence._data.X[:, j - 1])
            want, want_report = solve_multi_sequential(deflated, SolverConfig(
                penalty="l1", gamma=3.0, restarts=3, refine=True, init=init, seed=5))
            assert np.max(np.abs(loadings.values[:, j] - want.values[:, 0])) <= 1e-10
            got_history = report.component_histories[j]
            assert len(got_history) == len(want_report.objective_history)
            assert np.allclose(got_history, want_report.objective_history, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("excess", [0.0, 1.0], ids=["zero", "negative"])
    def test_nonpositive_gram_quadratic_takes_the_matrix_route(self, monkeypatch, excess):
        # Column 0 lies in the span of the deflated direction e1, so
        # w'G_l w is 0, or below 0 when c = A'e1 is one ulp too large.  The
        # matrix route then finds the projected gradient exactly zero.
        monkeypatch.setattr(block, "GRAM_DIVISOR", 1)
        A = DataMatrix(np.diag([3.0, 2.0, 1.0]))
        data = single_unit._Deflated(A)
        data.add(np.array([1.0, 0.0, 0.0]), np.array([np.nextafter(3.0, 3.0 + excess), 0, 0]))
        step = block._Retraction(data, np.array([0.0, 1.0, 0.0]), 0.5, 1.0, "l1", 1)
        accumulations = count_calls(monkeypatch, block, "par_threshold_accumulate")
        assert take_step(step, np.array([3.0, 0.0, 0.0]), 0.5, "l1") is None
        assert data.gram is not None and len(accumulations) == 1

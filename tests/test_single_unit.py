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

    @pytest.mark.parametrize("init, restarts, draws", [
        ("max_norm_column", 1, 0), ("max_norm_column", 4, 0), ("max_norm_column", 6, 2),
        ("random_orthonormal", 2, 2)])
    def test_generator_built_only_to_top_up(self, monkeypatch, init, restarts, draws):
        # Four nonzero columns: max_norm_column tops up past four starts.
        rng = np.random.default_rng(21)
        data = single_unit._Deflated(DataMatrix(rng.standard_normal((5, 4))))
        config = SolverConfig(init=init, restarts=restarts, seed=[3, 1])
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: built.append(args) or real(*args))
        starts = single_unit._initial_iterates(data, config)
        assert built == ([(config.seed,)] if draws else [])
        assert len(starts) == restarts
        # A column start names its column and norm; a random one neither.
        for x, (i, norm) in starts[: restarts - draws]:
            assert np.array_equal(x, data.columns(i) / norm)
        want = real(config.seed)
        for x, column in starts[restarts - draws:]:
            v = want.standard_normal(5)
            assert np.array_equal(x, v / np.linalg.norm(v)) and column is None

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


def take_step(step, S):
    # One step as block.climb takes it, with the weights of S.
    return step(*step.weights(S))


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
        data.level = np.full(data.A.n, -1)
    data.gram = data.gram.view(RowWrites)
    data.gram.log = []
    return data.gram.log


class TestImplicitDeflation:
    """Components after the first are solved on (I - XX')A without forming
    it; sparse steps read their correlations from the rows of G = A'A,
    each computed the first time its column is active, a step at a time
    until n // GRAM_BULK_DIVISOR were, then all of G at once."""

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
            S_new = take_step(step, S)
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

        def sparse_step(step, support):
            S = np.zeros(200)
            S[support] = rng.uniform(2.0, 3.0, support.size)
            S_new = take_step(step, S)
            want = A.values.T @ step.iterate()
            assert np.linalg.norm(S_new - want) <= 1e-12 * np.linalg.norm(want)

        # The first sparse step allocates the cache and fills its rows.
        sparse_step(step, first)
        assert np.array_equal(np.flatnonzero(data.level >= 0), np.sort(first))
        # The same support again computes no row; one that overlaps it
        # computes only its new rows, in one product.
        writes = log_row_writes(data)
        sparse_step(step, first)
        assert writes == []
        sparse_step(step, second)
        assert writes == [sorted(set(second.tolist()) - set(first.tolist()))]
        assert matvecs == []
        cached = np.flatnonzero(data.level >= 0)
        assert np.array_equal(cached, np.union1d(first, second))
        assert np.all(data.level[cached] == 0)
        G = A.values.T @ A.values
        assert np.max(np.abs(data.gram[cached] - G[cached])) <= 1e-12 * np.max(np.abs(G))
        # After a deflation, a new climb's rows take the new direction in
        # the cache, in one write and with no product from A.
        x = step.iterate()
        data.add(x, A.values.T @ x)
        step = block._Retraction(data, random_unit(rng, 40), 1.0, 1.0, "l1", 1)
        writes.clear()
        matvecs.clear()
        sparse_step(step, second)
        assert writes == [np.sort(second).tolist()] and matvecs == []
        assert np.all(data.level[second] == 1)
        assert np.all(data.level[np.setdiff1d(first, second)] == 0)
        G_l = G - data.C @ data.C.T
        assert np.max(np.abs(data.gram[second] - G_l[second])) <= 1e-12 * np.max(np.abs(G))

    def test_grown_sequence_computes_no_row_twice(self, monkeypatch):
        # Restarts, refine trials and later solve() calls share one cache.
        # It computes rows a step at a time, A[:, new]'A, until
        # n // GRAM_BULK_DIVISOR = 12 of them were computed; the next step
        # with a new row computes all of G in one product and keeps the
        # rows already cached, with the directions they have taken.  Each
        # row comes from A once and takes each direction of C once, and
        # every block a step reads is G_l at its rows, across the switch.
        A = sparse_factor_matrix()
        cfg = SolverConfig(penalty="l1", gamma=3.0, m=8, restarts=2, refine=True)
        sequence = ComponentSequence(A, cfg)
        data = sequence._data
        bulk_after = data.A.n // block.GRAM_BULK_DIVISOR
        writes = log_row_writes(data)
        singly, bulk, reads = [], [], []
        G = A.T @ A
        scale = np.max(np.abs(G))
        original = block._Fit.gram_rows

        def gram_rows(fit, active):
            before = fit.level.copy()
            computed = np.count_nonzero(before >= 0)
            kept = np.setdiff1d(np.flatnonzero(before >= 0), active)
            kept_rows = np.array(fit.gram[kept])
            writes.clear()
            rows = original(fit, active)
            new = active[before[active] < 0]
            if computed + new.size < np.count_nonzero(fit.level >= 0):
                # All of G, once, when a step meets a new row after
                # bulk_after rows; the cached rows it did not read are kept
                # as they were.
                assert new.size and computed >= bulk_after and not bulk
                bulk.append(computed)
                assert np.array_equal(fit.gram[kept], kept_rows)
                assert np.array_equal(fit.level[kept], before[kept])
                assert np.all(fit.level >= 0)
            elif new.size:
                # Below the bulk point, one product for the new rows.
                assert computed < bulk_after and writes[0] == new.tolist()
                singly.extend(new.tolist())
            C = fit.C
            assert np.all(fit.level[active] == C.shape[1])
            assert np.max(np.abs(rows - (G[active] - C[active] @ C.T))) <= 1e-12 * scale
            # Every cached row is G_l at its own level: a direction taken
            # twice, or not at all, would leave it an order of magnitude off.
            for lev in np.unique(fit.level[fit.level >= 0]):
                at = np.flatnonzero(fit.level == lev)
                want = G[at] - C[at, :lev] @ C[:, :lev].T
                assert np.max(np.abs(fit.gram[at] - want)) <= 1e-12 * scale
            reads.append(bool(bulk))
            return rows

        monkeypatch.setattr(block._Fit, "gram_rows", gram_rows)
        for m in (2, 5, 8):
            grown, _ = sequence.solve(m)
        assert len(singly) == len(set(singly)) >= bulk_after and bulk == [len(singly)]
        assert reads.count(False) > 5 and reads.count(True) > 5
        assert data.C.shape[1] == 8
        monkeypatch.undo()
        fresh, _ = ComponentSequence(A, cfg).solve(8)
        assert np.array_equal(grown.values, fresh.values)

    def test_start_reads_its_cached_row(self, monkeypatch):
        # x0 = a_l,i / ||a_l,i|| gives A_l'x0 = G_l[i] / ||a_l,i||: a climb
        # from a column whose row is cached reads its start there, with no
        # kernel call, and brings the row up to date first; from any other
        # column, or from no column, it correlates by the kernel.
        rng = np.random.default_rng(44)
        A = DataMatrix(sparse_factor_matrix())
        data = single_unit._Deflated(A)
        x, y = np.linalg.qr(rng.standard_normal((A.p, 2)))[0].T
        data.add(x, A.values.T @ x)
        data.gram_rows(np.array([3, 7]))
        data.add(y, A.values.T @ y)
        assert np.array_equal(data.level[[3, 7, 11]], [1, 1, -1])
        deflated = A.values - data.X @ data.C.T
        matvecs = count_calls(monkeypatch, block, "par_matvec_t")
        for i, cached in ((3, True), (11, False)):
            column = data.columns(i)
            norm = np.linalg.norm(column)
            x0 = column / norm
            want = deflated.T @ x0
            for start, kernel in (((i, norm), not cached), (None, True)):
                matvecs.clear()
                step = block._Retraction(data, x0, 3.0, 1.0, "l1", 1, start)
                assert np.linalg.norm(step.start - want) <= 1e-12 * np.linalg.norm(want)
                assert len(matvecs) == kernel
        assert data.level[3] == 2 and data.level[11] == -1

    def test_dense_sequence_never_builds_gram(self):
        # desk-like: n = 10 p and nearly every column active.
        rng = np.random.default_rng(41)
        A = rng.standard_normal((40, 400))
        sequence = ComponentSequence(A, SolverConfig(penalty="l1", gamma=0.05, m=4))
        loadings, _ = sequence.solve(4)
        assert min(loadings.nnz_per_component()) > 300
        assert sequence._data.gram is None and sequence._data.level is None

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
        assert take_step(step, np.array([3.0, 0.0, 0.0])) is None
        assert data.gram is not None and len(accumulations) == 1

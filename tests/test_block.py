import numpy as np
import pytest

import gpspca.block
import gpspca.parallel
from gpspca import (
    DataMatrix,
    RankDeficiencyError,
    SolverConfig,
    ascend,
    ascent_direction,
    objective,
    polar_projection,
    recover_pattern,
    solve_block,
    solve_multi_sequential,
    synthetic_sparse_factors,
)
from gpspca import single_unit
from gpspca.block import climb


# ------------------------------------------------------------------ oracles


def scalar_block_objective(A, X, gamma, mu, penalty):
    """Double loop over components and columns, plain python sums."""
    total = 0.0
    for j in range(X.shape[1]):
        for i in range(A.shape[1]):
            c = float(A[:, i] @ X[:, j]) * mu[j]
            if penalty == "l1":
                t = max(abs(c) - gamma[j], 0.0)
                total += t * t
            else:
                total += max(c * c - gamma[j], 0.0)
    return total


def ambient_central_difference(A, X, gamma, mu, penalty, step=1e-5):
    G = np.zeros_like(X)
    for j in range(X.shape[1]):
        for k in range(X.shape[0]):
            up = X.copy()
            up[k, j] += step
            down = X.copy()
            down[k, j] -= step
            G[k, j] = (
                scalar_block_objective(A, up, gamma, mu, penalty)
                - scalar_block_objective(A, down, gamma, mu, penalty)
            ) / (2 * step)
    return G


def random_stiefel(rng, p, m):
    Q, R = np.linalg.qr(rng.standard_normal((p, m)))
    return Q * np.sign(np.diagonal(R))


def block_near_kink(A, X, gamma, mu, penalty, window=1e-4):
    C = A.T @ X
    for j in range(X.shape[1]):
        c = mu[j] * C[:, j]
        if penalty == "l1":
            if np.any(np.abs(np.abs(c) - gamma[j]) < window) or np.any(np.abs(c) < window):
                return True
        elif np.any(np.abs(c * c - gamma[j]) < window):
            return True
    return False


# --------------------------------------------------------------- objectives


class TestBlockObjectives:
    def test_bl1_identity_examples(self):
        A, X = np.eye(2), np.eye(2)
        assert objective(A, X, (0.0, 0.0), "l1", (1.0, 1.0)) == pytest.approx(2.0)
        assert objective(A, X, (0.5, 0.5), "l1", (1.0, 1.0)) == pytest.approx(0.5)

    def test_bl0_identity_examples(self):
        A, X = np.eye(2), np.eye(2)
        assert objective(A, X, (0.0, 0.0), "l0", (1.0, 1.0)) == pytest.approx(2.0)
        assert objective(A, X, (2.0, 2.0), "l0", (1.0, 1.0)) == 0.0

    # The ids name the block variant each case exercises.
    @pytest.mark.parametrize(
        "penalty", ["l1", "l0"], ids=["l1-objective_bl1", "l0-objective_bl0"]
    )
    def test_matches_double_loop(self, penalty):
        rng = np.random.default_rng(30)
        for _ in range(20):
            A = rng.standard_normal((3, 5))
            X = random_stiefel(rng, 3, 2)
            gamma = rng.uniform(0.0, 0.5, size=2)
            mu = rng.uniform(0.5, 1.5, size=2)
            assert objective(A, X, gamma, penalty, mu) == pytest.approx(
                scalar_block_objective(A, X, gamma, mu, penalty), rel=1e-12, abs=1e-12
            )

    def test_rejects_off_manifold(self):
        with pytest.raises(ValueError):
            objective(np.eye(2), np.ones((2, 2)), (0.0, 0.0), "l1", (1.0, 1.0))

    def test_mu_scaling_coherence_l1(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((4, 6))
        X = random_stiefel(rng, 4, 2)
        gamma = np.array([0.1, 0.3])
        mu = np.array([1.0, 0.7])
        c = 1.7
        assert objective(A, X, c * gamma, "l1", c * mu) == pytest.approx(
            c * c * objective(A, X, gamma, "l1", mu), rel=1e-10
        )


# ---------------------------------------------------------------- gradients


class TestBlockAscentDirection:
    def test_m_one_equals_single_unit_exactly(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((4, 7))
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        for penalty in ("l1", "l0"):
            G = ascent_direction(A, x[:, None], (0.2,), penalty, (1.0,))
            assert np.array_equal(G[:, 0], ascent_direction(A, x, 0.2, penalty))

    def test_identity_example(self):
        G = ascent_direction(np.eye(2), np.eye(2), (0.0, 0.0), "l1", (1.0, 1.0))
        assert np.allclose(G, 2.0 * np.eye(2))

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_matches_ambient_finite_differences(self, penalty):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 10:
            A = rng.standard_normal((4, 6))
            X = random_stiefel(rng, 4, 2)
            gamma = rng.uniform(0.05, 0.4, size=2)
            mu = rng.uniform(0.6, 1.4, size=2)
            if block_near_kink(A, X, gamma, mu, penalty):
                continue
            got = ascent_direction(A, X, gamma, penalty, mu)
            want = ambient_central_difference(A, X, gamma, mu, penalty)
            assert np.allclose(got, want, atol=1e-6)
            checked += 1


# ------------------------------------------------------------------- polar


class TestPolarProjection:
    def test_orthonormal_input_is_fixed(self):
        rng = np.random.default_rng(34)
        Q = random_stiefel(rng, 5, 3)
        assert np.allclose(polar_projection(Q), Q, atol=1e-12)

    def test_positive_diagonal(self):
        G = np.zeros((4, 2))
        G[0, 0], G[1, 1] = 3.0, 2.0
        assert np.allclose(polar_projection(G), np.eye(4)[:, :2], atol=1e-12)

    def test_maximizes_trace_against_random_stiefel(self):
        rng = np.random.default_rng(35)
        G = rng.standard_normal((6, 3))
        X = polar_projection(G)
        best = np.trace(X.T @ G)
        for _ in range(10_000):
            Y = random_stiefel(rng, 6, 3)
            assert best >= np.trace(Y.T @ G) - 1e-10

    def test_feasible_to_tight_tolerance(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            G = rng.standard_normal((7, 3))
            X = polar_projection(G)
            assert np.linalg.norm(X.T @ X - np.eye(3)) <= 1e-10

    def test_rank_deficient_raises_with_rank(self):
        G = np.zeros((4, 2))
        G[:, 0] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(RankDeficiencyError) as err:
            polar_projection(G)
        assert err.value.rank == 1 and err.value.required == 2


# ------------------------------------------------------------------- solves


class TestSolveBlock:
    def test_m_one_matches_single_unit(self):
        rng = np.random.default_rng(37)
        A = rng.standard_normal((5, 8))
        for penalty in ("l1", "l0"):
            cfg = SolverConfig(penalty=penalty, m=1, gamma=0.2, tol=1e-12)
            zb, rb = solve_block(A, cfg)
            zs, rs = solve_multi_sequential(A, cfg)
            assert abs(rb.objective_history[-1] - rs.objective_history[-1]) <= 1e-8
            diff = min(
                np.abs(zb.values[:, 0] - zs.values[:, 0]).max(),
                np.abs(zb.values[:, 0] + zs.values[:, 0]).max(),
            )
            assert diff <= 1e-6

    def test_gamma_zero_distinct_mu_aligns_axes(self):
        A = np.diag([3.0, 2.0, 1.0])
        cfg = SolverConfig(
            penalty="l1", m=2, gamma=0.0, mu=(1.0, 0.5),
            init="random_orthonormal", seed=3, tol=1e-14, max_iter=20000,
        )
        loadings, _ = solve_block(A, cfg)
        assert abs(loadings.values[0, 0]) >= 1 - 1e-6
        assert abs(loadings.values[1, 1]) >= 1 - 1e-6

    def test_symmetric_instance_objective_three(self):
        cfg = SolverConfig(
            penalty="l1", m=3, gamma=0.0, init="random_orthonormal",
            seed=0, tol=1e-12,
        )
        _, report = solve_block(np.eye(3), cfg)
        assert report.objective_history[-1] == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_monotone_history(self, penalty):
        rng = np.random.default_rng(38)
        for _ in range(100):
            p = int(rng.integers(3, 8))
            A = rng.standard_normal((p, int(rng.integers(3, 12))))
            cfg = SolverConfig(
                penalty=penalty, m=2, gamma=float(rng.uniform(0, 0.3)),
                init="random_orthonormal", seed=int(rng.integers(1 << 16)),
            )
            try:
                _, report = solve_block(A, cfg)
                history = report.objective_history
            except RankDeficiencyError as err:
                history = err.history
            assert np.all(np.diff(history) >= -1e-12)

    def test_permutation_equivariance(self):
        # Both climbs start from the same given point, permuted.
        rng = np.random.default_rng(39)
        A = DataMatrix(rng.standard_normal((5, 9)))
        X0 = random_stiefel(rng, 5, 3)
        gamma = np.array([0.05, 0.1, 0.2])
        mu = np.array([1.0, 0.8, 0.6])
        perm = [2, 0, 1]
        X, _, _, _ = ascend(A, X0, gamma, mu, "l1", 1e-12, 5000)
        X_p, _, _, _ = ascend(A, X0[:, perm], gamma[perm], mu[perm], "l1", 1e-12, 5000)
        Z = recover_pattern(A, X, gamma, "l1", mu)
        Z_p = recover_pattern(A, X_p, gamma[perm], "l1", mu[perm])
        assert np.allclose(Z_p, Z[:, perm], atol=1e-10)

    def test_off_stiefel_start_rejected(self):
        rng = np.random.default_rng(41)
        A = DataMatrix(rng.standard_normal((5, 9)))
        X0 = random_stiefel(rng, 5, 3)
        X0[:, 2] = X0[:, 0]
        with pytest.raises(ValueError, match="Stiefel"):
            ascend(A, X0, np.full(3, 0.1), np.ones(3), "l1", 1e-6, 100)

    def test_rank_collapse_carries_iteration(self):
        A = np.diag([3.0, 0.1])
        cfg = SolverConfig(
            penalty="l0", m=2, gamma=0.5,
            init="random_orthonormal", seed=1, max_iter=500,
        )
        with pytest.raises(RankDeficiencyError) as err:
            solve_block(A, cfg)
        assert err.value.iteration is not None
        assert err.value.rank < 2

    def test_all_zero_gradient_raises_at_first_iteration(self):
        cfg = SolverConfig(
            penalty="l1", m=2, gamma=10.0, init="random_orthonormal",
        )
        with pytest.raises(RankDeficiencyError) as err:
            solve_block(np.eye(3), cfg)
        assert err.value.iteration == 0 and err.value.rank == 0
        assert err.value.history == [0.0]

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            solve_block(np.eye(3), SolverConfig(m=4))

    def test_max_norm_column_init(self):
        rng = np.random.default_rng(40)
        A = rng.standard_normal((6, 10))
        cfg = SolverConfig(
            penalty="l1", m=2, gamma=0.05, init="max_norm_column",
        )
        loadings, report = solve_block(A, cfg)
        assert loadings.values.shape == (10, 2)
        assert report.converged


class TestThresholdOncePerIterate:
    """A climb thresholds each iterate's correlations once, for both the
    objective and the step; the accumulation kernel takes those weights
    and thresholds nothing itself."""

    STEPS = 6

    @pytest.fixture
    def thresholds(self, monkeypatch):
        calls = {"block": 0, "parallel": 0}
        for name, module in (("block", gpspca.block), ("parallel", gpspca.parallel)):
            def counting(*args, _name=name, _original=module.threshold_weights):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, "threshold_weights", counting)
        return calls

    @pytest.mark.parametrize("m", [1, 3], ids=["vector", "block"])
    def test_matrix_route(self, thresholds, m):
        rng = np.random.default_rng(41)
        A = DataMatrix(rng.standard_normal((20, 120)))
        X = random_stiefel(rng, 20, m)
        X, gamma = (X[:, 0], 0.3) if m == 1 else (X, np.full(m, 0.3))
        # tol 0: every one of the steps runs.
        _, _, history, converged = ascend(A, X, gamma, 1.0, "l1", 0.0, self.STEPS)
        assert len(history) == self.STEPS + 1 and not converged
        assert thresholds == {"block": self.STEPS + 1, "parallel": 0}

    def test_gram_route(self, thresholds, monkeypatch):
        # Sparse single-unit steps on 40 x 200 data: at gamma 3 most have
        # at most p // 4 = 10 active columns and read rows of A'A; the
        # climb's last iterate is then formed from the weights it kept.
        ds = synthetic_sparse_factors(n_classes=8, per_class=5, n_features=200,
                                      n_factors=5, support_size=5, seed=3)
        data = single_unit._Deflated(DataMatrix(ds.samples - ds.samples.mean(axis=0)))
        data.gram_due = 0
        routes = {"gram": 0, "matrix": 0}
        for route, owner, name in (("gram", single_unit._Deflated, "gram_correlations"),
                                   ("matrix", gpspca.block, "par_threshold_accumulate")):
            def counting(*args, _route=route, _original=getattr(owner, name)):
                routes[_route] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)
        i = int(np.argmax(data.norms))
        x0 = data.columns(i) / data.norms[i]
        _, _, history, converged = climb(single_unit._Step(data, x0, 1), 3.0, "l1", 0.0,
                                         self.STEPS)
        assert len(history) == self.STEPS + 1 and not converged
        assert routes["gram"] > 0 and routes["matrix"] > 0
        assert thresholds == {"block": self.STEPS + 1, "parallel": 0}

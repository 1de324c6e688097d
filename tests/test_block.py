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
from gpspca.parallel import threshold_weights


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


def dense_weights(n, active, w):
    """All n weights of a step's (active, w); active None means w has them."""
    if active is None:
        return w
    W = np.zeros((n,) + w.shape[1:])
    W[active] = w
    return W


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
    """A climb thresholds each iterate's correlations once
    (_Retraction.weights), for both the objective and the step, in at most
    one full-length threshold_weights call; the accumulation kernel takes
    those weights and thresholds nothing itself."""

    STEPS = 6

    @pytest.fixture
    def thresholds(self, monkeypatch):
        # The threshold_weights calls of each weights() call, and those of
        # the kernels.
        calls = {"weights": [], "parallel": 0}
        threshold, weights = gpspca.block.threshold_weights, gpspca.block._Retraction.weights

        def counting(*args):
            calls["weights"][-1] += 1
            return threshold(*args)

        def parallel(*args, _original=gpspca.parallel.threshold_weights):
            calls["parallel"] += 1
            return _original(*args)

        def weighing(step, S):
            calls["weights"].append(0)
            return weights(step, S)

        monkeypatch.setattr(gpspca.block, "threshold_weights", counting)
        monkeypatch.setattr(gpspca.parallel, "threshold_weights", parallel)
        monkeypatch.setattr(gpspca.block._Retraction, "weights", weighing)
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
        assert thresholds == {"weights": [1] * (self.STEPS + 1), "parallel": 0}

    def test_gram_route(self, thresholds, monkeypatch):
        # Sparse single-unit steps on 40 x 200 data: at gamma 3 most have
        # at most p // 4 = 10 active columns and read rows of A'A; the
        # climb's last iterate is then formed from the weights it kept.
        # A sparse vector's weights take no full-length threshold.
        ds = synthetic_sparse_factors(n_classes=8, per_class=5, n_features=200,
                                      n_factors=5, support_size=5, seed=3)
        data = single_unit._Deflated(DataMatrix(ds.samples - ds.samples.mean(axis=0)))
        routes = {"gram": 0, "matrix": 0}
        for route, owner, name in (("gram", gpspca.block._Fit, "gram_products"),
                                   ("matrix", gpspca.block, "par_threshold_accumulate")):
            def counting(*args, _route=route, _original=getattr(owner, name)):
                routes[_route] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)
        i = int(np.argmax(data.norms))
        x0 = data.columns(i) / data.norms[i]
        _, _, history, converged = climb(data, x0, 3.0, 1.0, "l1", 0.0, self.STEPS, 1)
        assert len(history) == self.STEPS + 1 and not converged
        assert routes["gram"] > 0 and routes["matrix"] > 0
        assert len(thresholds["weights"]) == self.STEPS + 1
        assert thresholds["weights"].count(0) >= routes["gram"]
        assert max(thresholds["weights"]) <= 1 and thresholds["parallel"] == 0


class TestSampleGramRoute:
    """A dense step may read its gradient as A W = mu K X - A R, from
    K = A A' and the residual R = S - W updated on the rows where it
    moved; every such step must agree with the accumulation kernel."""

    GAMMA = {"l1": 0.02, "l0": 0.0004}

    @pytest.fixture(autouse=True)
    def route_at_any_size(self, monkeypatch):
        # The 40 x 800 test matrix fits in cache, where the route does not
        # pay; on it a step may take the route with up to 800 // 4 - 40 = 160
        # moved rows, once the fit has taken 40 // 8 = 5 matrix steps, until
        # 5 of its steps could not.
        monkeypatch.setattr(gpspca.block, "ROUTE_MIN_BYTES", 0)

    @pytest.fixture
    def checked(self, monkeypatch):
        # Compares every gradient a step forms with the kernel on the same
        # weights, and counts the steps that ran the kernel themselves.
        log = {"steps": 0, "kernel": 0, "worst": 0.0}
        original = gpspca.block._Retraction._accumulate
        kernel = gpspca.parallel.par_threshold_accumulate

        def accumulate(step, active, w):
            got = original(step, active, w)
            want = kernel(step.A, dense_weights(step.A.n, active, w))
            log["steps"] += 1
            log["worst"] = max(log["worst"], np.linalg.norm(got - want) / np.linalg.norm(want))
            return got

        def counting(*args):
            log["kernel"] += 1
            return kernel(*args)

        monkeypatch.setattr(gpspca.block._Retraction, "_accumulate", accumulate)
        monkeypatch.setattr(gpspca.block, "par_threshold_accumulate", counting)
        return log

    @pytest.fixture
    def builds(self, monkeypatch):
        # Each _Fit that built its K.
        built = []
        original = gpspca.block._Fit.sample_gram

        def sample_gram(fit):
            if fit.K is None:
                built.append(fit)
            return original(fit)

        monkeypatch.setattr(gpspca.block._Fit, "sample_gram", sample_gram)
        return built

    @staticmethod
    def data(seed=50):
        return DataMatrix(np.random.default_rng(seed).standard_normal((40, 800)))

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    @pytest.mark.parametrize("m", [1, 3], ids=["vector", "block"])
    def test_ascend_matches_kernel(self, checked, builds, penalty, m):
        A = self.data()
        X = random_stiefel(np.random.default_rng(51), 40, m)
        gamma = self.GAMMA[penalty]
        X, gamma = (X[:, 0], gamma) if m == 1 else (X, np.full(m, gamma))
        _, _, history, _ = ascend(A, X, gamma, 1.0, penalty, 0.0, 30)
        assert checked["steps"] == len(history) - 1 == 30
        assert checked["worst"] <= 1e-12
        # The first five steps keep no state and the sixth keeps only its
        # residual; the seventh builds K and takes the route.  A vector's
        # later steps all take it; a block's moved rows are the union over
        # its columns, so some of its steps run the kernel.
        assert len(builds) == 1
        assert checked["kernel"] == 6 if m == 1 else 6 <= checked["kernel"] <= 12

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_sequence_with_earlier_directions_matches_kernel(self, checked, builds, penalty,
                                                              monkeypatch):
        # Moved rows gathered three at a time.
        monkeypatch.setattr(gpspca.parallel, "GATHER_BYTES", 8 * 40 * 3)
        config = SolverConfig(penalty=penalty, m=3, gamma=self.GAMMA[penalty], tol=1e-300,
                              max_iter=25)
        _, report = solve_multi_sequential(self.data(), config)
        assert checked["steps"] == report.iterations == 75
        assert checked["worst"] <= 1e-12
        # One K for the whole sequence: components 2 and 3 run the kernel
        # only on their first step, which has no earlier residual, then
        # take the route.
        assert len(builds) == 1 and checked["kernel"] == 6 + 1 + 1

    def test_sequence_crossing_gram_steps_matches_kernel(self, checked, monkeypatch):
        # Force Gram-route steps on a fixed schedule.  A Gram step leaves
        # the iterate unformed, so the next matrix step has no correlations
        # for the route and runs the kernel, as does the one after it,
        # which only recovers A R.
        schedule = {10, 11, 17}
        taken = []

        def gram_step(step, active, w):
            taken.append(len(taken))
            if taken[-1] not in schedule:
                return None
            # Past the gate: every active row counts as sparse.
            W = dense_weights(step.A.n, active, w)
            step.fit.gram_limit = len(W)
            active = np.flatnonzero(W)
            return original(step, active, W[active])

        original = gpspca.block._Retraction._gram_step
        monkeypatch.setattr(gpspca.block._Retraction, "_gram_step", gram_step)
        data = single_unit._Deflated(self.data())
        x0 = data.columns(0) / data.norms[0]
        gamma = self.GAMMA["l1"]
        _, _, history, _ = climb(data, x0, gamma, 1.0, "l1", 0.0, 30, 1)
        assert len(history) == 31
        # 27 matrix steps; the last step is one, so the iterate is formed.
        assert checked["steps"] == 27 and checked["worst"] <= 1e-12
        # Six kernel calls as in test_ascend_matches_kernel, then the
        # route until step 10.  Steps 12, 13 and 18, 19 run the kernel.
        assert checked["kernel"] == 6 + 2 + 2

    @pytest.mark.parametrize("m", [1, 3], ids=["vector", "block"])
    def test_all_zero_weight_column_gives_zero_gradient(self, monkeypatch, m):
        A = self.data()
        X = random_stiefel(np.random.default_rng(52), 40, m)
        gamma = self.GAMMA["l1"] if m == 1 else np.full(m, self.GAMMA["l1"])
        fit = gpspca.block._Fit(A)
        fit.due = 0
        step = gpspca.block._Retraction(fit, X[:, 0] if m == 1 else X, gamma, 1.0, "l1", 1)
        S = step.start
        for _ in range(10):
            S = step(*step.weights(S))
        assert fit.K is not None and step.AR is not None
        gradients = []
        polar = gpspca.block.polar_projection
        monkeypatch.setattr(gpspca.block, "polar_projection",
                            lambda G: gradients.append(G) or polar(G))
        active, W = step.weights(S)
        assert active is None
        if m == 1:
            assert step(None, np.zeros_like(W)) is None
        else:
            W[:, 1] = 0.0
            with pytest.raises(RankDeficiencyError):
                step(None, W)
            assert np.all(gradients[0][:, 1] == 0.0)

    def test_workers_bitwise(self, monkeypatch):
        # Chunks of 32 columns, so two workers split every kernel call.
        monkeypatch.setattr(gpspca.parallel, "GEMM_BUDGET", 0)
        A = self.data()
        for variant in (solve_multi_sequential, solve_block):
            runs = []
            for workers in (1, 2):
                config = SolverConfig(m=3, gamma=self.GAMMA["l1"], tol=1e-300, max_iter=20,
                                      init="random_orthonormal")
                loadings, report = variant(A, config, workers)
                runs.append((loadings.values.tobytes(), report.component_histories))
            assert runs[0] == runs[1]

    def test_fit_whose_steps_cannot_take_the_route_stops_tracking(self, monkeypatch, builds):
        residuals = []
        original = gpspca.block.threshold_residual
        monkeypatch.setattr(gpspca.block, "threshold_residual",
                            lambda *args: residuals.append(1) or original(*args))
        # At gamma 0.5 about a third of each column is inactive, so the
        # residual moves on far more than 160 rows at every step.
        X = random_stiefel(np.random.default_rng(54), 40, 3)
        ascend(self.data(), X, np.full(3, 0.5), 1.0, "l1", 0.0, 30)
        # Steps 6 to 11 keep the residual: the first has no earlier one to
        # compare, the next five could not take the route.
        assert len(residuals) == 6 and builds == []

    def test_no_route_no_k(self, checked, builds):
        # A sparse sequence: most columns inactive, so the residual moves
        # on nearly every row and no step could take the route.
        ds = synthetic_sparse_factors(n_classes=8, per_class=5, n_features=200,
                                      n_factors=5, support_size=5, seed=3)
        A = DataMatrix(ds.samples - ds.samples.mean(axis=0))
        solve_multi_sequential(A, SolverConfig(m=3, gamma=3.0, max_iter=50))
        assert builds == []
        # A dense climb that stops before it could take the route: the first
        # five steps keep no state, the sixth only its residual.
        checked.update(steps=0, kernel=0)
        x0 = random_stiefel(np.random.default_rng(53), 40, 1)[:, 0]
        ascend(self.data(), x0, self.GAMMA["l1"], 1.0, "l1", 0.0, 6)
        assert builds == [] and checked["kernel"] == checked["steps"] == 6
        # A matrix that fits in cache never takes the route.
        gpspca.block.ROUTE_MIN_BYTES = 8 * 40 * 800 + 1
        checked.update(steps=0, kernel=0)
        ascend(self.data(), x0, self.GAMMA["l1"], 1.0, "l1", 0.0, 30)
        assert builds == [] and checked["kernel"] == checked["steps"] == 30


class TestGramRowsRoute:
    """A sparse block step reads its correlations from cached rows of
    G = A'A: with P = G[:, act] W_act and D = diag(2 mu), S = mu P D M^{-1/2}
    for M = D W_act' P[act] D, which must equal mu A' polar(2 mu A W)."""

    @staticmethod
    def data():
        # 160 x 400 samples of five sparse factors: at l1 gamma 3 and l0
        # gamma 9 every block step has at most p // 4 = 40 active rows.
        ds = synthetic_sparse_factors(n_classes=20, per_class=8, n_features=400, n_factors=5,
                                      support_size=5, seed=3)
        return DataMatrix(ds.samples - ds.samples.mean(axis=0))

    @pytest.fixture
    def routes(self, monkeypatch):
        # Checks every sparse step against the matrix form, and counts the
        # steps that took the route and those that did not.
        log = {"gram": 0, "matrix": 0, "worst": 0.0}
        original = gpspca.block._Retraction._gram_step

        def gram_step(step, active, w):
            S = original(step, active, w)
            if S is None:
                log["matrix"] += 1
                return None
            A = step.A.values
            W = dense_weights(step.A.n, active, w)
            want = step.mu * (A.T @ polar_projection((2.0 * step.mu) * (A @ W)))
            log["gram"] += 1
            log["worst"] = max(log["worst"], np.linalg.norm(S - want) / np.linalg.norm(want))
            return S

        monkeypatch.setattr(gpspca.block._Retraction, "_gram_step", gram_step)
        return log

    @pytest.mark.parametrize("penalty, gamma", [("l1", 3.0), ("l0", 9.0)],
                             ids=["bl1", "bl0"])
    @pytest.mark.parametrize("m", [3, 5])
    def test_every_step_matches_polar_factor(self, routes, penalty, gamma, m):
        config = SolverConfig(penalty=penalty, m=m, gamma=gamma, mu=np.linspace(0.8, 1.2, m),
                              max_iter=200, init="random_orthonormal", seed=1)
        _, report = solve_block(self.data(), config)
        assert routes["gram"] == report.iterations > 10 and routes["matrix"] == 0
        assert routes["worst"] <= 1e-12

    def test_nearly_parallel_columns_take_the_matrix_step(self, monkeypatch):
        # M squares the gradient's condition number: columns a relative
        # 1e-6 apart leave it near 1e12, far above 1 / sqrt(eps), though its
        # eigenvalues are still positive.  The guard hands such a step to
        # the polar factor.
        A = self.data()
        rng = np.random.default_rng(60)
        fit = gpspca.block._Fit(A)
        step = gpspca.block._Retraction(fit, random_stiefel(rng, A.p, 2), np.full(2, 3.0),
                                        np.ones(2), "l1", 1)
        rows = np.sort(rng.choice(A.n, 10, replace=False))
        w = np.empty((rows.size, 2))
        w[:, 0] = rng.uniform(1.0, 2.0, rows.size)
        w[:, 1] = w[:, 0] * (1.0 + 1e-6 * rng.standard_normal(rows.size))
        assert step._gram_step(rows, w) is None
        kernels = []
        kernel = gpspca.parallel.par_threshold_accumulate
        monkeypatch.setattr(gpspca.block, "par_threshold_accumulate",
                            lambda *args: kernels.append(1) or kernel(*args))
        S = step(rows, w)
        assert len(kernels) == 1
        assert np.array_equal(S, np.ones(2) * gpspca.parallel.par_matvec_t(A, step.iterate()))
        # Independent columns on the same rows take the route.
        w[:, 1] = rng.uniform(1.0, 2.0, rows.size)
        assert step._gram_step(rows, w) is not None

    @pytest.mark.parametrize("iteration", [0, 6])
    def test_all_zero_column_raises_where_matrix_steps_do(self, monkeypatch, iteration):
        # From the given iteration on, the third weight column is zeroed:
        # the route leaves that step to the polar factor, which finds the
        # gradient rank deficient at the same iteration as a fit whose
        # steps all run the kernels.
        original = gpspca.block.threshold_weights

        def thresholds(S, gamma, penalty):
            W = original(S, gamma, penalty)
            calls.append(1)
            if len(calls) > iteration:
                W[:, 2] = 0.0
            return W

        monkeypatch.setattr(gpspca.block, "threshold_weights", thresholds)
        config = SolverConfig(penalty="l1", m=3, gamma=3.0, max_iter=200,
                              init="random_orthonormal", seed=1)
        raised = []
        for cap in (gpspca.block.GRAM_MAX_BYTES, 0):
            monkeypatch.setattr(gpspca.block, "GRAM_MAX_BYTES", cap)
            calls = []
            with pytest.raises(RankDeficiencyError) as err:
                solve_block(self.data(), config)
            raised.append((err.value.iteration, err.value.rank, err.value.history))
        (got_at, got_rank, got), (want_at, want_rank, want) = raised
        assert got_at == want_at == iteration and got_rank == want_rank == 2
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_workers_bitwise(self, monkeypatch, routes):
        # Chunks of 32 columns, so two and three workers split every kernel
        # call; the rows of G are computed without the engine.
        monkeypatch.setattr(gpspca.parallel, "GEMM_BUDGET", 0)
        runs = []
        for workers in (1, 2, 3):
            config = SolverConfig(penalty="l1", m=5, gamma=3.0, max_iter=200,
                                  init="random_orthonormal", seed=1)
            loadings, report = solve_block(self.data(), config, workers)
            runs.append((loadings.values.tobytes(), report.component_histories))
        assert routes["gram"] > 20
        assert runs[0] == runs[1] == runs[2]


class TestOneScanPerStep:
    """Each iterate's active rows are found once, by _Retraction.weights:
    for a block by one _active_columns scan, for a vector without one, at
    the larger of the rows source's limit, p // GRAM_DIVISOR, and the
    kernel's, n // GATHER_DIVISOR.  The step, the rows source and the
    accumulation kernel all take that set and scan nothing themselves."""

    @staticmethod
    def sparse_data(n_classes, per_class, n_features):
        ds = synthetic_sparse_factors(n_classes=n_classes, per_class=per_class,
                                      n_features=n_features, n_factors=5, support_size=10,
                                      seed=3)
        return DataMatrix(ds.samples - ds.samples.mean(axis=0))

    @pytest.mark.parametrize("case", ["dense-block", "sparse-sequence", "sparse-block"])
    def test_each_step_scans_once(self, monkeypatch, case):
        assert not hasattr(gpspca.parallel, "_active_columns")
        log = {"climbs": 0, "steps": 0, "moved": 0, "weights": 0, "scans": 0, "in_step": 0}
        Step = gpspca.block._Retraction
        init, call, weights = Step.__init__, Step.__call__, Step.weights
        scan = gpspca.block._active_columns

        def counting_init(step, *args):
            log["climbs"] += 1
            init(step, *args)

        def counting_call(step, active, w):
            scans = log["scans"]
            S = call(step, active, w)
            log["steps"] += 1
            log["moved"] += S is not None
            log["in_step"] += log["scans"] - scans
            return S

        def counting_weights(step, S):
            log["weights"] += 1
            return weights(step, S)

        def counting_scan(W, limit):
            log["scans"] += 1
            return scan(W, limit)

        monkeypatch.setattr(Step, "__init__", counting_init)
        monkeypatch.setattr(Step, "__call__", counting_call)
        monkeypatch.setattr(Step, "weights", counting_weights)
        monkeypatch.setattr(gpspca.block, "_active_columns", counting_scan)
        if case == "dense-block":
            # Past its first 25 steps the fit may take the route from A A'.
            A = DataMatrix(np.random.default_rng(70).standard_normal((200, 2000)))
            config = SolverConfig(penalty="l1", m=3, gamma=0.01, tol=1e-300, max_iter=40,
                                  init="random_orthonormal", seed=1)
            solve_block(A, config)
        elif case == "sparse-sequence":
            config = SolverConfig(penalty="l1", m=5, gamma=3.0, max_iter=200)
            solve_multi_sequential(self.sparse_data(20, 20, 1000), config)
        else:
            config = SolverConfig(penalty="l0", m=5, gamma=9.0, max_iter=200,
                                  init="random_orthonormal", seed=1)
            solve_block(self.sparse_data(20, 8, 400), config)
        # One weights() per iterate: each climb's start and each step that
        # moved the iterate.
        assert log["steps"] > 20 and log["weights"] == log["climbs"] + log["moved"]
        assert log["in_step"] == 0
        assert log["scans"] == (0 if case == "sparse-sequence" else log["weights"])

    def test_tall_matrix_rows_source_above_the_kernel_limit(self, monkeypatch):
        # 300 x 120: a step takes the rows of A'A with up to p // 4 = 75
        # active rows, while the kernel sums the active columns alone only
        # up to n // 4 = 30.  Steps between the two read rows of A'A; the
        # iterate formed at the end of the climb from such weights sums all
        # n columns in the chunk engine.
        A = self.sparse_data(30, 10, 120)
        n, p = A.n, A.p
        gram, kernel, gathered = [], [], []
        original = gpspca.block._Retraction._gram_step
        accumulate, gather = gpspca.block.par_threshold_accumulate, gpspca.parallel._gathered_product

        def gram_step(step, active, w):
            S = original(step, active, w)
            gram.append((None if active is None else active.size, S is not None))
            return S

        def counting(A, W, workers, active):
            kernel.append(active)
            return accumulate(A, W, workers, active)

        monkeypatch.setattr(gpspca.block._Retraction, "_gram_step", gram_step)
        monkeypatch.setattr(gpspca.block, "par_threshold_accumulate", counting)
        monkeypatch.setattr(gpspca.parallel, "_gathered_product",
                            lambda *args: gathered.append(1) or gather(*args))
        config = SolverConfig(penalty="l1", m=3, gamma=3.0, max_iter=200,
                              init="random_orthonormal", seed=1)
        _, report = solve_block(A, config)
        between = [taken for k, taken in gram if k is not None and n // 4 < k <= p // 4]
        assert len(between) > 10 and all(between)
        assert len(gram) == report.iterations and all(taken for _, taken in gram)
        assert gram[-1][0] > n // 4
        assert kernel == [None] and gathered == []


class TestKeptDeflatedRows:
    """A sparse step reads G_l[act] = G[act] - C[act] C' (C = A'X for the
    earlier directions X of a sequence) from the fit's one cache of
    deflated rows: a climb gathers the block when its active rows change,
    reuses it while they repeat, and never carries it into another climb."""

    @staticmethod
    def recog_data():
        # Recognition-shaped: 400 training rows x 1000 features.
        ds = synthetic_sparse_factors(n_classes=20, per_class=20, n_features=1000,
                                      n_factors=10, support_size=10, seed=1000)
        return DataMatrix(ds.samples - ds.samples.mean(axis=0))

    @staticmethod
    def fresh_rows(fit, active):
        # G_l[active] computed from A.
        values = fit.A.values
        return values[:, active].T @ values - fit.C[active] @ fit.C.T

    @classmethod
    def unkept(cls, monkeypatch):
        # Every rows step computes its block from A, as if there were
        # neither a cache nor a kept block; returns the list of such steps.
        steps = []
        monkeypatch.setattr(gpspca.block._Retraction, "_gram_rows",
                            lambda step, active: steps.append(1)
                            or cls.fresh_rows(step.fit, active))
        return steps

    @classmethod
    def checked_blocks(cls, monkeypatch):
        # Checks every block a rows step reads against the one computed from
        # A, and logs whether the step reused the last step's block and
        # whether its climb had a block before it.
        log = {"reused": 0, "gathered": 0, "worst": 0.0, "firsts": {}}
        original = gpspca.block._Retraction._gram_rows

        def gram_rows(step, active):
            kept = step.kept
            rows = original(step, active)
            log["firsts"].setdefault(id(step), (step, kept is None))
            log["reused" if kept is not None and step.kept is kept else "gathered"] += 1
            want = cls.fresh_rows(step.fit, active)
            log["worst"] = max(log["worst"], np.abs(rows - want).max() / np.abs(want).max())
            return rows

        monkeypatch.setattr(gpspca.block._Retraction, "_gram_rows", gram_rows)
        return log

    def test_steady_steps_match_unkept_products(self, monkeypatch):
        # The later, sparser components of this sequence hold their rows:
        # most steps reuse the last block, and every block read, reused or
        # gathered from the cache, is G_l at its rows.
        log = self.checked_blocks(monkeypatch)
        config = SolverConfig(penalty="l1", m=20, gamma=3.0, max_iter=200)
        solve_multi_sequential(self.recog_data(), config)
        assert log["reused"] > 2 * log["gathered"] > 0
        assert log["worst"] <= 1e-12

    def test_gathered_on_a_change_and_reused_on_a_repeat(self, monkeypatch):
        rng = np.random.default_rng(80)
        A = DataMatrix(rng.standard_normal((40, 200)))
        fit = single_unit._Deflated(A)
        x, y = random_stiefel(rng, 40, 2).T
        fit.add(x, A.values.T @ x)
        gathered, passed = [], []
        rows, products = gpspca.block._Fit.gram_rows, gpspca.block._Fit.gram_products
        monkeypatch.setattr(gpspca.block._Fit, "gram_rows",
                            lambda fit, active: gathered.append(active.tolist())
                            or rows(fit, active))
        monkeypatch.setattr(gpspca.block._Fit, "gram_products",
                            lambda fit, W, block: passed.append(block) or products(fit, W, block))
        step = gpspca.block._Retraction(fit, random_stiefel(rng, 40, 1)[:, 0], 1.0, 1.0, "l1", 1)
        first, second = np.arange(3, 9), np.arange(20, 26)

        def weights(support):
            return support, rng.uniform(1.0, 2.0, support.size)

        for support in (first, first, first, second, second):
            assert step(*weights(support)) is not None
        assert gathered == [first.tolist(), second.tolist()]
        one, two, three, four, five = passed
        assert two is one and three is one and five is four and four is not one
        tol = 1e-12 * np.abs(self.fresh_rows(fit, np.arange(200))).max()
        assert np.allclose(one, self.fresh_rows(fit, first), rtol=0, atol=tol)
        assert np.allclose(four, self.fresh_rows(fit, second), rtol=0, atol=tol)
        # A step that does not read rows of G_l drops the block; the next
        # rows step gathers it again.
        assert step(None, rng.uniform(1.0, 2.0, 200)) is not None
        assert step.kept is None
        step(*weights(second))
        assert gathered[-1] == second.tolist() and passed[-1] is not four
        # The block is a copy: the cache's rows taking a later direction
        # leave it as it was.
        block = passed[-1].copy()
        fit.add(y, A.values.T @ y)
        assert np.allclose(fit.gram_rows(second), self.fresh_rows(fit, second), rtol=0, atol=tol)
        assert np.array_equal(passed[-1], block)

    def test_no_climb_starts_with_a_kept_block(self, monkeypatch):
        # Restarts and support refinement climb several times per
        # component, and the sequence grows over three solve() calls: each
        # climb's first rows step gathers its block from the fit, and every
        # block a step reads is G_l at its rows for the fit's current C.
        log = self.checked_blocks(monkeypatch)
        ds = synthetic_sparse_factors(n_classes=8, per_class=5, n_features=200,
                                      n_factors=5, support_size=5, seed=3)
        A = DataMatrix(ds.samples - ds.samples.mean(axis=0))
        config = SolverConfig(penalty="l1", m=8, gamma=3.0, restarts=2, refine=True)
        sequence = single_unit.ComponentSequence(A, config)
        for m in (2, 5, 8):
            sequence.solve(m)
        assert len(log["firsts"]) > 12 and log["reused"] + log["gathered"] > 20
        assert all(fresh for _, fresh in log["firsts"].values())
        assert log["worst"] <= 1e-12

    def test_workers_bitwise(self, monkeypatch):
        # Chunks of 32 columns, so two and three workers split every kernel
        # call; rows of G_l are computed and read without the engine.
        monkeypatch.setattr(gpspca.parallel, "GEMM_BUDGET", 0)
        steps = []
        original = gpspca.block._Fit.gram_products
        monkeypatch.setattr(gpspca.block._Fit, "gram_products",
                            lambda fit, W, rows: steps.append(1) or original(fit, W, rows))
        A = self.recog_data()
        runs = []
        for workers in (1, 2, 3):
            steps.clear()
            config = SolverConfig(penalty="l1", m=20, gamma=3.0, max_iter=200)
            loadings, report = solve_multi_sequential(A, config, workers)
            runs.append((loadings.values.tobytes(), report.component_histories))
            assert len(steps) > 300
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("penalty, gamma", [("l1", 3.0), ("l0", 9.0)])
    def test_recog_sequence_matches_unkept_run(self, monkeypatch, penalty, gamma):
        A = self.recog_data()
        config = SolverConfig(penalty=penalty, m=20, gamma=gamma, max_iter=200)
        kept, kept_report = solve_multi_sequential(A, config)
        fresh = self.unkept(monkeypatch)
        want, want_report = solve_multi_sequential(A, config)
        assert len(fresh) > 300
        assert [len(h) for h in kept_report.component_histories] == \
            [len(h) for h in want_report.component_histories]
        assert kept.nnz_per_component() == want.nnz_per_component()
        assert np.array_equal(kept.values != 0, want.values != 0)
        for got, expected in zip(kept_report.component_histories,
                                 want_report.component_histories):
            assert abs(got[-1] - expected[-1]) <= 1e-12 * abs(expected[-1])

    def test_block_fit_bitwise_with_unkept_run(self, monkeypatch):
        # A block fit has no earlier directions (C is empty): its cached
        # rows are rows of G, never downdated, so a run whose every rows
        # step gathers from the cache is bitwise the same.  A run that
        # computes every block from A agrees to rounding.
        config = SolverConfig(penalty="l1", m=5, gamma=3.0, max_iter=200,
                              init="random_orthonormal", seed=1)
        A = self.recog_data()
        kept, kept_report = solve_block(A, config)
        monkeypatch.setattr(gpspca.block._Retraction, "_gram_rows",
                            lambda step, active: step.fit.gram_rows(active))
        gathered, gathered_report = solve_block(A, config)
        assert np.array_equal(kept.values, gathered.values)
        assert kept_report.component_histories == gathered_report.component_histories
        fresh = self.unkept(monkeypatch)
        want, want_report = solve_block(A, config)
        assert len(fresh) > 0
        assert kept.nnz_per_component() == want.nnz_per_component()
        assert len(kept_report.objective_history) == len(want_report.objective_history)
        assert np.allclose(kept_report.objective_history, want_report.objective_history,
                           rtol=1e-12, atol=0)


class TestSparseWeights:
    """A vector step's weights (_Retraction.weights): when at most
    sparse_limit rows are active, their indices and weights, found without
    a full-length threshold; otherwise all n weights.  Either way they are
    threshold_weights' bitwise, and the objective over them matches the
    one over all n rows."""

    @pytest.mark.parametrize("penalty, gamma", [("l1", 2.0), ("l0", 4.0)])
    @pytest.mark.parametrize("placement", ["leading", "random"])
    def test_matches_threshold_weights(self, penalty, gamma, placement):
        rng = np.random.default_rng(90)
        n = 400
        A = DataMatrix(rng.standard_normal((40, n)))
        step = gpspca.block._Retraction(gpspca.block._Fit(A), random_stiefel(rng, 40, 1)[:, 0],
                                        gamma, 1.0, penalty, 1)
        limit = step.sparse_limit
        assert limit == n // gpspca.block.GATHER_DIVISOR
        # |s| at the threshold (gamma for l1, sqrt(gamma) for l0) is inactive.
        edge = gamma if penalty == "l1" else np.sqrt(gamma)
        for k in (0, 1, 10, limit, limit + 1, 300):
            for _ in range(5):
                S = rng.uniform(-0.99, 0.99, n) * edge
                S[rng.choice(n, 20, replace=False)] = rng.choice([-1.0, 1.0], 20) * edge
                rows = np.arange(k) if placement == "leading" else rng.choice(n, k, replace=False)
                S[rows] = rng.choice([-1.0, 1.0], k) * rng.uniform(1.001, 3.0, k) * edge
                W = threshold_weights(S, gamma, penalty)
                active, w = step.weights(S)
                if k <= limit:
                    assert np.array_equal(active, np.sort(rows))
                    assert np.array_equal(active, np.flatnonzero(W))
                    assert np.array_equal(w, W[active])
                else:
                    assert active is None and np.array_equal(w, W)
                f = gpspca.block._objective(w, gamma, penalty)
                f_all = gpspca.block._objective(W, gamma, penalty)
                assert abs(f - f_all) <= 1e-15 * f_all

    def test_block_weights_are_the_active_rows_of_threshold_weights(self):
        rng = np.random.default_rng(91)
        A = DataMatrix(rng.standard_normal((40, 400)))
        gamma = np.array([1.0, 2.0, 3.0])
        step = gpspca.block._Retraction(gpspca.block._Fit(A), random_stiefel(rng, 40, 3),
                                        gamma, np.ones(3), "l1", 1)
        S = rng.uniform(-0.9, 0.9, (400, 3))
        rows = rng.choice(400, 30, replace=False)
        S[rows, rows % 3] = 4.0
        W = threshold_weights(S, gamma, "l1")
        active, w = step.weights(S)
        assert np.array_equal(active, np.sort(rows)) and np.array_equal(w, W[active])
        S[:, 0] = 4.0
        active, w = step.weights(S)
        assert active is None and np.array_equal(w, threshold_weights(S, gamma, "l1"))


class TestAllOfG:
    """A sequence computes rows of G = A'A a step at a time until it has
    computed n // GRAM_BULK_DIVISOR of them, then all of G in one product;
    a block fit computes its rows a step at a time however many it needs."""

    @staticmethod
    def bulk_builds(monkeypatch, fits=None):
        # One entry per gram_rows call that filled the fit's cache with all
        # of G: it computed more rows than the step's new ones.
        builds = []
        original = gpspca.block._Fit.gram_rows

        def gram_rows(fit, active):
            computed = 0 if fit.level is None else np.count_nonzero(fit.level >= 0)
            new = active.size if fit.level is None else np.count_nonzero(fit.level[active] < 0)
            rows = original(fit, active)
            if fits is not None and fit not in fits:
                fits.append(fit)
            if np.count_nonzero(fit.level >= 0) > computed + new:
                builds.append(fit)
            return rows

        monkeypatch.setattr(gpspca.block._Fit, "gram_rows", gram_rows)
        return builds

    def test_block_fit_never_computes_all_of_g(self, monkeypatch):
        fits = []
        builds = self.bulk_builds(monkeypatch, fits)
        for penalty, gamma in (("l1", 3.0), ("l0", 9.0)):
            config = SolverConfig(penalty=penalty, m=5, gamma=gamma, max_iter=200,
                                  init="random_orthonormal", seed=1)
            solve_block(TestGramRowsRoute.data(), config)
        assert len(fits) == 2 and builds == []
        n = fits[0].A.n
        assert all(np.count_nonzero(fit.level >= 0) > n // gpspca.block.GRAM_BULK_DIVISOR
                   for fit in fits)

    def test_recog_sequence_past_the_bulk_point_bitwise_across_workers(self, monkeypatch):
        # Chunks of 32 columns, so two and three workers split every kernel
        # call; rows of G_l, singly or all at once, are computed without
        # the engine.
        monkeypatch.setattr(gpspca.parallel, "GEMM_BUDGET", 0)
        builds = self.bulk_builds(monkeypatch)
        A = TestKeptDeflatedRows.recog_data()
        runs = []
        for workers in (1, 2, 3):
            config = SolverConfig(penalty="l1", m=50, gamma=3.0, max_iter=200)
            loadings, report = solve_multi_sequential(A, config, workers)
            runs.append((loadings.values.tobytes(), report.component_histories))
            assert len(builds) == workers
        assert runs[0] == runs[1] == runs[2]

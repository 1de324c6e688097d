import numpy as np
import pytest

from gpspca import DataMatrix, SolverConfig, SparseLoadings, column_norms, core


class TestColumnNorms:
    def test_identity(self):
        assert np.allclose(column_norms(DataMatrix(np.eye(2))), [1.0, 1.0])

    def test_three_four_five(self):
        assert np.allclose(column_norms(DataMatrix([[3.0], [4.0]])), [5.0])

    def test_zero_matrix(self):
        assert np.array_equal(column_norms(DataMatrix(np.zeros((4, 3)))), np.zeros(3))

    @pytest.mark.parametrize("shape, block_bytes", [
        ((800, 2000), core.BLOCK_BYTES),  # 327 columns a block, 7 blocks
        ((9000, 7), 8 * 9000 * 3),  # a few long columns
        ((5, 11), 8 * 5 * 2),
    ])
    def test_blocked_sum_is_bitwise_numpy_norm(self, monkeypatch, shape, block_bytes):
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
        A = DataMatrix(np.random.default_rng(3).standard_normal(shape))
        assert len(core._column_blocks(*shape)) > 1
        got = column_norms(A)
        assert got.tobytes() == np.linalg.norm(A.values, axis=0).tobytes()


class TestDataMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DataMatrix([[1.0, np.nan]])

    def test_rejects_nonfinite_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 3 * 2)
        values = np.ones((3, 10))
        values[1, 8] = np.inf
        with pytest.raises(ValueError):
            DataMatrix(values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((0, 3)))

    def test_column_contiguous_and_immutable(self):
        A = DataMatrix(np.arange(12.0).reshape(3, 4))
        assert A.values.flags.f_contiguous
        assert A.values[:, 1].flags.c_contiguous
        with pytest.raises(ValueError):
            A.values[0, 0] = 7.0
        with pytest.raises(AttributeError):
            A.p = 5


class TestStandardNormalMatrix:
    @pytest.mark.parametrize("shape, block_bytes", [
        ((100, 8000), core.BLOCK_BYTES),  # 32 rows a block
        ((7, 5), 8 * 5 * 2),
        ((3, 4), 8),  # one row a block
    ])
    def test_bitwise_one_draw_and_same_rng_state(self, monkeypatch, shape, block_bytes):
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng([4, shape[1], 2])
        want_rng = np.random.default_rng([4, shape[1], 2])
        A = core._standard_normal_matrix(rng, *shape)
        want = want_rng.standard_normal(shape)
        assert A.values.flags.f_contiguous and not A.values.flags.writeable
        assert A.values.tobytes() == want.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state


class TestSparseLoadings:
    def test_pattern_matches_nonzeros(self):
        z = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]])
        L = SparseLoadings(z)
        assert [idx.tolist() for idx in L.pattern] == [[0, 1], [2]]
        assert L.nnz_per_component() == [2, 1]

    def test_zero_column_allowed(self):
        L = SparseLoadings(np.zeros((4, 1)))
        assert L.nnz_per_component() == [0]

    def test_rejects_non_unit_column(self):
        with pytest.raises(ValueError):
            SparseLoadings(np.array([[0.5], [0.5]]))


class TestSolverConfig:
    def test_gamma_broadcast(self):
        cfg = SolverConfig(m=3, gamma=0.1)
        assert np.array_equal(cfg.gamma, [0.1, 0.1, 0.1])

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=-0.5)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            SolverConfig(mu=0.0)

    @pytest.mark.parametrize("settings", [
        dict(gamma=np.nan), dict(gamma=np.inf), dict(m=2, gamma=[0.1, np.nan]),
        dict(mu=np.inf), dict(mu=np.nan), dict(tol=np.inf),
    ], ids=["nan-gamma", "inf-gamma", "nan-gamma-entry", "inf-mu", "nan-mu", "inf-tol"])
    def test_rejects_non_finite_settings(self, settings):
        # Left through, a nan gamma zeroes every loading and reads
        # converged, an infinite or nan mu makes solve_block raise
        # LinAlgError, and tol = inf stops after one step as converged.
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**settings)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            SolverConfig(m=2, gamma=[0.1, 0.2, 0.3])

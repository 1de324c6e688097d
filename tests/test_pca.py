import numpy as np
import pytest

from gpspca import pca_fit, project
from gpspca.pca import deterministic_signs


class TestPcaFit:
    def test_hand_built_leading_direction(self):
        # four zero-mean samples: (+-3, 0), (0, +-1); leading direction e1
        S = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = pca_fit(S, 1)
        assert np.allclose(np.abs(model.components[:, 0]), [1.0, 0.0])
        # sign convention: largest-magnitude entry positive
        assert model.components[0, 0] > 0
        assert model.singular_values[0] == pytest.approx(np.sqrt(18.0))

    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(50)
        S = rng.standard_normal((20, 8))
        model = pca_fit(S, 8)
        centered = S - model.mean
        scores = centered @ model.components
        assert np.abs(scores @ model.components.T - centered).max() <= 1e-10

    def test_components_orthonormal_and_sorted(self):
        rng = np.random.default_rng(51)
        model = pca_fit(rng.standard_normal((15, 6)), 4)
        assert np.linalg.norm(model.components.T @ model.components - np.eye(4)) <= 1e-10
        assert np.all(np.diff(model.singular_values) <= 0)

    def test_head_is_the_truncated_factorization(self):
        rng = np.random.default_rng(54)
        S = rng.standard_normal((9, 14))
        _, s, Vt = np.linalg.svd(S - S.mean(axis=0), full_matrices=False)
        full = pca_fit(S)
        assert full.m == 9
        for m in (1, 4, 9):
            # The slice of one fit against the factorization truncated first.
            want = deterministic_signs(Vt[:m].T)
            for model in (full.head(m), pca_fit(S, m)):
                assert np.array_equal(model.components, want)
                assert model.components.flags.f_contiguous == want.flags.f_contiguous
                assert np.array_equal(model.singular_values, s[:m])
                assert np.array_equal(model.mean, S.mean(axis=0))
        with pytest.raises(ValueError, match="= 9"):
            full.head(10)

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(52)
        S = rng.standard_normal((12, 5))
        perm = rng.permutation(12)
        a = pca_fit(S, 3).components
        b = pca_fit(S[perm], 3).components
        assert np.allclose(a, b, atol=1e-8)

    def test_scores_match_svd(self):
        rng = np.random.default_rng(53)
        S = rng.standard_normal((10, 6))
        model = pca_fit(S, 3)
        centered = S - S.mean(axis=0)
        U, s, _ = np.linalg.svd(centered, full_matrices=False)
        scores = project(S, model.components, model.mean)
        for j in range(3):
            want = U[:, j] * s[j]
            got = scores[:, j]
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 1e-8

    def test_rejects_m_too_large(self):
        with pytest.raises(ValueError):
            pca_fit(np.eye(3), 4)


class TestProject:
    def test_identity_loadings_give_centered_samples(self):
        rng = np.random.default_rng(54)
        S = rng.standard_normal((6, 4))
        out = project(S, np.eye(4))
        assert np.allclose(out, S - S.mean(axis=0), atol=1e-12)

    def test_basis_vector_picks_coordinate(self):
        rng = np.random.default_rng(55)
        S = rng.standard_normal((6, 3))
        out = project(S, np.eye(3)[:, :1])
        assert np.allclose(out[:, 0], (S - S.mean(axis=0))[:, 0], atol=1e-12)

    def test_embedding_depends_only_on_support(self):
        rng = np.random.default_rng(56)
        S = rng.standard_normal((5, 6))
        loadings = np.zeros((6, 1))
        loadings[[1, 4], 0] = [0.6, 0.8]
        mean = np.zeros(6)
        masked = S.copy()
        masked[:, [0, 2, 3, 5]] = 0.0
        assert np.array_equal(
            project(S, loadings, mean), project(masked, loadings, mean)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(np.ones((2, 3)), np.ones((4, 1)))

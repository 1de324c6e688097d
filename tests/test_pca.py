import numpy as np
import pytest

from gpspca import pca_fit, project
from gpspca import pca as pca_module
from gpspca.datasets import (
    DatasetFormatError,
    PerClassCount,
    make_splits,
    synthetic_sparse_factors,
)
from gpspca.pca import GRAM_FLOOR, PcaFactors, center_rows


def signs_fixed(loadings):
    """The sign rule pca_fit documents: each column flipped so that its
    largest-magnitude entry is positive."""
    L = np.array(loadings, dtype=np.float64)
    lead = L[np.argmax(np.abs(L), axis=0), np.arange(L.shape[1])]
    return L * np.where(lead < 0, -1.0, 1.0)


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
        for m in (1, 4, 9):
            # A fit of m components against the SVD truncated to m.  The
            # centered rows have rank 8, so m = 9 takes the SVD, bitwise;
            # m = 1 and 4 the sample Gram.
            model = pca_fit(S, m)
            want = signs_fixed(Vt[:m].T)
            exact = m == 9
            assert model.components.flags.f_contiguous
            assert np.allclose(model.components, want, rtol=0, atol=0 if exact else 1e-13)
            assert np.allclose(model.singular_values, s[:m], rtol=0 if exact else 1e-14, atol=0)
            assert np.array_equal(model.mean, S.mean(axis=0))
        with pytest.raises(ValueError, match="= 9"):
            pca_fit(S, 10)

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


def recognition_split():
    # The recognition benchmark's training rows: 400 x 1000.
    ds = synthetic_sparse_factors(n_classes=20, per_class=40, n_features=1000, n_factors=10,
                                  support_size=10, seed=12001)
    return make_splits(ds, PerClassCount(20), seed=[12, 0]).train()[0]


def with_spectrum(s, n, seed):
    """len(s) + 1 rows of n variables, whose centered rows have the
    singular values s and a zero one."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((len(s) + 1, len(s)))
    U, _ = np.linalg.qr(R - R.mean(axis=0))
    V, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    return (U * s) @ V.T + rng.standard_normal(n)


class TestGramRoute:
    """With fewer samples than variables, the leading components come from
    the eigenvectors of the sample Gram; they must agree with the SVD's."""

    @staticmethod
    def routes(monkeypatch):
        calls = []
        for name in ("svd", "eigh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        return calls

    @pytest.mark.parametrize("shape", ["recognition", "timing"])
    def test_agrees_with_the_svd(self, monkeypatch, shape):
        if shape == "recognition":
            S, m = recognition_split(), 50
        else:
            S, m = np.random.default_rng(57).standard_normal((200, 2000)), 20
        C = S - S.mean(axis=0)
        U, s, Vt = np.linalg.svd(C, full_matrices=False)
        calls = self.routes(monkeypatch)
        model = pca_fit(S, m)
        assert calls == ["eigh"]
        assert np.abs(model.singular_values - s[:m]).max() <= 1e-14 * s[m - 1]
        want = signs_fixed(Vt[:m].T)
        assert np.abs(model.components - want).max() <= 1e-12
        # Embeddings against the SVD's U s, on the scale of s_1.
        scores = project(S, model.components, model.mean)
        assert np.abs(scores - C @ want).max() <= 1e-12 * s[0]
        assert np.abs(np.abs(scores) - np.abs(U[:, :m] * s[:m])).max() <= 1e-12 * s[0]
        V = model.components
        assert np.abs(V.T @ V - np.eye(m)).max() <= 1e-14

    def test_svd_for_at_least_as_many_samples_as_variables(self, monkeypatch):
        S = np.random.default_rng(58).standard_normal((30, 20))
        calls = self.routes(monkeypatch)
        pca_fit(S, 5)
        pca_fit(S[:20], 5)
        assert calls == ["svd", "svd"]

    def test_svd_above_the_rank_and_below_the_floor(self, monkeypatch):
        # Singular values 4, 2, 1e-2 and 0: lambda_3 / lambda_1 = 6.25e-6
        # is below the floor, and m = 4 is above the rank.
        s = np.array([4.0, 2.0, 1e-2])
        assert (s[2] / s[0]) ** 2 < GRAM_FLOOR < (s[1] / s[0]) ** 2
        S = with_spectrum(s, 9, seed=59)
        calls = self.routes(monkeypatch)
        for m in (1, 2, 3, 4):
            model = pca_fit(S, m)
            assert calls == (["eigh"] if m < 3 else ["eigh", "svd"])
            assert np.allclose(model.singular_values, np.append(s, 0.0)[:m], rtol=0, atol=1e-14)
            calls.clear()

    def test_shared_factors_fit_each_m_as_a_fresh_fit(self):
        # One factorization serves m = 1 ... 9 in any order, on both routes
        # (m = 9 is above the centered rows' rank), bitwise.
        S = np.random.default_rng(60).standard_normal((9, 40))
        factors = PcaFactors(S)
        for m in (3, 9, 1, 8, 5, 9):
            got, want = pca_fit(factors, m), pca_fit(S, m)
            assert np.array_equal(got.components, want.components)
            assert np.array_equal(got.singular_values, want.singular_values)
            assert got.components.flags.f_contiguous == want.components.flags.f_contiguous
            assert np.array_equal(got.mean, want.mean)

    def test_components_do_not_depend_on_m(self):
        # Each component rounds the same whatever m is asked for, so the
        # leading columns of a larger fit are a smaller fit's, bitwise.
        S = recognition_split()
        big = pca_fit(S, 50)
        for m in (2, 5, 10, 20):
            assert np.array_equal(pca_fit(S, m).components, big.components[:, :m])
        assert pca_module.GRAM_BLOCK < 50


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


class TestCenterRows:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_samples_less_their_means(self, order):
        S = np.random.default_rng(4).standard_normal((7, 5)) * 1e3
        centered, mean = center_rows(S, order)
        assert np.array_equal(mean, S.mean(axis=0))
        assert np.array_equal(centered, S - S.mean(axis=0))
        assert centered.flags[f"{order}_CONTIGUOUS"]

    @pytest.mark.parametrize("column", [
        [1e308, 1e308, 1e308],  # the sum overflows
        [1.7e308, -1.7e308, -1.7e308],  # the mean is finite, 1.7e308 less it is not
    ], ids=["sum", "entry"])
    def test_overflow_is_a_data_error(self, column):
        S = np.column_stack([column, [1.0, 2.0, 4.0]])
        for center in (center_rows, PcaFactors):
            with pytest.raises(DatasetFormatError, match="overflows float64"):
                center(S)

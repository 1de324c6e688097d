"""Dense PCA baseline and the projection shared with the sparse fits.

Works in the benchmark's samples-as-rows layout so that PCA components
and sparse loadings live in the same feature space and embed samples
the same way.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal loadings (n x m), singular values (non-increasing),
    and the feature means used for centering."""

    components: np.ndarray
    singular_values: np.ndarray
    mean: np.ndarray

    @property
    def m(self):
        return self.components.shape[1]

    def head(self, m):
        """The first m components (and singular values) as a new model;
        the factorization does not depend on m, so one fit serves every m."""
        if not 1 <= m <= self.m:
            raise ValueError(f"need 1 <= m <= min(#samples, #variables) = {self.m}")
        # np.array keeps the components' column-major layout, so products
        # with the copy round exactly as with the full model's columns.
        return PcaModel(
            np.array(self.components[:, :m]), self.singular_values[:m].copy(), self.mean.copy()
        )


def deterministic_signs(loadings):
    """Flip each column so its largest-magnitude entry is positive."""
    L = np.array(loadings, dtype=np.float64, copy=True)
    for j in range(L.shape[1]):
        i = int(np.argmax(np.abs(L[:, j])))
        if L[i, j] < 0:
            L[:, j] = -L[:, j]
    return L


def pca_fit(samples, m=None):
    """Top-m principal components of a samples x variables matrix.

    Components are the leading right singular vectors of the centered
    data, sign-fixed for determinism; m=None keeps all min(#samples,
    #variables) of them, to be cut with PcaModel.head.
    """
    S = np.asarray(samples, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError("samples must be a 2-d matrix")
    mean = S.mean(axis=0)
    _, s, Vt = np.linalg.svd(S - mean, full_matrices=False)
    model = PcaModel(components=deterministic_signs(Vt.T), singular_values=s, mean=mean)
    return model if m is None else model.head(m)


def project(samples, loadings, mean=None):
    """Embed samples: (samples - mean) @ loadings.

    With mean=None the samples' own column means are used; pass the
    training means to embed held-out data consistently.
    """
    S = np.asarray(samples, dtype=np.float64)
    L = np.asarray(loadings, dtype=np.float64)
    if S.shape[1] != L.shape[0]:
        raise ValueError(
            f"samples have {S.shape[1]} features but loadings expect {L.shape[0]}"
        )
    if mean is None:
        mean = S.mean(axis=0)
    return (S - np.asarray(mean, dtype=np.float64)) @ L

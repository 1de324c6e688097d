"""Dense PCA baseline and shared evaluation quantities.

Works in the benchmark's samples-as-rows layout so that PCA components
and sparse loadings live in the same feature space and can be compared
via projection quality and explained variance.
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


def explained_variance(samples, loadings, zero_tol=1e-12):
    """Variance captured per component, adjusted by sequential deflation.

    Component j is credited only with the variance of the data after
    the directions of components 1..j-1 have been projected out, so
    correlated (non-orthogonal) loadings are not double counted.  For
    orthonormal PCA loadings this equals singular_values^2/(N-1).
    Columns must be unit norm; zero columns contribute 0.
    """
    S = np.asarray(samples, dtype=np.float64)
    L = np.asarray(loadings, dtype=np.float64)
    if L.ndim == 1:
        L = L[:, None]
    if S.shape[1] != L.shape[0]:
        raise ValueError("samples and loadings disagree on the feature count")
    norms = np.linalg.norm(L, axis=0)
    nonzero = norms > zero_tol
    if np.any(np.abs(norms[nonzero] - 1.0) > 1e-9):
        raise ValueError("loading columns must be unit norm or zero")
    B = S - S.mean(axis=0)
    denom = max(S.shape[0] - 1, 1)
    out = np.zeros(L.shape[1])
    for j in range(L.shape[1]):
        if not nonzero[j]:
            continue
        v = L[:, j]
        scores = B @ v
        out[j] = float(scores @ scores) / denom
        B = B - np.outer(scores, v)
    return out

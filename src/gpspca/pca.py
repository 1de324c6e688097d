"""Dense PCA baseline, and the centering and projection shared with the
sparse fits.

Works in the benchmark's samples-as-rows layout so that PCA components
and sparse loadings live in the same feature space and embed samples
the same way.

Two routes factorize the centered rows C (p samples x n variables).
With fewer samples than variables, the leading m components come from
the p x p sample Gram K = C C' (the eigenface construction of Turk and
Pentland, 1991): K = Q diag(lambda) Q' gives the singular values
sqrt(lambda_j) and the components C'q_j / sqrt(lambda_j).  Otherwise,
and whenever lambda_m / lambda_1 is at most GRAM_FLOOR (which includes
an m above the numerical rank), they come from the SVD of C.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import DatasetFormatError

# Squaring the singular values loses the small ones: the Gram route's
# error grows as about eps * lambda_1 / lambda_j.  Against the SVD, on
# 400 x 1000 matrices with geometric spectra (two seeds), its singular
# values agreed to 3e-16-1e-14 relative and its components to 5e-15-4e-14
# down to lambda_j / lambda_1 = 1e-3, to 5e-14 and 2e-13 at 1e-4, and to
# 6e-12 and 2e-11 at 1e-6.  The recognition benchmark's splits need
# 0.13 (m = 50), random P = N/10 instances 0.27 (m = P - 1).
GRAM_FLOOR = 1e-4
# The Gram route computes components in fixed blocks of this many, so
# component j rounds the same whatever m is asked for: a GEMM may round a
# column differently at another width.  16 computes the recognition
# sweep's 50 components at 400 x 1000 in 2.0 ms, against 1.2 ms as one
# product and 7-9 ms one column at a time.
GRAM_BLOCK = 16


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal loadings (n x m), singular values (non-increasing),
    and the feature means used for centering."""

    components: np.ndarray
    singular_values: np.ndarray
    mean: np.ndarray


def center_rows(samples, order="C"):
    """(samples less their column means, in the given memory order, the
    means).  A column sum or a centered entry beyond the float64 range
    raises DatasetFormatError, read from the floating-point status rather
    than from a pass over the result."""
    centered = np.empty(samples.shape, order=order)
    with np.errstate(over="raise"):
        try:
            mean = samples.mean(axis=0)
            np.subtract(samples, mean, out=centered)
        except FloatingPointError:
            raise DatasetFormatError("centering the training rows overflows float64") from None
    return centered, mean


def _fix_signs(rows):
    # In place: each row's largest-magnitude entry becomes positive.
    lead = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    rows[lead < 0] *= -1.0


class PcaFactors:
    """The centered rows of one sample matrix and what pca_fit has
    factorized of them so far: the eigenpairs of K above the floor with
    the components computed from them, and the SVD.  A fit of m
    components from it is bitwise a fresh pca_fit(samples, m); its
    components are a read-only view of rows that the fits of every m
    share."""

    def __init__(self, samples):
        S = np.asarray(samples, dtype=np.float64)
        if S.ndim != 2:
            raise ValueError("samples must be a 2-d matrix")
        self.centered, self.mean = center_rows(S)
        self._eig = None  # (lambda, Q), descending, lambda_j above the floor
        self._rows = None  # the components computed from them, as rows
        self._svd = None  # (s, V'), V' sign-fixed

    def model(self, m):
        """The top-m fit of these rows, 1 <= m <= min(p, n), as pca_fit returns it."""
        p, n = self.centered.shape
        if not 1 <= m <= min(p, n):
            raise ValueError(f"need 1 <= m <= min(#samples, #variables) = {min(p, n)}, got m={m}")
        if p < n:
            if self._eig is None:
                lam, Q = np.linalg.eigh(self.centered @ self.centered.T)
                served = np.count_nonzero(lam > GRAM_FLOOR * lam[-1])
                self._eig = lam[::-1][:served], Q[:, ::-1][:, :served]
                self._rows = np.empty((0, n))
            lam = self._eig[0]
            if m <= len(lam):
                if len(self._rows) < m:
                    self._extend(min(-(-m // GRAM_BLOCK) * GRAM_BLOCK, len(lam)))
                return PcaModel(self._rows[:m].T, np.sqrt(lam[:m]), self.mean.copy())
        if self._svd is None:
            _, s, Vt = np.linalg.svd(self.centered, full_matrices=False)
            _fix_signs(Vt)
            Vt.flags.writeable = False
            self._svd = s, Vt
        s, Vt = self._svd
        return PcaModel(Vt[:m].T, s[:m].copy(), self.mean.copy())

    def _extend(self, k):
        # The first k components as rows, C'q_j / sqrt(lambda_j): the
        # rows already computed, then whole blocks of GRAM_BLOCK.
        lam, Q = self._eig
        rows = np.empty((k, self.centered.shape[1]))
        done = len(self._rows)
        rows[:done] = self._rows
        for j in range(done, k, GRAM_BLOCK):
            block = rows[j : j + GRAM_BLOCK]
            np.matmul(np.ascontiguousarray(Q[:, j : j + GRAM_BLOCK].T), self.centered, out=block)
            block /= np.sqrt(lam[j : j + GRAM_BLOCK])[:, None]
            _fix_signs(block)
        rows.flags.writeable = False
        self._rows = rows


def pca_fit(samples, m):
    """Top-m principal components of a samples x variables matrix, for
    1 <= m <= min(#samples, #variables).

    Components are the leading right singular vectors of the centered
    data, sign-fixed for determinism: each one's largest-magnitude entry
    is positive.  With fewer samples than variables they come from the
    sample Gram, unless lambda_m / lambda_1 is at most GRAM_FLOOR;
    otherwise from the SVD (see the module docstring).  On either route
    each component rounds the same whatever m is.  samples may be a
    PcaFactors, which keeps what earlier fits of the same rows
    factorized, so fits of several m share it.
    """
    factors = samples if isinstance(samples, PcaFactors) else PcaFactors(samples)
    return factors.model(m)


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

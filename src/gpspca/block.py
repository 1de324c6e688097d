"""Generalized power iteration for all four sparse PCA formulations.

One loop (climb) serves both modes: correlate the iterate with every
column, threshold the correlations, accumulate the thresholded columns
into the ascent direction, and retract.  A length-p iterate is a point
on the unit sphere (single-unit) and retracts by normalization; a p x m
iterate is a point on the Stiefel manifold (block) and retracts by the
polar factor of the gradient (_Retraction).  ascend runs the loop with
that step on a data matrix; single_unit runs it with the same step, the
earlier directions projected out of the gradient, and takes sparse
steps from A'A instead.  Loading columns are the same threshold weights
of the final correlations, normalized, with the per-component weights
mu folded in.
"""

import time

import numpy as np

from .core import (
    RunReport,
    SparseLoadings,
    _as_length_m,
    as_data_matrix,
    column_norms,
)
from .parallel import par_matvec_t, par_threshold_accumulate, threshold_weights

FEASIBILITY_TOL = 1e-8


class RankDeficiencyError(RuntimeError):
    """Gradient lost full column rank, so no polar factor exists.

    Usually means a gamma_j annihilated an entire component or m exceeds
    the data's effective rank.  Carries the numerical rank and, when
    raised from the solve loop, the iteration index.
    """

    def __init__(self, rank, required, iteration=None):
        self.rank = rank
        self.required = required
        self.iteration = iteration
        where = "" if iteration is None else f" at iteration {iteration}"
        super().__init__(
            f"gradient has numerical rank {rank} < {required}{where}; "
            "reduce gamma or m"
        )


def _check_iterate(X, p):
    """X as a float array: a unit length-p vector or a p x m matrix with
    orthonormal columns."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2) or X.shape[0] != p:
        raise ValueError(f"X must have p={p} rows, got shape {X.shape}")
    V = X.reshape(p, -1)
    err = np.linalg.norm(V.T @ V - np.eye(V.shape[1]))
    if err > FEASIBILITY_TOL:
        raise ValueError(f"X is off the sphere or Stiefel manifold: ||X'X - I||_F = {err:.3e}")
    return X


def _scaled_correlations(A, X, gamma, mu, workers):
    # Checked inputs and S = mu * A'X: scalar gamma and mu for a vector
    # iterate, one (gamma_j, mu_j) per column of a block.
    A = as_data_matrix(A)
    X = _check_iterate(X, A.p)
    m = 1 if X.ndim == 1 else X.shape[1]
    gamma, mu = _as_length_m(gamma, m, "gamma"), _as_length_m(mu, m, "mu")
    if X.ndim == 1:
        gamma, mu = gamma[0], mu[0]
    return A, gamma, mu, mu * par_matvec_t(A, X, workers)


def _objective(S, gamma, penalty):
    # S holds the scaled correlations mu_j a_i'x_j; gamma broadcasts over
    # its columns.  The gradient weights are parallel.threshold_weights.
    if penalty == "l1":
        t = np.maximum(np.abs(S) - gamma, 0.0)
        return float(np.vdot(t, t))
    return float(np.sum(np.maximum(S * S - gamma, 0.0)))


def _loadings(S, gamma, penalty):
    # Threshold weights of the final correlations, normalized per column;
    # an all-inactive column stays zero.
    Z = threshold_weights(S, gamma, penalty)
    norms = np.linalg.norm(Z, axis=0) if Z.ndim == 2 else np.linalg.norm(Z)
    return np.divide(Z, norms, out=np.zeros_like(Z), where=norms > 0)


def objective(A, X, gamma, penalty, mu=1.0, workers=1):
    """Penalized objective at a sphere or Stiefel point X.

    l1: sum_j sum_i [mu_j |a_i'x_j| - gamma_j]_+^2;
    l0: sum_j sum_i [(mu_j a_i'x_j)^2 - gamma_j]_+.
    gamma and mu are scalars or one entry per column of X.
    """
    _, gamma, _, S = _scaled_correlations(A, X, gamma, mu, workers)
    return _objective(S, gamma, penalty)


def ascent_direction(A, X, gamma, penalty, mu=1.0, workers=1):
    """Ambient gradient of the objective: column j is
    2 mu_j sum_i w(mu_j a_i'x_j, gamma_j) a_i with w = threshold_weights.

    Zero exactly when no column is active.
    """
    A, gamma, mu, S = _scaled_correlations(A, X, gamma, mu, workers)
    return (2.0 * mu) * par_threshold_accumulate(A, S, gamma, penalty, workers)


def recover_pattern(A, X, gamma, penalty, mu=1.0, workers=1):
    """Sparse loading columns at a fixed iterate X.

    l1 soft-thresholds the correlations, z_i proportional to
    sign(a_i'x) [mu |a_i'x| - gamma]_+; l0 keeps those with
    (mu a_i'x)^2 > gamma.  Each column is renormalized to unit norm; an
    all-inactive column is returned as zero.
    """
    _, gamma, _, S = _scaled_correlations(A, X, gamma, mu, workers)
    return _loadings(S, gamma, penalty)


def polar_projection(G):
    """Orthonormal polar factor of G: the Stiefel point maximizing Tr(X'G).

    With the thin SVD G = U S V', returns U V'.  Raises
    RankDeficiencyError when G is not of full column rank.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim == 1:
        G = G[:, None]
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    cutoff = s[0] * max(G.shape) * np.finfo(np.float64).eps
    rank = int(np.count_nonzero(s > cutoff)) if s[0] > 0 else 0
    if rank < G.shape[1]:
        raise RankDeficiencyError(rank, G.shape[1])
    return U @ Vt


class _Retraction:
    """The matrix step of the power loop: W = w(S) -> gradient A W, less
    its projection on the directions that project() removes (none for
    ascend) -> retraction (normalization for a vector, the polar factor
    for a block) -> the new correlations mu * A'X."""

    def __init__(self, A, X, mu, workers, project=None):
        self.A, self.mu, self.workers, self.project = A, mu, workers, project
        self.X = X if project is None else project(X)
        self.start = mu * par_matvec_t(A, self.X, workers)

    def retract(self, S, gamma, penalty):
        """Move X to the retracted gradient at S; False, leaving X, when
        that gradient is zero."""
        G = (2.0 * self.mu) * par_threshold_accumulate(self.A, S, gamma, penalty, self.workers)
        if self.project is not None:
            G = self.project(G)
        if G.ndim == 1:
            norm = np.linalg.norm(G)
            if norm == 0.0:
                return False
            self.X = G / norm
        else:
            self.X = polar_projection(G)
        return True

    def __call__(self, S, gamma, penalty):
        if not self.retract(S, gamma, penalty):
            return None
        return self.mu * par_matvec_t(self.A, self.X, self.workers)

    def iterate(self):
        return self.X


def climb(step, gamma, penalty, tol, max_iter):
    """The generalized power loop, over correlations.

    step.start holds the start correlations; step(S, gamma, penalty)
    maps the threshold weights of S to the next iterate's correlations,
    or returns None when the gradient is zero (a fixed point, which counts
    as converged); step.iterate() is the iterate the last correlations
    belong to.  Stops when the relative objective change drops below tol
    or after max_iter steps.  A RankDeficiencyError from a step carries
    the iteration and the history so far.  Returns (X, S, history,
    converged).
    """
    S = step.start
    f = _objective(S, gamma, penalty)
    history = [f]
    converged = False
    for iteration in range(max_iter):
        try:
            S_new = step(S, gamma, penalty)
        except RankDeficiencyError as err:
            err.iteration = iteration
            err.history = history
            raise
        if S_new is None:
            converged = True
            break
        S = S_new
        f_new = _objective(S, gamma, penalty)
        history.append(f_new)
        if abs(f_new - f) < tol * max(abs(f), 1e-30):
            converged = True
            break
        f = f_new
    return step.iterate(), S, history, converged


def ascend(A, X, gamma, mu, penalty, tol, max_iter, workers=1):
    """Generalized power iteration from the feasible point X.

    Each step correlates, thresholds, accumulates and retracts: a vector
    X is normalized (a zero gradient is a fixed point and counts as
    converged), a p x m X takes the polar factor (rank collapse raises
    RankDeficiencyError carrying the iteration and the history so far).
    gamma and mu are scalars for a vector and length-m vectors for a
    block.  Stops when the relative objective change drops below tol or
    after max_iter steps.

    Returns (X, S, history, converged), where S = mu * A'X belongs to the
    returned X.  An X off the sphere or Stiefel manifold raises ValueError.
    """
    A = as_data_matrix(A)
    step = _Retraction(A, _check_iterate(X, A.p), mu, workers)
    return climb(step, gamma, penalty, tol, max_iter)


def _init_block(A, config):
    p, m = A.p, config.m
    if config.init == "random_orthonormal":
        rng = np.random.default_rng(config.seed)
        M = rng.standard_normal((p, m))
    else:
        order = np.argsort(-column_norms(A), kind="stable")
        M = A.values[:, order[:m]].copy()
    Q, R = np.linalg.qr(M)
    diag = np.diagonal(R)
    if np.any(np.abs(diag) <= m * np.finfo(np.float64).eps * max(1.0, np.abs(diag).max())):
        raise ValueError(
            "initialization columns are numerically rank deficient; "
            "use init='random_orthonormal' or reduce m"
        )
    # Fix the QR sign ambiguity so initialization is fully deterministic.
    return Q * np.sign(diag)


def solve_block(A, config, workers=1):
    """Extract config.m components jointly; returns (SparseLoadings, RunReport).

    Runs ascend on a p x m Stiefel iterate until the relative objective
    change drops below config.tol; the iterate stays on the manifold at
    every step.  Rank collapse of the gradient is raised as
    RankDeficiencyError tagged with the iteration index.
    """
    A = as_data_matrix(A)
    if not 1 <= config.m <= min(A.p, A.n):
        raise ValueError(f"need 1 <= m <= min(p, n) = {min(A.p, A.n)}, got m={config.m}")
    start = time.perf_counter()
    _, S, history, converged = ascend(
        A, _init_block(A, config), config.gamma, config.mu, config.penalty,
        config.tol, config.max_iter, workers,
    )
    loadings = SparseLoadings(_loadings(S, config.gamma, config.penalty))
    return loadings, RunReport(
        objective_history=history,
        iterations=len(history) - 1,
        wall_time=time.perf_counter() - start,
        nnz_per_component=loadings.nnz_per_component(),
        converged=converged,
        component_histories=[history],
    )

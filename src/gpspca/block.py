"""Generalized power iteration for all four sparse PCA formulations.

One loop (climb) serves both modes: correlate the iterate with every
column, threshold the correlations, accumulate the thresholded columns
into the ascent direction, and retract.  A length-p iterate is a point
on the unit sphere (single-unit) and retracts by normalization; a p x m
iterate is a point on the Stiefel manifold (block) and retracts by the
polar factor of the gradient (_Retraction).  ascend runs the loop with
that step on a data matrix; single_unit runs it with the same step, the
earlier directions projected out of the gradient.  A step's products
have three sources: the kernels on A; for a dense step whose threshold
moved on few columns, the gradient from K = A A' (_SampleGram); and, in
single_unit, for a sparse step, the correlations from rows of A'A.
Loading columns are the same threshold weights of the final
correlations, normalized, with the per-component weights mu folded in.
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
from .parallel import (
    par_matvec_t,
    par_threshold_accumulate,
    threshold_residual,
    threshold_weights,
)

FEASIBILITY_TOL = 1e-8
# A dense step reads its gradient from K = A A' (see _SampleGram) when
# the rows its residual moved, plus K's p rows, number at most
# n // ROUTE_DIVISOR: the route then reads that many columns of length p
# (gathered from A, and all of K) where the kernel reads all n.  One
# thread, route over kernel time per step, two runs, at moved + p = n/8,
# n/4 and n/3: at 200x2000, 0.23-0.32, 0.44-0.67 and 0.80-1.08 for a
# vector, 0.39-0.43, 0.60-0.72 and 0.80-0.90 at m = 5; at 800x8000,
# 0.13-0.16, 0.30-0.32 and 0.54-0.73, and 0.11, 0.23 and 0.27-0.28.
ROUTE_DIVISOR = 4
# A fit keeps the route's state, and so may build K, only after its first
# p // SAMPLE_GRAM_DIVISOR matrix steps, and only until as many of its
# steps could not take the route.  K costs p^2 n / 2 multiply-adds and a
# route step saves part of one accumulation (p n m), so the steps K takes
# to repay grow with p.  Measured as above, K takes 2.5-3.0 ms at
# 200x2000, what 19-24 vector or 10-14 m = 5 route steps save at n/8 and
# 26-47 or 19-25 at n/4; 112 ms at 800x8000, what 30-36 or 9-10 steps
# save at n/8 and 39-43 or 11 at n/4.  The state costs every step that
# keeps it: inside 200x2000 fits, about 20 us for a vector and 60-120 us
# at m = 5, where a route step saves about 100 and 300 us.
SAMPLE_GRAM_DIVISOR = 8
# A matrix that fits in a core's 2 MiB L2 cache feeds the kernel faster
# than the route's fixed work per step (the residual and its moved rows)
# repays: at 120x1200 (1.2 MB), measured as above, the route took
# 0.80-1.11 and 0.88-0.95 of the kernel's time at n/8, and 1.07-1.46 at
# n/4.
ROUTE_MIN_BYTES = 2**21
# The moved rows of A are gathered this many bytes at a time.  One
# gathered copy of them all leaves the cache once it outgrows it, and its
# product reads it back from memory: at 800x8000, one thread, 1866 rows
# took 2.8 ms for a vector and 7.7 ms at m = 5 in one copy, 1.8 and
# 2.2 ms in blocks of 1 MiB.  At 200x2000 the route's rows fit in one.
GATHER_BYTES = 2**20


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


def _objective(W, gamma, penalty):
    # W holds the threshold weights (parallel.threshold_weights) of the
    # scaled correlations mu_j a_i'x_j; gamma broadcasts over its columns.
    # An l1 weight is +-[|s| - gamma]_+ and an l0 weight is s or 0, so both
    # sums equal those over the correlations term for term.
    if penalty == "l1":
        return float(np.vdot(W, W))
    return float(np.sum(np.maximum(W * W - gamma, 0.0)))


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
    return _objective(threshold_weights(S, gamma, penalty), gamma, penalty)


def ascent_direction(A, X, gamma, penalty, mu=1.0, workers=1):
    """Ambient gradient of the objective: column j is
    2 mu_j sum_i w(mu_j a_i'x_j, gamma_j) a_i with w = threshold_weights.

    Zero exactly when no column is active.
    """
    A, gamma, mu, S = _scaled_correlations(A, X, gamma, mu, workers)
    W = threshold_weights(S, gamma, penalty)
    return (2.0 * mu) * par_threshold_accumulate(A, W, workers)


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


class _SampleGram:
    """K = A A', the p x p Gram matrix of the samples, for the dense-step
    route of _Retraction.

    One is shared by the climbs of a block fit or of a single-unit
    sequence.  Their first p // SAMPLE_GRAM_DIVISOR matrix steps run the
    kernel and keep no state for the route, so a short fit pays nothing
    for it.  After those, K is built on the first step that takes the
    route, so a fit whose steps never could never builds it, and the fit
    stops keeping the state once as many of its steps could not take the
    route, so a fit whose steps seldom can stops paying for it.
    """

    def __init__(self, A):
        self.A = A
        self.limit = A.n // ROUTE_DIVISOR - A.p if 8 * A.p * A.n >= ROUTE_MIN_BYTES else -1
        self.due = self.misses = A.p // SAMPLE_GRAM_DIVISOR
        self.K = None

    def tracking(self):
        """Whether a matrix step keeps the route's state; a step that does
        not counts towards it until it is due."""
        if self.limit < 0 or self.misses <= 0:
            return False
        if self.due > 0:
            self.due -= 1
            return False
        return True

    def matrix(self):
        """K, built on first use."""
        if self.K is None:
            values = self.A.values
            self.K = values @ values.T
        return self.K


def _route_rows(W, R, R_prev, limit):
    # The rows where the residual moved (in any column of a block), or None
    # when more than limit did or a column of W is all zero: the kernel
    # gives such a column an exactly zero gradient, which zero-gradient
    # stops and the polar factor's rank test rely on, where the route would
    # leave a rounding-level remainder.
    changed = R != R_prev
    if changed.ndim == 2:
        changed = changed @ np.ones(changed.shape[1], bool)
    rows = np.flatnonzero(changed)
    if rows.size > limit:
        return None
    # For a block, a boolean product: about 8 us against 48 us for
    # W.any(axis=0) on a 2000 x 5 block.
    live = W.any() if W.ndim == 1 else (np.ones(len(W), bool) @ (W != 0)).all()
    return rows if live else None


def _gathered_product(values, rows, D):
    # values[:, rows] @ D, gathered GATHER_BYTES at a time: one gathered
    # copy of all the rows leaves the cache once it outgrows it, and its
    # product then reads it back from memory.
    width = max(1, GATHER_BYTES // (8 * values.shape[0]))
    out = values[:, rows[:width]] @ D[:width]
    for lo in range(width, len(rows), width):
        out += values[:, rows[lo:lo + width]] @ D[lo:lo + width]
    return out


class _Retraction:
    """The matrix step of the power loop: threshold weights W -> gradient
    A W, less its projection on the directions that project() removes
    (none for ascend) -> retraction (normalization for a vector, the polar
    factor for a block) -> the new correlations S = mu * A'X.

    A W has two sources.  The accumulation kernel reads all of A.  A
    dense step can read it from K = A A' instead: with the residual
    R = S - W (threshold_residual), A W = mu K X - A R, and R moves
    between steps only on the rows that are or were inactive, plus the
    l1 rows whose sign flipped, so A R is updated from the previous step's
    by one product over those rows of A.  A step takes that route when
    few rows moved and its fit keeps the route's state (sample_gram); the
    route depends on the weights' history alone, never on the worker
    count.
    """

    def __init__(self, A, X, gamma, mu, penalty, workers, project=None, sample_gram=None):
        self.A, self.mu, self.workers, self.project = A, mu, workers, project
        self.gamma, self.penalty = gamma, penalty
        self.sample_gram = _SampleGram(A) if sample_gram is None else sample_gram
        self.X = X if project is None else project(X)
        # S belongs to X.  R is the last step's residual; after a route
        # step AR is its A R, after a kernel step `last` holds its (A W, X),
        # from which A R = mu K X - A W is formed only if this step takes
        # the route.  Each is None when unknown.
        self.start = self.S = mu * par_matvec_t(A, self.X, workers)
        self.R = self.AR = self.last = None

    def forget(self):
        """Drop the route's state: X no longer gives the correlations."""
        self.S = self.R = self.AR = self.last = None

    def _accumulate(self, W):
        # A W for the weights W of the correlations S of the current X.
        S, R_prev, AR_prev, last = self.S, self.R, self.AR, self.last
        self.forget()
        gram = self.sample_gram
        if S is None or not gram.tracking():
            return par_threshold_accumulate(self.A, W, self.workers)
        self.R = R = threshold_residual(S, W, self.gamma, self.penalty)
        rows = None if R_prev is None else _route_rows(W, R, R_prev, gram.limit)
        if rows is None:
            if R_prev is not None:
                gram.misses -= 1
            AW = par_threshold_accumulate(self.A, W, self.workers)
            self.last = AW, self.X
            return AW
        K = gram.matrix()
        if AR_prev is None:
            AW_last, X_last = last
            AR_prev = self.mu * (K @ X_last) - AW_last
        self.AR = AR_prev + _gathered_product(self.A.values, rows, R[rows] - R_prev[rows])
        return self.mu * (K @ self.X) - self.AR

    def retract(self, W):
        """Move X to the retracted gradient for the weights W; False,
        leaving X, when that gradient is zero."""
        G = (2.0 * self.mu) * self._accumulate(W)
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

    def __call__(self, W):
        if not self.retract(W):
            return None
        self.S = self.mu * par_matvec_t(self.A, self.X, self.workers)
        return self.S

    def iterate(self):
        return self.X


def climb(step, gamma, penalty, tol, max_iter):
    """The generalized power loop, over correlations.

    step.start holds the start correlations S; step(W) maps their
    threshold weights W, computed once per iterate for both the step and
    the objective, to the next iterate's correlations, or returns None
    when the gradient is zero (a fixed point, which counts as converged);
    step.iterate() is the iterate the last correlations belong to.
    Stops when the relative objective change drops below tol or after
    max_iter steps.  A RankDeficiencyError from a step carries the
    iteration and the history so far.  Returns (X, S, history,
    converged).
    """
    S = step.start
    W = threshold_weights(S, gamma, penalty)
    f = _objective(W, gamma, penalty)
    history = [f]
    converged = False
    for iteration in range(max_iter):
        try:
            S_new = step(W)
        except RankDeficiencyError as err:
            err.iteration = iteration
            err.history = history
            raise
        if S_new is None:
            converged = True
            break
        S = S_new
        W = threshold_weights(S, gamma, penalty)
        f_new = _objective(W, gamma, penalty)
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
    step = _Retraction(A, _check_iterate(X, A.p), gamma, mu, penalty, workers)
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

"""Generalized power iteration for all four sparse PCA formulations.

One loop (climb) and one step (_Retraction) serve every variant:
correlate the iterate with every column, threshold, accumulate the
thresholded columns into the gradient, and retract.  A length-p iterate
(single-unit, the block case with m = 1) is normalized; a p x m iterate
(block) takes the polar factor of the gradient.  The steps of one block
fit or single-unit sequence share one _Fit: single_unit's holds the
earlier directions X of its sequence, which every step projects out.

A step's products have three sources:
- the kernels on A: the accumulation A W and the correlations A'X;
- for a sparse step, with 0 < k <= p // GRAM_DIVISOR active rows of W,
  cached rows of G = A'A: with G_l = G - C C' (C = A'X, empty for a
  block fit), P = G_l[:, act] W_act, D = diag(2 mu) and the gradient's
  Gram matrix M = D W_act' P[act] D, the new correlations are
  mu P D M^{-1/2} (mu P / sqrt(w'P[act]) for a vector), and the iterate
  is formed once, at the end of the climb;
- for a dense step whose threshold moved on few rows, the gradient
  A W = mu K X - A R from K = A A' and the residual R = S - W.
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
    _active_columns,
    par_matvec_t,
    par_threshold_accumulate,
    threshold_residual,
    threshold_weights,
)

FEASIBILITY_TOL = 1e-8
# A step with 0 < k <= p // GRAM_DIVISOR active rows of W reads k rows of
# G = A'A (about k*n*m multiply-adds) where the matrix step computes A W
# and A'X (about p*n*m each).  One thread, per step, rows against matrix
# step: for a vector, with 0 and 50 earlier directions, at 400x1000,
# 75-151 against 229-259 us at k = p/4 and 201-321 against 243-329 us at
# p/2; at 200x2000, 91-143 against 198-262 us at p/4, 186-234 against
# 245-264 us at p/3 and 226-333 against 198-231 us at p/2.  At m = 5
# (cached rows, best of 7x50 calls), at 400x1000, 167-171 against
# 404-433 us at p/4 and 448-506 against 497-743 us at p/2; at 200x2000,
# 180-299 against 438-442 us at p/4 and 356-437 against 480-555 us at
# p/2.  The vector crossover lies between p/3 and p/2; p/4 keeps a margin
# below it for every m.
GRAM_DIVISOR = 4
# A fit caches rows of G = A'A only when all of G takes at most this
# many bytes: 8 MB at n = 1000, 32 MB at n = 2000, 512 MB at n = 8000.
GRAM_MAX_BYTES = 2**25
# A dense step reads its gradient from K = A A' (see _Fit) when
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


class _Fit:
    """What the steps of one block fit or single-unit sequence share.

    A; the earlier directions X (p x l, orthonormal) and C = A'X (n x l),
    both empty for a block fit; the rows of G = A'A its sparse steps have
    needed, each computed the first time its column is active (all of G,
    built on the first sparse step, made fits of a few dozen steps 2-3x
    slower); and K = A A' for its dense steps, on the schedule of
    SAMPLE_GRAM_DIVISOR.  What is computed when depends on the fit's
    steps alone, never on the worker count.
    """

    def __init__(self, A):
        self.A = A
        self.X = np.empty((A.p, 0))
        self.C = np.empty((A.n, 0))
        self.gram_limit = A.p // GRAM_DIVISOR if 8 * A.n * A.n <= GRAM_MAX_BYTES else 0
        # Rows of G, valid where cached is set; both None until the first
        # sparse step.
        self.gram = self.cached = None
        self.limit = A.n // ROUTE_DIVISOR - A.p if 8 * A.p * A.n >= ROUTE_MIN_BYTES else -1
        self.due = self.misses = A.p // SAMPLE_GRAM_DIVISOR
        self.K = None

    def add(self, x, c):
        """Deflate by one more direction x, orthogonal to X, with c = A'x."""
        self.X = np.column_stack([self.X, x])
        self.C = np.column_stack([self.C, c])

    def project(self, v):
        """v with the directions X projected out."""
        return v - self.X @ (self.X.T @ v) if self.X.shape[1] else v

    def gram_products(self, W, active):
        """P = G_l[:, active] W for the weights W of the active rows, with
        G_l = G - C C'; the uncached rows of G are computed in one product
        A[:, new]'A."""
        if self.gram is None:
            self.gram = np.empty((self.A.n, self.A.n))
            self.cached = np.zeros(self.A.n, dtype=bool)
        new = active[~self.cached[active]]
        if new.size:
            self.gram[new] = self.A.values[:, new].T @ self.A.values
            self.cached[new] = True
        P = (W.T @ self.gram[active]).T
        return P - self.C @ (self.C[active].T @ W) if self.C.shape[1] else P

    def tracking(self):
        """Whether a matrix step keeps the route's state; a step that does
        not counts towards it until it is due."""
        if self.limit < 0 or self.misses <= 0:
            return False
        if self.due > 0:
            self.due -= 1
            return False
        return True

    def sample_gram(self):
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
    """The step of the power loop for all four variants: the weights W of
    the correlations S = mu * A'X of the iterate X -> the next iterate's
    correlations, from one of the sources of the module docstring.

    A sparse step reads rows of G (_gram_step) and leaves its iterate
    unformed; iterate() forms it from the weights it kept.  Any other
    step retracts the gradient 2 mu A W, less the fit's earlier
    directions, and correlates the new X by the kernel.  Its A W comes
    from K once the fit keeps that route's state: R = S - W
    (threshold_residual) moves only on the rows that are or were
    inactive, plus l1 sign flips, so A R is updated by one product over
    those rows of A.  A step after a sparse one, and the next, run the
    kernel.  Which source a step takes never depends on the worker count.
    """

    def __init__(self, fit, X, gamma, mu, penalty, workers):
        self.fit, self.A, self.mu, self.workers = fit, fit.A, mu, workers
        self.gamma, self.penalty = gamma, penalty
        self.X = fit.project(X)
        # S belongs to X.  R is the last step's residual; after a route
        # step AR is its A R, after a kernel step `last` holds its (A W, X),
        # from which A R = mu K X - A W is formed only if this step takes
        # the route.  Each is None when unknown.  unformed holds the
        # weights that give the iterate after a sparse step.
        self.start = self.S = mu * par_matvec_t(self.A, self.X, workers)
        self.R = self.AR = self.last = self.unformed = None

    def forget(self):
        """Drop the route's state: X no longer gives the correlations."""
        self.S = self.R = self.AR = self.last = None

    def _gram_step(self, W):
        # The correlations of a sparse step from the fit's rows of G, or
        # None for a matrix step: when the step is not sparse, a column of
        # W is all zero, or M is too near singular for its inverse square
        # root (M squares the gradient's condition number), so that
        # polar_projection makes every rank decision.
        if not self.fit.gram_limit:
            return None
        active = _active_columns(W, self.fit.gram_limit)
        if active is None or not active.size:
            return None
        W = W[active]
        if W.ndim == 2 and not np.any(W, axis=0).all():
            return None
        P = self.fit.gram_products(W, active)
        if W.ndim == 1:
            q = W @ P[active]
            return self.mu * (P / np.sqrt(q)) if q > 0 else None
        d = np.broadcast_to(2.0 * self.mu, W.shape[1:])
        lam, V = np.linalg.eigh((W.T @ P[active]) * np.outer(d, d))
        if not lam[0] > np.sqrt(np.finfo(np.float64).eps) * lam[-1]:
            return None
        return P @ ((d[:, None] * V / np.sqrt(lam)) @ V.T * self.mu)

    def _accumulate(self, W):
        # A W for the weights W of the correlations S of the current X.
        S, R_prev, AR_prev, last = self.S, self.R, self.AR, self.last
        self.forget()
        fit = self.fit
        if S is None or not fit.tracking():
            return par_threshold_accumulate(self.A, W, self.workers)
        self.R = R = threshold_residual(S, W, self.gamma, self.penalty)
        rows = None if R_prev is None else _route_rows(W, R, R_prev, fit.limit)
        if rows is None:
            if R_prev is not None:
                fit.misses -= 1
            AW = par_threshold_accumulate(self.A, W, self.workers)
            self.last = AW, self.X
            return AW
        K = fit.sample_gram()
        if AR_prev is None:
            AW_last, X_last = last
            AR_prev = self.mu * (K @ X_last) - AW_last
        self.AR = AR_prev + _gathered_product(self.A.values, rows, R[rows] - R_prev[rows])
        return self.mu * (K @ self.X) - self.AR

    def retract(self, W):
        """Move X to the retracted gradient for the weights W; False,
        leaving X, when that gradient is zero."""
        G = self.fit.project((2.0 * self.mu) * self._accumulate(W))
        if G.ndim == 1:
            norm = np.linalg.norm(G)
            if norm == 0.0:
                return False
            self.X = G / norm
        else:
            self.X = polar_projection(G)
        return True

    def __call__(self, W):
        S = self._gram_step(W)
        if S is not None:
            self.forget()
            self.unformed = W
            return S
        self.unformed = None
        if not self.retract(W):
            return None
        self.S = self.mu * par_matvec_t(self.A, self.X, self.workers)
        return self.S

    def iterate(self):
        """The iterate the last correlations belong to."""
        if self.unformed is not None:
            self.retract(self.unformed)
            self.unformed = None
        return self.X


def climb(fit, X, gamma, mu, penalty, tol, max_iter, workers):
    """ascend on the fit's data: each iterate's correlations are
    thresholded once, for both the step and the objective.  Returns (X, S,
    history, converged)."""
    step = _Retraction(fit, X, gamma, mu, penalty, workers)
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
    return climb(_Fit(A), _check_iterate(X, A.p), gamma, mu, penalty, tol, max_iter, workers)


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

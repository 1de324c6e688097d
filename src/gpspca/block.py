"""Generalized power iteration for all four sparse PCA formulations.

One loop (climb) and one step (_Retraction) serve every variant:
correlate the iterate with every column, threshold, accumulate the
thresholded columns into the gradient, and retract.  A length-p iterate
(single-unit, the block case with m = 1) is normalized; a p x m iterate
(block) takes the polar factor of the gradient.  The steps of one block
fit or single-unit sequence share one _Fit: single_unit's holds the
earlier directions X of its sequence, which every step projects out.

The climb thresholds each iterate's correlations once
(_Retraction.weights): when few rows are active it keeps their indices
and weights alone, found for a vector without a full-length pass unless
a count over a prefix leaves the step possibly sparse.  The step takes
(active rows, weights), and the kernel sums those columns alone when at
most n // GATHER_DIVISOR are active.  A step's products have three
sources:
- the kernels on A: the accumulation A W and the correlations A'X;
- for a sparse step, with 0 < k <= p // GRAM_DIVISOR active rows of W,
  the fit's cached rows of G_l = G - C C' (G = A'A, C = A'X, empty for a
  block fit): with P = G_l[:, act] W_act, D = diag(2 mu) and the
  gradient's Gram matrix M = D W_act' P[act] D, the new correlations are
  mu P D M^{-1/2} (mu P / sqrt(w'P[act]) for a vector), and the iterate
  is formed once, at the end of the climb; while a climb's active rows
  repeat, its steps reuse the last step's block G_l[act].  A sequence
  computes its rows a step at a time until it has computed
  n // GRAM_BULK_DIVISOR of them, then all of G in one product, and a
  component that starts from a deflated column whose row is cached reads
  its first correlations from that row;
- for a dense step whose threshold moved on few rows, the gradient
  A W = mu K X - A R from K = A A' and the residual R = S - W, with A R
  updated by parallel._gathered_product over the rows where R moved.
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
    _gathered_product,
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
# The accumulation kernel sums the active columns alone when at most
# n // GATHER_DIVISOR are active.  One thread, finding the active set
# included, one gathered copy (slower than parallel's GATHER_BYTES blocks)
# against the full kernel, two runs: at 400x1000, vector, 20-22, 30, 39,
# 64-89 and 227 us at 0.5, 5, 10, 25 and 50% active against 140-150 us;
# at 200x2000, m=5, 75-80, 75-93, 87-115, 184-223 and 380-425 us against
# 220-340 us; at 800x8000, vector, 1.8 ms at 25% against 2.3 ms, but
# 3.9-4.4 ms at 50%.
GATHER_DIVISOR = 4
# A fit caches rows of G = A'A only when all of G takes at most this
# many bytes: 8 MB at n = 1000, 32 MB at n = 2000, 512 MB at n = 8000.
GRAM_MAX_BYTES = 2**25
# A sequence computes rows of G a step at a time, A[:, new]'A, each such
# product streaming all of A, until it has computed n // GRAM_BULK_DIVISOR
# rows; its next step with a new row computes all of G in one product.
# One thread, best of 7: at 400x1000, 1, 4 and 16 rows took 193, 461 and
# 634 us and all of G 10.9 ms, what 57 single rows cost; at 200x2000,
# 179, 452, 554 us and 31.2 ms.  A recognition sequence (400x1000, sl1
# gamma 3, m = 50) computes about 300 rows a step at a time without the
# switch and 65 with it; interleaved in one process, four such sequences
# took 0.73 of the time with the switch (sl0 gamma 9: 0.59).  Sequences
# of a few dozen steps stay below it: 200x2000 sl1 gamma 3 and 4 at
# m = 5 never reached 125 rows.
GRAM_BULK_DIVISOR = 16
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


class RankDeficiencyError(RuntimeError):
    """Gradient lost full column rank, so no polar factor exists.

    Usually means a gamma_j annihilated an entire component or m exceeds
    the data's effective rank.  Carries the numerical rank and, once the
    solve loop tags it, the iteration index, which the message names.
    """

    def __init__(self, rank, required):
        super().__init__(rank, required)
        self.rank, self.required, self.iteration = rank, required, None

    def __str__(self):
        where = "" if self.iteration is None else f" at iteration {self.iteration}"
        return (f"gradient has numerical rank {self.rank} < {self.required}{where}; "
                "reduce gamma or m")


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
    # scaled correlations mu_j a_i'x_j, all n rows or the active ones
    # alone; gamma broadcasts over its columns.  An l1 weight is
    # +-[|s| - gamma]_+ and an l0 weight is s or 0, so both sums equal
    # those over the correlations term for term.
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
    active = _active_columns(W, A.n // GATHER_DIVISOR)
    if active is not None:
        W = W[active]
    return (2.0 * mu) * par_threshold_accumulate(A, W, workers, active)


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
    both empty for a block fit; the rows of G_l = G - C C' (G = A'A) its
    sparse steps have needed (gram_rows), all of G once a sequence has
    computed n // GRAM_BULK_DIVISOR rows one step at a time (a block fit
    keeps computing them a step at a time: its fits are short); and
    K = A A' for its dense steps, on the schedule of SAMPLE_GRAM_DIVISOR.
    What is computed when depends on the fit's steps alone, never on the
    worker count.
    """

    def __init__(self, A, sequence=False):
        self.A = A
        self.X = np.empty((A.p, 0))
        self.C = np.empty((A.n, 0))
        self.gram_limit = A.p // GRAM_DIVISOR if 8 * A.n * A.n <= GRAM_MAX_BYTES else 0
        # Rows of G_l, and the number of columns of C each has taken (-1:
        # not computed); both None until the first sparse step.  All of G
        # is computed at the first new row after bulk_after rows (n: never,
        # as a row still to compute leaves fewer).
        self.gram = self.level = None
        self.bulk_after = A.n // GRAM_BULK_DIVISOR if sequence else A.n
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

    def gram_rows(self, active):
        """G_l[active], a k x n copy.  Rows never computed take one product
        A[:, new]'A until bulk_after rows were computed that way; then all
        of G takes one, into the cache, which keeps the rows it had.  (All
        of G on a sequence's first sparse step made fits of a few dozen
        steps 2-3x slower; after bulk_after rows it costs about what they
        did, so about twice the better choice at most.)  Then each row
        takes, in the cache, the columns of C it has not taken, so it
        takes each one once."""
        values = self.A.values
        if self.gram is None:
            self.gram = np.empty((self.A.n, self.A.n))
            self.level = np.full(self.A.n, -1)
        level = self.level[active]
        new = active[level < 0]
        if new.size and np.count_nonzero(self.level >= 0) >= self.bulk_after:
            # Into the cache, not a second n x n array: with one, a
            # recognition sweep (400x1000, sl1 m = 2..50, then pca) peaked
            # at 103 MiB of RSS against 93 MiB, by how the allocator reuses
            # freed memory, not by what it holds.
            cached = np.flatnonzero(self.level >= 0)
            kept = self.gram[cached]
            np.matmul(values.T, values, out=self.gram)
            self.gram[cached] = kept
            self.level[self.level < 0] = 0
            level = self.level[active]
        elif new.size:
            self.gram[new] = values[:, new].T @ values
            level[level < 0] = 0
        l = self.C.shape[1]
        for lev in np.unique(level[level < l]):
            rows = active[level == lev]
            self.gram[rows] -= self.C[rows, lev:] @ self.C[:, lev:].T
        self.level[active] = l
        return self.gram[active]

    def correlations(self, x, workers, column=None):
        """A'x; read from row i of G_l when x is column i of A_l over its
        norm, column = (i, norm), and that row was computed: A'x =
        A_l'a_l,i / norm = G_l[i] / norm."""
        if column is not None and self.level is not None and self.level[column[0]] >= 0:
            i, norm = column
            return self.gram_rows(np.array([i]))[0] / norm
        return par_matvec_t(self.A, x, workers)

    def gram_products(self, W, rows):
        """P = G_l[:, act] W for the weights W of the active rows act, with
        rows = G_l[act]."""
        return (W.T @ rows).T

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


def _active_columns(weights, limit):
    """Indices of the columns with a nonzero weight (nonzero rows of an
    n x m block), or None when more than limit of them are active."""
    # Nonzero counts bound the active count from below at a fraction of
    # the cost of the row reduction.  The first 2 * limit entries of one
    # column stop a dense call at half a column's count; the whole block,
    # with more than m * limit nonzeros, stops one that is not quite sparse.
    lead = weights if weights.ndim == 1 else weights[:, 0]
    if np.count_nonzero(lead[: 2 * limit]) > limit:
        return None
    if np.count_nonzero(weights) > limit * (weights.size // len(weights)):
        return None
    # flatnonzero reads a boolean mask faster than the float weights: for
    # 4 nonzeros in 1000, 2.6-3.1 against 4.3-5.5 us (best of 7 x 2000).
    mask = weights != 0
    if mask.ndim == 2:
        # An OR over the m column masks, as a boolean product: 17 us
        # against 40 us for np.any(weights, axis=1) on a 2000 x 5 block.
        mask = mask @ np.ones(mask.shape[1], bool)
    active = np.flatnonzero(mask)
    return active if active.size <= limit else None


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
    return rows if rows.size <= limit and _live(W) else None


def _live(W):
    # Whether every column of W has an active entry; for a block, a boolean
    # product, about 8 us against 48 us for W.any(axis=0) at 2000 x 5.
    return W.any() if W.ndim == 1 else (np.ones(len(W), bool) @ (W != 0)).all()


def _scattered(n, active, w):
    # All n weights from those of the active rows.
    W = np.zeros((n,) + w.shape[1:])
    W[active] = w
    return W


def _passes(S, gamma, penalty):
    # Where the threshold weight of S is nonzero: |s| > gamma (l1), s^2 >
    # gamma (l0), as in parallel.threshold_weights.
    if penalty == "l1":
        return np.abs(S) > gamma
    if penalty == "l0":
        return S * S > gamma
    raise ValueError(f"unknown penalty {penalty!r}")


class _Retraction:
    """The step of the power loop for all four variants: the weights of
    the correlations S = mu * A'X of the iterate X -> the next iterate's
    correlations, from one of the sources of the module docstring.

    weights(S) finds the active rows once per iterate and hands the step
    (active, w): the weights of those rows, or active None and all n
    weights when the step is not sparse.  A sparse step reads rows of G_l
    (_gram_step) and leaves its iterate unformed; iterate() forms it from
    the weights it kept.  While consecutive sparse steps have the same
    active rows, each reuses the last one's block G_l[act] (_gram_rows); a
    new climb starts without one.  Any other step retracts the gradient
    2 mu A W, less the fit's earlier directions, and correlates the new X
    by the kernel.  Its A W comes from K once the fit keeps that route's
    state: R = S - W (threshold_residual) moves only on the rows that are
    or were inactive, plus l1 sign flips, so A R is updated by one product
    over those rows of A.  A step after a sparse one, and the next, run
    the kernel.  Which source a step takes never depends on the worker
    count.
    """

    def __init__(self, fit, X, gamma, mu, penalty, workers, column=None):
        self.fit, self.A, self.mu, self.workers = fit, fit.A, mu, workers
        self.gamma, self.penalty = gamma, penalty
        # A step is sparse when at most this many rows are active: the rows
        # source takes up to gram_limit, the kernel sums up to gather alone.
        self.gather = self.A.n // GATHER_DIVISOR
        self.sparse_limit = max(fit.gram_limit, self.gather)
        self.X = fit.project(X)
        # S belongs to X.  R is the last step's residual; after a route
        # step AR is its A R, after a kernel step `last` holds its (A W, X),
        # from which A R = mu K X - A W is formed only if this step takes
        # the route.  Each is None when unknown.  unformed holds the
        # (active, w) that give the iterate after a sparse step.
        self.start = self.S = mu * fit.correlations(self.X, workers, column)
        self.R = self.AR = self.last = self.unformed = None
        # (active rows of the last step, G_l at those rows) while the
        # climb's steps read rows of G_l; None after any other step.
        self.kept = None

    def weights(self, S):
        """(active, w) for the correlations S: the active rows and their
        threshold weights when at most sparse_limit rows are active, else
        (None, all n weights)."""
        limit, gamma, penalty = self.sparse_limit, self.gamma, self.penalty
        if S.ndim == 2:
            W = threshold_weights(S, gamma, penalty)
            active = _active_columns(W, limit)
            return (None, W) if active is None else (active, W[active])
        # The first 2 * limit correlations rule out a dense vector, at half
        # its count, before any pass over all n.
        if np.count_nonzero(_passes(S[: 2 * limit], gamma, penalty)) <= limit:
            active = _passes(S, gamma, penalty).nonzero()[0]
            if active.size <= limit:
                s = S[active]
                # On active rows, bitwise sign(s) * (|s| - gamma).
                return active, (s - gamma * np.sign(s) if penalty == "l1" else s)
        return None, threshold_weights(S, gamma, penalty)

    def forget(self):
        """Drop the route's state: X no longer gives the correlations."""
        self.S = self.R = self.AR = self.last = None

    def _gram_step(self, active, w):
        # The correlations of a sparse step from the fit's rows of G_l at the
        # active rows, or None for a matrix step: when the step is not
        # sparse, a column of W is all zero, or M is too near singular for
        # its inverse square root (M squares the gradient's condition
        # number), so that polar_projection makes every rank decision.
        if active is None or not 0 < active.size <= self.fit.gram_limit or not _live(w):
            return None
        P = self.fit.gram_products(w, self._gram_rows(active))
        if w.ndim == 1:
            q = w @ P[active]
            if not q > 0:
                return None
            # In place, P's own buffer: bitwise mu * (P / sqrt(q)).
            P /= np.sqrt(q)
            P *= self.mu
            return P
        d = np.broadcast_to(2.0 * self.mu, w.shape[1:])
        lam, V = np.linalg.eigh((w.T @ P[active]) * np.outer(d, d))
        if not lam[0] > np.sqrt(np.finfo(np.float64).eps) * lam[-1]:
            return None
        return P @ ((d[:, None] * V / np.sqrt(lam)) @ V.T * self.mu)

    def _gram_rows(self, active):
        # G_l[active]: the last step's block while the climb's active rows
        # repeat (C is fixed for a climb), otherwise a copy from the fit.
        kept = self.kept
        if kept is None or kept[0].size != active.size or (kept[0] != active).any():
            self.kept = kept = active, self.fit.gram_rows(active)
        return kept[1]

    def _accumulate(self, active, w):
        # A W for the weights (active, w) of the correlations S of the
        # current X; the kernel sums the active columns alone when at most
        # gather are active.
        if active is not None and active.size > self.gather:
            active, w = None, _scattered(self.A.n, active, w)
        S, R_prev, AR_prev, last = self.S, self.R, self.AR, self.last
        self.forget()
        fit = self.fit
        if S is None or not fit.tracking():
            return par_threshold_accumulate(self.A, w, self.workers, active)
        W = w if active is None else _scattered(self.A.n, active, w)
        self.R = R = threshold_residual(S, W, self.gamma, self.penalty)
        rows = None if R_prev is None else _route_rows(W, R, R_prev, fit.limit)
        if rows is None:
            if R_prev is not None:
                fit.misses -= 1
            AW = par_threshold_accumulate(self.A, w, self.workers, active)
            self.last = AW, self.X
            return AW
        K = fit.sample_gram()
        if AR_prev is None:
            AW_last, X_last = last
            AR_prev = self.mu * (K @ X_last) - AW_last
        self.AR = AR_prev + _gathered_product(self.A.values, rows, R[rows] - R_prev[rows])
        return self.mu * (K @ self.X) - self.AR

    def retract(self, active, w):
        """Move X to the retracted gradient for the weights (active, w);
        False, leaving X, when it is zero."""
        G = self.fit.project((2.0 * self.mu) * self._accumulate(active, w))
        if G.ndim == 1:
            norm = np.linalg.norm(G)
            if norm == 0.0:
                return False
            self.X = G / norm
        else:
            self.X = polar_projection(G)
        return True

    def __call__(self, active, w):
        """The next iterate's correlations for the weights (active, w) of
        the current ones (see weights); None, leaving X, at a zero
        gradient."""
        S = self._gram_step(active, w)
        if S is not None:
            self.forget()
            self.unformed = active, w
            return S
        self.unformed = self.kept = None
        if not self.retract(active, w):
            return None
        self.S = self.mu * par_matvec_t(self.A, self.X, self.workers)
        return self.S

    def iterate(self):
        """The iterate the last correlations belong to."""
        if self.unformed is not None:
            self.retract(*self.unformed)
            self.unformed = None
        return self.X


def climb(fit, X, gamma, mu, penalty, tol, max_iter, workers, column=None):
    """ascend on the fit's data: each iterate's correlations are
    thresholded once, for both the step and the objective.  column =
    (i, norm) says X is column i of the fit's (deflated) data over its
    norm (see _Fit.correlations).  Returns (X, S, history, converged)."""
    step = _Retraction(fit, X, gamma, mu, penalty, workers, column)
    S = step.start
    active, w = step.weights(S)
    f = _objective(w, gamma, penalty)
    history = [f]
    converged = False
    for iteration in range(max_iter):
        try:
            S_new = step(active, w)
        except RankDeficiencyError as err:
            err.iteration = iteration
            err.history = history
            raise
        if S_new is None:
            converged = True
            break
        S = S_new
        active, w = step.weights(S)
        f_new = _objective(w, gamma, penalty)
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

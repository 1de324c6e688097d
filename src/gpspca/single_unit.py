"""Single-unit sparse PCA solvers (l1 and l0 penalties).

One component at a time: each is a run of the generalized power loop
(block.climb) on the unit sphere in sample space, from one or more
starting directions and optionally refined over nearby supports; the
sparse loading vector is read off the final correlations.  More
components come from sequential orthogonal-projection deflation, in a
ComponentSequence that a later request for more components extends.

The deflation stays implicit.  Component l is solved on
A_l = (I - X X')A, where X holds the directions of the components
before it, but A_l is never formed: a step accumulates y = A w, projects
X out of it and correlates x = y / ||y|| with A.  A step's products have
three sources.  A step runs the two kernels on A by default.  When few
columns are active, it takes its correlations from cached columns of
G = A'A instead, because A_l'x = G_l w / sqrt(w'G_l w) with
G_l = G - C C' and C = A'X (see GRAM_DIVISOR), and leaves the iterate
unformed until the end of the climb.  When nearly every column is active
and its thresholding moved on few of them, it takes y = A w from
K = A A' (block._SampleGram): x is orthogonal to X, so A_l'x = A'x, and
K needs no deflation.  The sequence computes a row of G the first time
its column is active in a sparse step (see _Deflated.gram_correlations),
and K on its first route step (see block.SAMPLE_GRAM_DIVISOR).
"""

import time

import numpy as np

from .block import _check_iterate, _loadings, _Retraction, _SampleGram, climb
from .core import DataMatrix, RunReport, SparseLoadings, as_data_matrix, column_norms
from .parallel import threshold_weights
# Single-unit steps reach the kernels through block._Retraction; perfbench
# still wraps the kernels by these names here.
from .parallel import par_matvec_t, par_threshold_accumulate  # noqa: F401

# A step with k active columns takes the Gram route when
# 0 < k <= p // GRAM_DIVISOR.  It reads k rows of G (about k*n
# multiply-adds) where the matrix route computes A w and A'x (about p*n
# each).  One thread, per step, Gram against matrix route, with 0 and 50
# earlier directions, two runs: at 400x1000, 75-151 against 229-259 us
# at k = p/4 and 201-321 against 243-329 us at p/2; at 200x2000, 91-143
# against 198-262 us at p/4, 186-234 against 245-264 us at p/3 and
# 226-333 against 198-231 us at p/2.  The crossover lies between p/3 and
# p/2; p/4 keeps a margin below it.
GRAM_DIVISOR = 4
# A sequence caches rows of G = A'A only when all of G takes at most this
# many bytes: 8 MB at n = 1000, 32 MB at n = 2000, 512 MB at n = 8000.
GRAM_MAX_BYTES = 2**25


def _check_unit(x, p):
    x = _check_iterate(x, p)
    if x.ndim != 1:
        raise ValueError(f"x must have length p={p}, got shape {x.shape}")
    return x


def _initial_iterates(data, config):
    """Start directions per the init strategy; config.restarts of them.

    max_norm_column walks the deflated columns in decreasing norm order;
    asking for more starts than there are columns tops up with seeded
    random directions.
    """
    rng = np.random.default_rng(config.seed)
    out = []
    if config.init == "max_norm_column":
        for i in np.argsort(-data.norms, kind="stable")[: config.restarts]:
            column = data.columns(i)
            norm = np.linalg.norm(column)
            if norm > 0:
                out.append(column / norm)
    for _ in range(config.restarts - len(out)):
        x = rng.standard_normal(data.A.p)
        out.append(x / np.linalg.norm(x))
    return out


def _restricted_leading_direction(data, support, x):
    # Leading left singular vector of the support-restricted deflated
    # matrix, signed to agree with the current iterate; None if those
    # columns are all zero.
    U, s, _ = np.linalg.svd(data.columns(support), full_matrices=False)
    if s[0] == 0.0:
        return None
    return -U[:, 0] if U[:, 0] @ x < 0 else U[:, 0]


def _refine_support(data, best, gamma, config, workers):
    """Re-climb from supports adjacent to the converged one.

    Near-threshold columns create closely spaced local maxima; relaxing
    or tightening the threshold by a few percent, restarting from the
    restricted leading direction, and keeping any improvement is a
    cheap deterministic escape.
    """
    if gamma <= 0:
        return best
    penalty = config.penalty
    for _ in range(4):
        s = best[1]
        current = threshold_weights(s, gamma, penalty) != 0
        improved = False
        for delta in (0.02, 0.05, 0.1, 0.2, 0.4):
            for g2 in (gamma * (1.0 - delta), gamma * (1.0 + delta)):
                support = threshold_weights(s, g2, penalty) != 0
                if not support.any() or np.array_equal(support, current):
                    continue
                x0 = _restricted_leading_direction(data, support, best[0])
                if x0 is None:
                    continue
                trial = _climb(data, x0, gamma, config, workers)
                if trial[2][-1] > best[2][-1] * (1.0 + 1e-12):
                    best = trial
                    improved = True
        if not improved:
            break
    return best


class _Deflated:
    """The deflated matrix A_l = (I - X X')A, never formed.

    Holds A, the orthonormal directions X (p x l), their correlations
    C = A'X (n x l), the column norms of A_l and the rows of G = A'A that
    the sequence's sparse steps have needed so far.  A_l'A_l = G - C C',
    so a step needs only the rows of G at its active columns.  Its
    sample_gram holds the sequence's K = A A' for dense steps.
    """

    def __init__(self, A):
        self.A = A
        self.X = np.empty((A.p, 0))
        self.C = np.empty((A.n, 0))
        self.norms = column_norms(A)
        self.gram_limit = A.p // GRAM_DIVISOR if 8 * A.n * A.n <= GRAM_MAX_BYTES else 0
        # Rows of G, valid where cached is set; both None until the first
        # sparse step.
        self.gram = None
        self.cached = None
        self.sample_gram = _SampleGram(A)

    def add(self, x, c):
        """Deflate by one more direction x, orthogonal to X, with c = A'x."""
        self.X = np.column_stack([self.X, x])
        self.C = np.column_stack([self.C, c])
        # Column i of A_l loses (x'a_i)^2 = c_i^2 of its squared norm,
        # because x is orthogonal to X.
        self.norms = np.sqrt(np.maximum(self.norms * self.norms - c * c, 0.0))

    def project(self, v):
        """v with the directions X projected out."""
        return v - self.X @ (self.X.T @ v)

    def columns(self, index):
        """Column index of A_l, or the p x k columns for an index array."""
        return self.A.values[:, index] - self.X @ self.C[index].T

    def gram_correlations(self, w, active):
        """A_l'x for x = A_l w / ||A_l w||, from the rows of G at the
        active columns of w; None when w'A_l'A_l w rounds to 0 or below.

        Uncached rows are computed in one product A[:, new]'A, so a
        sequence pays for the rows its supports visit; all of G, built on
        the first sparse step, made fits of a few dozen steps 2-3x slower.
        Which rows are computed when depends on the sequence's steps alone.
        """
        if self.gram is None:
            self.gram = np.empty((self.A.n, self.A.n))
            self.cached = np.zeros(self.A.n, dtype=bool)
        new = active[~self.cached[active]]
        if new.size:
            self.gram[new] = self.A.values[:, new].T @ self.A.values
            self.cached[new] = True
        w = w[active]
        v = w @ self.gram[active] - self.C @ (self.C[active].T @ w)
        q = w @ v[active]
        return v / np.sqrt(q) if q > 0 else None


class _Step(_Retraction):
    """A single-unit step on the deflated data, for block.climb.

    A sparse step (1 to data.gram_limit active columns) takes the Gram
    route and leaves the iterate unformed; any other step takes the
    matrix route of _Retraction with X projected out, which forms it.
    A Gram step resets the state of _Retraction's route from K, so the
    next two matrix steps run the kernel.  Which route a step takes
    depends on its weights and on the sequence's earlier steps, never
    on the worker count.
    """

    def __init__(self, data, x, gamma, penalty, workers):
        super().__init__(data.A, x, gamma, 1.0, penalty, workers, data.project,
                         data.sample_gram)
        self.data = data
        # The weights that give the iterate, while the Gram route has left
        # it unformed.
        self._unformed = None

    def _gram_step(self, W):
        # The Gram route's correlations, or None when the step is not sparse
        # or w'A_l'A_l w rounded to 0 or below.
        data = self.data
        if not 0 < np.count_nonzero(W) <= data.gram_limit:
            return None
        return data.gram_correlations(W, np.flatnonzero(W))

    def __call__(self, W):
        S_new = self._gram_step(W)
        if S_new is not None:
            self._unformed = W
            self.forget()
            return S_new
        self._unformed = None
        return super().__call__(W)

    def iterate(self):
        if self._unformed is not None:
            self.retract(self._unformed)
            self._unformed = None
        return self.X


def _climb(data, x0, gamma, config, workers):
    # One single-unit climb on A_l from x0; returns (x, s, history, converged).
    step = _Step(data, x0, gamma, config.penalty, workers)
    return climb(step, gamma, config.penalty, config.tol, config.max_iter)


def _solve_component(data, gamma, config, workers):
    """Shared single-component path; returns (z, history, converged, x, s)."""
    # |a_i'x| <= ||a_i|| on the sphere: when even the largest column norm
    # is inactive the objective is identically zero; nothing to do.
    if not threshold_weights(np.max(data.norms), gamma, config.penalty):
        return np.zeros(data.A.n), [0.0], True, None, None
    best = None
    for x0 in _initial_iterates(data, config):
        trial = _climb(data, x0, gamma, config, workers)
        if best is None or trial[2][-1] > best[2][-1]:
            best = trial
    if config.refine:
        best = _refine_support(data, best, gamma, config, workers)
    x, s, history, converged = best
    return _loadings(s, gamma, config.penalty), history, converged, x, s


def deflate(A, x):
    """Project the component direction out of the data: (I - xx')A.

    The returned matrix is exactly orthogonal to x (x'A' = 0) and
    deflating twice with the same x is a no-op.  It allocates one p x n
    matrix: the outer product is built in it and overwritten by the
    difference, which the result then owns without a copy.  The solvers
    deflate implicitly (see ComponentSequence); this is the explicit form.
    """
    A = as_data_matrix(A)
    x = _check_unit(x, A.p)
    x = x / np.linalg.norm(x)
    out = np.empty(A.shape, order="F")
    np.multiply.outer(x, x @ A.values, out=out)
    np.subtract(A.values, out, out=out)
    return DataMatrix._own(out)


class ComponentSequence:
    """The sequential components of one matrix, extracted on demand.

    Component j is solved on the data deflated by components 1..j-1 with
    gamma_j, so it does not depend on how many components are asked for:
    growing a sequence to m and then to m' gives, bitwise, the
    components of one solve at m'.  The deflation is implicit: the
    sequence keeps the directions and correlations of the components so
    far, not a deflated copy of the data, and the rows of G = A'A its
    sparse steps have needed (see _Deflated).  It also keeps each
    component's loading column, objective history and converged flag.
    It grows past config.m only when every gamma_j is the same, because a
    per-component gamma belongs to its m.  Once a component comes back
    all-zero the rest are recorded as zero as well (deflation only
    shrinks activations), which is reported, not an error.
    """

    def __init__(self, A, config, workers=1):
        self.config = config
        self.workers = workers
        self.columns = []
        self.histories = []
        self.converged = []
        # The data deflated by the components so far; None once one came
        # back zero.
        self._data = _Deflated(as_data_matrix(A))
        self._n = self._data.A.n

    def _gamma(self, j):
        gamma = self.config.gamma
        if j >= gamma.size and np.any(gamma != gamma[0]):
            raise ValueError(f"a per-component gamma fixes m={gamma.size}; cannot extend past it")
        return float(gamma[min(j, gamma.size - 1)])

    def solve(self, m):
        """Loadings and report of the first m components, extracting the
        missing ones; iterations and wall_time count only this call."""
        start = time.perf_counter()
        first_new = len(self.columns)
        while len(self.columns) < m:
            z, history, converged = np.zeros(self._n), [0.0], True
            if self._data is not None:
                z, history, converged, x, s = _solve_component(
                    self._data, self._gamma(len(self.columns)), self.config, self.workers
                )
                if np.any(z):
                    self._data.add(x, s)
                else:
                    self._data = None
            self.columns.append(z)
            self.histories.append(history)
            self.converged.append(converged)
        loadings = SparseLoadings(np.column_stack(self.columns[:m]))
        return loadings, RunReport(
            objective_history=self.histories[0],
            iterations=sum(len(h) - 1 for h in self.histories[first_new:]),
            wall_time=time.perf_counter() - start,
            nnz_per_component=loadings.nnz_per_component(),
            converged=all(self.converged[:m]),
            component_histories=self.histories[:m],
        )


def solve_multi_sequential(A, config, workers=1, sequence=None):
    """Extract config.m components by repeated solve and (implicit) deflation.

    Component j uses gamma_j.  sequence, a ComponentSequence built on the
    same A, worker count and settings (m aside), is extended to config.m instead
    of starting over; the report then counts only the iterations and
    seconds of the components this call added.  A component whose gamma
    no column can pass comes back zero at once, with a converged history
    of [0.0]; with restarts > 1 or refine=True a component's history is
    its winning climb's.  m = 1 is the single-unit solve.
    """
    if sequence is None:
        sequence = ComponentSequence(A, config, workers)
    return sequence.solve(config.m)

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
X out of it and correlates x = y / ||y|| with A.  When few columns are
active, a step takes its correlations from cached columns of G = A'A
instead, because A_l'x = G_l w / sqrt(w'G_l w) with G_l = G - C C' and
C = A'X (see GRAM_DIVISOR); G is built once the sequence has taken
enough such steps to pay for it.  The iterate itself is then formed
once, at the end of the climb.
"""

import time

import numpy as np

from .block import _check_iterate, _loadings, _Retraction, climb
from .core import DataMatrix, RunReport, SparseLoadings, as_data_matrix, column_norms
from .parallel import _active_columns, threshold_weights
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
# G = A'A is built, once per sequence, only when it takes at most this
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


def solve_single_unit(A, config, workers=1):
    """Extract one sparse component; returns (SparseLoadings, RunReport).

    Climbs from the configured initialization until the relative
    objective change drops below config.tol (or max_iter), then recovers
    the loading vector from the final iterate.  When gamma is so large
    that no column can activate, the zero loading is returned
    immediately with a converged report.  With restarts > 1 or
    refine=True the report carries the winning climb's trace.  This is
    solve_multi_sequential with m = 1.
    """
    if config.m != 1:
        raise ValueError("solve_single_unit handles m=1; use solve_multi_sequential")
    return solve_multi_sequential(A, config, workers)


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
    C = A'X (n x l), the column norms of A_l and, once the sequence has
    taken enough sparse steps, G = A'A.  A_l'A_l = G - C C', so a step
    needs only the rows of G at its active columns.
    """

    def __init__(self, A):
        self.A = A
        self.X = np.empty((A.p, 0))
        self.C = np.empty((A.n, 0))
        self.norms = column_norms(A)
        self.gram_limit = A.p // GRAM_DIVISOR if 8 * A.n * A.n <= GRAM_MAX_BYTES else 0
        self.gram = None
        # Sparse steps left to take on the matrix route before G is built,
        # see gram_ready.
        self.gram_due = A.n // 4

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

    def gram_ready(self):
        """Whether a sparse step may take the Gram route, building G when
        it is due; a step that may not counts towards it.

        G = A'A takes p n^2 / 2 multiply-adds (it is symmetric), as many as
        n / 4 dense matrix steps of 2 p n (A w and A'x), so G is built on
        the sparse step that follows n // 4 of them on the matrix route,
        and a short sparse fit never builds it.  The BLAS runs G faster
        per multiply-add than a step: measured with one thread, G takes
        7.7 ms at 400x1000 and 23 ms at 200x2000, as long as 45 and 115-140
        sparse steps save (219-264 us on the matrix route, 37-97 us on the
        Gram route at k = 5 to p // 4).  Waiting for n // 4 rather than that
        costs a 50-component recog-sparse sequence (400x1000, about 2400
        steps) 190 -> 212 ms, and keeps fits of a few dozen steps at the
        matrix route's cost: 11-15 ms at 200x2000, gamma 4, against 36 ms
        when G is built on the first sparse step.
        """
        if self.gram is None:
            if self.gram_due > 0:
                self.gram_due -= 1
                return False
            values = self.A.values
            self.gram = values.T @ values
        return True

    def gram_correlations(self, w, active):
        """A_l'x for x = A_l w / ||A_l w||, from the rows of G at the
        active columns of w; None when w'A_l'A_l w rounds to 0 or below."""
        w = w[active]
        v = w @ self.gram[active] - self.C @ (self.C[active].T @ w)
        q = w @ v[active]
        return v / np.sqrt(q) if q > 0 else None


class _Step(_Retraction):
    """A single-unit step on the deflated data, for block.climb.

    A sparse step (1 to data.gram_limit active columns) takes the Gram
    route once data.gram_ready() and leaves the iterate unformed; any
    other step takes the matrix route of _Retraction with X projected
    out, which forms it.  Which route a step takes depends on its weights
    and on the sequence's earlier steps, never on the worker count.
    """

    def __init__(self, data, x, workers):
        super().__init__(data.A, x, 1.0, workers, data.project)
        self.data = data
        # The correlations (with gamma and penalty) whose weights give the
        # iterate, while the Gram route has left it unformed.
        self._unformed = None

    def _gram_step(self, S, gamma, penalty):
        # The Gram route's correlations, or None when the step is not sparse,
        # G is not due yet or w'A_l'A_l w rounded to 0 or below.  Thresholding
        # all of S before the gate costs 2-6 us more per dense step than
        # thresholding only the prefix the gate counts, against about 300 us
        # for the matrix step (200x2000 and 400x1000, one thread).
        data = self.data
        if not data.gram_limit:
            return None
        w = threshold_weights(S, gamma, penalty)
        active = _active_columns(w, data.gram_limit)
        if active is None or not active.size or not data.gram_ready():
            return None
        return data.gram_correlations(w, active)

    def __call__(self, S, gamma, penalty):
        S_new = self._gram_step(S, gamma, penalty)
        if S_new is not None:
            self._unformed = (S, gamma, penalty)
            return S_new
        self._unformed = None
        return super().__call__(S, gamma, penalty)

    def iterate(self):
        if self._unformed is not None:
            self.retract(*self._unformed)
            self._unformed = None
        return self.X


def _climb(data, x0, gamma, config, workers):
    # One single-unit climb on A_l from x0; returns (x, s, history, converged).
    return climb(_Step(data, x0, workers), gamma, config.penalty, config.tol, config.max_iter)


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
    far, not a deflated copy of the data, and G = A'A once its sparse
    steps have paid for it (see _Deflated.gram_ready).  It also keeps each
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
    seconds of the components this call added.
    """
    if sequence is None:
        sequence = ComponentSequence(A, config, workers)
    return sequence.solve(config.m)

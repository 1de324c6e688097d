"""Single-unit sparse PCA solvers (l1 and l0 penalties).

One component at a time: each is a run of the generalized power loop
(block.climb) on the unit sphere in sample space, from one or more
starting directions and optionally refined over nearby supports; the
sparse loading vector is read off the final correlations.  More
components come from sequential orthogonal-projection deflation, in a
ComponentSequence that a later request for more components extends.

The deflation stays implicit.  Component l is solved on
A_l = (I - X X')A, where X holds the directions of the components
before it, but A_l is never formed: a step projects X out of its
gradient, and a sparse step reads A_l'A_l = G - C C' (C = A'X) from the
sequence's cached rows of G = A'A (see block, which states where a
step's products come from).
"""

import time

import numpy as np

from .block import _check_iterate, _Fit, _loadings, climb
from .core import DataMatrix, RunReport, SparseLoadings, as_data_matrix, column_norms
from .parallel import threshold_weights
# Single-unit steps reach the kernels through block; perfbench still
# wraps the kernels by these names here.
from .parallel import par_matvec_t, par_threshold_accumulate  # noqa: F401


def _check_unit(x, p):
    x = _check_iterate(x, p)
    if x.ndim != 1:
        raise ValueError(f"x must have length p={p}, got shape {x.shape}")
    return x


def _initial_iterates(data, config):
    """Start directions per the init strategy; config.restarts of them,
    each as (x, column): column = (i, norm) when x is column i of A_l over
    its norm (see block._Fit.correlations), else None.

    max_norm_column walks the deflated columns in decreasing norm order;
    asking for more starts than there are columns tops up with seeded
    random directions.  The generator is built only for that top-up: a
    recognition repetition makes over a hundred calls that never draw.
    """
    out = []
    if config.init == "max_norm_column":
        for i in np.argsort(-data.norms, kind="stable")[: config.restarts]:
            column = data.columns(i)
            norm = np.linalg.norm(column)
            if norm > 0:
                out.append((column / norm, (i, norm)))
    if len(out) < config.restarts:
        rng = np.random.default_rng(config.seed)
        for _ in range(config.restarts - len(out)):
            x = rng.standard_normal(data.A.p)
            out.append((x / np.linalg.norm(x), None))
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


class _Deflated(_Fit):
    """The deflated matrix A_l = (I - X X')A, never formed: the _Fit of a
    sequence, with the column norms of A_l."""

    def __init__(self, A):
        super().__init__(A, sequence=True)
        self.norms = column_norms(A)

    def add(self, x, c):
        super().add(x, c)
        # Column i of A_l loses (x'a_i)^2 = c_i^2 of its squared norm,
        # because x is orthogonal to X.
        self.norms = np.sqrt(np.maximum(self.norms * self.norms - c * c, 0.0))

    def columns(self, index):
        """Column index of A_l, or the p x k columns for an index array."""
        return self.A.values[:, index] - self.X @ self.C[index].T


def _climb(data, x0, gamma, config, workers, column=None):
    # One single-unit climb on A_l from x0; returns (x, s, history, converged).
    return climb(data, x0, gamma, 1.0, config.penalty, config.tol, config.max_iter, workers,
                 column)


def _solve_component(data, gamma, config, workers):
    """Shared single-component path; returns (z, history, converged, x, s)."""
    # |a_i'x| <= ||a_i|| on the sphere: when even the largest column norm
    # is inactive the objective is identically zero; nothing to do.
    if not threshold_weights(np.max(data.norms), gamma, config.penalty):
        return np.zeros(data.A.n), [0.0], True, None, None
    best = None
    for x0, column in _initial_iterates(data, config):
        trial = _climb(data, x0, gamma, config, workers, column)
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
    sparse steps have needed (see block._Fit).  It also keeps each
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

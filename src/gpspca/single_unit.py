"""Single-unit sparse PCA solvers (l1 and l0 penalties).

One component at a time: each is a run of the generalized power loop
(block.ascend) on the unit sphere in sample space, from one or more
starting directions and optionally refined over nearby supports; the
sparse loading vector is read off the final correlations.  More
components come from sequential orthogonal-projection deflation, in a
ComponentSequence that a later request for more components extends.
"""

import time

import numpy as np

from .block import _check_iterate, _loadings, ascend
from .core import DataMatrix, RunReport, SparseLoadings, as_data_matrix, column_norms

from .parallel import DEFAULT_PLAN, threshold_weights

# perfbench/tracing.py wraps the column kernels under each solver
# module's names, this one included.
from .parallel import par_matvec_t, par_threshold_accumulate  # noqa: F401


def _check_unit(x, p):
    x = _check_iterate(x, p)
    if x.ndim != 1:
        raise ValueError(f"x must have length p={p}, got shape {x.shape}")
    return x


def _initial_iterates(A, config, norms):
    """Start directions per the init strategy; config.restarts of them.

    max_norm_column walks the columns in decreasing norm order (norms
    are A's column norms); asking for more starts than there are columns
    tops up with seeded random directions.
    """
    rng = np.random.default_rng(config.seed)
    if config.init == "random_orthonormal":
        out = []
        for _ in range(config.restarts):
            x = rng.standard_normal(A.p)
            out.append(x / np.linalg.norm(x))
        return out
    order = np.argsort(-norms, kind="stable")[: config.restarts]
    out = [A.values[:, i] / norms[i] for i in order if norms[i] > 0]
    for _ in range(config.restarts - len(out)):
        x = rng.standard_normal(A.p)
        out.append(x / np.linalg.norm(x))
    return out


def solve_single_unit(A, config, plan=DEFAULT_PLAN):
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
    return solve_multi_sequential(A, config, plan)


def _restricted_leading_direction(A, support, x):
    # Leading left singular vector of the support-restricted matrix,
    # signed to agree with the current iterate; None if those columns
    # are all zero.
    U, s, _ = np.linalg.svd(A.values[:, support], full_matrices=False)
    if s[0] == 0.0:
        return None
    return -U[:, 0] if U[:, 0] @ x < 0 else U[:, 0]


def _refine_support(A, best, gamma, config, plan):
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
                x0 = _restricted_leading_direction(A, support, best[0])
                if x0 is None:
                    continue
                trial = ascend(A, x0, gamma, 1.0, penalty, config.tol, config.max_iter, plan)
                if trial[2][-1] > best[2][-1] * (1.0 + 1e-12):
                    best = trial
                    improved = True
        if not improved:
            break
    return best


def _solve_component(A, gamma, config, plan):
    """Shared single-component path; returns (z, history, converged, x)."""
    # |a_i'x| <= ||a_i|| on the sphere: when even the largest column norm
    # is inactive the objective is identically zero; nothing to do.
    norms = column_norms(A)
    if not threshold_weights(np.max(norms), gamma, config.penalty):
        return np.zeros(A.n), [0.0], True, None
    best = None
    for x0 in _initial_iterates(A, config, norms):
        trial = ascend(A, x0, gamma, 1.0, config.penalty, config.tol, config.max_iter, plan)
        if best is None or trial[2][-1] > best[2][-1]:
            best = trial
    if config.refine:
        best = _refine_support(A, best, gamma, config, plan)
    x, s, history, converged = best
    return _loadings(s, gamma, config.penalty), history, converged, x


def deflate(A, x):
    """Project the component direction out of the data: (I - xx')A.

    The returned matrix is exactly orthogonal to x (x'A' = 0) and
    deflating twice with the same x is a no-op.  It allocates one p x n
    matrix: the outer product is built in it and overwritten by the
    difference, which the result then owns without a copy.
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
    components of one solve at m'.  The sequence keeps the deflated
    matrix and each component's loading column, objective history and
    converged flag, and deflates only when a further component is asked
    for.  It grows past config.m only when every gamma_j is the same,
    because a per-component gamma belongs to its m.  Once a component
    comes back all-zero the rest are recorded as zero as well (deflation
    only shrinks activations), which is reported, not an error.
    """

    def __init__(self, A, config, plan=DEFAULT_PLAN):
        self.config = config
        self.plan = plan
        self.columns = []
        self.histories = []
        self.converged = []
        # Matrix of the next component (None once one came back zero) and
        # the direction to deflate it by before that component is solved.
        self._current = as_data_matrix(A)
        self._pending = None
        self._n = self._current.n

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
            if self._current is not None:
                if self._pending is not None:
                    self._current = deflate(self._current, self._pending)
                    self._pending = None
                z, history, converged, self._pending = _solve_component(
                    self._current, self._gamma(len(self.columns)), self.config, self.plan
                )
                if not np.any(z):
                    self._current = None
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


def solve_multi_sequential(A, config, plan=DEFAULT_PLAN, sequence=None):
    """Extract config.m components by repeated solve + deflate.

    Component j uses gamma_j.  sequence, a ComponentSequence built on the
    same A, plan and settings (m aside), is extended to config.m instead
    of starting over; the report then counts only the iterations and
    seconds of the components this call added.
    """
    if sequence is None:
        sequence = ComponentSequence(A, config, plan)
    return sequence.solve(config.m)

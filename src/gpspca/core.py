"""Domain types and matrix utilities shared by every solver.

The data matrix convention throughout the package: A is a dense p x n
real matrix whose n columns a_1..a_n are the variables, each living in
the p-dimensional sample space.  Loading vectors z live in R^n, sphere
iterates x in R^p.  All arithmetic is double precision.
"""

from dataclasses import dataclass

import numpy as np

PENALTIES = ("l1", "l0")
INITS = ("max_norm_column", "random_orthonormal")

# Absolute tolerance for algebraic identities (unit norms, orthogonality,
# pattern/value agreement); solver convergence uses the relative tol in
# SolverConfig instead.
ALGEBRAIC_TOL = 1e-12
# Bytes of one block of a p x n matrix that a blocked pass (drawing an
# instance, checking finiteness, column norms) holds at a time, so its
# temporaries stay small beside the matrix itself.
BLOCK_BYTES = 2**21


def _column_blocks(p, n):
    """Column ranges of about BLOCK_BYTES each (at least one column)."""
    width = max(1, BLOCK_BYTES // (8 * p))
    return [(lo, min(lo + width, n)) for lo in range(0, n, width)]


class DataMatrix:
    """Dense p x n matrix with column-contiguous storage.

    Columns are the variables; column i is addressable as a contiguous
    view.  Instances are immutable: the underlying array is marked
    read-only so a matrix can be shared across concurrent workers.
    """

    __slots__ = ("values", "p", "n")

    def __init__(self, values):
        self._adopt(np.array(values, dtype=np.float64, order="F", copy=True))

    @classmethod
    def _own(cls, arr):
        """Wrap a float64 array nobody else writes to, without copying it;
        the array is validated and frozen in place."""
        matrix = cls.__new__(cls)
        matrix._adopt(arr)
        return matrix

    def _adopt(self, arr):
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
        p, n = arr.shape
        if p < 1 or n < 1:
            raise ValueError(f"matrix must be at least 1x1, got {p}x{n}")
        if not all(np.isfinite(arr[:, lo:hi]).all() for lo, hi in _column_blocks(p, n)):
            raise ValueError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("DataMatrix is immutable")

    @property
    def shape(self):
        return (self.p, self.n)

    def __repr__(self):
        return f"DataMatrix(p={self.p}, n={self.n})"


def as_data_matrix(A):
    """Coerce an array-like (or pass through a DataMatrix) to DataMatrix."""
    if isinstance(A, DataMatrix):
        return A
    return DataMatrix(A)


def _standard_normal_matrix(rng, p, n):
    """rng.standard_normal((p, n)) as a DataMatrix, drawn straight into its
    column-major storage: bitwise the same values, and the same rng state
    afterwards, with one block of rows beside the matrix instead of a
    row-major copy of it."""
    out = np.empty((p, n), order="F")
    rows = max(1, BLOCK_BYTES // (8 * n))
    for lo in range(0, p, rows):
        hi = min(lo + rows, p)
        out[lo:hi] = rng.standard_normal((hi - lo, n))
    return DataMatrix._own(out)


class SparseLoadings:
    """n x m loadings matrix with unit-norm-or-zero columns.

    The explicit sparsity pattern (per-column index arrays of the
    nonzero entries) is derived from the values at construction and is
    guaranteed to match them exactly.
    """

    __slots__ = ("values", "pattern", "m")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("loadings must be a vector or a 2-d matrix")
        norms = np.linalg.norm(arr, axis=0)
        bad = (norms > 0) & (np.abs(norms - 1.0) > ALGEBRAIC_TOL)
        if np.any(bad):
            raise ValueError(
                f"columns {np.nonzero(bad)[0].tolist()} are neither zero nor unit norm"
            )
        pattern = tuple(np.nonzero(arr[:, j])[0] for j in range(arr.shape[1]))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "m", arr.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError("SparseLoadings is immutable")

    @property
    def n(self):
        return self.values.shape[0]

    def nnz_per_component(self):
        return [int(idx.size) for idx in self.pattern]

    def __repr__(self):
        return f"SparseLoadings(n={self.n}, m={self.m}, nnz={self.nnz_per_component()})"


def _as_length_m(value, m, name):
    vec = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if vec.size == 1:
        vec = np.full(m, vec[0])
    if vec.shape != (m,):
        raise ValueError(f"{name} must be a scalar or length-{m} vector, got {vec.size} values")
    return vec


@dataclass(frozen=True)
class SolverConfig:
    """Settings for one solve: penalty, thresholds, stopping rule.

    gamma and mu accept a scalar or a length-m sequence and are stored
    as length-m vectors of finite entries (gamma_j >= 0, mu_j > 0); tol
    is finite and > 0.  solve_multi_sequential extracts the m components
    one at a time, solve_block jointly.
    """

    penalty: str = "l1"
    m: int = 1
    gamma: object = 0.0
    mu: object = 1.0
    tol: float = 1e-6
    max_iter: int = 1000
    init: str = "max_norm_column"
    seed: int = 0
    # Robustness knobs for the single-unit solvers; the defaults keep the
    # canonical single-start behavior.  restarts>1 climbs from that many
    # initial directions and keeps the best final objective; refine=True
    # additionally re-climbs from supports adjacent to the converged one
    # (thresholds relaxed/tightened), which matters when near-threshold
    # columns create closely spaced local maxima.
    restarts: int = 1
    refine: bool = False

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        gamma = _as_length_m(self.gamma, self.m, "gamma")
        if not np.all((gamma >= 0) & (gamma < np.inf)):
            raise ValueError("gamma entries must be finite and >= 0")
        mu = _as_length_m(self.mu, self.m, "mu")
        if not np.all((mu > 0) & (mu < np.inf)):
            raise ValueError("mu entries must be finite and > 0")
        gamma.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class RunReport:
    """Per-solve diagnostics: objective traces, timing, convergence.

    component_histories holds non-decreasing objective traces: one per
    component of a sequential fit, and one for a block fit, whose
    objective covers all m components.  A sequential fit that extends an
    earlier one (solve_multi_sequential with a ComponentSequence) still
    reports all m components' traces and converged flag, but iterations
    and wall_time count only the components that call added and the
    seconds it ran.  The loadings count their own nonzeros
    (SparseLoadings.nnz_per_component).

    converged is True when every climb stopped because the relative
    objective change fell below tol, or because its gradient or its
    component vanished.  It does not bound the distance to the limit,
    and a climb stopped at max_iter reads False.
    """

    component_histories: list
    iterations: int = 0
    wall_time: float = 0.0
    converged: bool = False


def column_norms(A):
    """Euclidean norm of every column a_i, as a length-n vector.

    Bitwise np.linalg.norm(A, axis=0), summed one block of columns at a
    time, so its squares take one block rather than a second p x n matrix
    and a solve's peak stays the one matrix check_allocation makes room for.
    """
    A = as_data_matrix(A)
    sums = np.empty(A.n)
    for lo, hi in _column_blocks(A.p, A.n):
        block = A.values[:, lo:hi]
        np.add.reduce(block * block, axis=0, out=sums[lo:hi])
    return np.sqrt(sums)

"""Sparse principal component analysis by generalized power iteration.

Four penalized formulations (single-unit and block, l1 and l0), a dense
PCA baseline, a deterministic data-parallel kernel engine, and a
benchmark harness with a CLI.
"""

from .block import (
    RankDeficiencyError,
    ascend,
    ascent_direction,
    objective,
    polar_projection,
    recover_pattern,
    solve_block,
)
from .core import (
    DataMatrix,
    RunReport,
    SolverConfig,
    SparseLoadings,
    column_norms,
)
from .datasets import (
    DatasetFormatError,
    FixedSplit,
    GroupedSplit,
    LabeledDataset,
    PerClassCount,
    knn_classify,
    load_dataset,
    load_matrix_csv,
    make_splits,
    synthetic_sparse_factors,
)
from .bench import (
    ExperimentConfig,
    emit_report,
    fit_projection,
    run_recognition_experiment,
    run_timing_experiment,
)
from .parallel import (
    measure_scaling,
    par_gram_apply,
    par_matvec_t,
    par_threshold_accumulate,
)
from .pca import PcaModel, pca_fit, project
from .single_unit import (
    ComponentSequence,
    deflate,
    solve_multi_sequential,
    solve_single_unit,
)

__version__ = "0.1.0"

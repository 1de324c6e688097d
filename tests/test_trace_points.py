"""The benchmark's tracer still finds and reaches the package's kernels.

perfbench/tracing.py wraps functions by (module, attribute) name.  A
renamed attribute breaks a traced run outright, and a solver that calls
a kernel some other way than through the wrapped name makes the traced
kernel counts read zero; both are checked here on the unmodified tracer.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gpspca.bench
import gpspca.block
import gpspca.cli
import gpspca.core
import gpspca.datasets
import gpspca.parallel
import gpspca.pca
import gpspca.single_unit
from gpspca import synthetic_sparse_factors

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {
    "cli": gpspca.cli, "bench": gpspca.bench, "single_unit": gpspca.single_unit,
    "block": gpspca.block, "parallel": gpspca.parallel, "core": gpspca.core,
    "pca": gpspca.pca, "datasets": gpspca.datasets,
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(tracing):
    for mod, attr, _ in tracing.TRACE_POINTS:
        assert callable(getattr(MODULES[mod], attr, None)), f"{mod}.{attr}"
    for mod in tracing.DATA_MATRIX_MODULES:
        assert callable(getattr(MODULES[mod], "as_data_matrix", None)), mod


@pytest.mark.parametrize("variant", ["sl1", "bl1"])
def test_fit_reaches_the_traced_block_kernels(tracing, variant):
    ds = synthetic_sparse_factors(n_classes=5, per_class=8, n_features=60, n_factors=3,
                                  support_size=6, seed=4)
    tracer = tracing.Tracer()
    reached = Counter()

    def counted(key, fn):
        def call(*args, **kwargs):
            reached[key] += 1
            return fn(*args, **kwargs)

        return call

    replacements = [
        (obj, attr, counted(f"{obj.__name__.rsplit('.', 1)[-1]}.{attr}", fn))
        for obj, attr, fn in tracing.trace_replacements(tracer, MODULES)
    ]
    with tracing.patched(replacements):
        loadings, _, report = gpspca.bench.fit_projection(ds.samples, variant, 2, 0.05)
    assert np.count_nonzero(loadings) > 0 and report.iterations > 0
    assert reached["block.par_matvec_t"] > 0
    assert reached["block.par_threshold_accumulate"] > 0
    by_name, _ = tracing.summarize(tracer.spans)
    for kernel in tracing.KERNEL_SPANS:
        assert by_name[kernel]["calls"] > 0
    # Each fit builds its DataMatrix once, before the solvers run.
    assert "core.as_data_matrix" not in by_name

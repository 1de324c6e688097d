"""Spans recorded around the public functions of each gpspca module.

Each function is wrapped where its caller looks it up (for example
`gpspca.single_unit.par_matvec_t`, not `gpspca.parallel.par_matvec_t`),
so a span covers exactly the calls one layer makes into the next.
Spans stay in memory as (name, start, end, parent, round, bytes) and are
written out when the run ends; nothing inside the package changes.
"""

import json
from contextlib import contextmanager
from time import perf_counter

# (module holding the name, attribute, span name).  The span name's first
# dotted part is the layer that owns the callee.
TRACE_POINTS = (
    ("cli", "run_timing_experiment", "bench.run_timing_experiment"),
    ("cli", "run_recognition_experiment", "bench.run_recognition_experiment"),
    ("cli", "load_dataset", "datasets.load_dataset"),
    ("bench", "fit_projection", "bench.fit_projection"),
    ("bench", "emit_report", "bench.emit_report"),
    ("bench", "check_allocation", "parallel.check_allocation"),
    ("bench", "solve_multi_sequential", "single_unit.solve_multi_sequential"),
    ("bench", "solve_block", "block.solve_block"),
    ("bench", "pca_fit", "pca.pca_fit"),
    ("bench", "project", "pca.project"),
    ("bench", "load_dataset", "datasets.load_dataset"),
    ("bench", "make_splits", "datasets.make_splits"),
    ("bench", "knn_classify", "datasets.knn_classify"),
    ("single_unit", "deflate", "single_unit.deflate"),
    ("single_unit", "par_matvec_t", "parallel.par_matvec_t"),
    ("single_unit", "par_threshold_accumulate", "parallel.par_threshold_accumulate"),
    ("block", "par_matvec_t", "parallel.par_matvec_t"),
    ("block", "par_threshold_accumulate", "parallel.par_threshold_accumulate"),
    ("block", "polar_projection", "block.polar_projection"),
)
# as_data_matrix passes a DataMatrix through untouched; only calls that
# build one (a Fortran-order copy plus a finiteness scan) get a span.
DATA_MATRIX_MODULES = ("core", "parallel", "single_unit", "block")
KERNEL_SPANS = ("parallel.par_matvec_t", "parallel.par_threshold_accumulate")
LAYERS = ("cli", "bench", "single_unit", "block", "parallel", "core", "pca", "datasets")


def kernel_bytes(A, *_args, **_kwargs):
    """Bytes a column kernel touches, computed from array sizes: the p x n
    matrix, one length-n vector and one length-p vector, float64."""
    return 8 * (A.p * A.n + A.n + A.p)


class Tracer:
    """In-memory span store; `round` tags spans of one closed-loop round.

    Every traced function is called from the main thread (the kernels'
    worker threads run inside `parallel`), so one stack of open spans
    gives each span its parent.
    """

    def __init__(self):
        self.spans = []
        self.round = None
        self._open = []

    def wrap(self, name, fn, size_of=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                nbytes = size_of(*args, **kwargs) if size_of else 0
                spans[sid] = (name, start, end, parent, self.round, nbytes)

        return traced

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, start, end, parent, rnd, nbytes) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start,
                    "end": end, "round": rnd, "bytes": nbytes,
                }) + "\n")


@contextmanager
def patched(replacements):
    """Set (object, attribute, value) triples; restore the originals on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def trace_replacements(tracer, modules):
    """Wrappers for every trace point; `modules` maps short names to modules.

    Wrap the current attribute, so a wrapper already installed (the
    benchmark's result tap on fit_projection) stays underneath the span.
    """
    out = []
    for mod, attr, name in TRACE_POINTS:
        fn = getattr(modules[mod], attr)
        size_of = kernel_bytes if name in KERNEL_SPANS else None
        out.append((modules[mod], attr, tracer.wrap(name, fn, size_of)))
    data_matrix = modules["core"].DataMatrix
    for mod in DATA_MATRIX_MODULES:
        original = getattr(modules[mod], "as_data_matrix")
        build = tracer.wrap("core.as_data_matrix", original)

        def as_data_matrix(A, _original=original, _build=build):
            if isinstance(A, data_matrix):
                return _original(A)
            return _build(A)

        out.append((modules[mod], "as_data_matrix", as_data_matrix))
    return out


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span (grandchildren are already inside)."""
    children = {}
    for sid, span in enumerate(spans):
        children.setdefault(span[3], []).append(sid)
    out = []
    for sid, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cs, ce in sorted((spans[c][1], spans[c][2]) for c in children.get(sid, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Totals by span name and self time by layer and by span name."""
    selfs = self_times(spans)
    by_name = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        name, start, end, _, _, nbytes = span
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        entry["bytes"] += nbytes
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    return by_name, layer_self

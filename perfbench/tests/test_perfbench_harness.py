"""Tests for the benchmark's own code: tail choice, self time, failure
accounting and seeded inputs.  Run with `PYTHONPATH=src pytest perfbench`."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, q",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_from_sample_count(n, q):
    assert checks.tail_percentile(n) == q


def _span(name, start, end, parent):
    return (name, start, end, parent, 0, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("bench.fit_projection", 1.0, 4.0, 0),
        _span("parallel.par_matvec_t", 2.0, 3.0, 1),  # grandchild of cli.main
        _span("bench.emit_report", 3.5, 6.0, 0),  # overlaps its sibling
        _span("core.as_data_matrix", 9.5, 11.0, 0),  # runs past its parent
    ]
    assert close(tracing.self_times(spans), [10.0 - 5.0 - 0.5, 2.0, 1.0, 2.5, 1.5])
    by_name, layer_self = tracing.summarize(spans)
    assert close([layer_self["cli"], layer_self["bench"], layer_self["parallel"]],
                 [4.5, 4.5, 1.0])
    assert by_name["bench.fit_projection"]["calls"] == 1


def close(got, want):
    return np.allclose(got, want, rtol=0, atol=1e-12)


def test_tracer_records_parents_and_kernel_bytes():
    tracer = tracing.Tracer()
    matrix = SimpleNamespace(p=3, n=4)
    kernel = tracer.wrap("parallel.par_matvec_t", lambda A: A, tracing.kernel_bytes)
    outer = tracer.wrap("bench.fit_projection", lambda: kernel(matrix))
    tracer.round = 7
    outer()
    (k_name, _, _, k_parent, k_round, k_bytes), (o_name, _, _, o_parent, _, _) = (
        tracer.spans[1], tracer.spans[0])
    assert (o_name, o_parent) == ("bench.fit_projection", -1)
    assert (k_name, k_parent, k_round) == ("parallel.par_matvec_t", 0, 7)
    assert k_bytes == 8 * (3 * 4 + 4 + 3)


@pytest.fixture
def tap(monkeypatch):
    import gpspca.bench

    tap = checks.FitTap(gpspca.bench.fit_projection)
    monkeypatch.setattr(gpspca.bench, "fit_projection", tap)
    return tap


def _timing_argv(out, sizes="100,200", variants="sl1"):
    return ("bench-timing", "--sizes", sizes, "--instances", "1", "--gammas", "0.05",
            "--variants", variants, "--m", "2", "--max-iter", "5", "--seed", "0",
            "--out", str(out))


def test_skipped_size_counts_as_failed(tmp_path, monkeypatch, tap):
    import gpspca.bench
    import gpspca.cli

    real = gpspca.bench.check_allocation

    def refuse_second_size(P, N):
        if N == 200:
            raise MemoryError("refused for the test")
        return real(P, N)

    monkeypatch.setattr(gpspca.bench, "check_allocation", refuse_second_size)
    argv = _timing_argv(tmp_path / "t.csv")
    rc = run.run_cli(gpspca.cli.main, argv)
    call = workloads.Call("timing", argv, argv[-1], 2, "timing", True)
    tally = checks.Tally()
    rows = checks.check_call(call, rc, tap.drain(), tally)
    assert rc == 0 and len(rows) == 1
    assert (tally.attempted, tally.failed) == (2, 1)


def test_error_row_counts_as_failed(tmp_path, tap):
    import gpspca.cli
    from gpspca.datasets import synthetic_sparse_factors

    ds = synthetic_sparse_factors(n_classes=3, per_class=4, n_features=6, n_factors=1,
                                  support_size=3, seed=0)
    data = tmp_path / "d.csv"
    workloads.write_labeled_csv(data, ds.labels, ds.samples)
    out = tmp_path / "r.csv"
    # Six training rows cannot carry eight block components: that row
    # gets an error entry and the sweep goes on.
    argv = ("bench-recognition", "--dataset", str(data), "--variant", "bl1", "--m", "2,8",
            "--gamma", "0.01", "--split", "per-class:2", "--out", str(out))
    rc = run.run_cli(gpspca.cli.main, argv)
    call = workloads.Call("rec", argv, str(out), 2, "recognition", True)
    tally = checks.Tally()
    rows = checks.check_call(call, rc, tap.drain(), tally)
    assert rc == 0 and len(rows) == 2 and rows[1]["error"]
    assert (tally.attempted, tally.failed) == (2, 1)


def test_nonzero_exit_fails_every_owed_fit(tmp_path, tap):
    import gpspca.cli

    argv = _timing_argv(tmp_path / "t.csv", variants="nope")
    rc = run.run_cli(gpspca.cli.main, argv)
    tally = checks.Tally()
    checks.check_call(workloads.Call("t", argv, argv[-1], 2, "timing", True), rc, tap.drain(),
                      tally)
    assert rc == 1 and (tally.attempted, tally.failed) == (2, 2)


def test_invalid_fits_are_failures():
    history_down = SimpleNamespace(component_histories=[[1.0, 2.0, 1.5]])
    flat = SimpleNamespace(component_histories=[[3.0, 3.0 - 1e-15]])
    unit = np.eye(4)[:, :2]
    assert checks.fit_problems(checks.Fit("sl1", 2, 5, 0.1, unit, flat)) == []
    assert checks.fit_problems(checks.Fit("sl1", 2, 5, 0.1, unit, history_down))
    assert checks.fit_problems(checks.Fit("pca", 2, 5, 0.1, 1.5 * unit, None))
    assert checks.fit_problems(checks.Fit("sl1", 3, 5, 0.1, unit, flat))


def test_same_seed_gives_identical_inputs(tmp_path):
    recog = workloads.WORKLOADS["recog-sparse"]
    paths = []
    for i, seed in enumerate((5, 5, 6)):
        (tmp_path / str(i)).mkdir()
        paths.append(recog.prepare(seed, str(tmp_path / str(i))))
    blobs = [Path(p).read_bytes() for p in paths]
    assert blobs[0] == blobs[1] != blobs[2]
    for workload in workloads.WORKLOADS.values():
        a = workload.round_calls("data.csv", workloads.round_seed(5, 3), "w")
        b = workload.round_calls("data.csv", workloads.round_seed(5, 3), "w")
        c = workload.round_calls("data.csv", workloads.round_seed(6, 3), "w")
        assert a == b and [x.argv for x in a] != [x.argv for x in c]

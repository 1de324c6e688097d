#!/usr/bin/env python3
"""Paper-workload benchmark for gpspca.

    python3 perfbench/run.py --workload desk-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from that
checkout's src/ and driven in-process through `gpspca.cli.main`, so
cli -> bench -> solvers -> parallel all run.  With --trace 0 the run
prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced rounds on the same inputs and prints the per-layer metrics, and
writes every span to .perfbench_out/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 8
SETUP_PROBE_BUDGET_S = 5.0
SCALING_INSTANCES = 5

import workloads  # noqa: E402  (stdlib only; numpy is imported in setup())


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import gpspca from this checkout's src/ and nowhere else."""
    if not (SRC / "gpspca" / "__init__.py").is_file():
        raise ProgramMissing(f"no gpspca package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gpspca
    import gpspca.bench
    import gpspca.block
    import gpspca.cli
    import gpspca.core
    import gpspca.datasets
    import gpspca.parallel
    import gpspca.pca
    import gpspca.single_unit

    if SRC not in Path(gpspca.__file__).resolve().parents:
        raise ProgramMissing(f"gpspca was imported from {gpspca.__file__}, not {SRC}")
    return {
        "cli": gpspca.cli, "bench": gpspca.bench, "single_unit": gpspca.single_unit,
        "block": gpspca.block, "parallel": gpspca.parallel, "core": gpspca.core,
        "pca": gpspca.pca, "datasets": gpspca.datasets,
    }


def run_cli(main, argv):
    """One in-process CLI command; returns its exit code.  Its own
    progress lines are kept off the benchmark's stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(list(argv))


def setup(workload, seed, workdir):
    """Import, input generation and one warm-up call; returns
    (modules, inputs, seconds, warm-up exit codes)."""
    start = perf_counter()
    modules = load_program()
    inputs = workload.prepare(seed, workdir)
    rcs = [run_cli(modules["cli"].main, c.argv) for c in workload.warmup_calls(inputs, workdir)]
    return modules, inputs, perf_counter() - start, rcs


class Runner:
    """Runs CLI calls with the fit tap installed and accounts every fit."""

    def __init__(self, modules, checks, tracing):
        self.modules = modules
        self.checks = checks
        self.tracing = tracing
        self.tally = checks.Tally()
        self.tap = checks.FitTap(modules["bench"].fit_projection)
        modules["bench"].fit_projection = self.tap
        self.tracer = tracing.Tracer()

    def run(self, calls, traced=False, round_id=None):
        """Run calls in order; returns (wall seconds, [(call, rows, fits)])."""
        main = self.modules["cli"].main
        replacements = []
        if traced:
            self.tracer.round = round_id
            main = self.tracer.wrap("cli.main", main)
            replacements = self.tracing.trace_replacements(self.tracer, self.modules)
        wall = 0.0
        results = []
        for call in calls:
            # A call that dies before writing must not be credited with
            # the previous round's CSV.
            Path(call.out).unlink(missing_ok=True)
            with self.tracing.patched(replacements):
                start = perf_counter()
                rc = run_cli(main, call.argv)
                wall += perf_counter() - start
            fits = self.tap.drain()
            rows = self.checks.check_call(call, rc, fits, self.tally)
            results.append((call, rows, fits))
        return wall, results


def machine_info():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "caches": caches or "unknown",
        "commit": git_commit(),
        "note": "bytes and GB/s are computed from array sizes; both workload "
                "matrices fit in L3, so they are not memory-bandwidth figures",
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def timed_rounds(runner, workload, inputs, seed, seconds, workdir, trace):
    """The closed loop: the number of whole rounds that took `seconds` on
    the machine the benchmark was defined on (workloads.rounds_for).

    A fixed count keeps the mix and number of solves, and so the tail
    percentile, the same on both sides of a comparison.  Traced runs do
    half as many rounds, each as an untraced and a traced twin on the
    same inputs in alternating order; the pair gives the trace overhead.
    """
    rounds = []
    count = workload.rounds_for(seconds)
    for k in range(max(1, count // 2) if trace else count):
        if k:
            inputs = workload.prepare(workloads.round_seed(seed, k), workdir)
        calls = workload.round_calls(inputs, workloads.round_seed(seed, k), workdir)
        if not trace:
            wall, results = runner.run(calls)
            rounds.append({"wall": wall, "results": results})
            continue
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            pair[traced] = runner.run(calls, traced=traced, round_id=k)
        rounds.append({"wall": pair[True][0], "untraced_wall": pair[False][0],
                       "results": pair[True][1]})
    return rounds


def reference_checks(runner, checks, workload, workdir):
    """Fixed-seed instance against reference.json, plus, for a workload
    with several workers, bitwise equality with a workers=1 solve."""
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    inputs = workload.prepare(workloads.REFERENCE_SEED, workdir)
    calls = workload.reference_calls(inputs, workdir)
    _, results = runner.run(calls)
    fits = [f for _, _, group in results for f in group]
    checks.compare_to_reference(fits, reference, runner.tally, f"{workload.name} reference")
    if "accuracy_mean" in reference:
        got = checks.accuracy_mean(sparse_rows([{"results": results}]))
        runner.tally.expect()
        if not abs(got - reference["accuracy_mean"]) <= 1.0 / workload.test_samples + 1e-12:
            runner.tally.fail(1, f"accuracy_mean {got} vs reference {reference['accuracy_mean']}")
    if getattr(workload, "workers", 1) > 1:
        _, serial = runner.run(workload.reference_calls(inputs, workdir, workers=1))
        serial_fits = [f for _, _, group in serial for f in group]
        runner.tally.expect(len(fits))
        same = sum(
            a.loadings.shape == b.loadings.shape and bool((a.loadings == b.loadings).all())
            for a, b in zip(fits, serial_fits)
        )
        runner.tally.fail(len(fits) - same, "loadings differ from the workers=1 solve")


def setup_probe_seconds(workload, seed, tally):
    """Set-up repeated in fresh processes, each timing itself, until
    SETUP_PROBES of them ran or they took SETUP_PROBE_BUDGET_S."""
    samples = []
    deadline = perf_counter() + SETUP_PROBE_BUDGET_S
    for i in range(SETUP_PROBES):
        if perf_counter() > deadline:
            break
        probe_dir = OUT / f"probe-{os.getpid()}-{i}"
        probe_dir.mkdir(parents=True, exist_ok=True)
        tally.expect()
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name,
                 "--seed", str(seed), "--workdir", str(probe_dir)],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
            if done.returncode == 0:
                samples.append(float(done.stdout.strip().splitlines()[-1]))
            else:
                tally.fail(1, f"setup probe exit {done.returncode}: {done.stderr[-200:]}")
        except subprocess.TimeoutExpired:
            tally.fail(1, "setup probe timed out")
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def spca_fits(rounds):
    return [f for r in rounds for _, _, fits in r["results"] for f in fits if f.report is not None]


def sparse_rows(rounds):
    return [row for r in rounds for call, rows, _ in r["results"]
            if call.kind == "recognition" and call.sparse for row in rows]


def end_to_end(rounds, setup_samples, peak_rss_mb, checks, human):
    seconds = [s for r in rounds for call, rows, _ in r["results"] if call.sparse
               for s in checks.row_seconds(call, rows)]
    q = checks.tail_percentile(len(seconds))
    human["solve_s_tail"] = (
        f"p{q} of {len(seconds)} solves" if q is not None
        else f"p50 of {len(seconds)} solves (fewer than 20: no percentile has ten beyond it)"
    )
    human["round_walls_s"] = [round(r["wall"], 4) for r in rounds]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "solve_s_p50": (statistics.median(seconds), "s"),
        "solve_s_tail": (percentile(seconds, q or 50), "s"),
        "ms_per_iter": (statistics.median(
            1000.0 * sum(f.seconds for f in fits) / sum(f.report.iterations for f in fits)
            for fits in (spca_fits([r]) for r in rounds)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(rounds, tracer, tracing, modules, workload, checks):
    by_name, layer_self = tracing.summarize(tracer.spans)
    n = len(rounds)

    def total(name, key="s"):
        return by_name.get(name, {}).get(key, 0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    fits = spca_fits(rounds)
    single = [f for f in fits if f.variant.startswith("s")]
    block = [f for f in fits if f.variant.startswith("b")]
    histories = [h for f in single for h in f.report.component_histories]
    kernel_s = total("parallel.par_matvec_t") + total("parallel.par_threshold_accumulate")
    kernel_bytes = sum(total(k, "bytes") for k in tracing.KERNEL_SPANS)

    put("cli.self_s", layer_self["cli"] / n, "s/round")
    put("bench.self_s", layer_self["bench"] / n, "s/round")
    put("bench.fit.calls", total("bench.fit_projection", "calls") / n, "count/round")
    put("bench.emit_report.s", total("bench.emit_report") / n, "s/round")
    put("single_unit.solve.self_s",
        total("single_unit.solve_multi_sequential", "self_s") / n, "s/round")
    put("single_unit.components", len(histories) / n, "count/round")
    put("single_unit.iterations", sum(f.report.iterations for f in single) / n, "count/round")
    put("single_unit.capped_share",
        sum(len(h) - 1 >= f.max_iter for f in single for h in f.report.component_histories)
        / max(len(histories), 1), "ratio")
    put("single_unit.deflate.calls", total("single_unit.deflate", "calls") / n, "count/round")
    put("single_unit.deflate.s", total("single_unit.deflate") / n, "s/round")
    put("block.solve.self_s", total("block.solve_block", "self_s") / n, "s/round")
    put("block.iterations", sum(f.report.iterations for f in block) / n, "count/round")
    put("block.capped_share",
        sum(f.report.iterations >= f.max_iter for f in block) / max(len(block), 1), "ratio")
    put("block.polar.calls", total("block.polar_projection", "calls") / n, "count/round")
    put("block.polar.s", total("block.polar_projection") / n, "s/round")
    put("parallel.matvec_t.calls", total("parallel.par_matvec_t", "calls") / n, "count/round")
    put("parallel.matvec_t.s", total("parallel.par_matvec_t") / n, "s/round")
    put("parallel.threshold_accumulate.calls",
        total("parallel.par_threshold_accumulate", "calls") / n, "count/round")
    put("parallel.threshold_accumulate.s",
        total("parallel.par_threshold_accumulate") / n, "s/round")
    put("parallel.bytes_computed", kernel_bytes / n, "B/round")
    put("parallel.gbps_computed", kernel_bytes / kernel_s / 1e9 if kernel_s else 0.0, "GB/s")
    put("core.data_matrix.calls", total("core.as_data_matrix", "calls") / n, "count/round")
    put("core.data_matrix.s", total("core.as_data_matrix") / n, "s/round")
    put("pca.fit.s", total("pca.pca_fit") / n, "s/round")
    put("pca.project.s", total("pca.project") / n, "s/round")
    put("datasets.load.s", total("datasets.load_dataset") / n, "s/round")
    put("datasets.split.s", total("datasets.make_splits") / n, "s/round")
    put("datasets.knn.s", total("datasets.knn_classify") / n, "s/round")
    rows = sparse_rows(rounds)
    put("datasets.knn.accuracy_mean", checks.accuracy_mean(rows) if rows else 0.0, "ratio")
    P, N = workload.scaling_shape
    for kernel in modules["parallel"].KERNELS:
        rows = modules["parallel"].measure_scaling(
            kernel, [(P, N)], [1, 2], instances=SCALING_INSTANCES)
        by_workers = {row["workers"]: row for row in rows}
        put(f"parallel.scaling.{kernel}.w1_s", by_workers[1]["median_seconds"], "s")
        put(f"parallel.scaling.{kernel}.w2_speedup", by_workers[2]["speedup"], "ratio")
    put("trace.overhead_s",
        statistics.median(r["wall"] - r["untraced_wall"] for r in rounds), "s/round")
    return metrics, layer_self


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    workloads.pin_blas()
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            modules, inputs, setup_s, rcs = setup(
                workload, workloads.round_seed(args.seed, 0), str(workdir))
        except ProgramMissing as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
        import checks
        import tracing

        runner = Runner(modules, checks, tracing)
        runner.tally.expect(len(rcs))
        runner.tally.fail(sum(rc != 0 for rc in rcs), "warm-up call exited nonzero")
        rounds = timed_rounds(runner, workload, inputs, args.seed, args.seconds,
                              str(workdir), args.trace)
        # ru_maxrss is in KiB on Linux; read it before the reference checks.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reference_checks(runner, checks, workload, str(workdir))
        human = {}
        machine = machine_info()
        if args.trace:
            metrics, layer_self = per_layer(rounds, runner.tracer, tracing, modules,
                                            workload, checks)
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            runner.tracer.write(spans_path, {
                "workload": workload.name, "seed": args.seed, "rounds": len(rounds),
                "machine": machine,
            })
            human["spans_file"] = str(spans_path.relative_to(ROOT))
            human["layer_self_s_per_round"] = {
                k: round(v / len(rounds), 6) for k, v in layer_self.items()}
        else:
            setup_samples = [setup_s] + setup_probe_seconds(workload, args.seed, runner.tally)
            metrics = end_to_end(rounds, setup_samples, peak_rss_mb, checks, human)
            human["setup_samples_s"] = [round(s, 4) for s in setup_samples]
            rows = sparse_rows(rounds)
            if rows:
                human["accuracy_mean"] = checks.accuracy_mean(rows)
        human["error_share"] = runner.tally.failed / runner.tally.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for key, value in human.items():
        print(f"{key}: {value}")
    for reason in runner.tally.reasons[:20]:
        print(f"failure: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.tally.failed == 0,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

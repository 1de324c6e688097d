"""Command-line interface: solve, bench-timing, bench-recognition, datasets.

Flag values come from, in decreasing precedence: the command line, the
GPSPCA_WORKERS / GPSPCA_CHUNK environment variables (workers and chunk
only), a --config key=value file, then built-in defaults.  Exit codes:
0 success, 1 usage error, 2 data error, 3 solver error.
"""

import argparse
import os
import sys
from importlib import resources

import numpy as np

from .bench import (
    SPCA_VARIANTS,
    VARIANTS,
    ExperimentConfig,
    emit_report,
    fit_projection,
    run_recognition_experiment,
    run_timing_experiment,
)
from .block import RankDeficiencyError
from .datasets import (
    DatasetFormatError,
    FixedSplit,
    GroupedSplit,
    PerClassCount,
    load_dataset,
    load_matrix_csv,
)

DEFAULTS = {
    "format": "labeled",
    "variant": "sl1",
    "m": "5",
    "gamma": "0.1",
    "mu": "1",
    "tol": "1e-6",
    "max_iter": "1000",
    "workers": "1",
    "chunk": "256",
    "seed": "0",
    "repetitions": "1",
    "knn_k": "1",
    "sizes": "500,1000,2000",
    "gammas": "0.01,0.05",
    "variants": ",".join(SPCA_VARIANTS),
    "instances": "20",
    "split": "per-class:24",
}

ENV_KEYS = {"workers": "GPSPCA_WORKERS", "chunk": "GPSPCA_CHUNK"}


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route through the documented exit codes.
    def error(self, message):
        raise UsageError(message)


def read_config_file(path):
    """Flat key = value file mirroring the long flag names."""
    if path.startswith("preset:"):
        name = path.split(":", 1)[1]
        ref = resources.files("gpspca").joinpath(f"presets/{name}.cfg")
        if not ref.is_file():
            raise UsageError(f"unknown preset {name!r}")
        text = ref.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {line_no}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args, file_values, key):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in ENV_KEYS and os.environ.get(ENV_KEYS[key]):
        return os.environ[ENV_KEYS[key]]
    if key in file_values:
        return file_values[key]
    return DEFAULTS.get(key)


def _to_int(text, key, minimum=None):
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects an integer, got {text!r}")
    if minimum is not None and value < minimum:
        raise UsageError(f"--{key.replace('_', '-')} must be >= {minimum}")
    return value


def _to_float(text, key):
    try:
        return float(text)
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects a number, got {text!r}")


def _to_float_list(text, key):
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--{key.replace('_', '-')} expects comma-separated numbers")


def _to_int_list(text, key):
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--{key.replace('_', '-')} expects comma-separated integers")


def _m_values(text):
    values = _to_int_list(text, "m")
    if not values or any(v < 1 for v in values):
        raise UsageError("--m expects positive integers")
    return values


def _experiment_config(**fields):
    # ExperimentConfig rejects bad settings with ValueError; coming from
    # flags, those are usage errors, not solver errors.
    try:
        return ExperimentConfig(**fields)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _gamma_value(text):
    values = _to_float_list(text, "gamma")
    if any(g < 0 for g in values):
        raise UsageError("--gamma entries must be >= 0")
    return values[0] if len(values) == 1 else values


def _common(args):
    file_values = read_config_file(args.config) if args.config else {}
    get = lambda key: _resolve(args, file_values, key)
    return file_values, get


def _add_common_flags(parser):
    parser.add_argument("--config", help="key = value file or preset:<name>")
    parser.add_argument("--seed")
    parser.add_argument("--workers")
    parser.add_argument("--chunk")
    parser.add_argument("--tol")
    parser.add_argument("--max-iter", dest="max_iter")
    parser.add_argument("--out")


def cmd_solve(args):
    _, get = _common(args)
    variant = get("variant")
    if variant not in VARIANTS:
        raise UsageError(f"--variant must be one of {VARIANTS}")
    m_values = _m_values(get("m"))
    if len(m_values) != 1:
        raise UsageError("solve expects a single --m >= 1")
    gamma = _gamma_value(get("gamma"))
    mu = _gamma_value(get("mu"))
    out = get("out")
    if not args.input or not out:
        raise UsageError("solve requires --input and --out")
    fmt = get("format")
    if fmt == "labeled":
        samples = load_dataset(args.input).samples
    elif fmt == "matrix":
        samples = load_matrix_csv(args.input)
    else:
        raise UsageError("--format must be 'labeled' or 'matrix'")
    from .parallel import KernelPlan

    plan = KernelPlan(
        workers=_to_int(get("workers"), "workers", 1),
        chunk=_to_int(get("chunk"), "chunk", 1),
    )
    loadings, _, report = fit_projection(
        samples, variant, m_values[0], gamma, mu,
        _to_float(get("tol"), "tol"), _to_int(get("max_iter"), "max_iter", 1),
        seed=_to_int(get("seed"), "seed"), plan=plan, center=not args.no_center,
    )
    rows = [
        {f"component_{j + 1}": loadings[i, j] for j in range(loadings.shape[1])}
        for i in range(loadings.shape[0])
    ]
    emit_report(rows, out)
    nnz = np.count_nonzero(loadings, axis=0)
    print(f"variant={variant} m={m_values[0]} loadings={out}")
    print(f"nnz_per_component={';'.join(str(int(v)) for v in nnz)}")
    if report is not None:
        objective = report.objective_history[-1]
        line = (
            f"objective={objective:.17g} iterations={report.iterations} "
            f"converged={report.converged} seconds={report.wall_time:.3f}"
        )
        if variant.endswith("1"):
            line += f" sqrt_objective={np.sqrt(objective):.17g}"
        print(line)
    return 0


def _split_policy(policy_text, dataset, args):
    kind, _, value = str(policy_text).partition(":")
    if kind == "per-class":
        return PerClassCount(_to_int(value, "split", 1))
    if kind == "head":
        count = _to_int(value, "split", 1)
        if count >= dataset.n_samples:
            raise UsageError("head split must leave at least one test sample")
        return FixedSplit(np.arange(count), np.arange(count, dataset.n_samples))
    if kind == "file":
        tokens = []
        with open(value, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    tokens.append(line.lower())
        if len(tokens) != dataset.n_samples or set(tokens) - {"train", "test"}:
            raise DatasetFormatError(
                "split file needs one train/test token per sample"
            )
        marks = np.array(tokens)
        return FixedSplit(np.nonzero(marks == "train")[0], np.nonzero(marks == "test")[0])
    if kind == "grouped":
        if not args.group_file or not args.test_groups:
            raise UsageError("grouped split requires --group-file and --test-groups")
        with open(args.group_file, encoding="utf-8") as fh:
            groups = np.array([int(line) for line in fh if line.strip()])
        return GroupedSplit(groups, _to_int_list(args.test_groups, "test_groups"))
    raise UsageError(f"unknown split policy {policy_text!r}")


def cmd_bench_recognition(args):
    file_values, get = _common(args)
    dataset_path = args.dataset or file_values.get("dataset")
    if not dataset_path or not get("out"):
        raise UsageError("bench-recognition requires --dataset and --out")
    variant = get("variant")
    if variant not in VARIANTS:
        raise UsageError(f"--variant must be one of {VARIANTS}")
    dataset = load_dataset(dataset_path)
    config = _experiment_config(
        dataset=dataset_path,
        variant=variant,
        m=_m_values(get("m")),
        gamma=_gamma_value(get("gamma")),
        mu=_gamma_value(get("mu")),
        repetitions=_to_int(get("repetitions"), "repetitions", 1),
        seed=_to_int(get("seed"), "seed"),
        out=get("out"),
        workers=_to_int(get("workers"), "workers", 1),
        chunk=_to_int(get("chunk"), "chunk", 1),
        tol=_to_float(get("tol"), "tol"),
        max_iter=_to_int(get("max_iter"), "max_iter", 1),
        knn_k=_to_int(get("knn_k"), "knn_k", 1),
        split=_split_policy(get("split"), dataset, args),
    )
    rows = run_recognition_experiment(config, dataset=dataset)
    print(f"wrote {len(rows)} rows to {config.out}")
    return 0


def cmd_bench_timing(args):
    _, get = _common(args)
    if not get("out"):
        raise UsageError("bench-timing requires --out")
    variants = tuple(str(get("variants")).split(","))
    bad = [v for v in variants if v not in VARIANTS]
    if bad:
        raise UsageError(f"unknown variants {bad}")
    worker_counts = _to_int_list(get("workers"), "workers")
    if not worker_counts or any(w < 1 for w in worker_counts):
        raise UsageError("--workers expects positive integers")
    sizes = _to_int_list(get("sizes"), "sizes")
    if not sizes or any(N < 10 or N % 10 for N in sizes):
        raise UsageError("--sizes expects positive multiples of 10 (the P = N/10 grid)")
    gammas = _to_float_list(get("gammas"), "gammas")
    if not gammas or any(g < 0 for g in gammas):
        raise UsageError("--gammas expects one or more numbers >= 0")
    config = _experiment_config(
        variant=variants[0],
        m=_m_values(get("m")),
        gamma=0.0,
        mu=_gamma_value(get("mu")),
        seed=_to_int(get("seed"), "seed"),
        out=get("out"),
        workers=worker_counts[0],
        chunk=_to_int(get("chunk"), "chunk", 1),
        tol=_to_float(get("tol"), "tol"),
        max_iter=_to_int(get("max_iter"), "max_iter", 1),
        timing_sizes=sizes,
        timing_gammas=gammas,
        timing_variants=variants,
        timing_instances=_to_int(get("instances"), "instances", 1),
        timing_workers=worker_counts,
    )
    rows = run_timing_experiment(config)
    print(f"wrote {len(rows)} rows to {config.out}")
    return 0


def cmd_datasets_convert(args):
    if not args.input or not args.output:
        raise UsageError("convert requires --input and --output")
    label_last = args.label == "last"
    rows = []
    if args.source_format == "svmlight":
        width = args.n_features or 0
        parsed = []
        with open(args.input, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                tokens = line.split()
                try:
                    label = int(float(tokens[0]))
                    pairs = [tok.split(":") for tok in tokens[1:]]
                    pairs = [(int(i), float(v)) for i, v in pairs]
                except (ValueError, IndexError):
                    raise DatasetFormatError(f"line {line_no}: bad svmlight record")
                parsed.append((label, pairs))
                if pairs:
                    width = max(width, max(i for i, _ in pairs))
        for label, pairs in parsed:
            dense = np.zeros(width)
            for i, v in pairs:
                dense[i - 1] = v
            rows.append((label, dense))
    else:
        sep = None if args.source_format == "ssv" else ","
        with open(args.input, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip().rstrip(",")
                if not line:
                    continue
                tokens = line.split(sep)
                try:
                    values = [float(tok) for tok in tokens]
                except ValueError:
                    if line_no == 1:
                        continue  # header
                    raise DatasetFormatError(f"line {line_no}: non-numeric value")
                label = values[-1] if label_last else values[0]
                feats = values[:-1] if label_last else values[1:]
                if label != int(label):
                    raise DatasetFormatError(f"line {line_no}: label is not an integer")
                rows.append((int(label), np.asarray(feats)))
    if not rows:
        raise DatasetFormatError(f"{args.input}: no data rows")
    widths = {len(feats) for _, feats in rows}
    if len(widths) != 1:
        raise DatasetFormatError("inconsistent feature counts across rows")
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        n = widths.pop()
        fh.write("label," + ",".join(f"f{i + 1}" for i in range(n)) + "\n")
        for label, feats in rows:
            fh.write(str(label) + "," + ",".join(f"{v:.17g}" for v in feats) + "\n")
    print(f"wrote {len(rows)} samples x {n} features to {args.output}")
    return 0


def build_parser():
    parser = Parser(prog="gpspca", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_solve = sub.add_parser("solve", help="one SPCA/PCA fit, loadings to CSV")
    p_solve.add_argument("--input", required=False)
    p_solve.add_argument("--format")
    p_solve.add_argument("--variant")
    p_solve.add_argument("--m")
    p_solve.add_argument("--gamma")
    p_solve.add_argument("--mu")
    p_solve.add_argument("--no-center", action="store_true")
    _add_common_flags(p_solve)

    p_rec = sub.add_parser("bench-recognition", help="SPCA/PCA + 1-NN accuracy sweep")
    p_rec.add_argument("--dataset")
    p_rec.add_argument("--variant")
    p_rec.add_argument("--m")
    p_rec.add_argument("--gamma")
    p_rec.add_argument("--mu")
    p_rec.add_argument("--repetitions")
    p_rec.add_argument("--knn-k", dest="knn_k")
    p_rec.add_argument("--split", help="per-class:K, head:K, file:PATH, or grouped")
    p_rec.add_argument("--group-file")
    p_rec.add_argument("--test-groups")
    _add_common_flags(p_rec)

    p_tim = sub.add_parser("bench-timing", help="wall-time sweep on random instances")
    p_tim.add_argument("--sizes")
    p_tim.add_argument("--gammas")
    p_tim.add_argument("--variants")
    p_tim.add_argument("--instances")
    p_tim.add_argument("--m")
    p_tim.add_argument("--mu")
    _add_common_flags(p_tim)

    p_data = sub.add_parser("datasets", help="dataset helpers")
    data_sub = p_data.add_subparsers(dest="datasets_command")
    p_conv = data_sub.add_parser("convert", help="convert raw files to labeled CSV")
    p_conv.add_argument("--input")
    p_conv.add_argument("--output")
    p_conv.add_argument("--from", dest="source_format", default="csv",
                        choices=("csv", "ssv", "svmlight"))
    p_conv.add_argument("--label", default="first", choices=("first", "last"))
    p_conv.add_argument("--n-features", dest="n_features", type=int)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench-recognition":
            return cmd_bench_recognition(args)
        if args.command == "bench-timing":
            return cmd_bench_timing(args)
        if args.command == "datasets":
            if getattr(args, "datasets_command", None) == "convert":
                return cmd_datasets_convert(args)
            raise UsageError("datasets requires a subcommand (convert)")
        raise UsageError("a subcommand is required")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DatasetFormatError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (RankDeficiencyError, ValueError, np.linalg.LinAlgError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: solve, bench-timing, bench-recognition, datasets.

Flag values come from, in decreasing precedence: the command line, a
--config key=value file, then built-in defaults.  Every value, whatever its
source, is checked by its flag's type before any data is read.  A rule
that ties a value to the data or to other settings is the library's
alone, and main maps the exception it raises to an exit code by type:
0 success; 1 usage error (a bad flag or config, or any other
ValueError); 2 data error (DatasetFormatError, OSError); 3 solver error
(RankDeficiencyError, LinAlgError).  The --config file is a setting,
not data: one that is missing, unreadable or not UTF-8 is a usage error,
and so is a key that is not a flag the chosen subcommand lets a config
set (a misspelling, another subcommand's flag, or an input such as
input or group_file, which only the command line names).  solve prints
a sparse fit's objective summed over its components.
"""

import argparse
import sys
from importlib import resources

import numpy as np

from .bench import (
    SPCA_VARIANTS,
    VARIANTS,
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
    numbered_lines,
    read_svmlight,
    read_table,
)

# The subcommand, the config file and the flags that name a run's inputs;
# a --config file cannot set them.  --test-groups is a setting: the Isolet
# presets name their held-out groups.
FLAG_ONLY = {"command", "config", "input", "no_center", "group_file"}


class UsageError(ValueError):
    """A bad command line or --config file: exit 1, as for any ValueError."""


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
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise UsageError(f"config {path}: cannot read ({err.strerror})") from None
        except UnicodeDecodeError as err:
            raise UsageError(f"config {path}: not UTF-8 text ({err.reason})") from None
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


def _typed(convert, valid, what, many=False):
    """A flag type: one value, or with many a non-empty comma list, each
    converted and checked; argparse runs it on string defaults too."""

    def parse(text):
        tokens = [tok for tok in text.split(",") if tok.strip()] if many else [text]
        try:
            values = tuple(convert(tok) for tok in tokens)
        except ValueError:
            values = ()
        if not values or not all(valid(v) for v in values):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return values if many else values[0]

    return parse


def _scalar_or_list(parse):
    # gamma and mu: one value for every component, or one per component.
    def one_or_many(text):
        values = parse(text)
        return values[0] if len(values) == 1 else values

    return one_or_many


POSITIVE = _typed(int, lambda v: v >= 1, "an integer >= 1")
NON_NEGATIVE = _typed(int, lambda v: v >= 0, "an integer >= 0")
POSITIVES = _typed(int, lambda v: v >= 1, "comma-separated integers >= 1", many=True)
INTEGERS = _typed(int, lambda v: True, "comma-separated integers", many=True)
# float() parses inf too, which no solver setting takes.
TOL = _typed(float, lambda v: 0 < v < np.inf, "a finite number > 0")
GAMMAS = _typed(float, lambda v: 0 <= v < np.inf, "comma-separated finite numbers >= 0", many=True)
GAMMA = _scalar_or_list(GAMMAS)
MU = _scalar_or_list(_typed(float, lambda v: 0 < v < np.inf,
                            "comma-separated finite numbers > 0", many=True))
VARIANT = _typed(str, lambda v: v in VARIANTS, f"one of {','.join(VARIANTS)}")
VARIANT_LIST = _typed(str, lambda v: v in VARIANTS, f"a list of {','.join(VARIANTS)}",
                      many=True)
FORMAT = _typed(str, lambda v: v in ("labeled", "matrix"), "'labeled' or 'matrix'")


def _split_spec(text):
    kind, _, value = text.partition(":")
    if kind in ("per-class", "head"):
        return kind, POSITIVE(value)
    if kind in ("file", "grouped"):
        return kind, value
    raise argparse.ArgumentTypeError(f"unknown split policy {text!r}")


def _add_common_flags(parser, workers=POSITIVE):
    parser.add_argument("--config", help="key = value file or preset:<name>")
    parser.add_argument("--seed", type=NON_NEGATIVE, default="0")
    parser.add_argument("--workers", type=workers, default="1")
    parser.add_argument("--tol", type=TOL, default="1e-6")
    parser.add_argument("--max-iter", dest="max_iter", type=POSITIVE, default="1000")
    parser.add_argument("--mu", type=MU, default="1")
    parser.add_argument("--out")


def cmd_solve(args):
    if not args.input or not args.out:
        raise UsageError("solve requires --input and --out")
    # pca_fit always centers, so the flag would be ignored.
    if args.no_center and args.variant == "pca":
        raise UsageError("--no-center applies to the sparse variants only")
    if args.format == "labeled":
        samples = load_dataset(args.input).samples
    else:
        samples = read_table(args.input)
    loadings, _, report = fit_projection(
        samples, args.variant, args.m, args.gamma, args.mu, args.tol, args.max_iter,
        seed=args.seed, workers=args.workers,
        center=not args.no_center,
    )
    rows = [
        {f"component_{j + 1}": loadings[i, j] for j in range(loadings.shape[1])}
        for i in range(loadings.shape[0])
    ]
    emit_report(rows, args.out)
    nnz = np.count_nonzero(loadings, axis=0)
    print(f"variant={args.variant} m={args.m} loadings={args.out}")
    print(f"nnz_per_component={';'.join(str(int(v)) for v in nnz)}")
    if report is not None:
        # Every component's final objective: a block fit has one history.
        objective = sum(history[-1] for history in report.component_histories)
        line = (
            f"objective={objective:.17g} iterations={report.iterations} "
            f"converged={report.converged} seconds={report.wall_time:.3f}"
        )
        if args.variant.endswith("1"):
            line += f" sqrt_objective={np.sqrt(objective):.17g}"
        print(line)
    return 0


def _split_policy(dataset, args):
    kind, value = args.split
    if kind == "per-class":
        return PerClassCount(value)
    if kind == "head":
        return FixedSplit(np.arange(value), np.arange(value, dataset.n_samples))
    if kind == "file":
        marks = np.array([line.strip().lower() for _, line in numbered_lines(value)
                          if line.strip()])
        if len(marks) != dataset.n_samples or set(marks) - {"train", "test"}:
            raise DatasetFormatError("split file needs one train/test token per sample")
        return FixedSplit(np.nonzero(marks == "train")[0], np.nonzero(marks == "test")[0])
    if not args.group_file or not args.test_groups:
        raise UsageError("grouped split requires --group-file and --test-groups")
    groups, extra = read_table(args.group_file, label=0)
    if extra.shape[1]:
        raise DatasetFormatError(f"{args.group_file}: expected one group id per line")
    return GroupedSplit(groups, args.test_groups)


def cmd_bench_recognition(args):
    if not args.dataset or not args.out:
        raise UsageError("bench-recognition requires --dataset and --out")
    dataset = load_dataset(args.dataset)
    rows = run_recognition_experiment(
        dataset, _split_policy(dataset, args), variant=args.variant, m=args.m,
        gamma=args.gamma, mu=args.mu, repetitions=args.repetitions, seed=args.seed,
        out=args.out, workers=args.workers, tol=args.tol, max_iter=args.max_iter,
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_bench_timing(args):
    if not args.out:
        raise UsageError("bench-timing requires --out")
    rows = run_timing_experiment(
        sizes=args.sizes, gammas=args.gammas, variants=args.variants,
        instances=args.instances, m=args.m, workers=args.workers, mu=args.mu,
        seed=args.seed, out=args.out, tol=args.tol, max_iter=args.max_iter,
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_datasets_convert(args):
    if not args.input or not args.output:
        raise UsageError("convert requires --input and --output")
    if args.source_format == "svmlight":
        labels, features = read_svmlight(args.input, args.n_features)
    else:
        sep = None if args.source_format == "ssv" else ","
        labels, features = read_table(args.input, sep, label=-1 if args.label == "last" else 0)
    if features.shape[1] < 1:
        raise DatasetFormatError(f"{args.input}: expected a label plus at least one feature")
    names = ["label"] + [f"f{i + 1}" for i in range(features.shape[1])]
    table = zip(labels.tolist(), features.tolist())
    emit_report([dict(zip(names, [label, *row])) for label, row in table], args.output)
    print(f"wrote {len(labels)} samples x {features.shape[1]} features to {args.output}")
    return 0


def build_parser():
    """The gpspca parser and its subcommand parsers by name."""
    parser = Parser(prog="gpspca", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_solve = sub.add_parser("solve", help="one SPCA/PCA fit, loadings to CSV")
    p_solve.add_argument("--input", required=False)
    p_solve.add_argument("--format", type=FORMAT, default="labeled")
    p_solve.add_argument("--variant", type=VARIANT, default="sl1")
    p_solve.add_argument("--m", type=POSITIVE, default="5")
    p_solve.add_argument("--gamma", type=GAMMA, default="0.1")
    p_solve.add_argument("--no-center", action="store_true")
    _add_common_flags(p_solve)

    p_rec = sub.add_parser("bench-recognition", help="SPCA/PCA + 1-NN accuracy sweep")
    p_rec.add_argument("--dataset")
    p_rec.add_argument("--variant", type=VARIANT, default="sl1")
    p_rec.add_argument("--m", type=POSITIVES, default="5")
    p_rec.add_argument("--gamma", type=GAMMA, default="0.1")
    p_rec.add_argument("--repetitions", type=POSITIVE, default="1")
    p_rec.add_argument("--split", type=_split_spec, default="per-class:24",
                       help="per-class:K, head:K, file:PATH, or grouped")
    p_rec.add_argument("--group-file")
    p_rec.add_argument("--test-groups", type=INTEGERS)
    _add_common_flags(p_rec)

    p_tim = sub.add_parser("bench-timing", help="wall-time sweep on random instances")
    p_tim.add_argument("--sizes", type=POSITIVES, default="500,1000,2000")
    p_tim.add_argument("--gammas", type=GAMMAS, default="0.01,0.05")
    p_tim.add_argument("--variants", type=VARIANT_LIST, default=",".join(SPCA_VARIANTS))
    p_tim.add_argument("--instances", type=POSITIVE, default="20")
    p_tim.add_argument("--m", type=POSITIVE, default="5")
    _add_common_flags(p_tim, workers=POSITIVES)

    p_data = sub.add_parser("datasets", help="dataset helpers")
    data_sub = p_data.add_subparsers(dest="datasets_command")
    p_conv = data_sub.add_parser("convert", help="convert raw files to labeled CSV")
    p_conv.add_argument("--input")
    p_conv.add_argument("--output")
    p_conv.add_argument("--from", dest="source_format", default="csv",
                        choices=("csv", "ssv", "svmlight"))
    p_conv.add_argument("--label", default="first", choices=("first", "last"))
    p_conv.add_argument("--n-features", dest="n_features", type=NON_NEGATIVE, default="0")
    return parser, sub.choices


def parse_args(argv=None):
    """Parse argv into typed settings.  --config values become defaults of
    the chosen subcommand, so a flag still overrides them and the same flag
    type checks them; a config key that is not a setting of that
    subcommand (see FLAG_ONLY) is a usage error."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    values = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = [k for k in values if k not in vars(args) or k in FLAG_ONLY]
    if unknown:
        raise UsageError(f"config keys that are not settings of {args.command}: "
                         + ", ".join(unknown))
    if values:
        commands[args.command].set_defaults(**values)
        args = parser.parse_args(argv)
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
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
    # DatasetFormatError and LinAlgError are ValueErrors, so they come first.
    except (DatasetFormatError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (RankDeficiencyError, np.linalg.LinAlgError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

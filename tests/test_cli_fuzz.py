"""Seeded fuzz of the CLI: mutated input files and flag lists.

Each case runs main() in-process on a random mutation of small valid
inputs: labeled, matrix and whitespace-separated tables, svmlight
records, config, split and group files, and each subcommand's flags.
Whatever the mutation, a run must end in a documented exit code (0
success, 1 usage, 2 data, 3 solver) without printing a traceback, and a
successful run must write no nan, neither to its output file nor to
stdout.  The cases come from fixed numpy seeds, so a failure replays.
"""

import re

import numpy as np
import pytest

from gpspca.cli import main

CASES = 80
EXIT_CODES = {0, 1, 2, 3}
# Fragments spliced into files: separators, signs, exponents, non-finite
# spellings and characters no format accepts.
FRAGMENTS = ["", ",", "\n", " ", "\t", "-", "e", "9", "0", ".", ":", "#", "=", "x",
             "nan", "inf", "1e999", "-0", "1:2", "train", "test"]
BAD_VALUES = ["", "x", "-1", "0", ",", "nan", "inf", "1,x", "1.5"]
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def labeled_rows(rng, classes=3, per_class=8, features=6):
    rows = ["label," + ",".join(f"f{i}" for i in range(features))]
    for c in range(classes):
        for _ in range(per_class):
            values = rng.standard_normal(features) + 3.0 * c
            rows.append(f"{c}," + ",".join(f"{v:.6g}" for v in values))
    return "\n".join(rows) + "\n"


def mutate(rng, text):
    """text with one to three random edits: a fragment inserted or
    written over a character, a span, line or tail deleted, or a line
    doubled."""
    for _ in range(rng.integers(1, 4)):
        lines = text.split("\n")
        at = int(rng.integers(len(text) + 1))
        op = rng.integers(6)
        if op == 0:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif op == 1:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at + 1:]
        elif op == 2:
            text = text[:at] + text[at + int(rng.integers(1, 4)):]
        elif op == 3:
            del lines[rng.integers(len(lines))]
            text = "\n".join(lines)
        elif op == 4:
            i = rng.integers(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
        else:
            text = text[:at]
    return text


def write(rng, path, text, p_mutate=0.5):
    """Write text, mutated with probability p_mutate; now and then the
    bytes end in one that is not UTF-8."""
    if rng.random() < p_mutate:
        text = mutate(rng, text)
    data = text.encode("utf-8")
    if rng.random() < 0.03:
        data += b"\xff"
    path.write_bytes(data)
    return str(path)


def pick(rng, values):
    return str(values[rng.integers(len(values))])


def mutate_flags(rng, flags, pools, required, extra):
    """flags (a dict of flag -> value, None for a switch) after one to
    three edits: a value drawn from its pool or from BAD_VALUES, a flag
    dropped (not one of required), an unknown or an extra flag added."""
    flags = dict(flags)
    for _ in range(rng.integers(1, 4)):
        op = rng.choice(4, p=[0.6, 0.15, 0.05, 0.2])
        if op == 0:
            flag = pick(rng, sorted(pools))
            flags[flag] = pick(rng, pools[flag] + (BAD_VALUES if rng.random() < 0.4 else []))
        elif op == 1:
            optional = sorted(set(flags) - set(required))
            if optional:
                del flags[pick(rng, optional)]
        elif op == 2:
            flags["--frobnicate"] = "1"
        else:
            flag = pick(rng, sorted(extra))
            flags[flag] = extra[flag]
    argv = []
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


def config_text(rng):
    keys = ["gamma = 0.2", "max_iter = 50", "tol = 1e-4", "seed = 2", "mu = 1",
            "m = 2", "variant = sl0", "input = x.csv", "sizes = 20"]
    chosen = rng.choice(keys, size=int(rng.integers(1, 4)), replace=False)
    return "# settings\n" + "\n".join(chosen) + "\n"


def solve_case(rng, tmp):
    data = write(rng, tmp / "data.csv", labeled_rows(rng))
    matrix = write(rng, tmp / "matrix.csv", "\n".join(
        ",".join(f"{v:.5g}" for v in row) for row in rng.standard_normal((20, 5))) + "\n")
    out = tmp / "loadings.csv"
    pools = {
        "--variant": ["sl1", "sl0", "bl1", "bl0", "pca", "sl2"],
        "--m": ["1", "2", "3", "6", "7"],
        "--gamma": ["0", "0.1", "0.5", "3", "1e9", "0.1,0.2", "0.1,0.2,0.3"],
        "--mu": ["1", "0.5", "1,2"],
        "--tol": ["1e-3", "1e-6"],
        "--max-iter": ["5", "50"],
        "--seed": ["0", "3"],
        "--workers": ["1", "2"],
        "--format": ["labeled", "matrix", "xml"],
        "--input": [data, matrix, str(tmp / "absent.csv")],
    }
    flags = {"--input": data, "--out": str(out), "--variant": pick(rng, pools["--variant"][:5]),
             "--m": "2", "--gamma": "0.1", "--max-iter": "50"}
    if rng.random() < 0.3:
        flags["--format"], flags["--input"] = "matrix", matrix
    extra = {"--no-center": None, "--config": write(rng, tmp / "run.cfg", config_text(rng))}
    return ["solve", *mutate_flags(rng, flags, pools, ("--out",), extra)], out


def recognition_case(rng, tmp):
    data = write(rng, tmp / "data.csv", labeled_rows(rng))
    marks = write(rng, tmp / "split.txt", "\n".join(
        "train" if i % 8 < 5 else "test" for i in range(24)) + "\n")
    groups = write(rng, tmp / "groups.txt", "\n".join(str(i % 4) for i in range(24)) + "\n")
    out = tmp / "recognition.csv"
    pools = {
        "--variant": ["sl1", "sl0", "bl1", "bl0", "pca"],
        "--m": ["1", "2", "1,2", "3,5", "9"],
        "--gamma": ["0", "0.1", "1", "1e9", "0.1,0.2"],
        "--split": ["per-class:4", "per-class:8", "per-class:0", "head:10", "head:24",
                    f"file:{marks}", "grouped", "random:3"],
        "--repetitions": ["1", "2"],
        "--max-iter": ["5", "50"],
        "--test-groups": ["0", "1,2", "9", "0,1,2,3"],
        "--group-file": [groups, str(tmp / "absent.txt")],
    }
    flags = {"--dataset": data, "--out": str(out), "--variant": pick(rng, pools["--variant"]),
             "--m": "1,2", "--gamma": "0.1", "--max-iter": "50",
             "--split": pick(rng, ["per-class:4", "head:10", f"file:{marks}", "grouped"])}
    if flags["--split"] == "grouped":
        flags.update({"--group-file": groups, "--test-groups": "1"})
    extra = {"--config": write(rng, tmp / "run.cfg", config_text(rng)),
             "--group-file": groups, "--test-groups": "2"}
    return ["bench-recognition", *mutate_flags(rng, flags, pools, ("--out",), extra)], out


def timing_case(rng, tmp):
    out = tmp / "timing.csv"
    # The sizes, instances and iteration cap stay small: they are never
    # dropped and their pools hold no large values.
    pools = {
        "--sizes": ["20", "10,20", "30", "15", "0"],
        "--variants": ["sl1", "sl1,bl1", "sl0,bl0,pca", "pca", "xx"],
        "--gammas": ["0.1", "3,4", "0", "-1", "1e9"],
        "--instances": ["1", "2"],
        "--m": ["1", "2", "3", "4"],
        "--workers": ["1", "1,2", "2"],
        "--max-iter": ["5", "20"],
        "--tol": ["1e-3", "1e-6"],
    }
    flags = {"--sizes": "10,20", "--instances": "1", "--max-iter": "20", "--out": str(out),
             "--variants": pick(rng, pools["--variants"][:4]), "--m": "1"}
    extra = {"--config": write(rng, tmp / "run.cfg", config_text(rng)), "--seed": "4"}
    required = ("--sizes", "--instances", "--max-iter", "--out")
    return ["bench-timing", *mutate_flags(rng, flags, pools, required, extra)], out


def convert_case(rng, tmp):
    table = labeled_rows(rng, features=4)
    sources = {
        "csv": write(rng, tmp / "data.csv", table),
        "ssv": write(rng, tmp / "data.ssv", table.replace(",", " ")),
        "svmlight": write(rng, tmp / "data.svm", "# records\n" + "\n".join(
            f"{i % 3} " + " ".join(f"{j + 1}:{v:.4g}" for j, v in
                                   enumerate(rng.standard_normal(4)) if v > -0.5)
            for i in range(12)) + "\n"),
    }
    source = pick(rng, sorted(sources))
    out = tmp / "converted.csv"
    pools = {
        "--from": ["csv", "ssv", "svmlight", "xml"],
        "--label": ["first", "last", "middle"],
        "--n-features": ["0", "3", "10"],
        "--input": sorted(sources.values()) + [str(tmp / "absent.csv")],
    }
    flags = {"--input": sources[source], "--output": str(out), "--from": source}
    argv = mutate_flags(rng, flags, pools, ("--output",), {"--label": "last"})
    return ["datasets", "convert", *argv], out


@pytest.mark.parametrize("case", [solve_case, recognition_case, timing_case, convert_case],
                         ids=["solve", "bench-recognition", "bench-timing", "convert"])
def test_mutated_inputs_end_in_a_documented_exit_code(case, tmp_path, capsys):
    seen = set()
    for i in range(CASES):
        rng = np.random.default_rng([17, i])
        tmp = tmp_path / str(i)
        tmp.mkdir()
        argv, out = case(rng, tmp)
        try:
            code = main(argv)
        except SystemExit as err:  # argparse's --help and --version
            code = err.code
        except Exception as err:
            pytest.fail(f"case {i}: gpspca {' '.join(argv)} raised {err!r}")
        captured = capsys.readouterr()
        where = f"case {i}: gpspca {' '.join(argv)}\n{captured.err}"
        assert code in EXIT_CODES, where
        assert "Traceback" not in captured.out + captured.err, where
        if code == 0:
            written = out.read_text(encoding="utf-8")
            assert not NAN.search(written) and not NAN.search(captured.out), where
        seen.add(code)
    # The mutations reach both success and failure.
    assert 0 in seen and len(seen) > 1

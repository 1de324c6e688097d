from importlib import resources

import numpy as np
import pytest

import gpspca.parallel
from gpspca.cli import main, parse_args, read_config_file

PRESETS = sorted(
    ref.name.removesuffix(".cfg")
    for ref in resources.files("gpspca").joinpath("presets").iterdir()
    if ref.name.endswith(".cfg")
)


def write_labeled_csv(path, seed=0, classes=3, per_class=8, features=6):
    rng = np.random.default_rng(seed)
    lines = ["label," + ",".join(f"f{i}" for i in range(features))]
    for c in range(classes):
        for _ in range(per_class):
            row = rng.standard_normal(features) + 3.0 * c
            lines.append(str(c) + "," + ",".join(f"{v:.6f}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["solve", "--frobnicate"]) == 1

    def test_missing_input_is_usage_error(self, capsys):
        assert main(["solve", "--out", "x.csv"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main([
            "solve", "--input", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1.0,2.0\n1,3.0\n")
        assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "o.csv")]) == 2

    def test_overflowing_csv_value_is_data_error(self, tmp_path, capsys):
        # 1e999 parses, to inf, so only the finiteness check catches it.
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f1,f2\n0,1.0,2.0\n1,1e999,3.0\n")
        assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        assert "line 3: non-finite value" in capsys.readouterr().err

    def test_data_file_not_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"label,f\xe9\n0,1.0\n1,2.0\n")
        assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_chunk_flag_is_gone(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        code = main(["solve", "--input", str(data), "--chunk", "64",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_rank_collapse_is_solver_error(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        code = main([
            "solve", "--input", str(data), "--variant", "bl0", "--m", "2",
            "--gamma", "1e9", "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("variant", ["bl1", "bl0", "pca"])
    def test_solve_m_above_min_p_n_is_usage_error(self, tmp_path, capsys, variant):
        # 24 samples x 6 features carry at most 6 components.
        data = write_labeled_csv(tmp_path / "d.csv")
        out = tmp_path / "o.csv"
        flags = ["solve", "--input", str(data), "--variant", variant, "--gamma", "0",
                 "--out", str(out)]
        assert main([*flags, "--m", "7"]) == 1 and not out.exists()
        assert "--m 7 exceeds min(samples, features) = 6" in capsys.readouterr().err
        assert main([*flags, "--m", "6"]) == 0 and out.exists()

    @pytest.mark.parametrize(
        "flags, config",
        [(["--gamma", ","], None), (["--mu", "0"], None), ([], "tol = -5\n"),
         (["--gamma", "0.1,inf"], None), (["--mu", "inf"], None), ([], "tol = inf\n")],
        ids=["empty-gamma", "zero-mu", "config-negative-tol", "infinite-gamma", "infinite-mu",
             "config-infinite-tol"],
    )
    def test_bad_solver_settings_are_usage_errors(self, tmp_path, capsys, flags, config):
        data = write_labeled_csv(tmp_path / "d.csv")
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = flags + ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "o.csv"
        assert main(["solve", "--input", str(data), *flags, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--m", "2", "--gamma", "0.1,0.2,0.3"], ["--m", "3", "--mu", "1,2"]],
        ids=["gamma-3-for-m-2", "mu-2-for-m-3"],
    )
    def test_per_component_list_length_must_match_m(self, tmp_path, capsys, flags):
        data = write_labeled_csv(tmp_path / "d.csv")
        out = tmp_path / "o.csv"
        assert main(["solve", "--input", str(data), *flags, "--out", str(out)]) == 1
        assert "--m" in capsys.readouterr().err
        assert not out.exists()

    def test_knn_k_above_the_training_samples_is_usage_error(self, tmp_path, capsys):
        # 3 classes x 4 training samples: no 13th neighbour to vote.
        data = write_labeled_csv(tmp_path / "d.csv")
        out = tmp_path / "o.csv"
        code = main(["bench-recognition", "--dataset", str(data), "--split", "per-class:4",
                     "--knn-k", "13", "--out", str(out)])
        assert code == 1 and "12 training samples" in capsys.readouterr().err
        assert not out.exists()

    def test_success_is_zero(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        out = tmp_path / "loadings.csv"
        code = main([
            "solve", "--input", str(data), "--variant", "sl1", "--m", "2",
            "--gamma", "0.1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "component_1,component_2"
        assert len(lines) == 7  # header + one row per feature


class TestSolveCommand:
    def test_loadings_unit_norm(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        out = tmp_path / "loadings.csv"
        assert main([
            "solve", "--input", str(data), "--variant", "sl0", "--m", "2",
            "--gamma", "0.2", "--out", str(out),
        ]) == 0
        loadings = np.loadtxt(out, delimiter=",", skiprows=1)
        norms = np.linalg.norm(loadings, axis=0)
        assert np.all((norms < 1e-12) | (np.abs(norms - 1) < 1e-9))

    def test_matrix_format(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        rng = np.random.default_rng(1)
        np.savetxt(path, rng.standard_normal((12, 4)), delimiter=",")
        out = tmp_path / "o.csv"
        assert main([
            "solve", "--input", str(path), "--format", "matrix",
            "--variant", "pca", "--m", "2", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_summary_printed(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        main([
            "solve", "--input", str(data), "--variant", "sl1", "--m", "1",
            "--gamma", "0.1", "--out", str(tmp_path / "o.csv"),
        ])
        text = capsys.readouterr().out
        assert "nnz_per_component=" in text
        assert "sqrt_objective=" in text


class TestConfigResolution:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = sl0\nm = 2\ngamma = 0.2  # comment\n")
        out = tmp_path / "o.csv"
        assert main([
            "solve", "--input", str(data), "--config", str(cfg), "--out", str(out),
        ]) == 0
        assert out.read_text().splitlines()[0] == "component_1,component_2"

    def test_flag_overrides_config(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 2\n")
        out = tmp_path / "o.csv"
        assert main([
            "solve", "--input", str(data), "--config", str(cfg), "--m", "3",
            "--out", str(out),
        ]) == 0
        assert out.read_text().splitlines()[0] == "component_1,component_2,component_3"

    def test_env_var_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        data = write_labeled_csv(tmp_path / "d.csv")
        monkeypatch.setenv("GPSPCA_WORKERS", "not-a-number")
        # env var is consulted (and rejected) only when --workers is absent
        assert main([
            "solve", "--input", str(data), "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert main([
            "solve", "--input", str(data), "--workers", "1",
            "--out", str(tmp_path / "o.csv"),
        ]) == 0

    def test_preset_config_loads(self):
        values = read_config_file("preset:coil20_train24")
        assert values["gamma"] == "0.3"
        assert values["split"] == "per-class:24"

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_values_pass_flag_types(self, name):
        # A preset reads exactly like typing its keys as flags.
        command = "bench-timing" if name.startswith("timing") else "bench-recognition"
        values = read_config_file(f"preset:{name}")
        flags = [tok for key, value in values.items()
                 for tok in (f"--{key.replace('_', '-')}", value)]
        from_preset = vars(parse_args([command, "--config", f"preset:{name}"]))
        from_flags = vars(parse_args([command, *flags]))
        assert set(values) <= set(from_preset)
        assert from_preset == {**from_flags, "config": f"preset:{name}"}

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(Exception):
            read_config_file("preset:nonexistent")

    def test_bad_config_line_is_usage_error(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma 0.2\n")
        assert main([
            "solve", "--input", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.csv"),
        ]) == 1


    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, kind):
        data = write_labeled_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        assert main([
            "solve", "--input", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert f"config {cfg}: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"m = 2  # caf\xe9\n")
        assert main([
            "solve", "--input", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text, keys", [
        ("gama = 5\nmax_iterr = 1\nm = 2\n", "gama, max_iterr"),  # misspelled
        ("input = x.csv\n", "input"),  # a flag only the command line sets
        ("repetitions = 2\n", "repetitions"),  # another subcommand's flag
    ], ids=["misspelled", "flag-only", "other-command"])
    def test_key_that_is_not_a_setting_is_usage_error(self, tmp_path, capsys, text, keys):
        data = write_labeled_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([
            "solve", "--input", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.csv"),
        ]) == 1
        assert f"config keys that are not settings of solve: {keys}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestBenchCommands:
    def test_bench_timing_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "timing.csv"
        code = main([
            "bench-timing", "--sizes", "50", "--instances", "2",
            "--variants", "sl1", "--m", "2", "--max-iter", "20",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("variant,N,P,gamma")
        assert len(lines) == 1 + 2 * (2 + 1)  # 2 gammas x (2 instances + median)

    def test_bench_timing_pca_baseline(self, tmp_path, capsys):
        out = tmp_path / "timing.csv"
        code = main([
            "bench-timing", "--sizes", "50", "--instances", "3", "--gammas", "0.05",
            "--variants", "pca", "--m", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[5] for line in lines[1:]] == ["0", "1", "2", "median"]
        assert all(line.split(",")[7] == "0" for line in lines[1:])

    @pytest.mark.parametrize(
        "flags",
        [["--gammas", ","], ["--sizes", "0"], ["--sizes", "15"], ["--m", "0"],
         ["--tol", "-1"], ["--mu", ","], ["--mu", "0"], ["--m", "2,5"]],
        ids=["empty-gammas", "zero-size", "off-grid-size", "zero-m",
             "negative-tol", "empty-mu", "zero-mu", "m-list"],
    )
    def test_bench_timing_bad_arguments_are_usage_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "timing.csv"
        code = main([
            "bench-timing", "--sizes", "50", "--instances", "1", "--variants", "sl1",
            "--m", "1", "--max-iter", "5", *flags, "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_bench_timing_m_above_p_is_usage_error(self, tmp_path, capsys):
        # At N = 10 the grid has P = 1 sample, too few for 3 components; the
        # sweep is refused before it fits the size that could take them.
        out = tmp_path / "timing.csv"
        code = main(["bench-timing", "--sizes", "50,10", "--m", "3", "--instances", "1",
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "N=10" in capsys.readouterr().err

    def test_bench_recognition_writes_csv(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv", per_class=10)
        out = tmp_path / "rec.csv"
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "sl1",
            "--m", "1,2", "--gamma", "0.2", "--repetitions", "2",
            "--split", "per-class:6", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,m,gamma,repetition,overall_accuracy")
        assert len(lines) == 1 + 2 * 2 + 2  # reps x m + mean rows

    def test_bench_recognition_head_split(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv", per_class=10)
        out = tmp_path / "rec.csv"
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "pca",
            "--m", "2", "--gamma", "0", "--split", "head:25", "--out", str(out),
        ])
        assert code == 0
        # classes are contiguous blocks of 10, so head:15 strands the third
        # class entirely in the test set: a data error
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "pca",
            "--m", "2", "--gamma", "0", "--split", "head:15", "--out", str(out),
        ])
        assert code == 2

    def test_bench_recognition_grouped_split(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv", per_class=10)
        groups = tmp_path / "groups.txt"
        groups.write_text("\n".join(str(i % 5 + 1) for i in range(30)) + "\n")
        out = tmp_path / "rec.csv"
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "pca",
            "--m", "2", "--gamma", "0", "--split", "grouped",
            "--group-file", str(groups), "--test-groups", "4,5",
            "--out", str(out),
        ])
        assert code == 0


    def test_bench_recognition_per_class_split_without_test_set(self, tmp_path, capsys):
        # per-class:8 takes every sample of every class for training.
        data = write_labeled_csv(tmp_path / "d.csv", per_class=8)
        out = tmp_path / "rec.csv"
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "pca",
            "--m", "2", "--gamma", "0", "--split", "per-class:8", "--out", str(out),
        ])
        assert code == 2
        assert "per-class split leaves no test sample" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_recognition_zero_mu_is_usage_error(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv", per_class=10)
        out = tmp_path / "rec.csv"
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "sl1",
            "--m", "2", "--mu", "0", "--split", "per-class:6", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--m", "1,2", "--gamma", "0.1,0.2"], ["--m", "2,3", "--mu", "1,2"]],
        ids=["gamma-2-for-m-1", "mu-2-for-m-3"],
    )
    def test_bench_recognition_per_component_list_needs_every_m(self, tmp_path, capsys,
                                                                 flags):
        data = write_labeled_csv(tmp_path / "d.csv", per_class=10)
        out = tmp_path / "rec.csv"
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "sl1", *flags,
            "--split", "per-class:6", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_bench_recognition_per_component_gamma_at_its_m(self, tmp_path, capsys):
        data = write_labeled_csv(tmp_path / "d.csv", per_class=10)
        out = tmp_path / "rec.csv"
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "sl1",
            "--m", "2,2", "--gamma", "0.1,0.2", "--split", "per-class:6", "--out", str(out),
        ])
        assert code == 0
        assert "Error" not in out.read_text()

    @pytest.mark.parametrize("bad", ["abc", "2.5"])
    def test_bench_recognition_bad_group_id_is_data_error(self, tmp_path, capsys, bad):
        data = write_labeled_csv(tmp_path / "d.csv", per_class=10)
        ids = [str(i % 5 + 1) for i in range(30)]
        ids[3] = bad
        groups = tmp_path / "groups.txt"
        groups.write_text("\n".join(ids) + "\n")
        code = main([
            "bench-recognition", "--dataset", str(data), "--variant", "pca",
            "--m", "2", "--gamma", "0", "--split", "grouped",
            "--group-file", str(groups), "--test-groups", "4,5",
            "--out", str(tmp_path / "rec.csv"),
        ])
        assert code == 2
        assert "line 4" in capsys.readouterr().err


class TestDatasetsConvert:
    def test_ssv_label_last(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("1.0 2.0 0\n3.0 4.0 1\n")
        out = tmp_path / "out.csv"
        assert main([
            "datasets", "convert", "--input", str(raw), "--output", str(out),
            "--from", "ssv", "--label", "last",
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,f1,f2"
        assert lines[1] == "0,1,2"

    def test_svmlight(self, tmp_path, capsys):
        raw = tmp_path / "raw.svm"
        raw.write_text("3 1:0.5 4:2.0\n1 2:1.0\n")
        out = tmp_path / "out.csv"
        assert main([
            "datasets", "convert", "--input", str(raw), "--output", str(out),
            "--from", "svmlight",
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,f1,f2,f3,f4"
        assert lines[1] == "3,0.5,0,0,2"
        assert lines[2] == "1,0,1,0,0"

    def test_inconsistent_rows_rejected(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("0 1.0 2.0\n1 3.0\n")
        assert main([
            "datasets", "convert", "--input", str(raw),
            "--output", str(tmp_path / "o.csv"), "--from", "ssv",
        ]) == 2

    @pytest.mark.parametrize("index", ["0", "-5"], ids=["zero-index", "negative-index"])
    def test_svmlight_index_below_one_is_data_error(self, tmp_path, capsys, index):
        raw = tmp_path / "raw.svm"
        raw.write_text(f"3 1:0.5 2:2.0\n1 {index}:9.0 2:1.0\n")
        out = tmp_path / "out.csv"
        assert main([
            "datasets", "convert", "--input", str(raw), "--output", str(out),
            "--from", "svmlight",
        ]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e999", "nan"])
    def test_svmlight_non_finite_feature_is_data_error(self, tmp_path, capsys, value):
        raw = tmp_path / "raw.svm"
        raw.write_text(f"1 1:0.5 2:3\n2 1:{value} 2:1\n")
        out = tmp_path / "out.csv"
        assert main([
            "datasets", "convert", "--input", str(raw), "--output", str(out),
            "--from", "svmlight",
        ]) == 2
        assert "line 2: non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_svmlight_index_beyond_memory_is_data_error(self, tmp_path, capsys, monkeypatch):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemAvailable: 1000 kB\n")
        monkeypatch.setattr(gpspca.parallel, "MEMINFO", str(meminfo))
        raw = tmp_path / "raw.svm"
        raw.write_text("1 1000000000000:1\n")
        out = tmp_path / "out.csv"
        assert main([
            "datasets", "convert", "--input", str(raw), "--output", str(out),
            "--from", "svmlight",
        ]) == 2
        assert "line 1: feature index 1000000000000 is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_svmlight_non_integer_label_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.svm"
        raw.write_text("3 1:0.5 2:2.0\n2.7 2:1.0\n")
        out = tmp_path / "out.csv"
        assert main([
            "datasets", "convert", "--input", str(raw), "--output", str(out),
            "--from", "svmlight",
        ]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

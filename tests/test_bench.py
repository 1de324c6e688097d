import numpy as np
import pytest

from gpspca import (
    ExperimentConfig,
    PerClassCount,
    emit_report,
    fit_projection,
    knn_classify,
    make_splits,
    run_recognition_experiment,
    run_timing_experiment,
    synthetic_sparse_factors,
)
from gpspca.pca import project


def small_dataset(seed=0):
    return synthetic_sparse_factors(
        n_classes=5, per_class=12, n_features=30, n_factors=3, support_size=6,
        seed=seed,
    )


class TestEmitReport:
    def test_empty_rejected_and_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            emit_report([], path)
        assert not path.exists()

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report([{"a": 1, "b": 2.5}], path)
        text = path.read_text()
        assert text == "a,b\n1,2.5\n"

    def test_float_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        rows = [{"x": float(v), "y": float(w)}
                for v, w in rng.standard_normal((25, 2)) * 1e3]
        path = tmp_path / "out.csv"
        emit_report(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        for row, line in zip(rows, lines[1:]):
            x, y = line.split(",")
            assert float(x) == row["x"] and float(y) == row["y"]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report([{"a": 1}], path)
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_mismatched_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([{"a": 1}, {"b": 2}], tmp_path / "out.csv")


class TestRecognitionExperiment:
    def test_gamma_zero_matches_pca(self, tmp_path):
        ds = small_dataset()
        accs = {}
        for variant in ("pca", "sl1", "sl0"):
            config = ExperimentConfig(
                variant=variant, m=(2, 3), gamma=0.0, repetitions=2, seed=5,
                split=PerClassCount(7), tol=1e-12, max_iter=5000,
            )
            rows = run_recognition_experiment(config, dataset=ds)
            accs[variant] = [
                r["overall_accuracy"] for r in rows if r["repetition"] != "mean"
            ]
        for variant in ("sl1", "sl0"):
            for a, b in zip(accs[variant], accs["pca"]):
                assert abs(a - b) <= 1e-6

    def test_byte_identical_with_fixed_seed(self, tmp_path):
        ds = small_dataset()
        outputs = []
        for run in range(2):
            path = tmp_path / f"run{run}.csv"
            config = ExperimentConfig(
                variant="sl1", m=(2,), gamma=0.5, repetitions=3, seed=11,
                split=PerClassCount(7), out=str(path), report_timing=False,
            )
            run_recognition_experiment(config, dataset=ds)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_nnz_column_is_honest(self):
        ds = small_dataset()
        config = ExperimentConfig(
            variant="sl1", m=(3,), gamma=0.5, repetitions=1, seed=2,
            split=PerClassCount(7),
        )
        rows = run_recognition_experiment(config, dataset=ds)
        row = rows[0]
        split = make_splits(ds, PerClassCount(7), seed=[2, 0])
        train_x, _ = split.train()
        loadings, _, _ = fit_projection(train_x, "sl1", 3, 0.5, seed=[2, 0])
        want = ";".join(str(int(v)) for v in np.count_nonzero(loadings, axis=0))
        assert row["nnz_per_component"] == want

    def test_solver_failure_recorded_not_fatal(self):
        ds = small_dataset()
        config = ExperimentConfig(
            variant="bl0", m=(2,), gamma=1e9, repetitions=2, seed=1,
            split=PerClassCount(7),
        )
        rows = run_recognition_experiment(config, dataset=ds)
        data_rows = [r for r in rows if r["repetition"] != "mean"]
        assert len(data_rows) == 2
        assert all("RankDeficiencyError" in r["error"] for r in data_rows)
        assert all(r["overall_accuracy"] is None for r in data_rows)

    def test_mean_rows_appended(self):
        ds = small_dataset()
        config = ExperimentConfig(
            variant="pca", m=(2,), gamma=0.0, repetitions=3, seed=0,
            split=PerClassCount(7),
        )
        rows = run_recognition_experiment(config, dataset=ds)
        mean_rows = [r for r in rows if r["repetition"] == "mean"]
        assert len(mean_rows) == 1
        per_rep = [r["overall_accuracy"] for r in rows if r["repetition"] != "mean"]
        assert mean_rows[0]["overall_accuracy"] == pytest.approx(np.mean(per_rep))

    def test_spca_beats_pca_on_sparse_factor_data(self):
        # qualitative claim on the controllable analogue, small version
        ds = synthetic_sparse_factors(
            n_classes=10, per_class=20, n_features=200, n_factors=5,
            support_size=10, class_scale=2.5, seed=3,
        )
        means = {}
        for variant, gamma in (("sl1", 2.0), ("pca", 0.0)):
            config = ExperimentConfig(
                variant=variant, m=(5,), gamma=gamma, repetitions=3, seed=3,
                split=PerClassCount(10), max_iter=500,
            )
            rows = run_recognition_experiment(config, dataset=ds)
            means[variant] = [r for r in rows if r["repetition"] == "mean"][0][
                "overall_accuracy"
            ]
        assert means["sl1"] >= means["pca"]

    def test_train_test_hygiene_permuting_test_rows(self):
        ds = small_dataset()
        split = make_splits(ds, PerClassCount(7), seed=4)
        train_x, train_y = split.train()
        test_x, test_y = split.test()
        loadings, mean, _ = fit_projection(train_x, "sl1", 2, 0.3)
        train_emb = project(train_x, loadings, mean)
        test_emb = project(test_x, loadings, mean)
        pred, _ = knn_classify(train_emb, train_y, test_emb)
        perm = np.random.default_rng(1).permutation(test_x.shape[0])
        pred_perm, _ = knn_classify(train_emb, train_y, test_emb[perm])
        assert np.array_equal(pred_perm, pred[perm])

    def test_requires_split_policy(self):
        with pytest.raises(ValueError):
            run_recognition_experiment(
                ExperimentConfig(variant="pca", split=None), dataset=small_dataset()
            )


class TestTimingExperiment:
    def config(self, **kw):
        base = dict(
            m=(2,), seed=0, timing_sizes=(50, 100), timing_gammas=(0.01, 0.05),
            timing_variants=("sl1", "bl0"), timing_instances=2, max_iter=50,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_grid_honors_p_equals_n_over_ten(self):
        rows = run_timing_experiment(self.config())
        assert all(r["P"] * 10 == r["N"] for r in rows)

    def test_gamma_column_only_configured_values(self):
        rows = run_timing_experiment(self.config())
        assert set(r["gamma"] for r in rows) == {0.01, 0.05}

    def test_same_seed_same_iteration_counts(self):
        a = run_timing_experiment(self.config())
        b = run_timing_experiment(self.config())
        assert [r["iterations"] for r in a] == [r["iterations"] for r in b]

    def test_medians_appended_per_cell(self):
        rows = run_timing_experiment(self.config())
        medians = [r for r in rows if r["instance"] == "median"]
        # 2 sizes x 2 variants x 2 gammas
        assert len(medians) == 8

    def test_converged_column(self):
        # max_iter=1 caps every SPCA solve; pca has no solver report
        rows = run_timing_experiment(self.config(
            timing_variants=("sl1", "pca"), timing_gammas=(0.05,), max_iter=1,
        ))
        cells = {(r["variant"], r["instance"]): r["converged"] for r in rows if r["N"] == 50}
        assert cells == {
            ("sl1", 0): 0, ("sl1", 1): 0, ("sl1", "median"): 0.0,
            ("pca", 0): None, ("pca", 1): None, ("pca", "median"): None,
        }
        free = run_timing_experiment(self.config(timing_variants=("sl1",), max_iter=1000))
        assert all(r["converged"] == 1 for r in free)

    def test_rejects_off_grid_size(self):
        with pytest.raises(ValueError):
            run_timing_experiment(self.config(timing_sizes=(55,)))

    def test_csv_written(self, tmp_path):
        path = tmp_path / "timing.csv"
        run_timing_experiment(self.config(out=str(path)))
        header = path.read_text().splitlines()[0]
        assert header == "variant,N,P,gamma,workers,instance,seconds,iterations,converged"

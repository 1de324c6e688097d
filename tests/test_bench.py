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
from gpspca import bench, single_unit
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

    @pytest.mark.parametrize("counts", [dict(workers=0), dict(timing_workers=(1, 0))])
    def test_bad_worker_count_rejected_before_any_fit(self, counts):
        # A fit's exception would only become an error row.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExperimentConfig(variant="sl1", split=PerClassCount(7), **counts)


class TestSweepReuse:
    """Within a repetition sl1/sl0 fits extend one component sequence and
    pca slices one factorization; every row must match a fresh fit."""

    def sweep(self, monkeypatch, variant, ms, gamma=0.05, **kw):
        calls = []
        original = bench.fit_projection

        def tap(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(bench, "fit_projection", tap)
        settings = dict(repetitions=2, seed=7, split=PerClassCount(7), max_iter=300,
                        report_timing=False)
        settings.update(kw)
        config = ExperimentConfig(variant=variant, m=ms, gamma=gamma, **settings)
        ds = small_dataset()
        rows = run_recognition_experiment(config, dataset=ds)
        monkeypatch.setattr(bench, "fit_projection", original)
        return ds, config, [r for r in rows if r["repetition"] != "mean"], calls

    def fresh(self, ds, config, rep, m):
        split = make_splits(ds, config.split, seed=[config.seed, rep])
        train_x, train_y = split.train()
        test_x, test_y = split.test()
        loadings, mean, report = fit_projection(
            train_x, config.variant, m, config.gamma, config.mu, config.tol,
            config.max_iter, seed=[config.seed, rep],
        )
        _, accuracy = knn_classify(
            project(train_x, loadings, mean), train_y, project(test_x, loadings, mean), test_y
        )
        return loadings, report, accuracy

    @pytest.mark.parametrize("ms", [(2, 5, 10), (5, 2, 5, 10)], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("variant", ["sl1", "sl0", "pca"])
    def test_rows_bitwise_equal_to_fresh_fits(self, monkeypatch, variant, ms):
        ds, config, rows, calls = self.sweep(monkeypatch, variant, ms)
        assert len(rows) == len(calls) == 2 * len(ms)
        for row, (loadings, _, report) in zip(rows, calls):
            want, want_report, accuracy = self.fresh(ds, config, row["repetition"], row["m"])
            assert not row["error"]
            assert loadings.shape == (ds.n_features, row["m"])
            assert np.array_equal(loadings, want)
            assert row["nnz_per_component"] == ";".join(
                str(int(v)) for v in np.count_nonzero(want, axis=0))
            assert row["overall_accuracy"] == accuracy
            if variant == "pca":
                assert report is None and row["converged"] is None
                continue
            # Whole objective traces, final objectives included.
            assert report.component_histories == want_report.component_histories
            assert report.converged == want_report.converged
            assert row["converged"] == int(want_report.converged)

    def test_block_variant_solves_every_row(self, monkeypatch):
        solves = []
        original = bench.solve_block
        monkeypatch.setattr(
            bench, "solve_block", lambda *a, **k: solves.append(1) or original(*a, **k))
        ds, config, rows, calls = self.sweep(monkeypatch, "bl1", (2, 3, 2))
        assert len(solves) == len(rows) == 6
        for row, (loadings, _, report) in zip(rows, calls):
            want, want_report, _ = self.fresh(ds, config, row["repetition"], row["m"])
            assert np.array_equal(loadings, want)
            assert report.iterations == want_report.iterations

    def test_pca_m_above_rank_records_its_own_error(self, monkeypatch):
        # 35 training rows x 30 features: at most 30 components.
        ds, config, rows, _ = self.sweep(monkeypatch, "pca", (2, 31, 5))
        errors = [r["error"] for r in rows]
        assert errors == ["", "ValueError: need 1 <= m <= min(#samples, #variables) = 30", ""] * 2
        for row in rows:
            if not row["error"]:
                assert row["overall_accuracy"] == self.fresh(ds, config, row["repetition"],
                                                             row["m"])[2]

    @staticmethod
    def count_deflated_solves(monkeypatch):
        # Components solved on deflated data: every one after the first of
        # its sequence.
        count = []
        original = single_unit._solve_component

        def counting(data, *args):
            if data.X.shape[1]:
                count.append(1)
            return original(data, *args)

        monkeypatch.setattr(single_unit, "_solve_component", counting)
        return count

    def test_extension_deflates_only_for_new_components(self, monkeypatch):
        count = self.count_deflated_solves(monkeypatch)
        _, _, rows, calls = self.sweep(monkeypatch, "sl1", (2, 5, 10), repetitions=1)
        assert all(np.count_nonzero(loadings, axis=0).all() for loadings, _, _ in calls)
        assert len(count) == 9  # 1 + 3 + 5; fresh fits at each m would make 1 + 4 + 9

    def test_extended_report_counts_only_new_components(self, monkeypatch):
        _, _, rows, calls = self.sweep(monkeypatch, "sl1", (2, 5, 3, 10))
        done = 0
        for row, (_, _, report) in zip(rows, calls):
            if row["m"] == 2:
                done = 0  # a new repetition starts a new sequence
            new = report.component_histories[done:]
            assert report.iterations == sum(len(h) - 1 for h in new)
            done = max(done, row["m"])
        assert calls[2][2].iterations == 0

    def test_per_component_gamma_fits_from_scratch(self, monkeypatch):
        count = self.count_deflated_solves(monkeypatch)
        _, _, rows, _ = self.sweep(monkeypatch, "sl1", (3, 3), gamma=(0.05, 0.1, 0.05),
                                   repetitions=1)
        assert not any(r["error"] for r in rows)
        assert len(count) == 4  # two fresh 3-component fits

    def test_converged_column(self, monkeypatch):
        _, _, rows, _ = self.sweep(monkeypatch, "sl1", (2, 4), max_iter=1)
        assert [r["converged"] for r in rows] == [0] * 4
        config = ExperimentConfig(
            variant="sl1", m=(2, 4), gamma=0.05, repetitions=2, seed=7,
            split=PerClassCount(7), max_iter=1,
        )
        means = [r for r in run_recognition_experiment(config, dataset=small_dataset())
                 if r["repetition"] == "mean"]
        assert [r["converged"] for r in means] == [0.0, 0.0]
        _, _, rows, _ = self.sweep(monkeypatch, "sl1", (2, 4))
        assert [r["converged"] for r in rows] == [1] * 4

    def test_fit_seconds_accumulate_within_a_repetition(self, monkeypatch):
        # A clock that advances one second per reading: each fit lasts 1 s.
        ticks = iter(range(1000))
        monkeypatch.setattr(bench, "time", type("Clock", (), {
            "perf_counter": staticmethod(lambda: float(next(ticks)))}))
        config = ExperimentConfig(
            variant="sl1", m=(2, 5, 10), gamma=0.05, repetitions=2, seed=7,
            split=PerClassCount(7),
        )
        rows = run_recognition_experiment(config, dataset=small_dataset())
        assert [r["fit_seconds"] for r in rows] == [1.0, 2.0, 3.0] * 3  # two repetitions, then the means


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

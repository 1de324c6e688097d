import csv
import tracemalloc

import numpy as np
import pytest

import gpspca.parallel

from gpspca import (
    DataMatrix,
    PerClassCount,
    RankDeficiencyError,
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


@pytest.fixture
def fits(monkeypatch):
    # Every fit a sweep runs.
    seen = []
    fit = bench.fit_projection
    monkeypatch.setattr(bench, "fit_projection",
                        lambda *args, **kwargs: seen.append(args) or fit(*args, **kwargs))
    return seen


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
            rows = run_recognition_experiment(
                ds, PerClassCount(7), variant=variant, m=(2, 3), gamma=0.0, repetitions=2,
                seed=5, tol=1e-12, max_iter=5000,
            )
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
            run_recognition_experiment(ds, PerClassCount(7), variant="sl1", m=(2,), gamma=0.5,
                                       repetitions=3, seed=11, out=str(path))
            with open(path, encoding="utf-8", newline="") as fh:
                records = list(csv.reader(fh))
            drop = records[0].index("fit_seconds")  # wall clock
            outputs.append([record[:drop] + record[drop + 1:] for record in records])
        assert outputs[0] == outputs[1]

    def test_nnz_column_is_honest(self):
        ds = small_dataset()
        rows = run_recognition_experiment(ds, PerClassCount(7), variant="sl1", m=(3,),
                                          gamma=0.5, repetitions=1, seed=2)
        row = rows[0]
        split = make_splits(ds, PerClassCount(7), seed=[2, 0])
        train_x, _ = split.train()
        loadings, _, _ = fit_projection(train_x, "sl1", 3, 0.5, seed=[2, 0])
        want = ";".join(str(int(v)) for v in np.count_nonzero(loadings, axis=0))
        assert row["nnz_per_component"] == want

    def test_solver_failure_recorded_not_fatal(self):
        ds = small_dataset()
        rows = run_recognition_experiment(ds, PerClassCount(7), variant="bl0", m=(2,),
                                          gamma=1e9, repetitions=2, seed=1)
        data_rows = [r for r in rows if r["repetition"] != "mean"]
        assert len(data_rows) == 2
        assert all("RankDeficiencyError" in r["error"] for r in data_rows)
        assert all(r["overall_accuracy"] is None for r in data_rows)

    def test_mean_rows_appended(self):
        ds = small_dataset()
        rows = run_recognition_experiment(ds, PerClassCount(7), variant="pca", m=(2,),
                                          gamma=0.0, repetitions=3, seed=0)
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
            rows = run_recognition_experiment(ds, PerClassCount(10), variant=variant, m=(5,),
                                              gamma=gamma, repetitions=3, seed=3, max_iter=500)
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
        pred = knn_classify(train_emb, train_y, test_emb)
        perm = np.random.default_rng(1).permutation(test_x.shape[0])
        pred_perm = knn_classify(train_emb, train_y, test_emb[perm])
        assert np.array_equal(pred_perm, pred[perm])

    @pytest.mark.parametrize("settings, message", [
        (dict(m=(1, 2), gamma=(0.1, 0.2)),
         "gamma must be a scalar or length-1 vector, got 2 values"),
        (dict(m=(2, 3), mu=(1.0, 2.0)), "mu must be a scalar or length-3 vector, got 2 values"),
        (dict(variant="pca", m=(2, 3), gamma=(0.0, 0.0)),
         "gamma must be a scalar or length-3 vector, got 2 values"),
        (dict(variant="bogus"), "unknown variant 'bogus'"),
        (dict(m=(2, 5, 2)), "m lists a value more than once: 2,5,2"),
    ], ids=["gamma-2-for-m-1", "mu-2-for-m-3", "pca-gamma-2-for-m-3", "unknown-variant",
            "repeated-m"])
    def test_bad_settings_rejected_before_the_first_fit(self, fits, settings, message):
        # A fit's ValueError would only become an error row.
        with pytest.raises(ValueError, match=message):
            run_recognition_experiment(small_dataset(), PerClassCount(7),
                                       **{"variant": "sl1", **settings})
        assert fits == []

    @pytest.mark.parametrize("counts", [dict(workers=0), dict(variant="pca", workers=0)])
    def test_bad_worker_count_rejected_before_any_fit(self, fits, counts):
        # A fit's exception would only become an error row.  pca reads no
        # worker count, yet its sweep refuses one too.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_recognition_experiment(small_dataset(), PerClassCount(7),
                                       **{"variant": "sl1", **counts})
        assert fits == []

    def test_unknown_variant_rejected_by_a_fit(self):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            fit_projection(small_dataset().samples, "bogus", 2, 0.1)


class TestSweepReuse:
    """Within a repetition sl1/sl0 fits extend one component sequence and
    pca slices one factorization; every row must match a fresh fit."""

    def sweep(self, monkeypatch, variant, ms, gamma=0.05, ds=None, **kw):
        calls = []
        original = bench.fit_projection

        def tap(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(bench, "fit_projection", tap)
        settings = dict(split=PerClassCount(7), variant=variant, m=ms, gamma=gamma,
                        repetitions=2, seed=7, max_iter=300)
        settings.update(kw)
        ds = small_dataset() if ds is None else ds
        rows = run_recognition_experiment(ds, **settings)
        monkeypatch.setattr(bench, "fit_projection", original)
        return ds, settings, [r for r in rows if r["repetition"] != "mean"], calls

    def fresh(self, ds, settings, rep, m):
        split = make_splits(ds, settings["split"], seed=[settings["seed"], rep])
        train_x, train_y = split.train()
        test_x, test_y = split.test()
        loadings, mean, report = fit_projection(
            train_x, settings["variant"], m, settings["gamma"],
            max_iter=settings["max_iter"], seed=[settings["seed"], rep],
        )
        predictions = knn_classify(
            project(train_x, loadings, mean), train_y, project(test_x, loadings, mean)
        )
        return loadings, report, float(np.mean(predictions == test_y))

    @pytest.mark.parametrize("ms", [(2, 5, 10), (5, 2, 10, 3)], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("variant", ["sl1", "sl0", "bl1", "bl0", "pca"])
    def test_rows_bitwise_equal_to_fresh_fits(self, monkeypatch, variant, ms):
        ds, settings, rows, calls = self.sweep(monkeypatch, variant, ms)
        assert len(rows) == len(calls) == 2 * len(ms)
        for row, (loadings, _, report) in zip(rows, calls):
            want, want_report, accuracy = self.fresh(ds, settings, row["repetition"], row["m"])
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

    @pytest.mark.parametrize("ms", [(2, 5, 34, 35), (35, 5, 34, 2)], ids=["sorted", "unsorted"])
    def test_pca_rows_bitwise_equal_to_fresh_fits_with_fewer_rows_than_features(
            self, monkeypatch, ms):
        # 35 training rows x 60 features: the sample Gram serves m <= 34
        # and the SVD m = 35, above the centered rows' rank.  One
        # eigendecomposition and one SVD per repetition serve every row.
        ds = synthetic_sparse_factors(n_classes=5, per_class=12, n_features=60, n_factors=3,
                                      support_size=6, seed=3)
        calls = []
        for name in ("svd", "eigh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        ds, settings, rows, fits = self.sweep(monkeypatch, "pca", ms, ds=ds)
        assert sorted(calls) == ["eigh", "eigh", "svd", "svd"]
        for row, (loadings, _, _) in zip(rows, fits):
            want, _, accuracy = self.fresh(ds, settings, row["repetition"], row["m"])
            assert not row["error"]
            assert np.array_equal(loadings, want)
            assert row["overall_accuracy"] == accuracy

    @pytest.mark.parametrize("variant", ["sl1", "pca"])
    def test_embedded_rows_centered_once_per_repetition(self, monkeypatch, variant):
        # Each repetition subtracts the training mean from its rows once;
        # every m embeds them bitwise as project does.
        centerings, embeddings = [], []
        center, classify = bench._centered_rows, bench.knn_classify
        monkeypatch.setattr(bench, "_centered_rows",
                            lambda *args: centerings.append(1) or center(*args))
        monkeypatch.setattr(bench, "knn_classify", lambda train, labels, test:
                            embeddings.append((train, test)) or classify(train, labels, test))
        ds, settings, rows, calls = self.sweep(monkeypatch, variant, (2, 5, 3))
        assert len(centerings) == settings["repetitions"] == 2
        assert len(embeddings) == len(calls) == len(rows) == 6
        for row, (loadings, mean, _), (train_emb, test_emb) in zip(rows, calls, embeddings):
            split = make_splits(ds, settings["split"], seed=[settings["seed"], row["repetition"]])
            assert np.array_equal(train_emb, project(split.train()[0], loadings, mean))
            assert np.array_equal(test_emb, project(split.test()[0], loadings, mean))

    def test_block_variant_solves_every_row(self, monkeypatch):
        solves = []
        original = bench.solve_block
        monkeypatch.setattr(
            bench, "solve_block", lambda *a, **k: solves.append(1) or original(*a, **k))
        ds, settings, rows, calls = self.sweep(monkeypatch, "bl1", (3, 2, 4))
        assert len(solves) == len(rows) == 6
        for row, (loadings, _, report) in zip(rows, calls):
            want, want_report, _ = self.fresh(ds, settings, row["repetition"], row["m"])
            assert np.array_equal(loadings, want)
            assert report.iterations == want_report.iterations

    @pytest.mark.parametrize("variant", ["sl1", "sl0", "bl1", "bl0"])
    def test_each_repetition_centers_once(self, monkeypatch, variant):
        # Every sparse fit of a repetition hands the solver one centered
        # DataMatrix and returns one mean; only the first fit centers.
        solved, centered = [], []
        for name in ("solve_multi_sequential", "solve_block"):
            original = getattr(bench, name)
            monkeypatch.setattr(bench, name, lambda A, *a, _original=original, **k:
                                solved.append(A) or _original(A, *a, **k))
        own = DataMatrix._own.__func__
        monkeypatch.setattr(DataMatrix, "_own", classmethod(
            lambda cls, arr: centered.append(1) or own(cls, arr)))
        ms = (2, 5, 3)
        _, _, rows, calls = self.sweep(monkeypatch, variant, ms)
        assert not any(r["error"] for r in rows)
        assert len(centered) == 2 and len(solved) == len(calls) == 2 * len(ms)
        for rep in (0, 1):
            matrices = solved[rep * len(ms):(rep + 1) * len(ms)]
            means = [mean for _, mean, _ in calls[rep * len(ms):(rep + 1) * len(ms)]]
            assert isinstance(matrices[0], DataMatrix)
            assert all(A is matrices[0] for A in matrices)
            assert all(mean is means[0] for mean in means)
            assert not means[0].flags.writeable
        assert solved[0] is not solved[len(ms)]

    def test_pca_m_above_rank_records_its_own_error(self, monkeypatch):
        # 35 training rows x 30 features: at most 30 components.
        ds, settings, rows, _ = self.sweep(monkeypatch, "pca", (2, 31, 5))
        errors = [r["error"] for r in rows]
        assert errors == ["", "ValueError: need 1 <= m <= min(#samples, #variables) = 30, "
                          "got m=31", ""] * 2
        for row in rows:
            if not row["error"]:
                assert row["overall_accuracy"] == self.fresh(ds, settings, row["repetition"],
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

    def test_per_component_gamma_extends_one_sequence(self, monkeypatch):
        # A gamma list ties a sweep to its one m, whose fit solves one
        # sequence per repetition; a second fit at that m with the same
        # reuse state reads the first one's components.
        count = self.count_deflated_solves(monkeypatch)
        sequences = []
        init = single_unit.ComponentSequence.__init__
        monkeypatch.setattr(single_unit.ComponentSequence, "__init__",
                            lambda self, *a, **k: sequences.append(1) or init(self, *a, **k))
        gamma = (0.05, 0.1, 0.05)
        ds, settings, rows, calls = self.sweep(monkeypatch, "sl1", (3,), gamma=gamma)
        assert len(sequences) == settings["repetitions"] == 2
        assert len(count) == 4  # components 2 and 3, once per repetition
        train_x = make_splits(ds, settings["split"], seed=[7, 0]).train()[0]
        reuse = {}
        first, second = [fit_projection(train_x, "sl1", 3, gamma, max_iter=300, seed=[7, 0],
                                        reuse=reuse) for _ in range(2)]
        assert len(sequences) == 3 and len(count) == 6
        assert np.array_equal(second[0], first[0]) and second[2].iterations == 0
        assert np.array_equal(first[0], calls[0][0])
        for row, (loadings, _, report) in zip(rows, calls):
            want, want_report, accuracy = self.fresh(ds, settings, row["repetition"], row["m"])
            assert not row["error"]
            assert np.array_equal(loadings, want)
            assert np.count_nonzero(loadings, axis=0).all()
            assert row["overall_accuracy"] == accuracy
            assert report.component_histories == want_report.component_histories

    def test_converged_column(self, monkeypatch):
        _, _, rows, _ = self.sweep(monkeypatch, "sl1", (2, 4), max_iter=1)
        assert [r["converged"] for r in rows] == [0] * 4
        rows = run_recognition_experiment(small_dataset(), PerClassCount(7), variant="sl1",
                                          m=(2, 4), gamma=0.05, repetitions=2, seed=7,
                                          max_iter=1)
        means = [r for r in rows if r["repetition"] == "mean"]
        assert [r["converged"] for r in means] == [0.0, 0.0]
        _, _, rows, _ = self.sweep(monkeypatch, "sl1", (2, 4))
        assert [r["converged"] for r in rows] == [1] * 4

    def test_fit_seconds_accumulate_within_a_repetition(self, monkeypatch):
        # A clock that advances one second per reading: each fit lasts 1 s.
        ticks = iter(range(1000))
        monkeypatch.setattr(bench, "time", type("Clock", (), {
            "perf_counter": staticmethod(lambda: float(next(ticks)))}))
        rows = run_recognition_experiment(small_dataset(), PerClassCount(7), variant="sl1",
                                          m=(2, 5, 10), gamma=0.05, repetitions=2, seed=7)
        assert [r["fit_seconds"] for r in rows] == [1.0, 2.0, 3.0] * 3  # two repetitions, then the means


class TestTimingExperiment:
    def settings(self, **kw):
        # The keyword settings of a small sweep, with kw's changes.
        base = dict(m=2, seed=0, sizes=(50, 100), gammas=(0.01, 0.05),
                    variants=("sl1", "bl0"), instances=2, max_iter=50)
        base.update(kw)
        return base

    def test_grid_honors_p_equals_n_over_ten(self):
        rows = run_timing_experiment(**self.settings())
        assert all(r["P"] * 10 == r["N"] for r in rows)

    def test_gamma_column_only_configured_values(self):
        rows = run_timing_experiment(**self.settings())
        assert set(r["gamma"] for r in rows) == {0.01, 0.05}

    def test_same_seed_same_iteration_counts(self):
        a = run_timing_experiment(**self.settings())
        b = run_timing_experiment(**self.settings())
        assert [r["iterations"] for r in a] == [r["iterations"] for r in b]

    def test_medians_appended_per_cell(self):
        rows = run_timing_experiment(**self.settings())
        medians = [r for r in rows if r["instance"] == "median"]
        # 2 sizes x 2 variants x 2 gammas
        assert len(medians) == 8

    def test_converged_column(self):
        # max_iter=1 caps every SPCA solve; pca has no solver report
        rows = run_timing_experiment(**self.settings(
            variants=("sl1", "pca"), gammas=(0.05,), max_iter=1,
        ))
        cells = {(r["variant"], r["instance"]): r["converged"] for r in rows if r["N"] == 50}
        assert cells == {
            ("sl1", 0): 0, ("sl1", 1): 0, ("sl1", "median"): 0.0,
            ("pca", 0): None, ("pca", 1): None, ("pca", "median"): None,
        }
        free = run_timing_experiment(**self.settings(variants=("sl1",), max_iter=1000))
        assert all(r["converged"] == 1 for r in free)

    def test_rejects_off_grid_size(self):
        with pytest.raises(ValueError):
            run_timing_experiment(**self.settings(sizes=(55,)))

    @pytest.mark.parametrize("settings, message", [
        (dict(instances=0), "instances must be >= 1"),
        (dict(variants=("sl1", "bogus")), "unknown variant 'bogus'"),
        (dict(sizes=(50, 55)), "size 55 violates the P = N/10 grid"),
        (dict(sizes=(50, 0)), "size 0 violates the P = N/10 grid"),
        (dict(m=6, sizes=(50, 100)), "m=6 exceeds P = 5 at size N=50"),
        (dict(m=6, sizes=(50, 100), variants=("sl1", "pca")),
         "m=6 exceeds P = 5 at size N=50"),
        (dict(mu=(1.0, 2.0, 3.0)), "mu must be a scalar or length-2 vector, got 3 values"),
        (dict(gammas=(0.01, np.nan)), "gamma entries must be finite and >= 0"),
        (dict(workers=(1, 0)), "workers must be >= 1"),
    ], ids=["no-instances", "unknown-variant", "off-grid", "zero-size",
            "block-m-above-p", "pca-m-above-p", "mu-3-for-m-2", "nan-gamma", "zero-workers"])
    def test_bad_settings_rejected_before_the_first_fit(self, fits, settings, message):
        with pytest.raises(ValueError, match=message):
            run_timing_experiment(**self.settings(**settings))
        assert fits == []

    def test_sequence_m_above_p_runs(self, fits):
        # A sequence's components past P come back zero; only block and
        # pca fits are bounded by P.
        rows = run_timing_experiment(**self.settings(m=6, sizes=(50,), variants=("sl1",)))
        assert len(fits) == 2 * 2 and not any(r["error"] for r in rows)

    def test_every_cell_shares_one_instance(self, monkeypatch):
        # Each instance is drawn once and handed, as one DataMatrix, to
        # every variant x gamma x workers cell; rows keep the cell order.
        seen = []
        fit = bench.fit_projection

        def recording_fit(A, variant, m, gamma, *args, **kwargs):
            seen.append((A, variant, gamma, kwargs["workers"], kwargs["seed"]))
            return fit(A, variant, m, gamma, *args, **kwargs)

        monkeypatch.setattr(bench, "fit_projection", recording_fit)
        rows = run_timing_experiment(**self.settings(workers=(1, 2)))
        for N in (50, 100):
            for instance in range(2):
                fits = [f for f in seen if f[4] == [0, N, instance]]
                assert len(fits) == 2 * 2 * 2
                assert all(f[0] is fits[0][0] for f in fits)
                assert isinstance(fits[0][0], DataMatrix)
                want = np.random.default_rng([0, N, instance]).standard_normal((N // 10, N))
                assert fits[0][0].values.tobytes(order="C") == want.tobytes()
        cells = [(r["N"], r["variant"], r["gamma"], r["workers"], r["instance"]) for r in rows]
        assert cells == [
            (N, variant, gamma, workers, instance)
            for N in (50, 100) for variant in ("sl1", "bl0") for gamma in (0.01, 0.05)
            for workers in (1, 2) for instance in (0, 1, "median")
        ]

    def test_peak_memory_is_about_one_instance(self):
        # The one column-major instance is the only P x N matrix a sweep
        # holds: no row-major draw beside it, no squares in column_norms.
        N = 4000
        settings = self.settings(sizes=(N,), gammas=(0.05,), variants=("sl1", "bl1"),
                                 instances=2, m=5, max_iter=3)
        tracemalloc.start()
        try:
            run_timing_experiment(**settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (N // 10) * N

    def test_size_pca_cannot_fit_is_skipped(self, monkeypatch, capsys):
        # Room for two 5 x 50 matrices: enough for a sparse sweep's one
        # instance, not for the centered copy and SVD factors of pca's.
        monkeypatch.setattr(gpspca.parallel, "_available_memory", lambda: 2 * 8 * 5 * 50)
        draws = []
        draw = bench._standard_normal_matrix
        monkeypatch.setattr(bench, "_standard_normal_matrix",
                            lambda *args: draws.append(args) or draw(*args))
        rows = run_timing_experiment(**self.settings(sizes=(50,), variants=("sl1", "pca")))
        assert rows == [] and draws == []
        assert "skipping N=50" in capsys.readouterr().err
        rows = run_timing_experiment(**self.settings(sizes=(50,), variants=("sl1", "bl1")))
        assert len(rows) == 2 * 2 * 3 and len(draws) == 2

    def test_csv_written(self, tmp_path):
        path = tmp_path / "timing.csv"
        run_timing_experiment(**self.settings(out=str(path)))
        header = path.read_text().splitlines()[0]
        assert header == "variant,N,P,gamma,workers,instance,seconds,iterations,converged,error"

    def test_rank_deficient_fit_recorded_not_fatal(self, tmp_path):
        # gamma 1e9 zeroes every bl0 component at the first step; the sweep
        # goes on and writes every row.
        path = tmp_path / "timing.csv"
        rows = run_timing_experiment(**self.settings(
            sizes=(50,), gammas=(0.01, 1e9), out=str(path)))
        failed = [r for r in rows if r["error"]]
        assert {(r["variant"], r["gamma"]) for r in failed} == {("bl0", 1e9)}
        assert len(failed) == 2 and all(
            r["error"] == "RankDeficiencyError: gradient has numerical rank 0 < 2 "
                          "at iteration 0; reduce gamma or m"
            and r["iterations"] is None and r["converged"] is None for r in failed)
        median = [r for r in rows if r["instance"] == "median" and r["gamma"] == 1e9
                  and r["variant"] == "bl0"]
        assert median == [{"variant": "bl0", "N": 50, "P": 5, "gamma": 1e9, "workers": 1,
                           "instance": "median", "seconds": None, "iterations": None,
                           "converged": None, "error": ""}]
        assert len(path.read_text().splitlines()) == 1 + len(rows) == 1 + 4 * 3

    def test_median_counts_only_instances_without_error(self, monkeypatch):
        fit = bench.fit_projection

        def failing_first_instance(A, variant, m, gamma, *args, **kwargs):
            if variant == "bl0" and kwargs["seed"][2] == 0:
                raise RankDeficiencyError(1, 2)
            return fit(A, variant, m, gamma, *args, **kwargs)

        monkeypatch.setattr(bench, "fit_projection", failing_first_instance)
        rows = run_timing_experiment(**self.settings(sizes=(50,), instances=3))
        for gamma in (0.01, 0.05):
            cell = [r for r in rows if r["variant"] == "bl0" and r["gamma"] == gamma]
            done = cell[1:3]
            assert cell[0]["error"] and not any(r["error"] for r in cell[1:])
            assert cell[3]["iterations"] == np.median([r["iterations"] for r in done])
            assert cell[3]["converged"] == np.mean([r["converged"] for r in done])

"""The benchmark's workloads: generated inputs and the CLI calls of one round.

Every workload is a closed loop in one process: a round is one or two
`gpspca` CLI commands run in-process through `gpspca.cli.main`, and the
next round starts when the previous one returns.  Round k of a run with
seed s uses seed s*1000+k for its inputs (the CLI's --seed, and the
recognition dataset), so every round draws fresh instances and the same
seed always gives the same inputs.  The reasons each workload was chosen
are in README.md.
"""

import os
from dataclasses import dataclass

REFERENCE_SEED = 12
ROUND_SEED_STRIDE = 1000

# BLAS worker threads would compete with the kernel engine's own workers,
# so the library is pinned to one thread before numpy is first imported.
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_blas():
    os.environ.update(BLAS_PINS)


def round_seed(seed, k):
    return seed * ROUND_SEED_STRIDE + k


class _Rounds:
    # Seconds one round took on the 2-core machine the benchmark was
    # defined on; a run does the rounds that filled --seconds there.
    nominal_round_s: float

    def rounds_for(self, seconds):
        return max(1, round(seconds / self.nominal_round_s))


@dataclass(frozen=True)
class Call:
    """One CLI command: its argv, the CSV it writes, and the fits it owes."""

    label: str
    argv: tuple
    out: str
    expected_fits: int
    kind: str  # "timing" or "recognition"
    sparse: bool  # an SPCA variant, not the pca baseline


@dataclass(frozen=True)
class TimingWorkload(_Rounds):
    """`bench-timing` on one size of the P = N/10 grid, one instance a round.

    The CLI draws each instance matrix from its --seed, so there is no
    input file to write.
    """

    name: str
    size: int
    variants: tuple
    gammas: tuple
    max_iter: int
    workers: int
    nominal_round_s: float
    m: int = 5

    @property
    def scaling_shape(self):
        return (self.size // 10, self.size)

    def prepare(self, seed, workdir):
        return None

    def _call(self, label, cli_seed, workdir, size, max_iter, workers):
        out = os.path.join(workdir, f"{label}.csv")
        argv = (
            "bench-timing", "--sizes", str(size), "--instances", "1",
            "--gammas", ",".join(str(g) for g in self.gammas),
            "--variants", ",".join(self.variants), "--m", str(self.m),
            "--max-iter", str(max_iter), "--workers", str(workers),
            "--seed", str(cli_seed), "--out", out,
        )
        return Call(label, argv, out, len(self.variants) * len(self.gammas), "timing", True)

    def round_calls(self, inputs, cli_seed, workdir, workers=None):
        return [self._call("timing", cli_seed, workdir, self.size, self.max_iter,
                           workers or self.workers)]

    def reference_calls(self, inputs, workdir, workers=None):
        return self.round_calls(inputs, REFERENCE_SEED, workdir, workers)

    def warmup_calls(self, inputs, workdir):
        # Same command and worker count on the smallest grid size with a
        # few iterations: loads BLAS and starts the worker pool.
        return [self._call("warmup", 0, workdir, 500, 5, self.workers)]


@dataclass(frozen=True)
class RecognitionWorkload(_Rounds):
    """`bench-recognition` m-sweep with sl1, then the same sweep with pca,
    on a labeled CSV written from `synthetic_sparse_factors`: the first
    in set-up, then a fresh one before each later round (untimed), so a
    run averages over datasets as well as splits."""

    name: str
    gamma: float
    m_values: tuple
    per_class_train: int
    max_iter: int
    repetitions: int
    dataset: dict
    nominal_round_s: float

    @property
    def scaling_shape(self):
        # The solver matrix: training samples x features.
        return (self.dataset["n_classes"] * self.per_class_train,
                self.dataset["n_features"])

    def prepare(self, seed, workdir):
        """Write the labeled CSV for this seed; returns its path."""
        from gpspca.datasets import synthetic_sparse_factors

        ds = synthetic_sparse_factors(seed=seed, **self.dataset)
        path = os.path.join(workdir, f"{self.name}-seed{seed}.csv")
        write_labeled_csv(path, ds.labels, ds.samples)
        return path

    def _call(self, label, variant, dataset_path, cli_seed, workdir, m_values,
              max_iter, repetitions):
        out = os.path.join(workdir, f"{label}-{variant}.csv")
        argv = (
            "bench-recognition", "--dataset", dataset_path, "--variant", variant,
            "--m", ",".join(str(m) for m in m_values),
            "--split", f"per-class:{self.per_class_train}",
            "--repetitions", str(repetitions), "--max-iter", str(max_iter),
            "--seed", str(cli_seed), "--out", out,
        )
        if variant != "pca":
            argv += ("--gamma", str(self.gamma))
        return Call(f"{label}-{variant}", argv, out, repetitions * len(m_values),
                    "recognition", variant != "pca")

    def round_calls(self, inputs, cli_seed, workdir, repetitions=None):
        reps = repetitions or self.repetitions
        return [
            self._call("round", variant, inputs, cli_seed, workdir, self.m_values,
                       self.max_iter, reps)
            for variant in ("sl1", "pca")
        ]

    @property
    def test_samples(self):
        return self.dataset["n_classes"] * (self.dataset["per_class"] - self.per_class_train)

    def reference_calls(self, inputs, workdir):
        # The sl1 sweep only: the gate compares objectives and accuracy.
        return self.round_calls(inputs, REFERENCE_SEED, workdir, repetitions=1)[:1]

    def warmup_calls(self, inputs, workdir):
        return [self._call("warmup", "sl1", inputs, 0, workdir, self.m_values[:1], 5, 1)]


def write_labeled_csv(path, labels, samples):
    """The package's labeled format: header, label first, 17-digit floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("label," + ",".join(f"f{i + 1}" for i in range(samples.shape[1])) + "\n")
        for label, row in zip(labels, samples):
            fh.write(f"{int(label)}," + ",".join(f"{v:.17g}" for v in row) + "\n")


WORKLOADS = {
    w.name: w
    for w in (
        TimingWorkload("desk-dense", size=2000, variants=("sl1", "sl0", "bl1", "bl0"),
                       gammas=(0.01, 0.05), max_iter=200, workers=1, nominal_round_s=3.9),
        TimingWorkload("wide-w2", size=8000, variants=("sl1", "bl1"), gammas=(0.05,),
                       max_iter=20, workers=2, nominal_round_s=3.2),
        RecognitionWorkload(
            "recog-sparse", gamma=3.0, m_values=(2, 5, 10, 20, 50), per_class_train=20,
            max_iter=200, repetitions=3,
            dataset=dict(n_classes=20, per_class=40, n_features=1000, n_factors=10,
                         support_size=10),
            nominal_round_s=9.5,
        ),
    )
}

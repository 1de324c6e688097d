"""Correctness gate and failure accounting for benchmark runs.

Every fit the benchmark asks the CLI for is an expected operation.  A
fit counts as done only when its CSV row exists without an error and
the result the solver returned passes the invariants below; anything
short of that is a failure, so a skipped size or an error row cannot
pass for a faster run.
"""

import csv
import inspect
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# The acceptance suite asserts np.diff(history) >= -1e-12 on small
# instances; here it is scaled by the objective's magnitude, because the
# benchmark's objectives reach the thousands.
MONOTONE_TOL = 1e-12
UNIT_NORM_TOL = 1e-12
# Reference comparison: final objectives to the solver's own stopping
# tolerance, nonzero counts to 1% of the reference (at least one entry).
OBJECTIVE_RTOL = 1e-6
NNZ_RTOL = 0.01
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it, or
    None when there are fewer than twenty samples."""
    best = None
    for q in TAIL_LADDER:
        # n * (1 - q/100) >= 10, in integers so 99.9 is exact.
        if n * (1000 - round(q * 10)) >= TAIL_MIN_BEYOND * 1000:
            best = q
    return best


@dataclass
class Tally:
    """Expected operations and the ones that failed, with reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def expect(self, n=1):
        self.attempted += n

    def fail(self, n, reason):
        if n > 0:
            self.failed += n
            self.reasons.append(f"{n} x {reason}")


@dataclass
class Fit:
    """One fit_projection call as the solver returned it."""

    variant: str
    m: int
    max_iter: int
    seconds: float
    loadings: np.ndarray
    report: object


class FitTap:
    """Records each fit_projection result; wraps the function in place."""

    def __init__(self, fit_projection):
        self.original = fit_projection
        self.signature = inspect.signature(fit_projection)
        self.fits = []

    def __call__(self, *args, **kwargs):
        start = perf_counter()
        out = self.original(*args, **kwargs)
        seconds = perf_counter() - start
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self.fits.append(Fit(a["variant"], int(a["m"]), int(a["max_iter"]), seconds,
                             np.asarray(out[0]), out[2]))
        return out

    def drain(self):
        fits, self.fits = self.fits, []
        return fits


def fit_problems(fit):
    """Invariant violations of one fit; an empty list means it passes."""
    problems = []
    L = fit.loadings
    if L.ndim != 2 or L.shape[1] != fit.m:
        return [f"{fit.variant} loadings have shape {L.shape}, expected m={fit.m}"]
    norms = np.linalg.norm(L, axis=0)
    if np.any((norms != 0) & (np.abs(norms - 1.0) > UNIT_NORM_TOL)):
        problems.append(f"{fit.variant} loadings neither unit-norm nor zero")
    if fit.report is not None:
        for j, history in enumerate(fit.report.component_histories):
            h = np.asarray(history, dtype=np.float64)
            slack = MONOTONE_TOL * np.maximum(1.0, np.abs(h[:-1]))
            if np.any(np.diff(h) < -slack):
                problems.append(f"{fit.variant} component {j} objective decreased")
    return problems


def read_rows(path, summary_key, summary_value):
    """Data rows of a CSV the CLI wrote, without its summary rows."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        return []
    return [r for r in rows if r.get(summary_key) != summary_value]


def check_call(call, rc, fits, tally):
    """Account one CLI call: expected fits against rows and solver results.

    Returns the data rows.  A fit is owed per row: rows carrying an
    error, rows never written (a size skipped for memory, a nonzero exit)
    and solver results that break an invariant all count as failed.
    """
    tally.expect(call.expected_fits)
    if call.kind == "timing":
        rows = read_rows(call.out, "instance", "median")
    else:
        rows = read_rows(call.out, "repetition", "mean")
    errors = [r for r in rows if r.get("error")]
    tally.reasons.extend(f"{call.label}: {r['error']}" for r in errors[:3])
    if rc != 0:
        tally.reasons.append(f"{call.label}: exit code {rc}")
    bad = 0
    for fit in fits:
        problems = fit_problems(fit)
        tally.reasons.extend(f"{call.label}: {p}" for p in problems[:3])
        bad += bool(problems)
    missing = call.expected_fits - min(len(rows) - len(errors), call.expected_fits)
    tally.fail(min(missing + bad, call.expected_fits),
               f"{call.label} fits missing, failed or invalid")
    return rows


def row_seconds(call, rows):
    """Per-solve seconds as the program reported them in its CSV."""
    column = "seconds" if call.kind == "timing" else "fit_seconds"
    return [float(r[column]) for r in rows if not r.get("error")]


def accuracy_mean(rows):
    """Mean overall 1-NN accuracy over data rows without an error."""
    values = [float(r["overall_accuracy"]) for r in rows if not r.get("error")]
    return float(np.mean(values)) if values else float("nan")


def summarize_fit(fit):
    """What the reference records for one fit."""
    if fit.report is None:
        objectives = []
    else:
        objectives = [float(h[-1]) for h in fit.report.component_histories]
    return {
        "variant": fit.variant,
        "m": fit.m,
        "objectives": objectives,
        "nnz": [int(v) for v in np.count_nonzero(fit.loadings, axis=0)],
    }


def compare_to_reference(fits, reference, tally, label):
    """Final objectives and nonzero counts against the recorded reference."""
    want = reference["fits"]
    tally.expect(len(want))
    got = [summarize_fit(f) for f in fits]
    if len(got) != len(want):
        tally.fail(len(want), f"{label}: {len(got)} fits, reference has {len(want)}")
        return
    bad = sum(not _matches(g, w) for g, w in zip(got, want))
    tally.fail(bad, f"{label}: fits differ from the reference")


def _matches(got, want):
    if (got["variant"], got["m"]) != (want["variant"], want["m"]):
        return False
    if len(got["objectives"]) != len(want["objectives"]) or len(got["nnz"]) != len(want["nnz"]):
        return False
    if not np.allclose(got["objectives"], want["objectives"], rtol=OBJECTIVE_RTOL, atol=0):
        return False
    return all(abs(a - b) <= max(1, NNZ_RTOL * b) for a, b in zip(got["nnz"], want["nnz"]))

#!/usr/bin/env python3
"""Record reference.json: the reference-seed fits of every workload.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good; run.py compares
each run's reference-seed fits against this file.
"""

import json
import shutil
import sys

import run
import workloads


def main():
    workloads.pin_blas()
    modules = run.load_program()
    import checks
    import tracing

    runner = run.Runner(modules, checks, tracing)
    workdir = run.OUT / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            inputs = workload.prepare(workloads.REFERENCE_SEED, str(workdir))
            _, results = runner.run(workload.reference_calls(inputs, str(workdir)))
            entry = {"fits": [checks.summarize_fit(f) for _, _, fits in results for f in fits]}
            rows = run.sparse_rows([{"results": results}])
            if rows:
                entry["accuracy_mean"] = checks.accuracy_mean(rows)
            reference[name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.tally.failed:
        print("\n".join(runner.tally.reasons), file=sys.stderr)
        return 1
    (run.HERE / "reference.json").write_text(dump(reference))
    return 0


def dump(reference):
    """JSON with one fit per line, so a re-recording diffs by fit."""
    blocks = []
    for name, entry in reference.items():
        fields = [f'"{key}": {json.dumps(value)}' for key, value in entry.items()
                  if key != "fits"]
        fits = ",\n    ".join(json.dumps(fit) for fit in entry["fits"])
        fields.append(f'"fits": [\n    {fits}\n  ]')
        blocks.append(f'"{name}": {{\n  ' + ",\n  ".join(fields) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())

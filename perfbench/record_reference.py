#!/usr/bin/env python3
"""Record the reference SNR of every case under every noise realization.

Run from the repository root when the workloads change, never to make a
failing check pass:

    python3 perfbench/record_reference.py [workload ...]

Writes ``perfbench/reference.json``, which the benchmark's correctness check
compares each restoration against.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads


def record(name):
    out = {}
    workdir = workloads.HERE.parent / ".perfbench_work" / f"record-{name}"
    try:
        for realization in range(workloads.REALIZATIONS):
            workload = workloads.build(name, realization, workdir)
            values = {}
            for op in workload.operations():
                outcome = op.check(op.run())
                if not outcome.ok:
                    raise SystemExit(f"{name} realization {realization}: {outcome.message}")
                values.update(outcome.values)
            out[str(realization)] = values
            print(name, realization, values, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main():
    sys.path.insert(0, str(workloads.SRC))
    path = workloads.HERE / "reference.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table = {name: cases for name, cases in table.items() if name in workloads.WORKLOADS}
    for name in sys.argv[1:] or workloads.WORKLOADS:
        table[name] = record(name)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Record ``reference.json``: parsed outputs of each workload's reference ops.

    python3 perfbench/make_reference.py

The reference ops are the first ``reference_ops`` inputs of each workload at
``DEFAULT_SEED``.  Every benchmark run replays them and compares its output
against this file, so record it only from a commit whose outputs are known
to be right.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    run.pin_threads()
    run.fresh_import()
    from workloads import DEFAULT_SEED, WORKLOADS
    reference = {}
    for name, workload in WORKLOADS.items():
        entries = []
        ops = workload.ops(DEFAULT_SEED)
        for _ in range(workload.reference_ops):
            op = next(ops)
            rc, out, _ = run.run_op(op)
            if rc != 0:
                sys.stderr.write(f"{name}: reference op exited {rc}\n")
                return 1
            entries.append({
                "input_sha256": hashlib.sha256(json.dumps(op.argv).encode()).hexdigest(),
                "summary": workload.summarize(out),
            })
        reference[name] = entries
    # One op per line keeps the file small and its diffs readable.
    body = ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(e)}" for e in entries) + "\n ]"
        for name, entries in reference.items())
    header = json.dumps({"seed": DEFAULT_SEED, "git_commit": run.git_commit()})[1:-1]
    run.REFERENCE.write_text("{\n " + header + ",\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

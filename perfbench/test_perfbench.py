"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

They use the two fast workloads; ``sweep-n8`` shares the sweep code paths.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import run

run.pin_threads()
api = run.fresh_import()

import tracer  # noqa: E402  (after entbounds is importable)
import workloads  # noqa: E402

FAST = ("sweep-n4", "verify-n12")


def _first(workload, seed, stream=0, k=3):
    return [op.argv for op in islice(workload.ops(seed, stream), k)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_repeat_per_seed_and_never_within_a_run(name):
    workload = workloads.WORKLOADS[name]
    assert _first(workload, 5) == _first(workload, 5)
    assert _first(workload, 5) != _first(workload, 6)
    ops = _first(workload, 5, k=12) + _first(workload, 5, stream=1, k=12)
    assert len({json.dumps(argv) for argv in ops}) == len(ops)


@pytest.mark.parametrize("name", FAST)
def test_traced_output_is_byte_identical(name):
    workload = workloads.WORKLOADS[name]
    op = next(workload.ops(7))
    plain = run.run_op(op)[:2]
    t = tracer.Tracer()
    originals = (api.bounds.reduced_density, api.bounds.StateEvaluator.__dict__["j_best"])
    t.install()
    try:
        traced = run.run_op(op)[:2]
    finally:
        t.uninstall()
    assert traced == plain
    assert (api.bounds.reduced_density, api.bounds.StateEvaluator.__dict__["j_best"]) == originals
    assert t.absent == []
    for layer in ("qcore.reduce", "measures.pair_spectrum", "bounds.search",
                  "bounds.evaluate", "cli.parse", "cli.render"):
        assert t.calls[layer] > 0 and t.self_s[layer] > 0, layer


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "bounds.pair_tables",
                        (("entbounds.bounds", "no_such_function"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent_layers() == ["bounds.pair_tables"]


@pytest.mark.parametrize("name", FAST)
def test_reference_replay_passes(name):
    problems = []
    assert run.replay_reference(workloads.WORKLOADS[name], problems), problems


def test_checks_reject_a_wrong_certificate_and_a_violation():
    workload = workloads.WORKLOADS["verify-n12"]
    op = next(workload.ops(0))
    rc, out, _, _ = run.run_op(op)
    assert workload.check(api, op, rc, out) == []
    lines = out.splitlines()
    k = 1 + 2 + 40 + op.alpha_index  # header, ckw, coa_dual, jin rows, then thm1
    fields = lines[k].split(",")
    assert fields[0] == "thm1"
    fields[3] = repr(float(fields[3]) + 1e-6)
    bad_rhs = "\n".join(lines[:k] + [",".join(fields)] + lines[k + 1:]) + "\n"
    assert any("replayed rhs" in p for p in workload.check(api, op, rc, bad_rhs))
    assert workload.check(api, op, 1, out) == ["exit 1"]

    sweep = workloads.WORKLOADS["sweep-n4"]
    op = next(sweep.ops(0))
    rc, out, _, _ = run.run_op(op)
    assert sweep.check(api, op, rc, out) == []
    violated = out.replace("thm1,128,0,", "thm1,128,3,")
    assert sweep.check(api, op, rc, violated) == ["thm1: 3 violations"]


def test_without_src_it_fails_and_prints_no_result(tmp_path):
    bench_json = run.ROOT / "BENCHMARK.json"
    if not bench_json.exists():
        pytest.skip("BENCHMARK.json not present")
    shutil.copy(bench_json, tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

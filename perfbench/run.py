"""Benchmark of the entbounds CLI, run in-process from the repository root.

    python3 perfbench/run.py --workload sweep-n4 --seed 1 --seconds 25 --trace 0

Each workload runs in its own process as a closed loop: one client, one op at
a time, where an op is one ``entbounds.cli.main`` call on a fresh seeded
input.  BLAS is pinned to one thread and ``ENTBOUNDS_THREADS`` is unset.

``--trace 0`` times the ops untraced and prints the end-to-end metrics.
``--trace 1`` runs every op twice, traced first and then untraced, checks
that both print the same bytes, and prints per-layer metrics per state.
Times are normalised for host-speed drift by ``hostspeed.HostSpeed``.

Lines before the last describe the run (environment, sample counts, error
rate, layer shares); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in turn in its own process and ends with one line that
maps each workload to its result.  The exit code is 0 when the run
completed, whether or not its checks passed, and 2 when it could not run
(for example without the ``src`` tree next to this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Set before numpy is imported; the benchmark measures the single-threaded
# baseline on a 2-core host.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
UNSET = ("ENTBOUNDS_THREADS",)


class CannotRun(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_threads() -> None:
    os.environ.update(PINNED_THREADS)
    for name in UNSET:
        os.environ.pop(name, None)


def fresh_import():
    """Import ``entbounds`` from this checkout's ``src``, dropping old copies.

    Re-importing re-runs module bodies and empties per-process caches, so each
    set-up round pays the same one-time costs a new process would.
    """
    for name in [m for m in sys.modules if m == "entbounds" or m.startswith("entbounds.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        api = importlib.import_module("entbounds")
        importlib.import_module("entbounds.cli")
    except ImportError as exc:
        raise CannotRun(f"cannot import entbounds from {SRC}: {exc}") from None
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise CannotRun(f"entbounds was imported from {api.__file__}, not {SRC}")
    return api


def _main_or_error(cli, argv):
    try:
        return cli.main(argv)
    except Exception:  # an op that raises is a failed op, not a crash
        return "raised: " + traceback.format_exc(limit=3)


def _wall_timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, wall


def run_op(op, speed=None):
    """Run one op in-process.

    Returns (exit code or error text, stdout, wall seconds, reference
    seconds); the two times are equal unless ``speed`` normalises them.
    """
    cli = sys.modules["entbounds.cli"]
    timed = speed.timed if speed is not None else _wall_timed
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc, wall, ref = timed(_main_or_error, cli, op.argv)
    return rc, out.getvalue(), wall, ref


def label(op) -> str:
    """Short name of an op for problem lines: command and input hash."""
    return f"{op.argv[0]} op {hashlib.sha256(json.dumps(op.argv).encode()).hexdigest()[:12]}"


def checked(workload, api, op, rc, out, problems_log) -> bool:
    try:
        problems = workload.check(api, op, rc, out)
    except Exception:  # a check that cannot parse the output fails the op
        problems = ["check raised: " + traceback.format_exc(limit=3)]
    if problems and len(problems_log) < 20:
        problems_log.append(f"{label(op)}: {'; '.join(problems)[:400]}")
    return not problems


def set_up(workload, seed: int, speed, problems_log: list[str]):
    """Set up ``setup_rounds`` times; returns the api module and round times.

    A round is a fresh import, the warm-up input and one warm-up op of the
    workload's shape, which fills lazy per-process caches before timing.
    """
    warmups = workload.ops(seed, stream=1)

    def one_round():
        api = fresh_import()
        op = next(warmups)
        return api, op, run_op(op)

    times, ok = [], True
    for _ in range(workload.setup_rounds):
        (api, op, (rc, out, _, _)), _, ref = speed.timed(one_round)
        times.append(ref)
        ok &= checked(workload, api, op, rc, out, problems_log)
    gc.collect()  # free the dropped module copies now, not during a timed op
    return api, times, ok


def replay_reference(workload, problems_log: list[str]) -> bool:
    """Run the first reference ops of the default seed and compare outputs."""
    from workloads import DEFAULT_SEED
    try:
        recorded = json.loads(REFERENCE.read_text())[workload.name]
    except (OSError, KeyError, ValueError) as exc:
        problems_log.append(f"reference: unreadable for {workload.name}: {exc}")
        return False
    ok = True
    ops = workload.ops(DEFAULT_SEED)
    for k, entry in enumerate(recorded):
        op = next(ops)
        digest = hashlib.sha256(json.dumps(op.argv).encode()).hexdigest()
        if digest != entry["input_sha256"]:
            problems_log.append(f"reference op {k}: generated input differs from the recorded one")
            ok = False
            continue
        rc, out, _, _ = run_op(op)
        try:
            problems = [f"exit {rc}"] if rc != 0 else workload.compare(entry["summary"], out)
        except Exception:  # output too malformed to compare
            problems = ["compare raised: " + traceback.format_exc(limit=3)]
        if problems:
            problems_log.append(f"reference op {k}: {'; '.join(problems)[:400]}")
            ok = False
    return ok


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "threads": {**{k: os.environ.get(k) for k in PINNED_THREADS},
                    **{k: os.environ.get(k, "unset") for k in UNSET}},
    }


def git_commit() -> str:
    """HEAD commit read from ``.git`` when the checkout has one, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, api, seed: int, seconds: float, speed, problems_log: list[str]):
    """Closed loop of timed ops; returns per-op (wall, reference) seconds."""
    walls, refs, failed, inputs = [], [], 0, hashlib.sha256()
    ops = workload.ops(seed)
    deadline = time.perf_counter() + seconds
    while True:
        op = next(ops)
        inputs.update(json.dumps(op.argv).encode())
        rc, out, wall, ref = run_op(op, speed)
        walls.append(wall)
        refs.append(ref)
        failed += not checked(workload, api, op, rc, out, problems_log)
        if time.perf_counter() >= deadline:
            break
    return walls, refs, failed, inputs.hexdigest()


def measure_traced(workload, api, seed: int, seconds: float, speed, problems_log: list[str]):
    """Run each op traced, then untraced, and compare their outputs.

    ``speed`` only brackets each op with probes: a timer probe would run
    inside spans.  Each op's layer self times are scaled by that op's
    reference ÷ wall ratio, so they are in the units of the untraced metrics.
    """
    from collections import Counter
    from tracer import Tracer
    tracer = Tracer()
    layer_s: Counter = Counter()
    traced_s = untraced_s = 0.0
    ops_run = states = failed = 0
    inputs = hashlib.sha256()
    ops = workload.ops(seed)
    deadline = time.perf_counter() + seconds
    while True:
        op = next(ops)
        inputs.update(json.dumps(op.argv).encode())
        # Traced first, so its per-layer numbers never come from a second
        # pass over an input the program has already seen.
        before = Counter(tracer.self_s)
        tracer.install()
        try:
            rc_t, out_t, wall, t_traced = run_op(op, speed)
        finally:
            tracer.uninstall()
        for layer, total in tracer.self_s.items():
            layer_s[layer] += (total - before[layer]) * t_traced / wall
        rc, out, _, t_plain = run_op(op, speed)
        traced_s += t_traced
        untraced_s += t_plain
        ops_run += 1
        states += op.states
        ok = checked(workload, api, op, rc, out, problems_log)
        if (rc_t, out_t) != (rc, out):
            problems_log.append(f"{label(op)}: traced output differs from untraced")
            ok = False
        failed += not ok
        if time.perf_counter() >= deadline:
            break
    return tracer, layer_s, traced_s, untraced_s, ops_run, states, failed, inputs.hexdigest()


def per_layer_metrics(workload, tracer, layer_s, traced_s, untraced_s, states):
    from tracer import LAYERS
    from workloads import needed_pairs
    per_state_ms = {layer: 1000.0 * layer_s[layer] / states for layer in LAYERS}
    calls = {layer: tracer.calls[layer] / states for layer in LAYERS}
    metrics = {}
    for layer in LAYERS:
        if not layer.startswith("cli."):
            metrics[f"{layer}.calls"] = (calls[layer], "calls/state")
        metrics[f"{layer}.self_ms"] = (per_state_ms[layer], "ms/state")
    metrics["measures.pair_spectrum.per_pair"] = (
        calls["measures.pair_spectrum"] / needed_pairs(workload.qubits), "calls/pair")
    metrics["bounds.search.groupings_examined"] = (tracer.examined / states, "groupings/state")
    metrics["bounds.search.feasible_ratio"] = (
        tracer.feasible_listed / tracer.examined if tracer.examined else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    from hostspeed import HostSpeed
    problems: list[str] = []
    with HostSpeed() as speed:
        api, setup_times, setup_ok = set_up(workload, seed, speed, problems)
        if not trace:
            walls, latencies, failed, digest = measure(
                workload, api, seed, seconds, speed, problems)
            attempted = len(latencies)
            states = attempted * workload.samples
    print("env " + json.dumps(environment(seed), sort_keys=True))
    if trace:
        tracer, layer_s, traced_s, untraced_s, attempted, states, failed, digest = \
            measure_traced(workload, api, seed, seconds, HostSpeed(), problems)
        metrics = per_layer_metrics(workload, tracer, layer_s, traced_s, untraced_s, states)
    reference_ok = replay_reference(workload, problems)

    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {attempted} ops, "
          f"{states} states, inputs sha256 {digest}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted); "
          f"reference {'ok' if reference_ok else 'MISMATCH'}; "
          f"set-up checks {'ok' if setup_ok else 'FAILED'}")
    for line in problems:
        print("problem " + line)

    if trace:
        absent = tracer.absent_layers()
        for layer in sorted(layer_s, key=layer_s.get, reverse=True):
            print(f"share {layer:24s} {layer_s[layer] / traced_s:7.1%} of traced op time")
        if tracer.absent:
            print("absent entry points: " + ", ".join(tracer.absent))
        for metric, (value, unit) in metrics.items():
            mark = " (absent)" if metric.rsplit(".", 1)[0] in absent else ""
            print(f"metric {metric:36s} {value:14.6g} {unit}{mark}")
    else:
        metrics = {
            "states_per_s": (statistics.median(workload.samples / t for t in latencies), "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "latency_p95_ms": (1000.0 * quantile(latencies, 0.95), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        beyond = sum(1 for x in latencies if x > quantile(latencies, 0.95))
        notes = {"states_per_s": f"median of {attempted} per-op rates",
                 "latency_p50_ms": f"{attempted} samples; wall p50 "
                                   f"{1000.0 * statistics.median(walls):.4g} ms",
                 "latency_p95_ms": f"{attempted} samples, {beyond} beyond; wall p95 "
                                   f"{1000.0 * quantile(walls, 0.95):.4g} ms",
                 "setup_s": "median of rounds " + ", ".join(f"{t:.4g}" for t in setup_times),
                 "peak_rss_mb": "ru_maxrss of this process"}
        for metric, (value, unit) in metrics.items():
            print(f"metric {metric:16s} {value:14.6g} {unit:4s} {notes[metric]}")

    print(json.dumps({
        "correct": failed == 0 and reference_ok and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    pin_threads()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.workload == "all":
            return run_all(list(WORKLOADS), args.seed, args.seconds, bool(args.trace))
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    except CannotRun as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

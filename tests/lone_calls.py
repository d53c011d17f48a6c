"""Print the lone-call table: the time of single library calls, each of
which evaluates one state, as a chunk of one, through ``StateEvaluator``,
of cold ``fill_spectra`` calls on one state or a sweep chunk, and of whole
``verify`` and ``sweep`` runs through ``cli.main``.

Run from the repository root::

    python tests/lone_calls.py                      # this tree only
    python tests/lone_calls.py --base <dir>/src     # against another tree

Each row times short blocks of one kind of call (100 single-alpha calls,
30 grid calls, 10 fills or 2 ``verify`` or ``sweep`` runs per block) and
keeps the fastest block of ``--repeats`` (41), in µs per call; the table is measured
``--rounds`` times (3), one column per round.  With ``--base`` the ``entbounds``
package under that ``src`` directory is imported next to this tree's, each
under a private module name, and each repeat alternates which tree runs
its block first; a cell then reads ``base -> this tree (change %)``.
``--json`` prints the rows as one JSON object instead of the table.  This
is not a pytest test (pytest collects only ``test_*.py``): the numbers
depend on the host.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread, as the benchmark pins it; set before numpy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

THIS_SRC = Path(__file__).resolve().parent.parent / "src"
SINGLE, GRID, FILL, RUNS = 100, 30, 10, 2  # calls per block
ALPHAS = tuple(round(0.01 + 0.019 * k, 6) for k in range(SINGLE))  # a new alpha each call


def load_tree(src: Path, name: str) -> dict:
    """The ``entbounds`` package under ``src``, imported as ``name``: a dict
    of its ``bounds``, ``cli`` and ``qcore`` modules."""
    init = src / "entbounds" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no entbounds package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("bounds", "cli", "qcore")}


def _w_part(n: int, coefficients: np.ndarray) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[[1 << (n - 1 - k) for k in range(n)]] = coefficients
    return amps


def _digest_state(n: int, kind: str) -> np.ndarray:
    """The Haar (``"haar"``), log-uniform W-class (``"log6"``) or GHZ+W
    (``"ghz-w"``) state of ``tests/cli_digest.py`` at ``n`` qubits, drawn
    from the same seed."""
    rng = np.random.default_rng(1600 + n)
    haar = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    rng.normal(size=n), rng.normal(size=n)  # the Gaussian W-class state's draws
    phases = np.exp(2j * np.pi * rng.random(n))
    log_w = _w_part(n, 10.0 ** rng.uniform(-6.0, 0.0, n) * phases)
    ghz_w = _w_part(n, rng.random(n))
    ghz_w[0] = ghz_w[-1] = 0.5
    amps = {"haar": haar, "log6": log_w, "ghz-w": ghz_w}[kind]
    return amps / np.linalg.norm(amps)


def _geometric_wclass(n: int) -> np.ndarray:
    """sum_k l_k |0..1_k..0> with l_k^2 proportional to 3^-k: every pair C is
    above 0 and the descending singleton order is feasible."""
    amps = np.zeros(1 << n)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 3.0 ** (-k / 2)
    return amps / np.linalg.norm(amps)


def _lone(tid: str, *, log_w8: bool = False, grouped: bool = False):
    """A row of single-alpha calls on the 4-qubit Haar state of seed 11, or
    on the 8-qubit log-uniform W-class digest state of the ``verify`` rows
    if ``log_w8``, tables and cuts warm, ``_fronts`` cleared before each
    block: ``front_best`` of focus 0, or ``evaluate`` of ``tid``, with the
    caller groupings 1,2|3 and 0,2|3 if ``grouped``."""
    def make(tree):
        bounds, qcore = tree["bounds"], tree["qcore"]
        ev = bounds.StateEvaluator(qcore.PureState(8, _digest_state(8, "log6")) if log_w8
                                   else qcore.haar_random_pure(4, 11))
        groupings = ((bounds.Grouping(((1, 2), (3,))), bounds.Grouping(((0, 2), (3,))))
                     if grouped else None)
        if tid == "front_best":
            ev.tables(0)

            def call(alpha):
                ev.front_best(0, alpha)
        else:
            ev.evaluate(tid, 1.0, None, groupings)

            def call(alpha):
                ev.evaluate(tid, alpha, None, groupings)

        def block():
            ev._fronts.clear()
            for alpha in ALPHAS:
                call(alpha)
        return block
    return make, SINGLE


def _grid_call(tid: str, grouped: bool):
    """A row of grid calls on the 8-qubit log-uniform W-class digest state,
    over the 40-point default grid: ``evaluate`` of ``tid``, with each
    focus's descending singleton order as its caller grouping if
    ``grouped``."""
    def make(tree):
        bounds = tree["bounds"]
        psi = tree["qcore"].PureState(8, _digest_state(8, "log6"))
        ev, grid = bounds.StateEvaluator(psi), bounds.AlphaGrid.default()
        groupings = None
        if grouped:
            groupings = [bounds.canonical_grouping(ev.tables(f)[1])
                         for f in bounds.BOUNDS[tid].foci]
        ev.evaluate(tid, grid, None, groupings)

        def block():
            for _ in range(GRID):
                ev.evaluate(tid, grid, None, groupings)
        return block
    return make, GRID


def _two_fronts(amplitudes):
    """A row of two lone ``front_best(f, grid)`` calls, f = 0 and 1, on a
    12-qubit state (canonical mode) over the 40-point default grid, with the
    kept front columns cleared before each pair of calls."""
    def make(tree):
        bounds = tree["bounds"]
        psi = amplitudes(tree)
        ev, grid = bounds.StateEvaluator(psi), bounds.AlphaGrid.default()
        ev.tables(0), ev.tables(1)

        def block():
            for _ in range(GRID):
                ev._fronts.clear()
                ev.front_best(0, grid)
                ev.front_best(1, grid)
        return block
    return make, GRID


def _all_keys(bounds, n: int) -> tuple[tuple, tuple]:
    """The pairs and cuts that ``--theorem all`` reads on ``n`` qubits, in
    the order the library fills them, derived here from a tree's ``BOUNDS``
    rows so that every tree times the same fill: each focus's pairs, each
    bound's cut of its foci and ``center_total``'s two extra cuts."""
    pairs, cuts = {}, {}
    for spec in bounds.BOUNDS.values():
        if n >= spec.min_qubits:
            for f in spec.foci:
                pairs.update(dict.fromkeys(tuple(sorted((f, p))) for p in range(n) if p != f))
            cuts[spec.foci] = None
            if spec.rhs == "center_total":
                cuts.update(dict.fromkeys(spec.center_cuts(spec.foci)))
    return tuple(pairs), tuple(cuts)


def _cold_fill(n: int, states: int):
    """A row of ``fill_spectra`` calls of every pair and cut that
    ``--theorem all`` reads, each on fresh evaluators of ``states`` n-qubit
    Haar states, so that every call reduces and solves them all."""
    def make(tree):
        bounds = tree["bounds"]
        psis = [tree["qcore"].haar_random_pure(n, 20 + k) for k in range(states)]
        keys = _all_keys(bounds, n)

        def block():
            for _ in range(FILL):
                bounds.fill_spectra([bounds.StateEvaluator(psi) for psi in psis], *keys)
        return block
    return make, FILL


def _main_runs(argv: list[str]):
    """A row of ``cli.main(argv)`` runs, as the CLI runs them, with their
    standard output discarded."""
    def make(tree):
        main = tree["cli"].main

        def block():
            with contextlib.redirect_stdout(io.StringIO()):
                for _ in range(RUNS):
                    main(argv)
        return block
    return make, RUNS


def _verify(kind: str, n: int = 8, theorems: str = "thm2,thm6,cor1_thm2"):
    """A row of ``verify --theorem <theorems>`` runs on an n-qubit digest
    state over the default grid: the state's JSON parse, the fill, the chunk
    pass and the table's text."""
    amps = _digest_state(n, kind)
    return _main_runs(["verify", "--theorem", theorems, "--state",
                       json.dumps({"kind": "amplitudes", "n": n, "re": amps.real.tolist(),
                                   "im": amps.imag.tolist()})])


def _sweep(qubits: int, samples: int):
    """A row of ``sweep --theorem all`` runs at seed 33 over the default
    sweep grid: the draw, the fill, the chunk pass, the tally and the
    table's text."""
    return _main_runs(["sweep", "--qubits", str(qubits), "--samples", str(samples),
                       "--seed", "33", "--theorem", "all"])


ROWS = {
    "front_best(0, a), n=4": _lone("front_best"),
    "evaluate('thm2', a), n=4": _lone("thm2"),
    "evaluate('thm1', a), n=4": _lone("thm1"),
    "evaluate('thm4', a, None, groupings), n=4": _lone("thm4", grouped=True),
    "evaluate('thm2', a, None, groupings), n=4": _lone("thm2", grouped=True),
    "evaluate('cor1_thm2', a), log-W 8": _lone("cor1_thm2", log_w8=True),
    "evaluate('cor1_thm2', grid, None, groupings), log-W 8": _grid_call("cor1_thm2", True),
    "evaluate('cor2_upper', grid), log-W 8": _grid_call("cor2_upper", False),
    "two front_best(f, grid), Haar-12": _two_fronts(
        lambda tree: tree["qcore"].haar_random_pure(12, 3)),
    "two front_best(f, grid), geometric W-class 12": _two_fronts(
        lambda tree: tree["qcore"].PureState(12, _geometric_wclass(12))),
    "cold fill_spectra, all keys, Haar-8": _cold_fill(8, 1),
    "cold fill_spectra, all keys, Haar-12": _cold_fill(12, 1),
    "cold fill_spectra, all keys, 16 x Haar-4": _cold_fill(4, 16),
    "verify thm2,thm6,cor1_thm2, log-W 8": _verify("log6"),
    "verify thm2,thm6,cor1_thm2, GHZ+W 8": _verify("ghz-w"),
    "verify --theorem all, Haar-12": _verify("haar", 12, "all"),
    "sweep --qubits 4 --samples 16 --theorem all": _sweep(4, 16),
    "sweep --qubits 8 --samples 1 --theorem all": _sweep(8, 1),
}


def measure(trees: list[dict], repeats: int) -> dict[str, list[float]]:
    """Each row's fastest block per tree, in µs per call; each repeat
    alternates which tree runs first."""
    result = {}
    for row, (make, calls) in ROWS.items():
        blocks = [make(tree) for tree in trees]
        best = [float("inf")] * len(trees)
        for r in range(repeats):
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                start = time.perf_counter()
                blocks[i]()
                best[i] = min(best[i], (time.perf_counter() - start) / calls)
        result[row] = [round(1e6 * t, 1) for t in best]
    return result


def _cell(values: list[float]) -> str:
    if len(values) == 1:
        return f"{values[0]:.1f}"
    base, head = values
    return f"{base:.1f} -> {head:.1f} ({100.0 * (head / base - 1.0):+.1f}%)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, default=None,
                        help="a src directory holding another entbounds tree to compare")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=41)
    parser.add_argument("--json", action="store_true", help="print the rows as JSON")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")
    trees = [load_tree(THIS_SRC, "lone_calls_this")]
    if args.base is not None:
        trees.insert(0, load_tree(args.base.resolve(), "lone_calls_base"))
    rounds = [measure(trees, args.repeats) for _ in range(args.rounds)]
    if args.json:
        print(json.dumps({row: [r[row] for r in rounds] for row in ROWS}, indent=1))
        return 0
    unit = "base -> this tree" if args.base is not None else "this tree"
    print(f"µs per call ({unit}); fastest of {args.repeats} short blocks, one column per round")
    width = max(map(len, ROWS))
    for row in ROWS:
        print(f"{row:{width}s}  " + "  ".join(_cell(r[row]) for r in rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

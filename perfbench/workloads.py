"""Workloads of the entbounds benchmark: seeded inputs and output checks.

One op is one ``entbounds.cli.main`` call.  Every input is derived from the
benchmark seed, the workload name and a stream number (0 for timed ops, 1
for set-up warm-up ops), so the same seed gives the same inputs and no two
ops of a run share one.

Checks run outside the timed region and return a list of problems; an empty
list means the op passed.  They check output shape and soundness on every
seed; ``compare`` additionally matches an op against the reference recorded
for the first ops of ``DEFAULT_SEED``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

DEFAULT_SEED = 0
TOL = 1e-9  # reference and certificate-replay tolerance on printed values

SWEEP_GRID = 8     # default sweep alpha grid 0.25:2.0:0.25
VERIFY_GRID = 40   # default verify alpha grid 0.05:2.0:0.05
FIXED_ALPHA = ("ckw", "coa_dual")  # one row at alpha = 2 whatever the grid
SINGLE_FOCUS = ("ckw", "coa_dual", "jin", "thm1", "thm5")
TWO_FOCUS = ("thm2", "thm3", "thm4", "thm6", "thm7", "thm8")
THREE_FOCUS = ("cor1_thm2", "cor1_thm3", "cor2_lower", "cor2_upper")
# The ordering ``--theorem all`` prints.
ALL_IDS = ("ckw", "coa_dual", "jin", "thm1", "thm2", "thm3", "thm4",
           "thm5", "thm6", "thm7", "thm8") + THREE_FOCUS


def theorems_for(n: int) -> tuple[str, ...]:
    """Bound ids that ``--theorem all`` selects on an n-qubit state."""
    return tuple(t for t in ALL_IDS
                 if t in SINGLE_FOCUS or (t in TWO_FOCUS and n >= 4) or n >= 6)


def needed_pairs(n: int) -> int:
    """Distinct two-qubit reductions that ``--theorem all`` needs.

    The bounds use foci 0..k-1 (k = 2 below 6 qubits, else 3), and each
    focus needs every pair it belongs to.
    """
    k = 2 if n < 6 else 3
    return n * (n - 1) // 2 - (n - k) * (n - k - 1) // 2


@dataclass
class Op:
    argv: list[str]
    states: int
    state: dict | None = None  # verify: the amplitude spec passed as JSON
    alpha_index: int = 0       # verify: grid row replayed through the public API


def _stream(name: str, seed: int, stream: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag, stream])


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))


def _num(text: str) -> float | None:
    return float(text) if text != "" else None


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


class Sweep:
    """``sweep --qubits n --samples k --seed s --theorem all`` per op."""

    def __init__(self, name: str, qubits: int, samples: int, setup_rounds: int,
                 reference_ops: int):
        self.name, self.qubits, self.samples = name, qubits, samples
        self.setup_rounds, self.reference_ops = setup_rounds, reference_ops

    def ops(self, seed: int, stream: int = 0) -> Iterator[Op]:
        rng = _stream(self.name, seed, stream)
        seen: set[int] = set()
        while True:
            s = int(rng.integers(0, 2 ** 63 - 1))
            if s in seen:
                continue
            seen.add(s)
            yield Op(["sweep", "--qubits", str(self.qubits), "--samples",
                      str(self.samples), "--seed", str(s), "--theorem", "all"],
                     self.samples)

    def summarize(self, out: str) -> dict:
        return {r["theorem"]: [int(r["rows"]), int(r["violations"]),
                               int(r["not_applicable"]), _num(r["min_slack"]),
                               _num(r["mean_slack"])]
                for r in _rows(out)}

    def check(self, api, op: Op, rc, out: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc}"]
        got = self.summarize(out)
        expected = theorems_for(self.qubits)
        if tuple(got) != expected:
            return [f"theorems {list(got)} != {list(expected)}"]
        problems = []
        for tid, (rows, violations, na, low, mean) in got.items():
            want = self.samples * (1 if tid in FIXED_ALPHA else SWEEP_GRID)
            if rows != want:
                problems.append(f"{tid}: {rows} rows, expected {want}")
            if violations:
                problems.append(f"{tid}: {violations} violations")
            if na < rows and (low is None or mean is None):
                problems.append(f"{tid}: applicable rows but empty min/mean")
        return problems

    def compare(self, ref: dict, out: str) -> list[str]:
        got = self.summarize(out)
        problems = []
        for tid, want in ref.items():
            have = got.get(tid)
            if have is None or have[:3] != want[:3] or not all(
                    _close(a, b) for a, b in zip(have[3:], want[3:])):
                problems.append(f"{tid}: {have} != reference {want}")
        return problems


class Verify:
    """``verify --state <12-qubit amplitude JSON> --theorem all`` per op.

    States cycle through Haar-random, random-coefficient W-class and
    random-coefficient generalized GHZ states, a third of a run's ops each.
    """

    FAMILIES = ("haar", "wclass", "ghz")

    def __init__(self, name: str, qubits: int, setup_rounds: int, reference_ops: int):
        self.name, self.qubits, self.samples = name, qubits, 1
        self.setup_rounds, self.reference_ops = setup_rounds, reference_ops

    def _amplitudes(self, family: str, rng: np.random.Generator) -> np.ndarray:
        n = self.qubits

        def gaussian(k):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            return z / np.linalg.norm(z)

        if family == "haar":
            return gaussian(2 ** n)
        amps = np.zeros(2 ** n, dtype=complex)
        if family == "wclass":
            amps[[1 << (n - 1 - q) for q in range(n)]] = gaussian(n)
        else:
            amps[[0, -1]] = gaussian(2)
        return amps

    def ops(self, seed: int, stream: int = 0) -> Iterator[Op]:
        rng = _stream(self.name, seed, stream)
        i = 0
        while True:
            amps = self._amplitudes(self.FAMILIES[i % len(self.FAMILIES)], rng)
            state = {"kind": "amplitudes", "n": self.qubits,
                     "re": amps.real.tolist(), "im": amps.imag.tolist()}
            yield Op(["verify", "--state", json.dumps(state), "--theorem", "all"],
                     1, state, int(rng.integers(VERIFY_GRID)))
            i += 1

    @staticmethod
    def _by_theorem(out: str) -> dict[str, list[dict]]:
        table: dict[str, list[dict]] = {}
        for row in _rows(out):
            table.setdefault(row["theorem"], []).append(row)
        return table

    def summarize(self, out: str) -> dict:
        return {tid: [[_num(r["lhs"]), _num(r["slack"])] for r in rows]
                for tid, rows in self._by_theorem(out).items()}

    def check(self, api, op: Op, rc, out: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc}"]
        table = self._by_theorem(out)
        expected = theorems_for(self.qubits)
        if tuple(table) != expected:
            return [f"theorems {list(table)} != {list(expected)}"]
        problems = []
        for tid, rows in table.items():
            want = 1 if tid in FIXED_ALPHA else VERIFY_GRID
            if len(rows) != want:
                problems.append(f"{tid}: {len(rows)} rows, expected {want}")
            if any(r["applicable"] == "true" and r["satisfied"] != "true" for r in rows):
                problems.append(f"{tid}: violated row")
        if problems:
            return problems
        # Replay the printed certificates at one seeded alpha.
        psi = api.gallery.StateSpec.from_dict(op.state).build()
        for tid, bound in (("thm1", api.thm1_upper), ("thm5", api.thm5_upper),
                           ("jin", api.jin_upper)):
            row = table[tid][op.alpha_index]
            if row["applicable"] != "true":
                continue
            groups = tuple(tuple(int(q) for q in g.split(","))
                           for g in row["grouping"].split("|"))
            alpha = float(row["alpha"])
            if tid == "jin":
                rhs = bound(psi, 0, [g[0] for g in groups], alpha).rhs
            else:
                rhs = bound(psi, 0, api.Grouping(groups), alpha).rhs
            if abs(rhs - float(row["rhs"])) > TOL:
                problems.append(f"{tid} at alpha={alpha}: replayed rhs {rhs!r} "
                                f"!= printed {row['rhs']}")
        return problems

    def compare(self, ref: dict, out: str) -> list[str]:
        # A fuller grouping search may only tighten a bound, so slack may fall
        # below the reference but never rise above it.
        got = self.summarize(out)
        problems = []
        for tid, want_rows in ref.items():
            have_rows = got.get(tid, [])
            if len(have_rows) != len(want_rows):
                problems.append(f"{tid}: {len(have_rows)} rows, reference {len(want_rows)}")
                continue
            for k, ((lhs, slack), (ref_lhs, ref_slack)) in enumerate(zip(have_rows, want_rows)):
                if not _close(lhs, ref_lhs):
                    problems.append(f"{tid} row {k}: lhs {lhs} != reference {ref_lhs}")
                if ref_slack is not None and (slack is None or slack > ref_slack + TOL):
                    problems.append(f"{tid} row {k}: slack {slack} above reference {ref_slack}")
        return problems


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        # 16 samples (~50-80 ms) per op gives the >= 200 ops a run needs for p95.
        Sweep("sweep-n4", qubits=4, samples=16, setup_rounds=5, reference_ops=4),
        Sweep("sweep-n8", qubits=8, samples=1, setup_rounds=3, reference_ops=1),
        Verify("verify-n12", qubits=12, setup_rounds=5, reference_ops=3),
    )
}

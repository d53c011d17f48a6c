"""One sha256 over the exit code, stdout and stderr of a fixed CLI command set.

Run from the repository root::

    PYTHONPATH=src python tests/cli_digest.py          # the digest only
    PYTHONPATH=src python tests/cli_digest.py --each   # plus one line per command

A refactor that must keep the CLI's bytes prints the same digest before and
after; ``--each`` names the commands whose output moved.  The commands run
in-process through ``cli.main``, so a run takes about a second and a half.
The states are built here from fixed seeds and passed inline as JSON:

* ``verify --theorem all`` on the default grid at n = 2..12 on Haar, Gaussian
  W-class, log-uniform W-class (magnitudes over 6 decades) and GHZ+W
  amplitude states, and on GHZ+W at n = 4..9 in JSON on a short grid;
* every gallery family in CSV and in JSON;
* ``sweep --theorem all`` at n = 2..12 in CSV and in JSON, and at n = 4 and
  6 on a grid that holds 0 (the ``0**0`` rows) and 2;
* ``verify`` on a one-value grid, ``verify`` and ``sweep`` on the grids ``0,1``
  and ``-0,1`` (which print the same bytes), and a W-class state whose lower bounds
  read violated at the numerical floor (exit 1);
* the three figures, ``gallery-list`` and the input-error paths.

This is not a pytest test (pytest collects only ``test_*.py``): the exact
digits, and so the digest, can differ between BLAS builds, which is why the
golden files compare numbers within a tolerance instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import numpy as np

from entbounds import cli

_GALLERY = {
    "gsd3": [5 ** -0.5] * 5 + [0.0],
    "wclass4": [0.75, 0.5, 0.353553390593, 0.25],
    "ghz": [5],
    "w": [5],
    "thm2_saturating": [],
    "fig3": [],
    "cor_a": [],
    "cor_b": [],
}


def _amplitudes(n: int, amps: np.ndarray) -> str:
    amps = amps / np.linalg.norm(amps)
    return json.dumps({"kind": "amplitudes", "n": n,
                       "re": amps.real.tolist(), "im": amps.imag.tolist()})


def _w_part(n: int, coefficients: np.ndarray) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[[1 << (n - 1 - k) for k in range(n)]] = coefficients
    return amps


def _states(n: int) -> dict[str, str]:
    """The four amplitude states at ``n`` qubits, each from its own seed."""
    rng = np.random.default_rng(1600 + n)
    haar = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    gauss_w = _w_part(n, rng.normal(size=n) + 1j * rng.normal(size=n))
    phases = np.exp(2j * np.pi * rng.random(n))
    log_w = _w_part(n, 10.0 ** rng.uniform(-6.0, 0.0, n) * phases)
    ghz_w = _w_part(n, rng.random(n))
    ghz_w[0] = ghz_w[-1] = 0.5
    return {"haar": _amplitudes(n, haar), "wclass-gauss": _amplitudes(n, gauss_w),
            "wclass-log6": _amplitudes(n, log_w), "ghz-w": _amplitudes(n, ghz_w)}


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in a fixed order."""
    cmds = []
    for n in range(2, 13):
        states = _states(n)
        for kind, state in states.items():
            cmds.append((f"verify-{kind}-n{n}", ["verify", "--state", state, "--theorem", "all"]))
        if 4 <= n <= 9:
            cmds.append((f"verify-ghz-w-n{n}-json",
                         ["verify", "--state", states["ghz-w"], "--theorem", "all",
                          "--alpha", "0,0.5,1,1.37,2", "--format", "json"]))
    for family, params in _GALLERY.items():
        spec = json.dumps({"kind": "named", "family": family, "params": params})
        for fmt in ("csv", "json"):
            cmds.append((f"gallery-{family}-{fmt}",
                         ["verify", "--state", spec, "--theorem", "all", "--format", fmt]))
    for n in range(2, 13):
        samples = str(max(1, 24 >> max(0, n - 4)))
        for fmt in ("csv", "json"):
            cmds.append((f"sweep-n{n}-{fmt}",
                         ["sweep", "--qubits", str(n), "--samples", samples, "--seed", str(n),
                          "--theorem", "all", "--format", fmt]))
    for n in (4, 6):
        for fmt in ("csv", "json"):
            cmds.append((f"sweep-n{n}-alpha-0-to-2-{fmt}",
                         ["sweep", "--qubits", str(n), "--samples", "6", "--seed", str(n),
                          "--theorem", "all", "--alpha", "0,0.5,1,2", "--format", fmt]))
    cmds.append(("verify-haar-n6-one-alpha",
                 ["verify", "--state", _states(6)["haar"], "--theorem", "all", "--alpha", "1"]))
    # A grid that starts at -0 prints the same bytes as one that starts at 0.
    for zero in ("0", "-0"):
        for fmt in ("csv", "json"):
            cmds.append((f"verify-haar-n5-alpha{zero}-1-{fmt}",
                         ["verify", "--state", _states(5)["haar"], "--theorem", "all",
                          f"--alpha={zero},1", "--format", fmt]))
            cmds.append((f"sweep-n4-alpha{zero}-1-{fmt}",
                         ["sweep", "--qubits", "4", "--samples", "3", "--seed", "4",
                          "--theorem", "all", f"--alpha={zero},1", "--format", fmt]))
    floor = json.dumps({"kind": "named", "family": "wclass4",
                        "params": [2.5e-7, 1.3e-7, 0.003, 0.9999955]})
    cmds.append(("verify-wclass4-floor-violation",
                  ["verify", "--theorem", "thm2,thm3", "--alpha", "0.05,1", "--state", floor]))
    for fig in ("1", "2", "3"):
        cmds.append((f"figure-{fig}", ["figure", fig]))
    cmds.append(("gallery-list", ["gallery-list"]))
    ghz3 = json.dumps({"kind": "named", "family": "ghz", "params": [3]})
    ghz4 = json.dumps({"kind": "named", "family": "ghz", "params": [4]})
    errors = {
        "thm2-on-3-qubits": ["verify", "--state", ghz3, "--theorem", "thm2"],
        "all-on-1-qubit": ["verify", "--state", _amplitudes(1, np.array([1.0, 0.0])),
                           "--theorem", "all"],
        "unknown-theorem": ["verify", "--state", ghz4, "--theorem", "thm9"],
        "duplicate-theorem": ["verify", "--state", ghz4, "--theorem", "thm1,thm1"],
        "alpha-out-of-range": ["verify", "--state", ghz4, "--alpha", "0:3:0.5"],
        "alpha-tiny-step": ["verify", "--state", ghz4, "--alpha", "0:1:1e-13"],
        "alpha-not-increasing": ["verify", "--state", ghz4, "--alpha", "1,0.5"],
        "deep-json": ["verify", "--state", '{"a":' * 5000],
        "ghz-1e308": ["verify", "--state", '{"kind":"named","family":"ghz","params":[1e308]}'],
        "gsd3-infinite-phi": ["verify", "--state", '{"kind":"named","family":"gsd3",'
                              '"params":[0.5,0.5,0.5,0.5,0,Infinity]}'],
        "sweep-13-qubits": ["sweep", "--qubits", "13", "--samples", "1"],
        "sweep-0-qubits": ["sweep", "--qubits", "0", "--samples", "1"],
        "sweep-1-qubit-all": ["sweep", "--qubits", "1", "--samples", "1", "--theorem", "all"],
        "unknown-kind": ["verify", "--state", '{"kind":"bogus"}'],
    }
    cmds.extend((f"error-{name}", argv) for name, argv in errors.items())
    return cmds


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str]) -> int:
    each = argv == ["--each"]
    if argv and not each:
        sys.stderr.write("usage: cli_digest.py [--each]\n")
        return 2
    total = hashlib.sha256()
    cmds = commands()
    for name, cmd in cmds:
        code, out, err = _run(cmd)
        digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
        total.update(digest.encode())
        if each:
            print(f"{digest[:16]}  exit {code}  {name}")
    print(f"{total.hexdigest()}  {len(cmds)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""CLI outputs pinned against recorded golden files.

Each case under ``tests/data/golden/`` holds one command line with its exit
code, stdout and stderr.  Exit codes, comment headers, column headers,
theorem ids, groupings and flags must match exactly; numbers must agree
within ``TOL`` (relative above 1), which absorbs last-digit differences
between BLAS builds.

Record the files again (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import sys

import pytest

from entbounds import cli

DATA = pathlib.Path(__file__).parent / "data" / "golden"
TOL = 1e-10

_GSD3 = [5 ** -0.5] * 5 + [0.0]
_GALLERY = {
    "gsd3": _GSD3,
    "wclass4": [0.75, 0.5, 0.353553390593, 0.25],
    "ghz": [5],
    "w": [5],
    "thm2_saturating": [],
    "fig3": [],
    "cor_a": [],
    "cor_b": [],
}
_WCLASS12 = "{data}/wclass12-state.json"
_GHZW7 = "{data}/ghzw7-state.json"


def _named(family, params):
    return json.dumps({"kind": "named", "family": family, "params": params})


def _cases():
    cases = {}
    for family, params in _GALLERY.items():
        cases[f"verify-{family}"] = ["verify", "--state", _named(family, params),
                                     "--theorem", "all", "--alpha", "0.5,1,2"]
    for family in ("ghz", "w"):
        for n in (2, 4, 6):
            cases[f"verify-{family}{n}"] = [
                "verify", "--state", _named(family, [n]),
                "--theorem", "all", "--alpha", "0.5,1,2"]
    cases["verify-wclass12"] = ["verify", "--state", _WCLASS12,
                                "--theorem", "all", "--alpha", "0.5,1,2"]
    # Foci 0-2 have partners with C = 0 and partners with C > 0, so the front
    # groupings lead with alpha-dependent groups over zero-C rests.
    cases["verify-ghzw7"] = ["verify", "--state", _GHZW7,
                             "--theorem", "all", "--alpha", "0,0.5,1,2"]
    cases["sweep-n4"] = ["sweep", "--qubits", "4", "--samples", "20", "--theorem", "all"]
    cases["sweep-n6"] = ["sweep", "--qubits", "6", "--samples", "3", "--theorem", "all"]
    cases["sweep-n8"] = ["sweep", "--qubits", "8", "--samples", "3", "--theorem", "all"]
    # alpha = 0 included: jin is not applicable on W, so rhs and slack print null.
    cases["verify-w4-json"] = ["verify", "--state", _named("w", [4]), "--theorem", "all",
                               "--alpha", "0,0.5,1,2", "--format", "json"]
    cases["sweep-n4-json"] = ["sweep", "--qubits", "4", "--samples", "5", "--theorem", "all",
                              "--format", "json"]
    for fig in ("1", "2", "3"):
        cases[f"figure-{fig}"] = ["figure", fig]
    cases["error-thm2-3qubits"] = ["verify", "--state", _named("ghz", [3]),
                                   "--theorem", "thm2"]
    amp1 = json.dumps({"kind": "amplitudes", "n": 1, "re": [1, 0], "im": [0, 0]})
    cases["error-all-1qubit"] = ["verify", "--state", amp1, "--theorem", "all"]
    cases["error-sweep-13qubits"] = ["sweep", "--qubits", "13", "--samples", "1"]
    return cases


CASES = _cases()


def _run(argv):
    argv = [a.replace("{data}", str(DATA)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _same_field(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(w) and abs(g - w) <= TOL * max(1.0, abs(w))


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _assert_same_text(got: str, want: str, where: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: line count"
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g.startswith("#") or w.startswith("#"):
            assert g == w, f"{where} line {k}"
            continue
        gf, wf = next(csv.reader([g])), next(csv.reader([w]))
        assert len(gf) == len(wf), f"{where} line {k}: {g!r} != {w!r}"
        assert all(_same_field(a, b) for a, b in zip(gf, wf)), \
            f"{where} line {k}: {g!r} != {w!r}"
        for x in filter(_is_number, gf):
            assert f"{float(x):.12g}" == x, f"{where} line {k}: {x!r} is not %.12g"


def _assert_same_json(got, want, where: str):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length"
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= TOL * max(1.0, abs(want)), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    want = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    assert want["argv"] == CASES[name]
    code, out, err = _run(CASES[name])
    assert code == want["exit"]
    if name.startswith("figure-"):
        assert out == want["stdout"]
    elif "json" in CASES[name]:
        _assert_same_json(json.loads(out), json.loads(want["stdout"]), "stdout")
    else:
        _assert_same_text(out, want["stdout"], "stdout")
    assert err == want["stderr"]


def _wclass12_spec() -> dict:
    """A 12-qubit W-class state with unequal real amplitudes plus a small GHZ part."""
    n = 12
    re = [0.0] * (1 << n)
    for k in range(n):
        re[1 << k] = round(0.2 + 0.05 * k, 6)
    re[0] = re[-1] = 0.1
    norm = math.sqrt(sum(x * x for x in re))
    return {"kind": "amplitudes", "n": n,
            "re": [round(x / norm, 12) for x in re], "im": [0] * (1 << n)}


def _ghzw7_spec() -> dict:
    """0.5 |GHZ_7> plus a W-class part with coefficients 0.9, 0.8, ..., 0.3, real."""
    n = 7
    re = [0.0] * (1 << n)
    re[0] = re[-1] = round(0.5 * 0.5 ** 0.5, 12)
    for k in range(n):
        re[1 << (n - 1 - k)] = round(0.9 - 0.1 * k, 6)
    norm = math.sqrt(sum(x * x for x in re))
    return {"kind": "amplitudes", "n": n,
            "re": [round(x / norm, 12) for x in re], "im": [0] * (1 << n)}


def _record():
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / "wclass12-state.json").write_text(
        json.dumps(_wclass12_spec(), separators=(",", ":")) + "\n", encoding="utf-8")
    (DATA / "ghzw7-state.json").write_text(
        json.dumps(_ghzw7_spec(), separators=(",", ":")) + "\n", encoding="utf-8")
    for name, argv in CASES.items():
        code, out, err = _run(argv)
        record = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
        (DATA / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    _record()

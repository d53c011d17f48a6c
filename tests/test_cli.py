import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from entbounds import bounds, cli
from entbounds.bounds import BOUNDS, BoundColumns
from oracles import grid_weights


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


GSD3_EQUAL = json.dumps({
    "kind": "named", "family": "gsd3",
    "params": [5 ** -0.5] * 5 + [0.0]})


def test_figure1_reference_row(capsys):
    code, out, _ = run_main(["figure", "1"], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 100
    row = next(r for r in rows if abs(float(r["alpha"]) - 1.0) < 1e-12)
    assert abs(float(row["lhs"]) - 0.6928203) < 1e-6
    assert abs(float(row["thm1"]) - 0.8) < 1e-6
    assert abs(float(row["jin"]) - 0.8485281) < 1e-6


def test_figure3_reference_row(capsys):
    code, out, _ = run_main(["figure", "3"], capsys)
    assert code == 0
    row = next(r for r in _rows(out) if abs(float(r["alpha"]) - 2.0) < 1e-12)
    assert abs(float(row["lhs"]) - 8 / 9) < 1e-9
    assert abs(float(row["thm4"]) - 4 / 3) < 1e-9
    assert abs(float(row["jin11"]) - 4 / 3) < 1e-9


def test_figure2_collapse_and_note(capsys):
    code, out, err = run_main(["figure", "2"], capsys)
    assert code == 0
    row = next(r for r in _rows(out) if abs(float(r["alpha"]) - 2.0) < 1e-12)
    assert abs(float(row["y1"]) - float(row["y2"])) < 1e-9
    assert "ordering" in err  # the convention mismatch is called out


def test_figure_invalid_id(capsys):
    code, _, _ = run_main(["figure", "4"], capsys)
    assert code == 2


def test_verify_reference_state_all_satisfied(capsys):
    code, out, _ = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "thm1",
         "--alpha", "0.05:2.0:0.05"], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 40
    assert all(r["satisfied"] == "true" for r in rows)


def test_verify_saturating_state_slack(capsys):
    state = json.dumps({"kind": "named", "family": "thm2_saturating"})
    code, out, _ = run_main(
        ["verify", "--state", state, "--theorem", "thm2", "--alpha", "2.0"],
        capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert abs(float(rows[0]["slack"])) <= 1e-9


def test_verify_json_format(capsys):
    code, out, _ = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "thm1,jin",
         "--alpha", "1.0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert {r["theorem"] for r in payload["rows"]} == {"thm1", "jin"}


def test_verify_size_precondition_exit_2(capsys):
    code, _, err = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "cor1_thm3",
         "--alpha", "1.0"], capsys)
    assert code == 2
    assert "requires at least 6 qubits" in err


def test_verify_malformed_json_exit_2(capsys):
    code, _, err = run_main(
        ["verify", "--state", '{"kind": "named"', "--theorem", "thm1"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_verify_unknown_theorem_exit_2(capsys):
    code, _, err = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "thm12"], capsys)
    assert code == 2
    assert "unknown theorem id" in err


def test_verify_duplicate_theorem_exit_2(capsys):
    code, out, err = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "thm1,jin,thm1",
         "--alpha", "1.0"], capsys)
    assert code == 2
    assert out == ""
    assert "duplicate theorem id 'thm1'" in err


def test_sweep_duplicate_theorem_exit_2(capsys):
    code, out, err = run_main(
        ["sweep", "--qubits", "4", "--samples", "2", "--theorem", "thm1,thm1",
         "--alpha", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "duplicate theorem id 'thm1'" in err


@pytest.mark.parametrize("n", range(1, 8))
def test_verify_all_selects_the_table_ids(n, capsys):
    state = json.dumps({"kind": "amplitudes", "n": n, "re": [1] + [0] * (2 ** n - 1),
                        "im": [0] * 2 ** n})
    code, out, err = run_main(
        ["verify", "--state", state, "--theorem", "all", "--alpha", "1"], capsys)
    expected = [tid for tid, spec in BOUNDS.items() if spec.min_qubits <= n]
    assert [r["theorem"] for r in _rows(out)] == expected
    assert code == (0 if expected else 2)
    assert expected or "no bound applies" in err


def test_verify_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(GSD3_EQUAL)
    code, out, _ = run_main(
        ["verify", "--state", str(path), "--theorem", "ckw"], capsys)
    assert code == 0
    assert len(_rows(out)) == 1


def test_verify_exit_1_on_violation(monkeypatch, capsys):
    # Fake one violated row to pin the exit-code plumbing; tests/cli_digest.py
    # also runs a W-class state that reads violated at the numerical floor.
    bad = BoundColumns("thm1", (1.0,), [1.0], [0.5], [-0.5], [False], [None], True)

    class Stub:
        def __init__(self, psi):
            pass

        def evaluate(self, tid, alpha, foci=None):
            return bad

    monkeypatch.setattr(cli, "StateEvaluator", Stub)
    monkeypatch.setattr(cli, "fill_columns", lambda evaluators, theorem_ids, grid: None)
    code, _, _ = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "thm1",
         "--alpha", "1.0"], capsys)
    assert code == 1


def test_sweep_small_run_no_violations(capsys):
    code, out, _ = run_main(
        ["sweep", "--qubits", "4", "--samples", "10", "--seed", "3",
         "--theorem", "thm1,thm2,thm4,jin", "--alpha", "0.5:2.0:0.5"], capsys)
    assert code == 0
    rows = _rows("\n".join(l for l in out.splitlines() if not l.startswith("#")))
    assert {r["theorem"] for r in rows} == {"thm1", "thm2", "thm4", "jin"}
    assert all(r["violations"] == "0" for r in rows)
    thm1 = next(r for r in rows if r["theorem"] == "thm1")
    assert thm1["rows"] == "40"


def test_sweep_corollaries_on_six_qubits(capsys):
    code, out, _ = run_main(
        ["sweep", "--qubits", "6", "--samples", "3", "--seed", "11",
         "--theorem", "cor1_thm3,cor2_lower,cor2_upper",
         "--alpha", "1.0,2.0"], capsys)
    assert code == 0
    rows = _rows("\n".join(l for l in out.splitlines() if not l.startswith("#")))
    assert all(r["violations"] == "0" for r in rows)


def test_sweep_deterministic_bytes(tmp_path):
    args = ["sweep", "--qubits", "4", "--samples", "6", "--seed", "99",
            "--theorem", "thm1,thm3", "--alpha", "0.5,1.5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_repeat_is_byte_identical(capsys):
    args = ["sweep", "--qubits", "6", "--samples", "2", "--seed", "99",
            "--theorem", "all", "--format", "json"]
    first = run_main(args, capsys)
    assert first[0] == 0
    assert run_main(args, capsys) == first


def test_sweep_every_size_up_to_max_qubits(capsys):
    for n, search in ((9, "exhaustive"), (11, "canonical"), (12, "canonical")):
        code, out, err = run_main(["sweep", "--qubits", str(n), "--samples", "1",
                                   "--theorem", "all"], capsys)
        assert code == 0, err
        assert out.startswith(f"# sweep qubits={n} samples=1 seed=1234 search={search}\n")
        rows = _rows("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert [r["theorem"] for r in rows] == list(BOUNDS)
        assert all(r["violations"] == "0" for r in rows)
    code, out, err = run_main(["sweep", "--qubits", "13", "--samples", "1",
                               "--theorem", "all"], capsys)
    assert (code, out, err) == (2, "", "error: qubits must be in [1, 12], got 13\n")


def test_sweep_json_meta(capsys):
    code, out, _ = run_main(
        ["sweep", "--qubits", "4", "--samples", "2", "--seed", "5",
         "--theorem", "thm1", "--alpha", "1.0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["qubits"] == 4
    assert payload["rows"][0]["violations"] == 0


@pytest.mark.parametrize("family,params", [
    ("ghz", [4]), ("w", [4]), ("thm2_saturating", []), ("fig3", []),
    ("cor_a", []), ("cor_b", []),
])
def test_verify_all_theorems_on_gallery_states(family, params, capsys):
    # Regression: product cuts inside hand-crafted states must report exact
    # zeros; otherwise small exponents amplify eigensolver noise into fake
    # violations.
    state = json.dumps({"kind": "named", "family": family, "params": params})
    code, out, _ = run_main(
        ["verify", "--state", state, "--theorem", "all",
         "--alpha", "0.05,0.25,1.0,2.0"], capsys)
    assert code == 0
    assert all(r["satisfied"] == "true" for r in _rows(out))


def test_verify_large_state_uses_canonical_fallback(tmp_path, capsys):
    import numpy as np
    from entbounds.qcore import haar_random_pure

    psi = haar_random_pure(10, 7)
    spec = json.dumps({
        "kind": "amplitudes", "n": 10,
        "re": psi.amplitudes.real.tolist(),
        "im": psi.amplitudes.imag.tolist()})
    code, out, _ = run_main(
        ["verify", "--state", spec, "--theorem", "thm1", "--alpha", "1.0"],
        capsys)
    assert code == 0
    assert _rows(out)[0]["satisfied"] == "true"


@pytest.mark.parametrize("n", [10, 12])
def test_large_state_evaluate_equals_the_verify_rows(n, tmp_path, capsys):
    from entbounds.bounds import StateEvaluator, optimize_grouping
    from entbounds.gallery import StateSpec
    from entbounds.qcore import haar_random_pure

    amps = haar_random_pure(n, 40 + n).amplitudes
    spec = {"kind": "amplitudes", "n": n, "re": amps.real.tolist(), "im": amps.imag.tolist()}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_main(["verify", "--state", str(path), "--theorem", "all",
                               "--alpha", "0.5,1,2", "--format", "json"], capsys)
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [r["theorem"] for r in rows if r["alpha"] == 2.0] == list(BOUNDS)
    psi = StateSpec.from_dict(spec).build()
    ev = StateEvaluator(psi)
    for row in rows:
        tid, alpha = row["theorem"], row["alpha"]
        foci = tuple(range(BOUNDS[tid].arity))
        for r in (ev.evaluate(tid, alpha), optimize_grouping(psi, foci, alpha, tid)):
            cells = (r.theorem_id, r.alpha, r.lhs, r.rhs, r.slack, r.satisfied, r.applicable,
                     cli._grouping_text(r.ordering))
            text = cli._table_text("json", cli._REPORT_COLUMNS, [cells])
            assert json.loads(text)["rows"] == [row]


def test_gallery_list(capsys):
    code, out, _ = run_main(["gallery-list"], capsys)
    assert code == 0
    assert "gsd3" in out and "wclass4" in out and "thm2_saturating" in out


def test_alpha_parsing(capsys):
    code, out, _ = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "thm1",
         "--alpha", "0.5,1.0,1.5"], capsys)
    assert code == 0
    assert len(_rows(out)) == 3
    code, _, err = run_main(
        ["verify", "--state", GSD3_EQUAL, "--theorem", "thm1",
         "--alpha", "0.5:1.0"], capsys)
    assert code == 2


@pytest.mark.parametrize("spec", ["0.5:1.0", "1,0.5", "0:3:0.5", "0:nan:0.5", "x", ""])
def test_a_refused_alpha_spec_is_refused_on_every_call(spec):
    """``_parse_alpha`` keeps each grid it builds, per spec string; a spec
    that raises is never kept, so a second call raises again."""
    for _ in range(2):
        with pytest.raises(ValueError):
            cli._parse_alpha(spec)


def test_a_kept_alpha_grid_comes_back_unchanged():
    """The grid of a spec is built once and shared by every later call with
    the same string: the same immutable object, with the same values,
    weights and read-only (alpha, p, h) array."""
    cli._parse_alpha.cache_clear()
    first = cli._parse_alpha("0.25:2.0:0.25")
    values, weights, array = first.values, grid_weights(first), first.array.copy()
    for spec in ("0.25:2.0:0.25", "0.5,1", "0.25:2.0:0.25"):
        cli._parse_alpha(spec)
    again = cli._parse_alpha("0.25:2.0:0.25")
    assert again is first and again == bounds.AlphaGrid.from_range(0.25, 2.0, 0.25)
    assert (again.values, grid_weights(again)) == (values, weights)
    assert np.array_equal(again.array, array) and not again.array.flags.writeable
    assert cli._parse_alpha(" 1 ").values == (1.0,)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "entbounds.cli", "figure", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("alpha,lhs,thm1,jin")


@pytest.mark.parametrize("state", [
    {"kind": "named", "family": "ghz", "params": [2]},
    {"kind": "amplitudes", "n": 2, "re": [0.6, 0.0, 0.0, 0.0], "im": [0.0, 0.48, 0.64, 0.0]},
])
def test_verify_two_qubit_state_all_theorems(state, capsys):
    code, out, err = run_main(["verify", "--state", json.dumps(state), "--theorem", "all",
                               "--alpha", "0.5,1.0,2.0"], capsys)
    assert code == 0, err
    rows = _rows(out)
    assert {r["theorem"] for r in rows} == {"ckw", "coa_dual", "jin", "thm1", "thm5"}
    assert all(r["satisfied"] == "true" and r["applicable"] == "true" for r in rows)


def test_sweep_rejects_samples_above_the_cap_before_drawing_seeds(monkeypatch, capsys):
    class NoSeeds:  # drawing 2e9 seeds would ask for 15 GB
        def __init__(self, seed):
            pass

        def generate_state(self, *args):
            raise AssertionError("seeds were drawn before the sample count was checked")

    monkeypatch.setattr(cli.np.random, "SeedSequence", NoSeeds)
    code, out, err = run_main(["sweep", "--qubits", "2", "--samples", "2000000000",
                               "--theorem", "all"], capsys)
    assert (code, out) == (2, "")
    assert "samples must be at most 1000000, got 2000000000" in err


@pytest.mark.parametrize("seed", ["-1", "-18446744073709551617"])
def test_sweep_rejects_a_negative_seed_before_drawing_seeds(monkeypatch, capsys, seed):
    class NoSeeds:
        def __init__(self, seed):
            raise AssertionError("a negative seed reached SeedSequence")

    monkeypatch.setattr(cli.np.random, "SeedSequence", NoSeeds)
    code, out, err = run_main(["sweep", "--qubits", "2", "--samples", "1",
                               "--seed", seed, "--theorem", "all"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: seed must be a non-negative integer, got {seed}\n"


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64, 2 ** 70 + 3])
def test_sweep_accepts_every_non_negative_seed(capsys, seed):
    code, out, err = run_main(["sweep", "--qubits", "2", "--samples", "2",
                               "--seed", str(seed), "--theorem", "ckw"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith(f"# sweep qubits=2 samples=2 seed={seed} search=exhaustive\n")


def test_sweep_two_qubits(capsys):
    code, out, err = run_main(["sweep", "--qubits", "2", "--samples", "5",
                               "--theorem", "all"], capsys)
    assert code == 0, err


@pytest.mark.parametrize("state", [
    '{"kind": "amplitudes", "n": 1, "re": [NaN, 0], "im": [0, 0]}',
    '{"kind": "amplitudes", "n": 2, "re": [1, 0, 0, 0], "im": [0, Infinity, 0, 0]}',
])
def test_verify_rejects_non_finite_amplitudes(state, capsys):
    code, _, err = run_main(["verify", "--state", state, "--theorem", "ckw"], capsys)
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("state, message", [
    ({"kind": "amplitudes", "n": 2, "re": [1e308, 1e308, 0, 0], "im": [0, 0, 0, 0]},
     "amplitude norm inf is too far from 1"),
    ({"kind": "named", "family": "wclass4", "params": [1e308] * 4},
     "coefficients must satisfy sum(l_i^2) = 1"),
    ({"kind": "named", "family": "gsd3", "params": [1e308, 1e308, 0, 0, 0, 0]},
     "coefficients must satisfy sum(l_i^2) = 1"),
    # An infinite phi made np.exp warn, under -W error a traceback with exit 1.
    ({"kind": "named", "family": "gsd3", "params": [0.5, 0.5, 0.5, 0.5, 0, math.inf]},
     "gsd3 parameter phi must be finite, got inf"),
    ({"kind": "named", "family": "wclass4", "params": [0.5, math.nan, 0.5, 0.5]},
     "wclass4 parameter l2 must be finite, got nan"),
    # A JSON integer beyond float range made float() raise OverflowError:
    # a traceback with exit 1, the violation code.
    ({"kind": "amplitudes", "n": 1, "re": [10 ** 400, 0], "im": [0, 0]},
     "'re' holds an integer too large for a float"),
    ({"kind": "named", "family": "ghz", "params": [10 ** 400]},
     "'params' holds an integer too large for a float"),
])
def test_overflowing_state_specs_print_one_error_line(state, message):
    # In a child process with warnings as errors, so that a numpy warning
    # would reach stderr or end the run.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entbounds.cli", "verify", "--state",
         json.dumps(state),
         "--theorem", "ckw"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("alpha", ["nan", "0.5,nan", "0:nan:0.5", "inf"])
def test_verify_rejects_non_finite_alpha(alpha, capsys):
    code, _, err = run_main(["verify", "--state", GSD3_EQUAL, "--theorem", "thm1",
                             "--alpha", alpha], capsys)
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("alpha, message", [
    ("0:1e300:1", "alpha values must lie in [0, 2]"),
    ("0:2:1e-13", "step must be at least 1e-12"),
    ("0:2:1e-9", "values, more than the maximum 10000"),
])
def test_verify_rejects_oversized_alpha_ranges(alpha, message, monkeypatch, capsys):
    def built(*args):  # a range built first would take memory without end
        raise AssertionError("the range was built before it was checked")

    monkeypatch.setattr(bounds, "round", built, raising=False)
    code, out, err = run_main(["verify", "--state", GSD3_EQUAL, "--theorem", "thm1",
                               "--alpha", alpha], capsys)
    assert (code, out) == (2, "") and message in err


def _alpha_list(count):
    """``count`` strictly increasing alpha values in [0, 2], comma-separated."""
    return ",".join(f"{k / 5000:g}" for k in range(count))


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_alpha_lists_hold_at_most_10000_values(command, capsys):
    head = (["verify", "--state", GSD3_EQUAL] if command == "verify"
            else ["sweep", "--qubits", "2", "--samples", "1"])
    code, out, _ = run_main(head + ["--theorem", "thm1", "--alpha", _alpha_list(10_000)],
                            capsys)
    assert code == 0
    assert len(out.splitlines()) > 1
    code, out, err = run_main(head + ["--theorem", "thm1", "--alpha", _alpha_list(10_001)],
                              capsys)
    assert (code, out) == (2, "")
    assert err == "error: alpha grid has 10001 values, more than the maximum 10000\n"


_DEEP_JSON = '{"a":' * 5_000


def test_verify_refuses_deeply_nested_inline_state(capsys):
    code, out, err = run_main(["verify", "--state", _DEEP_JSON], capsys)
    assert (code, out, err) == (2, "", "error: state JSON is nested too deeply\n")


def test_verify_refuses_deeply_nested_state_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON)
    code, out, err = run_main(["verify", "--state", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: state JSON is nested too deeply\n")


@pytest.mark.parametrize("family", ["ghz", "w"])
def test_verify_rejects_non_integer_size(family, capsys):
    state = json.dumps({"kind": "named", "family": family, "params": [2.7]})
    code, out, err = run_main(["verify", "--state", state, "--theorem", "all"], capsys)
    assert code == 2
    assert out == "" and "integer" in err


def test_verify_one_qubit_all_theorems_exit_2(capsys):
    state = json.dumps({"kind": "amplitudes", "n": 1, "re": [0.6, 0.8], "im": [0, 0]})
    code, out, err = run_main(["verify", "--state", state, "--theorem", "all"], capsys)
    assert code == 2
    assert out == ""
    assert "no bound applies to 1 qubit" in err


@pytest.mark.parametrize("state, message", [
    ({"kind": "amplitudes", "n": 2.5, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}, "'n'"),
    ({"kind": "amplitudes", "n": True, "re": [1, 0], "im": [0, 0]}, "'n'"),
    ({"kind": "amplitudes", "n": 0, "re": [1], "im": [0]}, "'n'"),
    ({"kind": "amplitudes", "n": 13, "re": [1, 0], "im": [0, 0]}, "'n'"),
    ({"kind": "named", "family": "ghz", "params": "3"}, "array of numbers"),
    ({"kind": "amplitudes", "n": 2, "re": "1000", "im": "0000"}, "array of numbers"),
])
def test_verify_rejects_coerced_state_specs(state, message, capsys):
    code, out, err = run_main(["verify", "--state", json.dumps(state),
                               "--theorem", "ckw"], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: ") and message in err


def test_the_reused_parser_answers_like_a_fresh_process(monkeypatch, capsys):
    # Help and usage text wrap at COLUMNS, so both sides get the same width.
    monkeypatch.setenv("COLUMNS", "80")
    sequence = (["verify", "--nope"], ["bogus"], ["--help"], ["sweep", "--help"],
                ["verify", "--state", GSD3_EQUAL, "--theorem", "thm1", "--alpha", "0.5,1"],
                ["sweep", "--qubits", "3", "--samples", "2"])
    assert cli._build_parser() is cli._build_parser()
    for argv in sequence:
        in_process = run_main(argv, capsys)
        proc = subprocess.run(
            [sys.executable, "-m", "entbounds.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"})
        assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv
    assert run_main(["bogus"], capsys)[0] == 2


def test_alpha_range_with_a_step_just_past_the_stop(capsys):
    state = json.dumps({"kind": "named", "family": "w", "params": [3]})
    code, out, err = run_main(["verify", "--state", state, "--theorem", "thm1",
                               "--alpha", "1.9:2:0.1000000001"], capsys)
    assert code == 0, err
    assert [row["alpha"] for row in _rows(out)] == ["1.9"]


@pytest.mark.parametrize("qubits", ["0", "-3", "13"])
def test_sweep_qubits_out_of_range_exit_2_before_any_draw(monkeypatch, capsys, qubits):
    def refuse(*args):
        raise AssertionError("a state was drawn")

    monkeypatch.setattr(cli, "haar_random_pure", refuse)
    code, out, err = run_main(["sweep", "--qubits", qubits, "--samples", "1"], capsys)
    assert (code, out, err) == (2, "", f"error: qubits must be in [1, 12], got {qubits}\n")


def test_sweep_one_qubit_keeps_its_message(capsys):
    code, out, err = run_main(["sweep", "--qubits", "1", "--samples", "1"], capsys)
    assert (code, out, err) == (2, "", "error: no bound applies to 1 qubit\n")


@pytest.mark.parametrize("samples", [cli._SWEEP_CHUNK + 1, 2 * cli._SWEEP_CHUNK + 3])
@pytest.mark.parametrize("qubits, fmt", [(4, "csv"), (6, "json")])
def test_sweep_across_chunks_prints_what_one_state_at_a_time_prints(
        monkeypatch, capsys, samples, qubits, fmt):
    argv = ["sweep", "--qubits", str(qubits), "--samples", str(samples), "--seed", "9",
            "--theorem", "all", "--alpha", "0.5,1,2", "--format", fmt]
    chunked = run_main(argv, capsys)
    # Without the chunk fill, each state's spectra are solved as a chunk of one.
    fill = bounds.fill_spectra
    monkeypatch.setattr(bounds, "fill_spectra",
                        lambda evaluators, pairs, cuts: [fill((ev,), pairs, cuts)
                                                         for ev in evaluators])
    assert chunked == run_main(argv, capsys)
    assert chunked[0] == 0


def _csv_writer_text(columns, rows, comments=""):
    """The table as ``csv.writer`` writes it, with the cells formatted as
    ``_table_text`` documents: ``%.12g``, NaN empty, bools as words."""
    buf = io.StringIO()
    buf.write(comments)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([("" if x != x else f"{x:.12g}") if isinstance(x, float)
                      else ("true" if x else "false") if isinstance(x, bool) else x
                      for x in row] for row in rows)
    return buf.getvalue()


_AWKWARD_TEXTS = ["", "a,b", 'say "hi"', '"', '""', "two\nlines", ",", "0|1,2|3", " pad ",
                  "tab\there", "#", "plain"]
_AWKWARD_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e300, -1e300, 1e-300, 1.0, 0.1, 1 / 3,
                   123456789012345.0, 1e16, -2.5]


@pytest.mark.parametrize("comments", ["", "# sweep qubits=4 samples=3 seed=1\n# alpha=0.5,1\n"])
def test_the_csv_writer_equals_csv_writer_on_every_cell(comments):
    rows = [(text, x, flag, k, x, text)
            for k, (text, x, flag) in enumerate(zip(_AWKWARD_TEXTS * 2, _AWKWARD_FLOATS * 2,
                                                    [True, False, False] * 12))]
    columns = ("theorem", "lhs", "satisfied", "rows", "slack", "grouping")
    assert cli._table_text("csv", columns, rows, comments=comments) == _csv_writer_text(
        columns, rows, comments)
    assert cli._table_text("csv", columns, [], comments=comments) == _csv_writer_text(
        columns, [], comments)
    assert cli._table_text("csv", ("a", 'b,"c"'), [("x", 1.5)]) == 'a,"b,""c"""\nx,1.5\n'


def test_the_csv_writer_quotes_a_carriage_return_as_python_3_13_does():
    # Python 3.10-3.12's csv.writer leaves a CR unquoted when the line
    # terminator is LF; 3.13 quotes it, and so does the writer.
    text = cli._table_text("csv", ("a", "b"), [("x\ry", "z")])
    assert text == 'a,b\n"x\ry",z\n'
    if sys.version_info >= (3, 13):
        assert text == _csv_writer_text(("a", "b"), [("x\ry", "z")])


@pytest.mark.parametrize("order", ["zero_first", "negative_zero_first"])
def test_float_cells_print_as_12g_and_a_negative_zero_keeps_its_sign(order):
    values = _AWKWARD_FLOATS * 3
    if order == "negative_zero_first":
        values = values[1:]
    text = cli._table_text("csv", ("alpha", "x"), [(1.0, x) for x in values])
    cells = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert cells == ["" if x != x else f"{x:.12g}" for x in values]
    assert cells.count("-0") == sum(x == 0.0 and math.copysign(1.0, x) < 0 for x in values) > 0

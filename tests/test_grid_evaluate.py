"""``StateEvaluator.evaluate`` over an ``AlphaGrid`` against one alpha at a time.

Each row of ``evaluate(tid, grid)`` must equal ``evaluate(tid, a)`` at its
grid value ``a``, floats by ``float.hex`` and certificates by identity, on
Haar, log-uniform W-class and GHZ+W states at n = 2..9 and 12 and on every
gallery family, at the default foci, at explicit foci and with
``groupings=``.  The values are also rebuilt from the reference sums in
``tests/oracles.py``, and the sweep's column aggregation is checked against
its one-report-at-a-time oracle.
"""

import json
import math

import numpy as np
import pytest

from entbounds import cli
from entbounds.bounds import (BOUNDS, SLACK_TOL, AlphaGrid, BoundColumns, BoundReport,
                              Grouping, StateEvaluator, _descending_singletons)
from entbounds.gallery import StateSpec
from entbounds.qcore import PureState, haar_random_pure

from oracles import _apow, _front_weighted_sum, _geometric_sum, _jin_sum, sweep_tally

GRIDS = (AlphaGrid((0.0, 0.05, 0.5, 1.0, 1.37, 2.0)), AlphaGrid((0.0,)), AlphaGrid((2.0,)),
         AlphaGrid((0.25, 0.75, 1.5)))

GALLERY = {
    "gsd3": [5 ** -0.5] * 5 + [0.0],
    "wclass4": [0.75, 0.5, 0.353553390593, 0.25],
    "wclass4_floor": [2.5e-7, 1.3e-7, 0.003, 0.9999955],  # reads violated at the floor
    "ghz": [5],
    "w": [6],
    "thm2_saturating": [],
    "fig3": [],
    "cor_a": [],
    "cor_b": [],
}


def _w_part(n, coefficients):
    amps = np.zeros(1 << n, dtype=complex)
    amps[[1 << (n - 1 - k) for k in range(n)]] = coefficients
    return amps


def _state(kind, n):
    rng = np.random.default_rng(1900 + n)
    if kind == "haar":
        return haar_random_pure(n, 1900 + n)
    if kind == "wclass-log6":  # magnitudes over 6 decades, random phases
        amps = _w_part(n, 10.0 ** rng.uniform(-6.0, 0.0, n) * np.exp(2j * np.pi * rng.random(n)))
    else:  # GHZ+W
        amps = _w_part(n, rng.random(n))
        amps[0] = amps[-1] = 0.5
    return PureState.from_amplitudes(amps / np.linalg.norm(amps))


def _gallery_state(name):
    family = "wclass4" if name == "wclass4_floor" else name
    return StateSpec.from_dict({"kind": "named", "family": family,
                                "params": GALLERY[name]}).build()


STATES = [(f"{kind}-n{n}", kind, n) for n in (*range(2, 10), 12)
          for kind in ("haar", "wclass-log6", "ghz-w")]
STATES += [(f"gallery-{name}", "gallery", name) for name in GALLERY]


def _build(kind, arg):
    return _gallery_state(arg) if kind == "gallery" else _state(kind, arg)


def _hex(x):
    return float.hex(x)


def _calls(ev, psi):
    """(tid, foci, groupings) of every bound at its default foci, at the last
    qubits in reverse, and with caller groupings at the default foci."""
    n = psi.num_qubits
    for tid, spec in BOUNDS.items():
        if n < spec.min_qubits:
            continue
        yield tid, None, None
        yield tid, tuple(range(n - 1, n - 1 - spec.arity, -1)), None
        if spec.fixed_alpha:
            continue
        if spec.rhs == "jin":
            order = _descending_singletons(ev.tables(0)[1])
            if order is not None:
                yield tid, None, (order,)
            continue
        # The merged group for J, and the searched front chain where a lead
        # reads one: a feasible grouping is feasible at every alpha.
        groupings = [Grouping.merged(ev.tables(f)[1]) for f in spec.foci]
        if spec.rhs == "front":
            groupings[:2] = [ev.front_best(f, 1.0)[0] for f in spec.foci[:2]]
        yield tid, None, tuple(groupings)


def _assert_row_equals(cols, i, r, same_certificate=True):
    assert r.theorem_id == cols.theorem_id
    assert r.applicable is cols.applicable
    assert _hex(r.alpha) == _hex(cols.alpha[i])
    for name in ("lhs", "rhs", "slack"):
        assert _hex(getattr(r, name)) == _hex(getattr(cols, name)[i]), (name, i)
    assert r.satisfied is cols.satisfied[i]
    if same_certificate:
        assert r.ordering is cols.ordering[i], i
    else:
        assert r.ordering == cols.ordering[i], i


@pytest.mark.parametrize("kind,arg", [s[1:] for s in STATES], ids=[s[0] for s in STATES])
def test_every_grid_row_equals_the_one_alpha_report(kind, arg):
    psi = _build(kind, arg)
    ev, fresh = StateEvaluator(psi), StateEvaluator(psi)
    seen = []
    for tid, foci, groupings in _calls(ev, psi):
        for grid in GRIDS:
            # One alpha at a time first, so the grid reads the kept front terms
            # of that evaluator; the fresh evaluator reads the grid first.
            reports = [ev.evaluate(tid, a, foci, groupings) for a in grid]
            cols = ev.evaluate(tid, grid, foci, groupings)
            assert type(cols) is BoundColumns
            rows = len(cols.alpha)
            if BOUNDS[tid].fixed_alpha:
                assert cols.alpha == (2.0,) and all(r == reports[0] for r in reports)
                reports = reports[:1]
            else:
                assert cols.alpha == grid.values
            assert all(len(col) == rows for col in cols[2:7])
            for i, r in enumerate(reports):
                assert type(r) is BoundReport
                # A groupings= row is built per call, so its certificates are
                # new objects each call; kept rows share theirs.
                _assert_row_equals(cols, i, r, same_certificate=groupings is None)
            again = fresh.evaluate(tid, grid, foci, groupings)
            for i, r in enumerate(reports):
                _assert_row_equals(again, i, r, same_certificate=False)
            _assert_reference_values(ev, psi, tid, foci, groupings, cols)
            seen.append(cols)
    # No column list is shared between two calls, or between two columns.
    lists = [col for cols in seen for col in cols[2:7]]
    assert len({id(col) for col in lists}) == len(lists)


def _group_sums(table, grouping):
    return tuple(sum(table[q] for q in g) for g in grouping.groups)


def _assert_reference_values(ev, psi, tid, foci, groupings, cols):
    """Rebuild every row of ``cols`` from the reference sums and the
    groupings it reports, and compare bit for bit."""
    spec = BOUNDS[tid]
    foci = spec.foci if foci is None else foci
    c_cut = ev.cut_concurrence(foci)
    if spec.fixed_alpha:
        c_sq, ca_sq = ev.tables(foci[0])
        want = ((c_cut ** 2, sum(ca_sq.values())) if spec.direction == "upper"
                else (sum(c_sq.values()), c_cut ** 2))
        assert (_hex(cols.lhs[0]), _hex(cols.rhs[0])) == tuple(map(_hex, want))
        assert _hex(cols.slack[0]) == _hex(want[1] - want[0])
        assert cols.applicable and cols.ordering == [None]
        return
    cut = ev.cut_negativity(foci) if spec.cut == "N" else c_cut
    given = groupings or [Grouping.merged(ev.tables(f)[1]) for f in foci]
    j_vals = [_group_sums(ev.tables(f)[1], g) for f, g in zip(foci, given)]
    for i, a in enumerate(cols.alpha):
        assert _hex(cols.lhs[i]) == _hex(_apow(cut, a))
        if not cols.applicable:
            assert math.isnan(cols.rhs[i]) and math.isnan(cols.slack[i])
            assert cols.satisfied[i] is True and cols.ordering[i] is None
            continue
        js = [_geometric_sum(v, a) for v in j_vals]
        cert = cols.ordering[i]
        if spec.rhs == "jin":
            rhs = _jin_sum(cert.squared_values, a)
        elif spec.rhs in ("j", "rank_j"):
            rhs = js[0]
            for j in js[1:]:
                rhs += j
            if spec.rhs == "rank_j":
                rank = ev.cut_rank(foci)
                rhs = _apow(rank * (rank - 1) / 2.0, a / 2.0) * rhs
            assert cert.squared_values == j_vals[spec.center]
        elif spec.rhs == "center_total":
            center = foci[spec.center]
            rhs = _front_weighted_sum((sum(ev.tables(center)[0].values()),), a) - js[0] - js[1]
            assert cert.squared_values == j_vals[spec.center]
        else:  # front and total: the larger branch, minus J_C1
            if spec.rhs == "total":
                leads = [(sum(ev.tables(f)[0].values()),) for f in foci[:2]]
            elif groupings is not None:
                leads = [_group_sums(ev.tables(f)[0], g) for f, g in zip(foci, groupings[:2])]
            else:
                leads = [_group_sums(ev.tables(f)[0], ev.front_best(f, a)[0]) for f in foci[:2]]
            branch_a = _front_weighted_sum(leads[0], a) - js[1]
            branch_b = _front_weighted_sum(leads[1], a) - js[0]
            rhs = branch_a if branch_a >= branch_b else branch_b
            for j in js[2:]:
                rhs -= j
        assert _hex(cols.rhs[i]) == _hex(rhs), (tid, a)
        slack = rhs - cols.lhs[i] if spec.direction == "upper" else cols.lhs[i] - rhs
        assert _hex(cols.slack[i]) == _hex(slack)
        assert cols.satisfied[i] is (slack >= -SLACK_TOL)


def test_a_float_alpha_is_a_one_value_grid():
    psi = _state("ghz-w", 6)
    ev = StateEvaluator(psi)
    for tid in BOUNDS:
        for alpha in (0.0, 1, 1.37, 2.0):
            r = ev.evaluate(tid, alpha)
            cols = ev.evaluate(tid, AlphaGrid((alpha,)))
            assert r == cols.report(0)
            if not BOUNDS[tid].fixed_alpha:
                assert r.alpha is alpha  # as given, an int included
        for bad in (-0.1, 2.5, math.nan):
            with pytest.raises(ValueError, match="alpha must be in"):
                ev.evaluate(tid, bad)


def _fresh_stats():
    return {"rows": 0, "violations": 0, "not_applicable": 0, "min_slack": math.inf,
            "sum_slack": 0.0}


def _assert_same_stats(got, want):
    assert got.keys() == want.keys()
    for key in got:
        if isinstance(want[key], float):
            assert _hex(got[key]) == _hex(want[key]), key
        else:
            assert type(got[key]) is int and got[key] == want[key], key


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_the_column_tally_equals_the_per_report_oracle(n):
    """Sweep stats from columns equal those summed one report at a time."""
    states = [haar_random_pure(n, 2000 + n + k) for k in range(4)]
    states += [_state("wclass-log6", n), _state("ghz-w", n)]
    if n == 4:
        states += [_gallery_state("wclass4_floor"), _gallery_state("wclass4")]
    theorems = tuple(t for t in BOUNDS if n >= BOUNDS[t].min_qubits)
    for grid in (AlphaGrid((0.0, 0.5, 1.0, 2.0)), AlphaGrid.from_range(0.25, 2.0, 0.25)):
        got = {tid: _fresh_stats() for tid in theorems}
        want = {tid: _fresh_stats() for tid in theorems}
        for psi in states:
            ev = StateEvaluator(psi)
            for tid in theorems:
                cli._tally(got[tid], ev.evaluate(tid, grid))
                for a in (2.0,) if BOUNDS[tid].fixed_alpha else grid:
                    sweep_tally(want[tid], ev.evaluate(tid, a))
        for tid in theorems:
            _assert_same_stats(got[tid], want[tid])
    if n == 4:
        assert got["thm2"]["violations"] > 0 and got["jin"]["not_applicable"] > 0


def _columns(slacks, satisfied=None, applicable=True):
    rows = len(slacks)
    satisfied = [s >= -SLACK_TOL for s in slacks] if satisfied is None else satisfied
    return BoundColumns("thm1", tuple(0.5 * k for k in range(rows)), [0.0] * rows,
                        [0.0] * rows, list(slacks), satisfied, [None] * rows, applicable)


@pytest.mark.parametrize("columns", [
    [[0.0, -0.0], [-0.0, 0.0]],          # equal minima keep the first one's sign
    [[-0.0, 0.5], [0.0]],
    [[1.0], [1e-16, 1e-16, 1e-16]],      # sequential adds round unlike one sum
    [[0.1, 0.2, 0.3], [1e16, 1.0, -1e16]],
    [[-1e-8, 0.5], [math.nan] * 2],      # a violation, then a not-applicable set
], ids=["signed_zeros", "negative_zero_first", "rounding", "cancellation", "violation"])
def test_the_column_tally_keeps_every_bit_of_the_report_tally(columns):
    got, want = _fresh_stats(), _fresh_stats()
    for slacks in columns:
        applicable = not math.isnan(slacks[0])
        cols = _columns(slacks, applicable=applicable)
        cli._tally(got, cols)
        for i in range(len(slacks)):
            sweep_tally(want, cols.report(i))
    _assert_same_stats(got, want)


def test_verify_rows_are_the_grid_columns(capsys):
    """``verify`` prints each bound's columns row by row, and exits 1 when a
    row reads violated."""
    spec = {"kind": "named", "family": "wclass4", "params": GALLERY["wclass4_floor"]}
    code = cli.main(["verify", "--state", json.dumps(spec), "--theorem", "all",
                     "--alpha", "0,0.05,1,2", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    ev = StateEvaluator(_gallery_state("wclass4_floor"))
    want = []
    for tid, spec in BOUNDS.items():
        if spec.min_qubits <= 4:
            cols = ev.evaluate(tid, AlphaGrid((0.0, 0.05, 1.0, 2.0)))
            want += [dict(zip(cli._REPORT_COLUMNS, row)) for row in cli._column_rows(cols)]
    for row in want:
        for key in ("rhs", "slack"):
            if math.isnan(row[key]):
                row[key] = None
    assert rows == want
    assert code == cli.EXIT_VIOLATION
    assert any(not r["satisfied"] for r in rows)

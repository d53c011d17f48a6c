"""``StateEvaluator.evaluate`` over an ``AlphaGrid`` against one alpha at a time.

Each row of ``evaluate(tid, grid)`` must equal ``evaluate(tid, a)`` at its
grid value ``a``, floats by ``float.hex`` and certificates by value (by
identity where the evaluator keeps them, as the merged groups' J), on Haar,
log-uniform W-class and GHZ+W states at n = 2..9 and 12 and on every gallery
family, at the default foci, at explicit foci and with ``groupings=``.  The
values are also rebuilt from the reference sums in ``tests/oracles.py``, and
the sweep's column aggregation is checked against its one-report-at-a-time
oracle.
"""

import json
import math

import numpy as np
import pytest

from entbounds import cli
from entbounds.bounds import (BOUNDS, SLACK_TOL, AlphaGrid, BoundColumns, BoundReport,
                              Grouping, StateEvaluator, _descending_singletons, _shared_grouping,
                              fill_columns)
from entbounds.gallery import StateSpec
from entbounds.qcore import PureState, haar_random_pure

from dp_count import DpCount
from oracles import (_apow, _front_weighted_sum, _geometric_sum, _jin_sum, _ordered_sum,
                     column_rows, sweep_tally)

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
                # A groupings= call certifies the caller's groupings anew, and
                # so do jin and each front column, so their certificates are
                # new objects each call; the kept merged groups' J
                # certificates are shared.
                _assert_row_equals(cols, i, r, same_certificate=groupings is None and
                                   BOUNDS[tid].rhs not in ("jin", "front"))
            again = fresh.evaluate(tid, grid, foci, groupings)
            for i, r in enumerate(reports):
                _assert_row_equals(again, i, r, same_certificate=False)
            _assert_reference_values(ev, psi, tid, foci, groupings, cols)
            seen.append(cols)
    # No column list is shared between two calls, or between two columns.
    lists = [col for cols in seen for col in cols[2:7]]
    assert len({id(col) for col in lists}) == len(lists)


def _group_sums(table, grouping):
    return tuple(_ordered_sum(table[q] for q in g) for g in grouping.groups)


def _assert_reference_values(ev, psi, tid, foci, groupings, cols):
    """Rebuild every row of ``cols`` from the reference sums and the
    groupings it reports, and compare bit for bit."""
    spec = BOUNDS[tid]
    foci = spec.foci if foci is None else foci
    c_cut = ev.cut_concurrence(foci)
    if spec.fixed_alpha:
        c_sq, ca_sq = ev.tables(foci[0])
        want = ((c_cut ** 2, _ordered_sum(ca_sq.values())) if spec.direction == "upper"
                else (_ordered_sum(c_sq.values()), c_cut ** 2))
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
            lead = (_ordered_sum(ev.tables(center)[0].values()),)
            rhs = _front_weighted_sum(lead, a) - js[0] - js[1]
            assert cert.squared_values == j_vals[spec.center]
        else:  # front and total: the larger branch, minus J_C1
            if spec.rhs == "total":
                leads = [(_ordered_sum(ev.tables(f)[0].values()),) for f in foci[:2]]
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
                cli._tally(got[tid], [ev.evaluate(tid, grid)])
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


TALLY_CASES = {
    "signed_zeros": [[0.0, -0.0], [-0.0, 0.0]],  # equal minima keep the first one's sign
    "negative_zero_first": [[-0.0, 0.5], [0.0]],
    "rounding": [[1.0], [1e-16, 1e-16, 1e-16]],  # sequential adds round unlike one sum
    "cancellation": [[0.1, 0.2, 0.3], [1e16, 1.0, -1e16]],
    "violation": [[-1e-8, 0.5], [math.nan] * 2],  # a violation, then a not-applicable set
}


@pytest.mark.parametrize("columns", TALLY_CASES.values(), ids=TALLY_CASES.keys())
def test_the_column_tally_keeps_every_bit_of_the_report_tally(columns):
    got, want = _fresh_stats(), _fresh_stats()
    for slacks in columns:
        applicable = not math.isnan(slacks[0])
        cols = _columns(slacks, applicable=applicable)
        cli._tally(got, [cols])
        for i in range(len(slacks)):
            sweep_tally(want, cols.report(i))
    _assert_same_stats(got, want)


@pytest.mark.parametrize("columns", [*TALLY_CASES.values(),
                                     [c for columns in TALLY_CASES.values() for c in columns]],
                         ids=[*TALLY_CASES, "all"])
def test_a_chunk_of_columns_keeps_every_bit_of_the_report_tally(columns):
    """Each column set above, and all five in turn, tallied as one chunk."""
    chunk = [_columns(slacks, applicable=not math.isnan(slacks[0])) for slacks in columns]
    got, want = _fresh_stats(), _fresh_stats()
    cli._tally(got, chunk)
    for cols in chunk:
        for i in range(len(cols.alpha)):
            sweep_tally(want, cols.report(i))
    _assert_same_stats(got, want)


def _chunk(kind, n):
    """16 n-qubit states of one kind: Haar, log-uniform W-class or GHZ+W."""
    if kind == "haar":
        return [haar_random_pure(n, 2100 + 16 * n + k) for k in range(16)]
    rng, states = np.random.default_rng(2100 + n), []
    for _ in range(16):
        if kind == "wclass-log6":
            amps = _w_part(n, 10.0 ** rng.uniform(-6.0, 0.0, n)
                           * np.exp(2j * np.pi * rng.random(n)))
        else:
            amps = _w_part(n, rng.random(n))
            amps[0] = amps[-1] = 0.5
        states.append(PureState.from_amplitudes(amps / np.linalg.norm(amps)))
    return states


@pytest.mark.parametrize("n", range(4, 9))
def test_the_chunk_tally_equals_the_per_report_oracle(n):
    """Haar, W-class and GHZ+W chunks of 16, each filled as the sweep fills
    a chunk and tallied whole per bound, one after another into the same
    stats, equal the stats summed one report at a time."""
    theorems = tuple(t for t in BOUNDS if n >= BOUNDS[t].min_qubits)
    grid = AlphaGrid.from_range(0.25, 2.0, 0.25)
    got = {tid: _fresh_stats() for tid in theorems}
    want = {tid: _fresh_stats() for tid in theorems}
    for kind in ("haar", "wclass-log6", "ghz-w"):
        chunk = [StateEvaluator(psi) for psi in _chunk(kind, n)]
        fill_columns(chunk, theorems, grid)
        for tid in theorems:
            columns = [ev.evaluate(tid, grid) for ev in chunk]
            cli._tally(got[tid], columns)
            for cols in columns:
                for i in range(len(cols.alpha)):
                    sweep_tally(want[tid], cols.report(i))
    for tid in theorems:
        _assert_same_stats(got[tid], want[tid])
    assert sum(got[tid]["not_applicable"] for tid in theorems) > 0


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
            want += [dict(zip(cli._REPORT_COLUMNS, row)) for row in column_rows(cols)]
    for row in want:
        for key in ("rhs", "slack"):
            if math.isnan(row[key]):
                row[key] = None
    assert rows == want
    assert code == cli.EXIT_VIOLATION
    assert any(not r["satisfied"] for r in rows)


# -- the grid-wide front column and the shared groupings ----------------------

FRONT_STATES = [s for s in STATES if s[1] != "gallery" and s[2] >= 3] + \
    [s for s in STATES if s[1] == "gallery"]


@pytest.mark.parametrize("kind,arg", [s[1:] for s in FRONT_STATES],
                         ids=[s[0] for s in FRONT_STATES])
def test_the_front_column_is_the_one_alpha_front(kind, arg):
    """``front_best(f, grid)[i]`` is ``front_best(f, grid[i])``: floats by
    ``float.hex``, certificates by value (each column certifies its own
    groupings), and the grouping is one object across states (a fresh
    evaluator builds no grouping of its own)."""
    psi = _build(kind, arg)
    ev, fresh = StateEvaluator(psi), StateEvaluator(psi)
    for focus in range(min(psi.num_qubits, 4)):
        for grid in GRIDS:
            column = ev.front_best(focus, grid)
            assert type(column) is list and len(column) == len(grid)
            for (grouping, cert, lead), a in zip(column, grid):
                one = ev.front_best(focus, a)
                assert one[0] is grouping and one[1] == cert
                assert _hex(one[2]) == _hex(lead), (focus, a)
                other = fresh.front_best(focus, a)
                assert other[0] is grouping and other[1] == cert
                assert _hex(other[2]) == _hex(lead)
                assert _hex(lead) == _hex(_front_weighted_sum(
                    _group_sums(ev.tables(focus)[0], grouping), a))


def _requests(psi):
    """Grid A, then grid B (which shares values with A), then one alpha, then
    the caller groupings of ``_calls``, for every bound."""
    ev = StateEvaluator(psi)
    grid_a, grid_b = AlphaGrid((0.0, 0.25, 0.5, 1.0, 2.0)), AlphaGrid((0.25, 0.75, 1.0, 1.37))
    calls = [c for c in _calls(ev, psi) if c[1] is None]
    for alpha in (grid_a, grid_b, 1.0):
        for tid, _, _ in calls:
            yield tid, alpha, None
    for tid, _, groupings in calls:
        if groupings is not None:
            yield tid, grid_b, groupings


def _bits(result):
    cols = result if type(result) is BoundColumns else BoundColumns(
        result.theorem_id, (result.alpha,), [result.lhs], [result.rhs], [result.slack],
        [result.satisfied], [result.ordering], result.applicable)
    floats = [[_hex(x) for x in col] for col in (cols.alpha, cols.lhs, cols.rhs, cols.slack)]
    return cols.theorem_id, floats, list(cols.satisfied), list(cols.ordering), cols.applicable


@pytest.mark.parametrize("kind,arg", [("haar", 4), ("haar", 6), ("wclass-log6", 6),
                                      ("ghz-w", 7), ("ghz-w", 12), ("gallery", "cor_a")])
def test_a_warm_evaluator_gives_a_fresh_ones_bits(kind, arg):
    """The kept weights and front columns are keyed by the grid's values: a
    warm evaluator asked for grid A, then an overlapping grid B, then one
    alpha, then ``groupings=``, answers as a fresh one does."""
    psi = _build(kind, arg)
    warm = StateEvaluator(psi)
    for tid, alpha, groupings in _requests(psi):
        got = warm.evaluate(tid, alpha, None, groupings)
        want = StateEvaluator(psi).evaluate(tid, alpha, None, groupings)
        assert _bits(got) == _bits(want), (tid, alpha, groupings)


def test_no_two_returned_columns_share_a_list():
    """A kept front column is copied on the way out and every other column
    is built per call: two calls, or two bounds that read one front column,
    never share a list, and changing a returned list changes no later
    answer."""
    psi = _state("wclass-log6", 7)
    ev = StateEvaluator(psi)
    grid = AlphaGrid((0.0, 0.5, 1.0, 2.0))
    first = {tid: ev.evaluate(tid, grid) for tid in BOUNDS}
    want = {tid: _bits(cols) for tid, cols in first.items()}
    seen = [col for cols in first.values() for col in cols[2:7]]
    for cols in first.values():
        for col in cols[2:7]:
            col.reverse()
    fronts = [ev.front_best(f, grid) for f in (0, 1, 0, 1)]
    for column in fronts:
        column.clear()
    for tid in BOUNDS:
        again = ev.evaluate(tid, grid)
        assert _bits(again) == want[tid], tid
        seen += again[2:7]
    seen += fronts
    assert len({id(col) for col in seen}) == len(seen)
    assert [len(ev.front_best(f, grid)) for f in (0, 1)] == [len(grid)] * 2


def test_each_focus_runs_one_dp_per_chunk_whatever_the_front_bounds(monkeypatch, capsys):
    """thm2, thm6 and cor1_thm2 share one front column per (state, focus,
    grid): the chunk's front search fills both front foci with one call,
    which runs one chain DP over the searched entries and the whole grid,
    and each state's column is read through ``front_best`` once per focus,
    whichever front bounds are asked for.  On the ``sweep`` path at 5
    qubits two chunks (16 and 4 states) run one DP each; a lone evaluator
    (W-class at 6 and 8 qubits, where both foci are searched) runs one
    over both foci for every bound."""
    front_calls = []
    real_front = StateEvaluator.front_best

    def counted_front(self, focus, alpha):
        front_calls.append(focus)
        return real_front(self, focus, alpha)

    count = DpCount(monkeypatch)
    monkeypatch.setattr(StateEvaluator, "front_best", counted_front)
    fronts = [tid for tid, spec in BOUNDS.items() if spec.rhs == "front"]
    assert fronts == ["thm2", "thm6", "cor1_thm2"]
    for theorems in ("thm2", "thm6", "thm2,thm6", "all"):
        count.clear()
        front_calls.clear()
        assert cli.main(["sweep", "--qubits", "5", "--samples", "20", "--theorem", theorems]) == 0
        capsys.readouterr()
        assert [(len(evs), foci) for evs, foci, _ in count.fills] == [
            (16, (0, 1)), (4, (0, 1))], theorems
        assert count.runs == count.expected() and len(count.runs) == 2, theorems
        assert front_calls == [0] * 16 + [1] * 16 + [0] * 4 + [1] * 4, theorems
    grid = AlphaGrid.default()
    for n in (6, 8):
        ev = StateEvaluator(_state("wclass-log6", n))
        assert all(any(ev.tables(f)[0].values()) for f in (0, 1))  # both foci are searched
        count.clear()
        for repeat in range(2):
            front_calls.clear()
            for tid in BOUNDS:
                ev.evaluate(tid, grid)
            assert front_calls == [0, 1] * len(fronts)
        assert count.runs == [([tuple(ev.tables(f)[1].values()) for f in (0, 1)], len(grid))]


def test_a_shared_chain_grouping_equals_a_fresh_one():
    """The merged group, a searched chain's grouping and a singleton order
    are built once per process and equal the ``Grouping`` built from scratch,
    text included; two states with the same chain hold one object."""
    import entbounds.bounds as bounds

    grid = AlphaGrid.default()
    for n in (4, 6, 8):
        states = [_state("wclass-log6", n), _state("ghz-w", n)]
        picked = {}
        for psi in states:
            ev = StateEvaluator(psi)
            for focus in range(n):
                partners = tuple(q for q in range(n) if q != focus)
                merged = ev._merged_group(focus)[0]
                assert merged == Grouping.merged(partners) and str(merged) == \
                    ",".join(map(str, partners))
                for grouping, _, _ in ev.front_best(focus, grid):
                    fresh = Grouping(tuple(tuple(g) for g in grouping.groups))
                    assert grouping == fresh and str(grouping) == str(fresh)
                    masks = tuple(sum(1 << partners.index(q) for q in g)
                                  for g in grouping.groups)
                    assert _shared_grouping(partners, masks) is grouping
                    picked.setdefault((partners, masks), set()).add(id(grouping))
                order = _descending_singletons(ev.tables(focus)[1])
                if order is not None:
                    assert order == Grouping.singletons(q for (q,) in order.groups)
        assert all(len(ids) == 1 for ids in picked.values())
        assert bounds._shared_grouping.cache_info().hits > 0


def test_minus_zero_alpha_is_zero():
    """-0.0 == 0.0, so "-0" passed the grid's range check and printed as
    alpha -0; the grid now holds +0.0, and every kept column keyed by the
    grid's values reads the same for both."""
    grid = AlphaGrid((-0.0, 1.0))
    assert math.copysign(1.0, grid.values[0]) == 1.0
    assert grid == AlphaGrid((0.0, 1.0))
    assert math.copysign(1.0, AlphaGrid.from_range(-0.0, 1.0, 0.5).values[0]) == 1.0
    psi = _state("ghz-w", 6)
    ev = StateEvaluator(psi)
    for tid in BOUNDS:
        zero = StateEvaluator(psi).evaluate(tid, 0.0)
        signed = ev.evaluate(tid, -0.0)
        assert _bits(signed)[1][1:] == _bits(zero)[1][1:]
        assert _bits(ev.evaluate(tid, grid)) == _bits(StateEvaluator(psi).evaluate(
            tid, AlphaGrid((0.0, 1.0))))


@pytest.mark.parametrize("argv", [
    ["verify", "--state", json.dumps({"kind": "named", "family": "w", "params": [5]}),
     "--theorem", "all"],
    ["sweep", "--qubits", "4", "--samples", "2", "--theorem", "all"]])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_minus_zero_alpha_prints_as_zero(argv, fmt, capsys):
    outputs = []
    for alpha in ("--alpha=-0,1", "--alpha=0,1"):
        code = cli.main(argv + [alpha, "--format", fmt])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]

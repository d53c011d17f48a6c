"""A chunk's front columns against the per-state search oracle, bit for bit.

Each ``front_best`` column that a chunk of same-size states leaves on its
evaluators, through ``fill_columns`` for the front bounds' foci and through
the chunk pass's own front reader for every other focus, must equal
``oracles.front_column``: the per-state split rows and one chain DP per
alpha.  Front sums are compared by ``float.hex``, groupings by identity (one
shared ``Grouping`` per chain) and certificates by value, on Haar,
log-uniform W-class over 6 decades, GHZ+W and ``haar_k (x) |0...0>`` states
at n = 2..9, in chunks of 1, 5 and 16 states, on grids that hold 0 and 2 and
on a one-value grid.  On synthetic leads the array DP's picks equal the
oracle's sequential scan where a tie tolerance separates the two from an
argmin or a first-index-within-tolerance reduce.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from entbounds import bounds
from entbounds.bounds import (_TIE_TOL, BOUNDS, AlphaGrid, StateEvaluator, _ChunkPass,
                              _fill_fronts, _front_dp, _split_table, fill_columns)
from entbounds.gallery import ghz
from entbounds.qcore import PureState, haar_random_pure

from dp_count import DpCount
from oracles import chain_dp, front_column, split_rows

GRIDS = (AlphaGrid((0.0, 0.05, 0.5, 1.0, 1.37, 2.0)), AlphaGrid((0.75,)))
FAMILIES = ("haar", "wclass-log6", "ghz-w", "haar-zeros")


def _w_part(n, coefficients):
    amps = np.zeros(1 << n, dtype=complex)
    amps[[1 << (n - 1 - k) for k in range(n)]] = coefficients
    return amps


def _state(family, n, seed):
    rng = np.random.default_rng(seed)
    if family == "haar":
        return haar_random_pure(n, seed)
    if family == "wclass-log6":  # magnitudes over 6 decades, random phases
        amps = _w_part(n, 10.0 ** rng.uniform(-6.0, 0.0, n) * np.exp(2j * np.pi * rng.random(n)))
    elif family == "ghz-w":
        amps = _w_part(n, rng.random(n))
        amps[0] = amps[-1] = 0.5
    else:  # a Haar block on k qubits, the other qubits |0>, the block first or last
        k = 1 + seed % (n - 1) if n > 2 else 2
        block = haar_random_pure(k, seed).amplitudes
        zeros = np.zeros(1 << (n - k))
        zeros[0] = 1.0
        amps = np.kron(block, zeros) if seed % 2 else np.kron(zeros, block)
    return PureState.from_amplitudes(amps / np.linalg.norm(amps))


def _states(n):
    """16 states of size n, the four families in turn."""
    return [_state(FAMILIES[i % 4], n, 3500 + 100 * n + i) for i in range(16)]


def _foci(n):
    return range(n) if n <= 6 else (0, 1, n - 1)


def _theorems(n):
    return tuple(tid for tid, spec in BOUNDS.items() if n >= spec.min_qubits)


def _assert_same(got, want, where):
    assert len(got) == len(want), where
    for (grouping, cert, front), (w_grouping, w_cert, w_front) in zip(got, want):
        assert grouping is w_grouping and cert.grouping is grouping, where
        assert cert == w_cert, where
        assert type(front) is float and front.hex() == w_front.hex(), where


@functools.lru_cache(maxsize=None)
def _tables(n):
    """Each state's focus tables, read once from a fresh evaluator."""
    return [{f: StateEvaluator(psi).tables(f) for f in _foci(n)} for psi in _states(n)]


def _chunk_fronts(chunk, focus, grid):
    """The front column of ``focus`` on every state of ``chunk``, as the chunk
    pass forms it; the certificates and front sums that the pass reads are
    those of each state's column."""
    certs, fronts = _ChunkPass(chunk, grid)._front_columns(focus)
    columns = [ev.front_best(focus, grid) for ev in chunk]
    for column, state_certs, state_fronts in zip(columns, certs, fronts, strict=True):
        assert [(cert, front) for _, cert, front in column] == list(zip(state_certs, state_fronts))
    return columns


@pytest.mark.parametrize("size", (1, 5, 16))
@pytest.mark.parametrize("n", range(2, 10))
def test_chunk_fronts_equal_the_per_state_oracle(n, size):
    states, tables = _states(n), _tables(n)
    for grid in GRIDS:
        for start in range(0, len(states), size):
            chunk = [StateEvaluator(psi) for psi in states[start:start + size]]
            fill_columns(chunk, _theorems(n), grid)  # the front bounds' foci, 0 and 1
            for focus in _foci(n):
                for s, column in enumerate(_chunk_fronts(chunk, focus, grid), start):
                    want = front_column(*tables[s][focus], grid)
                    _assert_same(column, want, (s, focus, grid.values[:2]))


def test_a_mixed_chunk_equals_the_oracle_focus_by_focus():
    """One 7-qubit chunk whose foci are zero-C on some states (GHZ), have a
    row for the full set only, every rest a zero-C leaf, on others (a Haar
    pair times |0...0>), reach zero-C leaves further down on others (a
    larger Haar block times |0...0>), and reach none on the rest; the
    states' reachable rows differ.  Each focus's columns equal the oracle
    whichever states share the chunk."""
    n = 7
    states = [ghz(n), _state("haar-zeros", n, 3701), _state("wclass-log6", n, 3702),
              _state("haar-zeros", n, 3703), _state("ghz-w", n, 3704),
              _state("haar-zeros", n, 3706), _state("wclass-log6", n, 3708)]
    grid = GRIDS[0]
    kinds, reach = set(), set()
    for focus in range(n):
        chunk = [StateEvaluator(psi) for psi in states]
        columns = _chunk_fronts(chunk, focus, grid)
        for ev, column in zip(chunk, columns):
            c_sq, ca_sq = ev.tables(focus)
            _assert_same(column, front_column(c_sq, ca_sq, grid), (focus, ev.psi.num_qubits))
            c, _, rows = split_rows(c_sq, ca_sq)
            leaves = any(c[r] == 0.0 for row in rows.values() for _, r in row)
            kinds.add("zero_c" if not rows else "leaf_only" if len(rows) == 1 and leaves
                      else "leaves" if leaves else "no_leaves")
            reach.add(tuple(rows))
    assert kinds == {"zero_c", "leaf_only", "leaves", "no_leaves"}
    assert len(reach) > 3



def _sharing(column):
    """Which earlier alpha's certificate each alpha's is, by identity."""
    certs = [cert for _, cert, _ in column]
    return [next(i for i, other in enumerate(certs) if other is cert) for cert in certs]


@pytest.mark.parametrize("n", range(4, 10))
def test_a_pass_fills_every_front_focus_as_a_lone_fill_of_each(n, monkeypatch):
    """A chunk pass fills both front foci of its chunk with one chain DP,
    and every column it leaves equals the column that a lone
    ``front_best(f, grid)`` forms on a fresh evaluator, one focus and one
    state alone: the groupings by identity, the certificates by value, the
    front sums by ``float.hex``, and which alphas of the column share one
    certificate.  Chunks of log-uniform W-class, GHZ+W and Haar states,
    two of each, on the grids of 6 and 1 values and the default grid."""
    states = [_state(family, n, 3900 + 10 * n + i)
              for i, family in enumerate(("wclass-log6", "ghz-w", "haar") * 2)]
    count = DpCount(monkeypatch)
    for grid in (*GRIDS, AlphaGrid.default()):
        chunk = [StateEvaluator(psi) for psi in states]
        count.clear()
        fill_columns(chunk, _theorems(n), grid)
        assert [foci for _, foci, _ in count.fills] == [(0, 1)]
        assert len(count.runs) == 1 and count.runs == count.expected()
        for s, (ev, psi) in enumerate(zip(chunk, states)):
            for focus in (0, 1):
                column = ev.front_best(focus, grid)
                alone = StateEvaluator(psi).front_best(focus, grid)
                _assert_same(column, alone, (s, focus, grid.values[:2]))
                assert _sharing(column) == _sharing(alone), (s, focus)


@pytest.mark.parametrize("n", range(4, 10))
def test_a_one_position_budget_forms_every_column_bit_for_bit(n, monkeypatch):
    """With ``_DP_BYTES`` forced down to one split position per block, the
    chunk of the test above leaves the columns of a fill in one block: the
    groupings by identity, the certificates by value, the front sums by
    ``float.hex``, and which alphas of a column share one certificate."""
    states = [_state(family, n, 3900 + 10 * n + i)
              for i, family in enumerate(("wclass-log6", "ghz-w", "haar") * 2)]
    for grid in (*GRIDS, AlphaGrid.default()):
        whole = [StateEvaluator(psi) for psi in states]
        fill_columns(whole, _theorems(n), grid)
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_DP_BYTES", 1)
            blocks = [StateEvaluator(psi) for psi in states]
            fill_columns(blocks, _theorems(n), grid)
        for s, (ev, want) in enumerate(zip(blocks, whole)):
            for focus in (0, 1):
                column, alone = ev.front_best(focus, grid), want.front_best(focus, grid)
                _assert_same(column, alone, (s, focus, grid.values[:2]))
                assert _sharing(column) == _sharing(alone), (s, focus)


def test_the_front_dp_working_set_stays_under_its_bound():
    """A 9-qubit log-uniform W-class state, both front foci searched, over
    2,000 alpha: the traced peak of its front fill stays under 64 MiB.  Its
    (subsets x entries x alpha) arrays take about 33 MB, and each layer's
    candidates at most ``_DP_BYTES`` per block; unbounded, the candidates
    of one layer took three arrays of 56 MB, a 192 MiB peak."""
    rng = np.random.default_rng(33)
    amps = _w_part(9, 10.0 ** rng.uniform(-6.0, 0.0, 9) * np.exp(2j * np.pi * rng.random(9)))
    ev = StateEvaluator(PureState.from_amplitudes(amps / np.linalg.norm(amps)))
    grid = AlphaGrid(tuple(np.linspace(0.001, 2.0, 2000).tolist()))
    assert ev.search != "canonical" and all(any(ev.tables(f)[0].values()) for f in (0, 1))
    tracemalloc.start()
    try:
        _fill_fronts([ev], (0, 1), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ev.front_best(0, grid)) == len(ev.front_best(1, grid)) == 2000
    assert peak < 64 << 20, peak


def test_the_array_dp_replays_the_sequential_tie_rule():
    """Synthetic leads on three partners at h = 0, where the full set's
    first three splits are worth their rests' leads: the full set at 1,
    then splits at the three values of each case.  A split replaces the
    running best only when lower by more than ``_TIE_TOL``, so the array
    DP keeps the third candidate of (1 - 0.6 tol, 1 - 1.2 tol), where a
    first-index-within-tolerance reduce keeps the second; it keeps the
    second of (1 - 1.2 tol, 1 - 2 tol) and the whole set against
    1 - 0.6 tol alone, where an argmin takes the lowest.  The oracle's
    sequential scan picks the same, state by state."""
    tol = _TIE_TOL
    cases = {(1 - 0.6 * tol, 1 - 1.2 * tol, 1.0): 2, (1 - 1.2 * tol, 1 - 2.0 * tol, 1.0): 1,
             (1 - 0.6 * tol, 1.0, 1.0): 7}
    leads = []
    for rests in cases:
        lead = [0.0] + [10.0] * 7  # a pair keeps its own lead against its splits
        lead[7], (lead[6], lead[5], lead[3]) = 1.0, rests  # the rests of heads 1, 2, 4
        leads.append(lead)
    lead = np.array(leads).T[:, :, None]
    pick = _front_dp(lead, np.zeros(lead.shape[:2]), np.zeros(1))  # every split is held
    rows = {s: [(t, s ^ t) for t in _split_table(3)[s]] for s in range(8) if s & (s - 1)}
    for s, (rests, want) in enumerate(cases.items()):
        assert pick[7, s, 0] == want == chain_dp(rows, leads[s], 0.0)[1][7], rests

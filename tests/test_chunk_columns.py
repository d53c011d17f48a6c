"""A chunk's bound columns against the per-alpha oracle, bit for bit.

``fill_columns`` evaluates every bound of a chunk of same-size states as
(states x alpha) arrays, with ``np.float_power`` in place of Python ``**``.
Each column it leaves on an evaluator must equal ``oracles.bound_columns``,
the per-alpha Python arithmetic, floats by ``float.hex`` and certificates by
value, on Haar, log-uniform W-class, GHZ+W and ``haar_k (x) |0...0>`` states
at n = 2..12, in chunks of 1, 5 and 16 states, on grids that hold 0 and 2;
so must a lone ``evaluate`` at other foci or with ``groupings=``, which runs
the same kernel as a chunk of one.
"""

import functools
import math

import numpy as np
import pytest

from entbounds import cli
from entbounds.bounds import (BOUNDS, AlphaGrid, BoundColumns, Grouping, StateEvaluator,
                              _descending_singletons, fill_columns)
from entbounds.qcore import PureState, haar_random_pure

from oracles import bound_columns

GRIDS = (AlphaGrid((0.0, 0.05, 0.5, 1.0, 1.37, 2.0)), AlphaGrid.from_range(0.25, 2.0, 0.25),
         AlphaGrid((0.0,)))
FAMILIES = ("haar", "wclass-log", "ghz-w", "haar-zeros")


def _w_part(n, coefficients):
    amps = np.zeros(1 << n, dtype=complex)
    amps[[1 << (n - 1 - k) for k in range(n)]] = coefficients
    return amps


def _state(family, n, seed):
    rng = np.random.default_rng(seed)
    if family == "haar":
        return haar_random_pure(n, seed)
    if family == "wclass-log":  # magnitudes over 3 decades, random phases
        amps = _w_part(n, 10.0 ** rng.uniform(-3.0, 0.0, n) * np.exp(2j * np.pi * rng.random(n)))
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
    return [_state(FAMILIES[i % 4], n, 2400 + 100 * n + i) for i in range(16)]


def _theorems(n):
    return tuple(tid for tid, spec in BOUNDS.items() if n >= spec.min_qubits)


def _bits(cols):
    floats = [[float.hex(x) for x in col] for col in (cols.alpha, cols.lhs, cols.rhs, cols.slack)]
    return cols.theorem_id, floats, list(cols.satisfied), cols.applicable


def _assert_same(got, want, where):
    assert type(got) is BoundColumns, where
    assert _bits(got) == _bits(want), where
    assert all(type(x) is bool for x in got.satisfied), where
    assert all(type(x) is float for col in got[2:5] for x in col), where
    assert got.ordering == want.ordering, where


@functools.lru_cache(maxsize=None)
def _oracle(n):
    """The oracle's columns of every state of ``_states(n)``, per grid and bound."""
    table = {}
    for s, psi in enumerate(_states(n)):
        ev = StateEvaluator(psi)
        for g, grid in enumerate(GRIDS):
            for tid in _theorems(n):
                table[s, g, tid] = bound_columns(ev, tid, grid)
    return table


@pytest.mark.parametrize("size", (1, 5, 16))
@pytest.mark.parametrize("n", range(2, 13))
def test_chunk_columns_equal_the_per_alpha_oracle(n, size):
    states, theorems, want = _states(n), _theorems(n), _oracle(n)
    for g, grid in enumerate(GRIDS):
        for start in range(0, len(states), size):
            chunk = [StateEvaluator(psi) for psi in states[start:start + size]]
            fill_columns(chunk, theorems, grid)
            for s, ev in enumerate(chunk, start):
                for tid in theorems:
                    _assert_same(ev.evaluate(tid, grid), want[s, g, tid], (s, grid, tid))


@pytest.mark.parametrize("n", (6, 7, 8))
def test_the_chunks_mix_applicable_and_inapplicable_rows(n):
    """In each 16-state set jin and cor2_lower apply to some states and not
    to others, so one chunk holds both kinds of row."""
    want = _oracle(n)
    for tid in ("jin", "cor2_lower"):
        applicable = {want[s, 0, tid].applicable for s in range(16)}
        assert applicable == {True, False}, tid


def _calls(ev, n):
    """(tid, foci, groupings) at foci other than the default ones and with
    caller groupings: merged groups, front chains and jin's singleton order."""
    for tid in _theorems(n):
        spec = BOUNDS[tid]
        yield tid, tuple(range(n - 1, n - 1 - spec.arity, -1)), None
        yield tid, tuple(reversed(spec.foci)), None
        if spec.fixed_alpha:
            continue
        if spec.rhs == "jin":
            order = _descending_singletons(ev.tables(0)[1])
            if order is not None:
                yield tid, None, (order,)
            continue
        groupings = [Grouping.merged(ev.tables(f)[1]) for f in spec.foci]
        yield tid, None, tuple(groupings)
        groupings[:2] = [ev.front_best(f, 1.0)[0] for f in spec.foci[:2]]
        yield tid, None, tuple(groupings)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (2, 4, 6, 9, 12))
def test_a_lone_evaluate_equals_the_oracle_at_other_foci_and_groupings(n, family):
    psi = _state(family, n, 2500 + n)
    ev, ref = StateEvaluator(psi), StateEvaluator(psi)
    for tid, foci, groupings in _calls(ref, n):
        for grid in GRIDS:
            want = bound_columns(ref, tid, grid, foci, groupings)
            _assert_same(ev.evaluate(tid, grid, foci, groupings), want, (tid, foci, groupings))
            report = ev.evaluate(tid, grid.values[0], foci, groupings)
            assert report == want.report(0) or math.isnan(report.rhs), (tid, foci, groupings)


def test_a_chunk_of_mixed_sizes_is_refused():
    """``fill_columns`` takes states of one qubit count: a chunk of several
    is refused before any spectrum or column is kept, and a chunk of no
    states is a no-op."""
    states = [_state(family, n, 2600 + n) for n in (2, 4, 6, 4, 2, 7) for family in FAMILIES[:2]]
    chunk = [StateEvaluator(psi) for psi in states]
    with pytest.raises(ValueError, match=r"one qubit count, got \[2, 4, 6, 7\]"):
        fill_columns(chunk, tuple(BOUNDS), GRIDS[0])
    assert not any(ev._pairs or ev._cuts or ev._columns for ev in chunk)
    fill_columns([], tuple(BOUNDS), GRIDS[0])


def test_each_kept_column_is_handed_over_once():
    """``evaluate`` takes a kept column off its evaluator: a second call
    computes the bound afresh, with the same bits and new lists."""
    psi = _state("ghz-w", 6, 2700)
    ev, grid = StateEvaluator(psi), GRIDS[0]
    fill_columns((ev,), _theorems(6), grid)
    for tid in _theorems(6):
        first, second = ev.evaluate(tid, grid), ev.evaluate(tid, grid)
        _assert_same(second, first, tid)
        assert all(a is not b for a, b in zip(first[2:7], second[2:7])), tid
    assert cli._parse_theorems("all", 6) == _theorems(6)


def test_float_power_equals_python_pow_bit_for_bit():
    """The chunk pass raises with ``np.float_power``, which calls the C
    library's ``pow`` as Python's ``**`` on floats does: every pair of a
    seeded sample of bases, from 0 and subnormals through 1.0 to 4, and
    exponents in 0.0125 steps over [0, 2], gives the same bits.  So do the
    integer exponents of the weights' powers ``ratio**i``."""
    rng = np.random.default_rng(2424)
    bases = np.concatenate([
        [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 4.0, np.nextafter(1.0, 0.0),
         np.nextafter(1.0, 2.0)],
        rng.uniform(0.0, 1.0, 64) * 2.2250738585072014e-308,  # subnormals
        10.0 ** rng.uniform(-308.0, 0.0, 400),
        rng.uniform(0.0, 1.0, 200),
        rng.uniform(1.0, 4.0, 200)])
    exponents = np.arange(161) * 0.0125
    assert exponents[0] == 0.0 and exponents[-1] == 2.0
    got = np.float_power(bases[:, None], exponents[None, :]).tolist()
    for x, row in zip(bases.tolist(), got):
        assert [y.hex() for y in row] == [(x ** p).hex() for p in exponents.tolist()], x
    ratios = bases[bases <= 1.0]
    powers = np.float_power(ratios[:, None], np.arange(12.0)[None, :]).tolist()
    for x, row in zip(ratios.tolist(), powers):
        assert [y.hex() for y in row] == [(x ** i).hex() for i in range(12)], x

"""The evaluator's best groupings against brute force over every grouping.

The oracle scans ``ordered_groupings`` (and ``itertools.permutations`` for
the singleton-only ``jin`` bound) and keeps the dominance-feasible
orderings.  For the front sum it visits them in the DP's candidate order
(the whole rest first, then the smaller leading group, then the
lexicographically first) and picks with the tie rule the search documents:
the first grouping is the running best, and a later one replaces it only
when better by more than ``_TIE_TOL``, so a tie keeps the grouping seen
first.  J is not searched: the merged group must reach the oracle's least
J, as the paper's Lemma says.

Brute force stops at 7 qubits.  At 8 and 9, and on the ``ORACLE`` states
from 3 to 9 qubits, the front-sum search is checked against ``_FullTable``:
the bottom-up scan over every subset, zero-C^2 ones included, kept here as
the reference.  So are the split rows of ``oracles.front_column``, the
per-state search, which builds rows only for the reachable subsets with a
C^2 sum above 0.
"""

import itertools
import json
import math

import numpy as np
import pytest

import entbounds.bounds as bounds_module
from entbounds import cli
from entbounds.bounds import (
    _TIE_TOL,
    BOUNDS,
    FEAS_TOL,
    AlphaGrid,
    Grouping,
    OrderingCertificate,
    StateEvaluator,
    _grouped_sums,
    _split_table,
    canonical_grouping,
    feasibility,
    h_weight,
    ordered_groupings,
)
from entbounds.gallery import FAMILIES, ghz, named, w
from entbounds.qcore import PureState, haar_random_pure
from dp_count import DpCount
from oracles import (_apow, _front_sum, _front_weighted_sum, _geometric_sum, _jin_sum,
                     _ordered_sum, canonical_column, front_column, grid_weights, split_rows,
                     subset_sums)

ALPHAS = (0.0, 0.25, 1.0, 1.7, 2.0)

_S = 1 / math.sqrt(5)
GALLERY_PARAMS = {
    "gsd3": [(_S, _S, _S, _S, _S, 0.0), (0.6, 0.0, 0.48, 0.64, 0.0, 0.3)],
    "wclass4": [(0.75, 0.5, 0.353553390593, 0.25), (0.5, 0.5, 0.5, 0.5)],
    "ghz": [(n,) for n in range(3, 8)],
    "w": [(n,) for n in range(3, 8)],
    "thm2_saturating": [()],
    "fig3": [()],
    "cor_a": [()],
    "cor_b": [()],
}


def _states():
    assert set(GALLERY_PARAMS) == set(FAMILIES)
    for family, param_sets in GALLERY_PARAMS.items():
        for params in param_sets:
            yield f"{family}{list(params)}", named(family, params)
    for n in range(3, 8):
        for seed in range(2 if n < 7 else 1):
            yield f"haar{n}-{seed}", haar_random_pure(n, 5100 + 10 * n + seed)


STATES = list(_states())


def _pick(best, candidate, value, minimize):
    if best is None:
        return candidate, value
    better = value < best[1] - _TIE_TOL if minimize else value > best[1] + _TIE_TOL
    return (candidate, value) if better else best


def _dp_order(grouping):
    """Sort key of the DP's candidate order.  Two groupings of one partner set
    first differ at a group that splits the same rest: the whole rest (the
    last group) comes first, then the smaller group, then the
    lexicographically first."""
    return tuple((i < grouping.k - 1, len(g), g) for i, g in enumerate(grouping.groups))


def _feasible(c_sq, ca_sq):
    groupings = [(g, _grouped_sums(ca_sq, g), _grouped_sums(c_sq, g))
                 for g in ordered_groupings(tuple(ca_sq))]
    orders = [(perm, tuple(ca_sq[q] for q in perm))
              for perm in itertools.permutations(sorted(ca_sq))]
    return ([x for x in groupings if feasibility(x[1]).feasible],
            [x for x in orders if feasibility(x[1]).feasible])


def _brute(groupings, orders, alpha):
    """The least J, and front and jin as (grouping, value) pairs; jin is None
    when no order fits."""
    front = jin = None
    for g, _, c_vals in sorted(groupings, key=lambda x: _dp_order(x[0])):
        front = _pick(front, g, _front_weighted_sum(c_vals, alpha), False)
    for perm, vals in orders:
        jin = _pick(jin, perm, _jin_sum(vals, alpha), True)
    j = min(_geometric_sum(ca_vals, alpha) for _, ca_vals, _ in groupings)
    return j, front, jin


def _foci(psi):
    return range(psi.num_qubits) if psi.num_qubits <= 5 else (0, psi.num_qubits - 1)


@pytest.mark.parametrize("name,psi", STATES, ids=[s[0] for s in STATES])
def test_search_matches_brute_force(name, psi):
    ev = StateEvaluator(psi)
    for focus in _foci(psi):
        groupings, orders = _feasible(*ev.tables(focus))
        for alpha in ALPHAS:
            j, front, jin = _brute(groupings, orders, alpha)
            got_g, _, got_v = ev.j_best(focus, alpha)
            assert got_g == Grouping.merged(ev.tables(focus)[1]), (focus, alpha)
            assert abs(got_v - j) <= 1e-12, (focus, alpha)
            got_g, _, got_v = ev.front_best(focus, alpha)
            assert got_g == front[0] and abs(got_v - front[1]) <= 1e-12, (focus, alpha)
            r = ev.evaluate("jin", alpha, focus)
            assert r.applicable == (jin is not None), (focus, alpha)
            if jin is not None:
                order = tuple(g[0] for g in r.ordering.grouping.groups)
                assert order == jin[0] and abs(r.rhs - jin[1]) <= 1e-12, (focus, alpha)


@pytest.mark.parametrize("name,psi", STATES[::3], ids=[s[0] for s in STATES[::3]])
def test_feasible_groupings_equal_filtered_enumeration(name, psi):
    ev = StateEvaluator(psi)
    assert ev.feasible_groupings(0) == _feasible(*ev.tables(0))[0]


def test_search_never_enumerates(monkeypatch):
    import entbounds.bounds as bounds

    def forbidden(*args, **kwargs):
        raise AssertionError("the search must not enumerate groupings")

    monkeypatch.setattr(bounds, "ordered_groupings", forbidden)
    monkeypatch.setattr(bounds, "_partition_patterns", forbidden)
    monkeypatch.setattr(itertools, "permutations", forbidden)
    ev = StateEvaluator(haar_random_pure(6, 77))
    for tid in ("jin", "thm1", "thm2", "thm3", "cor1_thm2", "cor2_upper"):
        ev.evaluate(tid, 0.75)


class _FullTable:
    """The front-sum search over every subset: each subset's ``_split_table``
    row is filtered, and the chain DP scans every subset in ascending order,
    zero-C^2 subsets included, with the same tie rule."""

    def __init__(self, c_sq, ca_sq):
        self.partners = tuple(sorted(ca_sq))
        self.c = subset_sums([c_sq[q] for q in self.partners])
        ca = subset_sums([ca_sq[q] for q in self.partners])
        self.rows = [[(t, s ^ t) for t in subs if ca[t] >= ca[s ^ t] - FEAS_TOL]
                     for s, subs in enumerate(_split_table(len(self.partners)))]

    def _grouping(self, masks):
        return Grouping(tuple(tuple(q for i, q in enumerate(self.partners) if t >> i & 1)
                              for t in masks))

    def best(self, alpha):
        """The best grouping and its front-weighted C sum."""
        lead = [-_apow(v, alpha / 2.0) for v in self.c]
        h = h_weight(alpha)
        full = len(self.rows) - 1
        value, pick = [0.0] * (full + 1), [0] * (full + 1)
        for s in range(1, full + 1):
            best, best_t = lead[s], s
            for t, r in self.rows[s]:
                v = h * lead[t] + value[r]
                if v < best - _TIE_TOL:
                    best, best_t = v, t
            value[s], pick[s] = best, best_t
        chain, s = [], full
        while s:
            chain.append(pick[s])
            s ^= pick[s]
        return self._grouping(chain), -value[full]

    def reachable(self):
        """The subsets with a C^2 sum above 0 that the full set reaches through
        the rows of such subsets: those that get a search row."""
        seen, todo = set(), [len(self.rows) - 1]
        while todo:
            s = todo.pop()
            if s not in seen and self.c[s] != 0.0:
                seen.add(s)
                todo.extend(r for _, r in self.rows[s])
        return seen

    def groupings(self):
        def walk(s):
            for t, r in self.rows[s]:
                for tail in walk(r):
                    yield (t,) + tail
            yield (s,)

        return [self._grouping(chain) for chain in walk(len(self.rows) - 1)]


def _random_wclass(n, seed):
    """sum_i c_i |0..1_i..0> with complex Gaussian c_i."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[1 << (n - 1 - q) for q in range(n)]] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState.from_amplitudes(amps, normalize=True)


def _ghz_plus_w(n, seed):
    a, b = np.random.default_rng(seed).standard_normal(4).view(complex)
    return PureState.from_amplitudes(a * ghz(n).amplitudes + b * w(n).amplitudes,
                                     normalize=True)


def _haar3_then_zeros(n, seed):
    """A Haar 3-qubit state times |0...0>: every split of a |0> focus's partners
    is feasible."""
    zeros = np.zeros(2 ** (n - 3))
    zeros[0] = 1.0
    return PureState.from_amplitudes(np.kron(haar_random_pure(3, seed).amplitudes, zeros))


def _log_wclass(n, decades, seed):
    """sum_i c_i |0..1_i..0> with |c_i| log-uniform over ``decades`` and random phases."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[1 << (n - 1 - q) for q in range(n)]] = (10.0 ** rng.uniform(-decades, 0.0, n)
                                                    * np.exp(2j * np.pi * rng.random(n)))
    return PureState.from_amplitudes(amps, normalize=True)


LARGE = [(f"{name}{n}", make(n)) for n in (8, 9) for name, make in (
    ("haar", lambda n: haar_random_pure(n, 5300 + n)),
    ("wclass", lambda n: _random_wclass(n, 5400 + n)),
    ("ghz_w", lambda n: _ghz_plus_w(n, 5500 + n)),
    ("ghz", ghz),
    ("w", w),
    ("haar3_zeros", lambda n: _haar3_then_zeros(n, 5600 + n)))]


@pytest.mark.parametrize("name,psi", LARGE, ids=[s[0] for s in LARGE])
def test_reachable_search_matches_the_full_table(name, psi):
    n = psi.num_qubits
    ev = StateEvaluator(psi)
    for focus in range(n):
        c_sq, ca_sq = ev.tables(focus)
        ref = _FullTable(c_sq, ca_sq)
        splits = split_rows(c_sq, ca_sq)[2]
        assert splits == {s: ref.rows[s] for s in ref.reachable()}, focus
        for alpha in (0.0, 0.05, 0.25, 1.0, 1.37, 2.0):
            g = ref.best(alpha)[0]
            term = (g, OrderingCertificate(g, _grouped_sums(ca_sq, g), True),
                    _front_weighted_sum(_grouped_sums(c_sq, g), alpha))
            assert ev.front_best(focus, alpha) == term, (focus, alpha)
        if n == 8 and focus in (0, n - 1):
            assert ev.feasible_groupings(focus) == [
                (g, _grouped_sums(ca_sq, g), _grouped_sums(c_sq, g)) for g in ref.groupings()]
    if name.startswith("haar3_zeros"):  # a |0> focus has every pair C at 0
        assert split_rows(*ev.tables(n - 1))[2] == {}


def test_only_reachable_subsets_get_a_split_row():
    """Two W-class blocks: focus 0's partners in the other block have C = 0, so
    the rests made of them are leaves with no row in the per-state search.
    The chunk DP, which solves every subset, picks the same front column."""
    psi = PureState.from_amplitudes(np.kron(_random_wclass(4, 3).amplitudes,
                                            _random_wclass(4, 4).amplitudes))
    ev = StateEvaluator(psi)
    c, _, splits = split_rows(*ev.tables(0))
    full = 2 ** 7 - 1
    assert full in splits and len(splits) < 2 ** 7
    assert all(c[s] > 0.0 for s in splits)
    rests = {r for row in splits.values() for _, r in row}
    assert all(r in splits or c[r] == 0.0 for r in rests)
    assert any(c[r] == 0.0 for r in rests)
    assert list(splits) == sorted(splits)
    grid = AlphaGrid((0.0, 0.05, 0.25, 1.0, 1.37, 2.0))
    assert ev.front_best(0, grid) == front_column(*ev.tables(0), grid)


def _haar_times_qubit(n, seed):
    """A Haar (n-1)-qubit state times a Haar qubit: the last qubit is a product
    qubit, so every other focus has one partner with C = 0."""
    rng_seed = 5700 + 10 * n + seed
    return PureState.from_amplitudes(np.kron(haar_random_pure(n - 1, rng_seed).amplitudes,
                                             haar_random_pure(1, rng_seed + 1).amplitudes))


ORACLE = [(f"{name}{n}", make(n)) for n in range(3, 10) for name, make in (
    ("haar", lambda n: haar_random_pure(n, 5800 + n)),
    ("wclass", lambda n: _random_wclass(n, 5900 + n)),
    ("ghz", ghz),
    ("ghz_w", lambda n: _ghz_plus_w(n, 6000 + n)),
    ("product_qubit", lambda n: _haar_times_qubit(n, 0)),
    ("haar3_zeros", lambda n: _haar3_then_zeros(n, 6100 + n)))]
ORACLE_ALPHAS = (0.0, 0.05, 0.25, 1.0, 1.37, 2.0)


def _oracle_foci(n):
    return range(n) if n <= 6 else (0, 1, n - 1)


@pytest.mark.parametrize("name,psi", ORACLE, ids=[s[0] for s in ORACLE])
def test_chain_equals_the_full_row_dp(name, psi):
    ev = StateEvaluator(psi)
    for focus in _oracle_foci(psi.num_qubits):
        ref = _FullTable(*ev.tables(focus))
        splits = split_rows(*ev.tables(focus))[2]
        assert splits == {s: ref.rows[s] for s in ref.reachable()}, focus
        for alpha in ORACLE_ALPHAS:
            g, v = ref.best(alpha)
            got_g, _, got_v = ev.front_best(focus, alpha)
            assert got_g == g and abs(got_v - v) <= 1e-12, (focus, alpha)


def test_oracle_states_hold_every_kind_of_focus():
    """Foci whose pair C are all 0 (no row), foci with rows over zero-C^2
    leaves, and foci whose rows reach no zero-C^2 subset."""
    kinds = set()
    for _, psi in ORACLE:
        ev = StateEvaluator(psi)
        for focus in _oracle_foci(psi.num_qubits):
            c, _, splits = split_rows(*ev.tables(focus))
            leaves = any(c[r] == 0.0 for row in splits.values() for _, r in row)
            kinds.add("all" if not splits else "some" if leaves else "none")
    assert kinds == {"all", "some", "none"}


def _run(argv, capsys):
    assert cli.main(argv) == 0
    capsys.readouterr()


def _amplitude_spec(psi):
    amps = psi.amplitudes
    return json.dumps({"kind": "amplitudes", "n": psi.num_qubits,
                       "re": amps.real.tolist(), "im": amps.imag.tolist()})


@pytest.mark.parametrize("name,psi,foci", [
    ("ghz6", ghz(6), range(6)),
    ("haar8", haar_random_pure(8, 6200), (0, 1, 7)),
    ("canonical10", haar_random_pure(10, 6210), (0, 1))])
def test_zero_c_foci_run_no_dp(name, psi, foci, monkeypatch, capsys):
    """A chunk whose front foci have pair C all 0 runs no chain DP: ``verify``
    on GHZ, and a ``sweep`` chunk of 16 Haar states at 8 qubits.  Neither
    does a chunk in canonical mode (10 qubits), whatever its pair C.  A
    zero-C focus takes its merged group."""
    count = DpCount(monkeypatch)
    n = psi.num_qubits
    if name == "ghz6":
        _run(["verify", "--state", _amplitude_spec(psi), "--theorem", "all"], capsys)
    else:
        _run(["sweep", "--qubits", str(n), "--samples", "16", "--seed", "62",
              "--theorem", "all"], capsys)
    assert [foci for _, foci, _ in count.fills] == [(0, 1)]
    assert count.runs == [] and count.expected() == []
    ev = StateEvaluator(psi)
    for focus in foci:
        c_sq = ev.tables(focus)[0]
        if ev.search == "canonical":
            assert ev.front_best(focus, 1.0)[0] == canonical_grouping(ev.tables(focus)[1])
            continue
        assert not any(c_sq.values()), focus
        assert ev.front_best(focus, 1.0)[0] == Grouping.merged(sorted(c_sq)), focus
    assert count.runs == []


@pytest.mark.parametrize("psi", [ghz(6), w(12)], ids=["zero_c", "canonical"])
def test_a_front_column_that_needs_no_dp_builds_no_pass(psi, monkeypatch):
    """A lone ``front_best`` on a focus whose pair C are all 0 (GHZ-6), or in
    canonical mode (W-12, whose pair C are above 0), keeps its column with
    no ``_ChunkPass`` built and no chain DP run, over a grid and at one
    alpha, and the column is the one that a chunk pass reads.  A lone miss
    on a searched focus runs one chain DP, and builds no pass either."""
    built = []
    init = bounds_module._ChunkPass.__init__

    def counted(chunk_pass, *args, **kwargs):
        built.append(chunk_pass)
        init(chunk_pass, *args, **kwargs)

    monkeypatch.setattr(bounds_module._ChunkPass, "__init__", counted)
    count = DpCount(monkeypatch)
    grid = AlphaGrid.default()
    ev = StateEvaluator(psi)
    columns = [ev.front_best(focus, grid) for focus in (0, 1)]
    singles = [ev.front_best(focus, 0.5) for focus in (0, 1)]
    assert built == [] and count.runs == []
    chunk = bounds_module._ChunkPass((StateEvaluator(psi),), grid)
    for focus, column in zip((0, 1), columns):
        (certs,), (fronts,) = chunk._front_columns(focus)
        assert [(cert, front) for _, cert, front in column] == list(zip(certs, fronts))
    fresh = StateEvaluator(psi)
    assert singles == [fresh.front_best(focus, AlphaGrid((0.5,)))[0] for focus in (0, 1)]
    built.clear()
    searched = StateEvaluator(haar_random_pure(4, 11))  # pair C above 0 at focus 0
    searched.front_best(0, grid)
    assert built == [] and len(count.runs) == 1


def test_alpha_dependent_foci_run_one_dp_per_chunk(monkeypatch, capsys):
    """``sweep`` runs one chain DP per (chunk, grid), over the chunk's
    (state, front focus) entries whose focus has a pair C above 0 and over
    the whole grid, not one per (state, focus, alpha).  At 4 qubits each of
    three chunks (16, 16 and 3 states) searches foci 0 and 1 in one fill;
    at 5 qubits the first chunk mixes searched and zero-C entries, and the
    second is a chunk of one."""
    count = DpCount(monkeypatch)
    _run(["sweep", "--qubits", "4", "--samples", "35", "--theorem", "all"], capsys)
    assert [foci for _, foci, _ in count.fills] == [(0, 1)] * 3
    assert [len(evs) for evs, _, _ in count.fills] == [16, 16, 3]
    assert count.runs == count.expected()
    assert len(count.runs) == 3 and all(alphas == 8 for _, alphas in count.runs)
    count.clear()
    _run(["sweep", "--qubits", "5", "--samples", "17", "--theorem", "all"], capsys)
    assert [len(evs) for evs, _, _ in count.fills] == [16, 1]
    assert count.runs == count.expected()
    assert 0 < len(count.runs[0][0]) < 32  # a mixed chunk
    lone, foci, _ = count.fills[1]
    assert len(count.runs) == 1 + any(any(lone[0].tables(f)[0].values()) for f in foci)


def _front_dps_per_pass(monkeypatch, argv, capsys):
    """Run the CLI on ``argv`` and give, for each chunk pass in order,
    whether it holds a searched (state, front focus) entry, one whose focus
    has a pair C above 0 below canonical mode, and how many chain DPs it
    ran."""
    passes, dps = [], []
    columns, front_dp = bounds_module._ChunkPass.columns, bounds_module._front_dp

    def counted_columns(chunk_pass, *args):
        before = len(dps)
        out = columns(chunk_pass, *args)
        searched = any(ev.search == "exhaustive" and any(ev.tables(f)[0].values())
                       for ev in chunk_pass.evaluators for f in (0, 1))
        passes.append((searched, len(dps) - before))
        return out

    monkeypatch.setattr(bounds_module._ChunkPass, "columns", counted_columns)
    monkeypatch.setattr(bounds_module, "_front_dp",
                        lambda *args: dps.append(args) or front_dp(*args))
    _run(argv, capsys)
    return passes


@pytest.mark.parametrize("command", ["sweep4", "sweep5", "sweep6", "verify_wclass_log6"])
def test_each_pass_runs_one_front_dp(command, monkeypatch, capsys):
    """A pass searches every front focus of its chunk with one chain DP: the
    ``sweep`` chunks (16, 16 and 8 states) at 4, 5 and 6 qubits, and the
    one pass of ``verify --theorem all`` on a log-uniform W-class state of
    6 qubits, whose foci 0 and 1 are both searched.  At 6 qubits the first
    two chunks each hold a searched entry of both foci, and the third, of
    Haar states whose front foci have pair C all 0, runs no DP."""
    if command.startswith("sweep"):
        argv = ["sweep", "--qubits", command[-1], "--samples", "40", "--seed", "3",
                "--theorem", "all"]
    else:
        psi = _log_wclass(6, 6, 6300)
        assert all(any(StateEvaluator(psi).tables(f)[0].values()) for f in (0, 1))
        argv = ["verify", "--state", _amplitude_spec(psi), "--theorem", "all"]
    passes = _front_dps_per_pass(monkeypatch, argv, capsys)
    assert len(passes) == (3 if command.startswith("sweep") else 1)
    assert [dps for _, dps in passes] == [int(searched) for searched, _ in passes]
    assert any(searched for searched, _ in passes)
    if command == "sweep6":
        assert passes == [(True, 1), (True, 1), (False, 0)]
    else:
        assert all(searched for searched, _ in passes)


def test_a_chunk_of_zero_c_and_searched_foci_runs_one_dp_over_the_searched_entries(monkeypatch):
    """One 5-qubit chunk: GHZ, whose front foci have pair C all 0, a
    log-uniform W-class state, whose foci 0 and 1 are searched, and a W
    state on qubits 0, 2 and 3, whose focus 0 is searched and whose focus 1
    is a |0> qubit, with pair C all 0.  Its pass runs one chain DP over the
    three searched entries, focus 0's states before focus 1's, and the
    zero-C entries take their merged groups."""
    n = 5
    amps = np.zeros(1 << n)
    amps[[1 << (n - 1 - q) for q in (0, 2, 3)]] = (0.7, 0.5, 0.3)
    states = [ghz(n), _log_wclass(n, 6, 6301), PureState.from_amplitudes(amps, normalize=True)]
    chunk = [StateEvaluator(psi) for psi in states]
    searched = [(s, f) for f in (0, 1) for s, ev in enumerate(chunk)
                if any(ev.tables(f)[0].values())]
    assert searched == [(1, 0), (2, 0), (1, 1)]
    count = DpCount(monkeypatch)
    grid = AlphaGrid.default()
    bounds_module.fill_columns(chunk, ("thm2", "thm6", "cor1_thm2"), grid)
    assert [(len(evs), foci) for evs, foci, _ in count.fills] == [(3, (0, 1))]
    assert count.runs == count.expected() == [
        ([tuple(chunk[s].tables(f)[1].values()) for s, f in searched], len(grid))]
    for s, f in ((0, 0), (0, 1), (2, 1)):
        grouping, cert, _ = chunk[s]._merged_group(f)
        assert chunk[s].front_best(f, grid) == [(grouping, cert, 0.0)] * len(grid), (s, f)


def test_a_lone_front_bound_runs_one_dp_over_its_front_foci(monkeypatch):
    """A lone ``evaluate`` of a front bound is a pass of one state, so it
    runs one chain DP over both its front foci: thm2 on a 4-qubit Haar
    state, and cor1_thm2, whose third focus adds only J, on a 6-qubit
    log-uniform W-class state.  A lone ``front_best`` runs one over its one
    focus."""
    count = DpCount(monkeypatch)
    for tid, psi in (("thm2", haar_random_pure(4, 11)), ("cor1_thm2", _log_wclass(6, 6, 6300))):
        ev = StateEvaluator(psi)
        assert all(any(ev.tables(f)[0].values()) for f in (0, 1)), tid
        count.clear()
        ev.evaluate(tid, 0.5)
        assert [foci for _, foci, _ in count.fills] == [(0, 1)], tid
        assert count.runs == [([tuple(ev.tables(f)[1].values()) for f in (0, 1)], 1)], tid
    ev = StateEvaluator(haar_random_pure(4, 11))
    count.clear()
    ev.front_best(1, 0.5)
    assert count.fills == [([ev], (1,), 1)]
    assert count.runs == [([tuple(ev.tables(1)[1].values())], 1)]


@pytest.mark.parametrize("n", range(4, 13))
def test_zero_c_foci_take_the_merged_group_on_both_sides_of_the_size_switch(n):
    """GHZ pair C are all 0: the search (up to 9 qubits) and the canonical
    grouping (above) both give the merged group."""
    ev = StateEvaluator(ghz(n))
    merged = Grouping.merged(range(1, n))
    for alpha in (0.0, 0.05, 0.5, 1.0, 1.37, 2.0):
        assert ev.front_best(0, alpha)[0] == merged, alpha
    if n >= 10:
        assert canonical_grouping(ev.tables(0)[1]) == merged


@pytest.mark.parametrize("n", range(4, 13))
def test_the_best_front_never_falls_below_the_total(n):
    """The merged group is always feasible and its front sum is the total
    C^2 to the power alpha/2, so the best-front bounds never read below the
    total ones: rhs(thm2) >= rhs(thm3), rhs(thm6) >= rhs(thm7) and
    rhs(cor1_thm2) >= rhs(cor1_thm3), within ``_TIE_TOL``, in both search
    modes.  Log-uniform W-class states over 3 decades are where the
    descending singleton order, feasible but worse than the merged group,
    would otherwise win above 8 partners."""
    grid = AlphaGrid.default()
    for seed in range(20):
        ev = StateEvaluator(_log_wclass(n, 3, 8800 + 100 * n + seed))
        for best, total in (("thm2", "thm3"), ("thm6", "thm7"), ("cor1_thm2", "cor1_thm3")):
            if n < BOUNDS[best].min_qubits:
                continue
            high, low = ev.evaluate(best, grid).rhs, ev.evaluate(total, grid).rhs
            for a, x, y in zip(grid, high, low):
                assert x >= y - _TIE_TOL, (best, seed, a, x - y)


def _canonical_tables(seed, m=11):
    """Focus tables over partners 1..m whose descending Ca^2 singleton order
    is feasible (Ca^2 near 3^-i, jittered by at most 1.4x, in a random
    partner order), with C^2 log-uniform over 6 decades and the largest on
    partner m: the canonical grouping's front sum beats the merged group's
    on part of the grid only, or on all or none of it."""
    rng = np.random.default_rng(seed)
    ca = 3.0 ** -np.arange(m) * rng.uniform(1.0, 1.4, m)
    c = np.sort(10.0 ** rng.uniform(-6.0, 0.0, m))
    order, rest = rng.permutation(m), rng.permutation(c[:-1])
    partners = range(1, m + 1)
    return ({q: float(v) for q, v in zip(partners, [*rest, c[-1]])},
            {q: float(ca[order[i]]) for i, q in enumerate(partners)})


def _same_column(got, want):
    assert [(g, cert) for g, cert, _ in got] == [(g, cert) for g, cert, _ in want]
    assert [front.hex() for _, _, front in got] == [front.hex() for _, _, front in want]


def test_canonical_front_columns_equal_the_scalar_oracle():
    """Above 8 partners each front column equals ``oracles.canonical_column``,
    the per-alpha scalar front sums of the merged group and the canonical
    grouping: groupings and certificates by equality, fronts by
    ``float.hex``, over the default grid and at single alphas.  The states
    are injected focus tables at 12 qubits where the canonical grouping wins
    on part of the grid, the log-uniform W-class states of
    ``test_the_best_front_never_falls_below_the_total`` at 11 and 12
    qubits, GHZ-12 and Haar-12, and the columns that one 16-state
    ``fill_columns`` chunk leaves at 10 qubits."""
    grid, wins = AlphaGrid.default(), []

    def check(ev, focus):
        c_sq, ca_sq = ev.tables(focus)
        want = canonical_column(c_sq, ca_sq, grid)
        _same_column(ev.front_best(focus, grid), want)
        fresh = StateEvaluator(ev.psi)
        fresh._tables[focus] = (c_sq, ca_sq)
        for i in (0, 9, 19, 39):
            _same_column([fresh.front_best(focus, grid.values[i])], want[i:i + 1])
        wins.append(sum(g.k > 1 for g, _, _ in want))

    for seed in range(12):
        ev = StateEvaluator(w(12))
        ev._tables[0] = _canonical_tables(seed)
        check(ev, 0)
    assert any(0 < k < len(grid) for k in wins), wins
    for n in (11, 12):
        for seed in range(20):
            ev = StateEvaluator(_log_wclass(n, 3, 8800 + 100 * n + seed))
            for focus in (0, 1):
                check(ev, focus)
    for psi in (ghz(12), haar_random_pure(12, 8262)):
        ev = StateEvaluator(psi)
        for focus in (0, 1):
            check(ev, focus)
    evs = [StateEvaluator(_log_wclass(10, 3 + seed % 2 * 3, 9100 + seed)) for seed in range(16)]
    bounds_module.fill_columns(evs, ["thm2"], grid)
    for ev in evs:
        assert ev._fronts.keys() == {(0, grid.values), (1, grid.values)}
        for focus in (0, 1):
            check(ev, focus)


@pytest.mark.parametrize("call", [
    lambda ev: ev.feasible_groupings(0),
    lambda ev: ev.front_best(0, 1.0),
    lambda ev: ev.j_best(0, 1.0)], ids=["feasible_groupings", "front_best", "j_best"])
def test_a_focus_with_no_partner_is_refused(call):
    ev = StateEvaluator(PureState.from_amplitudes([1, 0]))
    with pytest.raises(ValueError, match="focus 0 has no partner qubit"):
        call(ev)


def _ghz_plus_wclass(n, seed):
    """GHZ ends of 0.5 plus a W-class part with coefficients uniform in [0, 1)."""
    amps = np.zeros(2 ** n)
    amps[[1 << (n - 1 - q) for q in range(n)]] = np.random.default_rng(seed).random(n)
    amps[0] = amps[-1] = 0.5
    return PureState.from_amplitudes(amps, normalize=True)


# ensemble -> (state maker, states per qubit count); 6 decades needs the most
# states before a chain leaves the merged group.
AGREEMENT = {
    "wclass_log6": (lambda n, seed: _log_wclass(n, 6, seed), 20),
    "wclass_log12": (lambda n, seed: _log_wclass(n, 12, seed), 8),
    "ghz_wclass": (_ghz_plus_wclass, 8),
}


@pytest.mark.parametrize("ensemble", sorted(AGREEMENT))
def test_searched_front_chains_pass_feasibility(ensemble):
    """The search and ``feasibility`` read one dominance rule: every front
    grouping that the search picks, given back as ``groupings=``, passes the
    caller's dominance check, on states whose pair values span many decades."""
    make, count = AGREEMENT[ensemble]
    split = 0
    for n in range(4, 10):
        for seed in range(count):
            ev = StateEvaluator(make(n, 6400 + 100 * n + seed))
            for alpha in AlphaGrid.default():
                best = [ev.front_best(focus, alpha)[0] for focus in (0, 1)]
                # Raises InfeasibleGroupingError on a grouping that the check refuses.
                ev.evaluate("thm2", alpha, (0, 1), best)
                split += sum(g.k > 1 for g in best)
    assert split > 0  # some chains leave the merged group, so the check bites


@pytest.mark.parametrize("psi", [ghz(6), haar_random_pure(7, 3)], ids=["ghz6", "haar7"])
def test_a_zero_c_focus_builds_no_split_work(monkeypatch, psi):
    """A focus whose pair C^2 sum is 0 takes the merged group with no DP: no
    subset sums (C^2 or Ca^2) are built, and neither the split table nor
    its index arrays are read, until ``feasible_groupings`` walks the
    focus's feasible splits, which it lists unchanged from the Ca^2 sums
    alone."""
    import entbounds.bounds as bounds

    read, summed, dps = [], [], []
    table, layers, subset_sums = bounds._split_table, bounds._split_layers, bounds._subset_sums
    front_dp = bounds._front_dp
    monkeypatch.setattr(bounds, "_split_table", lambda m: read.append(m) or table(m))
    monkeypatch.setattr(bounds, "_split_layers",
                        lambda m: read.append(("layers", m)) or layers(m))
    monkeypatch.setattr(bounds, "_subset_sums",
                        lambda values: summed.append(values.tolist()) or subset_sums(values))
    monkeypatch.setattr(bounds, "_front_dp", lambda *args: dps.append(args) or front_dp(*args))
    ev = StateEvaluator(psi)
    for alpha in (0.05, 1.0, 2.0):
        ev.evaluate("thm2", alpha)
    grid = AlphaGrid((0.0, 0.5, 2.0))
    ev.evaluate("thm2", grid)
    for focus in (0, 1):
        assert sum(ev.tables(focus)[0].values()) == 0.0
        assert ev.front_best(focus, grid) == [ev._merged_group(focus)[:2] + (0.0,)] * len(grid)
    assert read == [] and summed == [] and dps == []
    assert ev.feasible_groupings(0) == _feasible(*ev.tables(0))[0]
    assert read == [psi.num_qubits - 1] and dps == []
    assert summed == [[ev.tables(0)[1][q] for q in sorted(ev.tables(0)[1])]]  # the Ca^2 sums


def _product_state(n, seed):
    """A Haar state of min(3, n - 1) qubits times |0...0>."""
    k = min(3, n - 1)
    zeros = np.zeros(2 ** (n - k))
    zeros[0] = 1.0
    return PureState.from_amplitudes(np.kron(haar_random_pure(k, seed).amplitudes, zeros))


REBUILD = [(f"{name}{n}", make(n)) for n in range(2, 10) for name, make in (
    ("haar", lambda n: haar_random_pure(n, 6500 + n)),
    ("wclass", lambda n: _random_wclass(n, 6600 + n)),
    ("wclass_log6", lambda n: _log_wclass(n, 6, 6700 + n)),
    ("ghz_w", lambda n: _ghz_plus_w(n, 6800 + n)),
    ("product", lambda n: _product_state(n, 6900 + n)))]
REBUILD_GRIDS = (AlphaGrid((0.0, 0.05, 0.25, 1.0, 1.37, 2.0)), AlphaGrid.from_range(0.0, 2.0, 0.25))


def _hex(values):
    return [float(v).hex() for v in values]


def _same_certificate(cert, reference):
    return cert == reference and hash(cert) == hash(reference) and repr(cert) == repr(reference)


@pytest.mark.parametrize("name,psi", REBUILD, ids=[s[0] for s in REBUILD])
def test_certificates_and_front_sums_equal_a_rebuild_from_the_tables(name, psi):
    """Every certificate and front sum that the evaluator reads from sums it
    already holds (search subset sums, DP leads, the sort's certificate,
    the tables in order) equals, bit for bit, a rebuild that sums each
    grouping afresh from the focus tables: ``_grouped_sums``, then
    ``feasibility`` and ``_front_sum``, and the oracle's own ordered sums."""
    n = psi.num_qubits
    ev = StateEvaluator(psi)
    for focus in range(n) if n <= 6 else (0, 1, n - 1):
        c_sq, ca_sq = ev.tables(focus)
        for grid in REBUILD_GRIDS:
            for (g, cert, front), (p, h), alpha in zip(ev.front_best(focus, grid),
                                                       grid_weights(grid), grid):
                where = (focus, alpha, str(g))
                ca_ref, c_ref = _grouped_sums(ca_sq, g), _grouped_sums(c_sq, g)
                assert _hex(cert.squared_values) == _hex(ca_ref), where
                assert _hex(c_ref) == _hex(_ordered_sum(c_sq[q] for q in grp)
                                           for grp in g.groups), where
                assert front.hex() == _front_sum(c_ref, p, h).hex(), where
                assert front.hex() == float(_front_weighted_sum(c_ref, alpha)).hex(), where
                assert cert.grouping is g and _same_certificate(cert, feasibility(ca_ref, g)), where
        g, cert, c_sums = ev._merged_group(focus)
        assert g == Grouping.merged(ca_sq), focus
        assert _hex(c_sums) == _hex(_grouped_sums(c_sq, g)), focus
        assert _same_certificate(cert, feasibility(_grouped_sums(ca_sq, g), g)), focus
        assert _same_certificate(ev.j_best(focus, 1.0)[1], cert), focus
        jin = ev.evaluate("jin", REBUILD_GRIDS[0], (focus,))
        order = sorted(ca_sq, key=lambda q: -ca_sq[q])
        assert jin.applicable == feasibility([ca_sq[q] for q in order]).feasible, focus
        if jin.applicable:
            cert = jin.ordering[0]
            g = Grouping.singletons(order)
            assert cert.grouping == g and all(c is cert for c in jin.ordering), focus
            assert _same_certificate(cert, feasibility(_grouped_sums(ca_sq, g), g)), focus
            assert _hex(cert.squared_values) == _hex(_grouped_sums(ca_sq, g)), focus


def test_the_rebuild_states_hold_every_kind_of_front_and_jin():
    """The rebuild above sees searched chains of several groups, zero-C foci
    (no DP), and foci with and without a feasible singleton order."""
    kinds = set()
    for _, psi in REBUILD:
        n = psi.num_qubits
        ev = StateEvaluator(psi)
        for focus in range(n) if n <= 6 else (0, 1, n - 1):
            if not any(ev.tables(focus)[0].values()):
                kinds.add("zero_c")
            if any(g.k > 1 for g, _, _ in ev.front_best(focus, REBUILD_GRIDS[0])):
                kinds.add("split_chain")
            kinds.add("jin" if ev.evaluate("jin", 1.0, (focus,)).applicable else "no_jin")
    assert kinds == {"zero_c", "split_chain", "jin", "no_jin"}

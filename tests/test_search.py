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
from 3 to 9 qubits, the front-sum search, which builds rows only for the
reachable subsets with a C^2 sum above 0, is checked against
``_FullTable``: the bottom-up scan over every subset, zero-C^2 ones
included, kept here as the reference.
"""

import itertools
import math

import numpy as np
import pytest

from entbounds.bounds import (
    _TIE_TOL,
    BOUNDS,
    FEAS_TOL,
    _SplitSearch,
    AlphaGrid,
    Grouping,
    OrderingCertificate,
    StateEvaluator,
    _grouped_sums,
    _split_table,
    _subset_sums,
    canonical_grouping,
    feasibility,
    h_weight,
    ordered_groupings,
)
from entbounds.gallery import FAMILIES, ghz, named, w
from entbounds.qcore import PureState, haar_random_pure
from oracles import _apow, _front_weighted_sum, _geometric_sum, _jin_sum

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
        self.c = _subset_sums([c_sq[q] for q in self.partners])
        ca = _subset_sums([ca_sq[q] for q in self.partners])
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
        splits = _SplitSearch(*ev.tables(focus)).splits
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
        assert _SplitSearch(*ev.tables(n - 1)).splits == {}


def test_only_reachable_subsets_get_a_split_row():
    """Two W-class blocks: focus 0's partners in the other block have C = 0, so
    the rests made of them are leaves with no row."""
    psi = PureState.from_amplitudes(np.kron(_random_wclass(4, 3).amplitudes,
                                            _random_wclass(4, 4).amplitudes))
    search = _SplitSearch(*StateEvaluator(psi).tables(0))
    splits, full = search.splits, 2 ** 7 - 1
    assert full in splits and len(splits) < 2 ** 7
    assert all(search.c[s] > 0.0 for s in splits)
    rests = {r for row in splits.values() for _, r in row}
    assert all(r in splits or search.c[r] == 0.0 for r in rests)
    assert any(search.c[r] == 0.0 for r in rests)
    assert list(splits) == sorted(splits)


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
        splits = _SplitSearch(*ev.tables(focus)).splits
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
            search = _SplitSearch(*ev.tables(focus))
            leaves = any(search.c[r] == 0.0 for row in search.splits.values() for _, r in row)
            kinds.add("all" if not search.splits else "some" if leaves else "none")
    assert kinds == {"all", "some", "none"}


SWEEP_ALPHAS = tuple(0.25 * k for k in range(1, 9))


def _dp_runs(monkeypatch, psi, focus):
    """``_chain_dp`` calls while one focus's front grouping is found at 8 alphas,
    with the focus's pair C and the evaluator."""
    import entbounds.bounds as bounds

    calls = []
    real = bounds._chain_dp

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "_chain_dp", counted)
    ev = StateEvaluator(psi)
    c_sq = ev.tables(focus)[0]
    for alpha in SWEEP_ALPHAS:
        ev.front_best(focus, alpha)
    return c_sq, len(calls), ev


@pytest.mark.parametrize("name,psi,foci", [
    ("ghz6", ghz(6), range(6)),
    ("haar8", haar_random_pure(8, 6200), (0, 1, 7))])
def test_zero_c_foci_run_no_dp(name, psi, foci, monkeypatch):
    for focus in foci:
        c_sq, runs, ev = _dp_runs(monkeypatch, psi, focus)
        assert not any(c_sq.values()), focus
        assert _SplitSearch(*ev.tables(focus)).splits == {}, focus
        assert runs == 0, focus
        assert ev.front_best(focus, 1.0)[0] == Grouping.merged(sorted(c_sq)), focus


def test_alpha_dependent_foci_run_the_dp_once_per_alpha(monkeypatch):
    c_sq, runs, _ = _dp_runs(monkeypatch, _random_wclass(6, 6300), 0)
    assert all(c_sq.values())
    assert runs == len(SWEEP_ALPHAS)
    c_sq, runs, _ = _dp_runs(monkeypatch, _haar_times_qubit(6, 0), 0)
    assert any(c_sq.values()) and not all(c_sq.values())
    assert runs == len(SWEEP_ALPHAS)


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
    """A focus whose pair C^2 sum is 0 takes the merged group with no DP: its
    search builds no subset sums (C^2 or Ca^2) and reads no split table,
    until ``feasible_groupings`` walks its rows, which it lists unchanged."""
    import entbounds.bounds as bounds

    read, summed = [], []
    table, subset_sums = bounds._split_table, bounds._subset_sums
    monkeypatch.setattr(bounds, "_split_table", lambda m: read.append(m) or table(m))
    monkeypatch.setattr(bounds, "_subset_sums",
                        lambda values: summed.append(list(values)) or subset_sums(values))
    ev = StateEvaluator(psi)
    for alpha in (0.05, 1.0, 2.0):
        ev.evaluate("thm2", alpha)
    ev.evaluate("thm2", AlphaGrid((0.0, 0.5, 2.0)))
    for focus in (0, 1):
        search = _SplitSearch(*ev.tables(focus))
        assert sum(ev.tables(focus)[0].values()) == 0.0 and search.splits == {}
        assert "_ca" not in vars(search) and search.c is None
        assert search.full == 2 ** (psi.num_qubits - 1) - 1
        assert search.chain(0.5, h_weight(1.0)) == (search.full,)
    assert read == [] and summed == []
    assert ev.feasible_groupings(0) == _feasible(*ev.tables(0))[0]
    assert set(read) == {psi.num_qubits - 1}
    assert summed == [[ev.tables(0)[1][q] for q in sorted(ev.tables(0)[1])]]  # the Ca^2 sums

"""StateEvaluator computes each alpha-independent quantity once per state.

Pins the call counts of the pair and cut layers, and checks that every value
read from the evaluator's caches equals, bit for bit, what the public
single-purpose functions compute on their own; every pair matrix of a
chunk's stacked reduction equals ``reduced_density`` of its state alone, for
chunks of one qubit count or several.  The kept objects are pinned
too: one mu spectrum per pair, solved in one stack per fill (a focus's
missing pairs when ``tables`` fills lazily, a whole chunk's when ``verify``
or ``sweep`` fills up front), one search per front column, one
certified grouping per front-search chain of a column, one text per
grouping, and kept values that never hold their evaluator, from which
``evaluate`` reads J without calling ``j_best``.
"""

import dataclasses
import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest

import entbounds.bounds as bounds
import entbounds.cli as cli
import entbounds.measures as measures
import entbounds.qcore as qcore
from entbounds.bounds import (
    BOUNDS,
    THEOREM_IDS,
    Grouping,
    StateEvaluator,
    canonical_grouping,
    ckw_check,
    coa_dual_check,
    pairwise_tables,
)
from entbounds.gallery import FAMILIES, StateSpec, ghz, named, w
from entbounds.measures import (
    coa_two_qubit,
    concurrence_pure,
    concurrence_two_qubit,
    negativity_pure_schmidt,
)
from entbounds.qcore import _PAIR_NOISE_FLOOR, _RANK_CUTOFF, _YY, haar_random_pure, schmidt_rank
from dp_count import DpCount
from oracles import (_front_sum, _front_weighted_sum, _geometric_sum, _j_sum, _jin_sum,
                     front_column)

_S = 1 / math.sqrt(5)
GALLERY_PARAMS = {
    "gsd3": [(_S, _S, _S, _S, _S, 0.0), (0.6, 0.0, 0.48, 0.64, 0.0, 0.3)],
    "wclass4": [(0.75, 0.5, 0.353553390593, 0.25), (0.5, 0.5, 0.5, 0.5)],
    "ghz": [(5,)],
    "w": [(5,)],
    "thm2_saturating": [()],
    "fig3": [()],
    "cor_a": [()],
    "cor_b": [()],
}
STATES = [f(n) for n in range(2, 9) for f in (
    lambda n: haar_random_pure(n, 8100 + n), ghz, w)] + [
    named(name, params) for name in FAMILIES for params in GALLERY_PARAMS[name]]


def _evaluate_all(ev, alphas):
    for tid in THEOREM_IDS:
        if ev.psi.num_qubits >= BOUNDS[tid].min_qubits:
            for alpha in alphas:
                ev.evaluate(tid, alpha)


@pytest.mark.parametrize("n, foci, cuts", [(4, 2, 2), (6, 3, 4)])
def test_each_pair_and_cut_is_reduced_once(monkeypatch, n, foci, cuts):
    """Pairs are rows of stacked reductions and cuts are reduced one by one."""
    calls = {"pair_rows": 0, "reduce": 0, "concurrence": 0, "coa": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def stacked(parts, scratch, out=None):
        stack = qcore._reduced_densities(parts, scratch, out=out)
        calls["pair_rows"] += len(stack)
        return stack

    reduce = counted("reduce", qcore.reduced_density)
    monkeypatch.setattr(bounds, "reduced_density", reduce)
    monkeypatch.setattr(qcore, "reduced_density", reduce)
    monkeypatch.setattr(bounds, "_reduced_densities", stacked)
    monkeypatch.setattr(bounds, "concurrence_two_qubit",
                        counted("concurrence", bounds.concurrence_two_qubit))
    monkeypatch.setattr(bounds, "coa_two_qubit", counted("coa", bounds.coa_two_qubit))

    _evaluate_all(StateEvaluator(haar_random_pure(n, 77)), (0.0, 0.5, 1.0, 2.0))
    pairs = n * (n - 1) // 2 - (n - foci) * (n - foci - 1) // 2
    assert calls == {"pair_rows": pairs, "reduce": cuts, "concurrence": pairs, "coa": pairs}


@pytest.mark.parametrize("psi", STATES)
def test_cached_values_equal_the_public_functions(psi):
    n = psi.num_qubits
    ev = StateEvaluator(psi)
    for f in range(n):
        assert ev.tables(f) == pairwise_tables(psi, f)
        assert ev.evaluate("ckw", 2.0, f) == ckw_check(psi, f)
        assert ev.evaluate("coa_dual", 2.0, f) == coa_dual_check(psi, f)
    for size in range(1, min(n - 1, 3) + 1):
        for cut in itertools.combinations(range(n), size):
            assert ev.cut_concurrence(cut) == concurrence_pure(psi, cut).value
            assert ev.cut_negativity(cut) == negativity_pure_schmidt(psi, cut).value
            assert ev.cut_rank(cut) == schmidt_rank(psi, cut)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_canonical_mode_picks_the_canonical_grouping(n):
    for psi in (haar_random_pure(n, 8200 + n), ghz(n), w(n)):
        ev = StateEvaluator(psi)
        assert ev.search == "canonical"
        for f in range(3):
            ca_sq = pairwise_tables(psi, f)[1]
            for alpha in (0.0, 0.5, 2.0):
                assert ev.j_best(f, alpha)[0] == Grouping.merged(ca_sq)
                assert ev.front_best(f, alpha)[0] == canonical_grouping(ca_sq)


def _searched_runs(psi, foci, alphas=len(bounds.AlphaGrid.default())):
    """The chain DP runs that searching ``foci`` of ``psi`` alone in one
    fill makes, as ``DpCount`` keeps them: one run over the foci with a
    pair C above 0, in focus order, or none if there is no such focus."""
    ev = StateEvaluator(psi)
    searched = [tuple(ev.tables(f)[1].values()) for f in _searched(psi, foci)]
    return [(searched, alphas)] if searched else []


def _searched(psi, foci):
    """The foci that build a front search: those with a pair C above 0; a
    zero-C focus takes its merged group with no search."""
    ev = StateEvaluator(psi)
    return tuple(f for f in foci if any(ev.tables(f)[0].values()))


def test_verify_all_builds_one_search_per_front_focus_and_sorts_once(monkeypatch, capsys):
    """The search and sort work of one ``verify --theorem all``: at 6 qubits
    one chain DP over the front foci with a pair C above 0 (both foci of
    the W-class state, neither of the Haar state, which runs none) and the
    whole grid, whose columns thm2, thm6 and cor1_thm2 share, and one sort,
    jin's on focus 0.  At 12 qubits the front sum is canonical and no
    DP runs; the Haar state's front foci have pair C all 0, so they take
    their merged groups with no sort, and jin's is again the only one.  The
    geometric W-class state's front foci have pair C above 0, so each takes
    its descending singleton order: focus 0 reads jin's, sorted once, and
    focus 1 sorts its own."""
    count, sorts = DpCount(monkeypatch), []
    sort = bounds.sort_descending_then_check
    monkeypatch.setattr(bounds, "sort_descending_then_check",
                        lambda values: sorts.append(tuple(values)) or sort(values))
    # Each state, its front foci with a pair C above 0, and the foci sorted.
    for psi, searched, sorted_foci in ((_geometric_wclass(6), (0, 1), (0,)),
                                       (haar_random_pure(6, 8256), (), (0,)),
                                       (haar_random_pure(12, 8262), (), (0,)),
                                       (_geometric_wclass(12), (0, 1), (0, 1))):
        n = psi.num_qubits
        assert _searched(psi, (0, 1)) == searched
        count.clear()
        sorts.clear()
        spec = _spec(psi)
        assert cli.main(["verify", "--state", spec, "--theorem", "all"]) == 0
        capsys.readouterr()
        built = StateSpec.from_dict(json.loads(spec)).build()
        assert count.runs == count.expected(), n
        assert count.runs == (_searched_runs(built, searched) if n == 6 else []), n
        ev = StateEvaluator(built)
        assert sorts == [tuple(ev.tables(f)[1].values()) for f in sorted_foci], n


@pytest.mark.parametrize("n", [4, 6, 9])
def test_only_front_bounds_build_the_split_table(monkeypatch, n):
    front = {tid for tid, spec in BOUNDS.items() if spec.rhs == "front"}
    assert front == {"thm2", "thm6", "cor1_thm2"}
    count = DpCount(monkeypatch)
    psi = haar_random_pure(n, 8300 + n)
    ev = StateEvaluator(psi)
    for tid in sorted(set(THEOREM_IDS) - front):
        if n >= BOUNDS[tid].min_qubits:
            for alpha in (0.0, 0.5, 2.0):
                ev.evaluate(tid, alpha)
    assert count.fills == [] and count.runs == []
    searched = _searched(psi, (0, 1))
    assert searched == {4: (0, 1), 6: (), 9: ()}[n]  # zero-C foci run no DP
    for tid in sorted(front):
        if n >= BOUNDS[tid].min_qubits:
            ev = StateEvaluator(psi)
            ev.evaluate(tid, 0.5)
            assert count.runs == _searched_runs(psi, searched, 1), tid
            count.clear()


@pytest.mark.parametrize("n", range(2, 13))
def test_internal_reductions_are_not_revalidated(monkeypatch, n):
    psi = haar_random_pure(n, 8400 + n)

    def refuse(self):
        raise AssertionError(f"an internal value re-ran the {type(self).__name__} checks")

    # Nor are the pair C and Ca that the fill reads through the measures.
    monkeypatch.setattr(qcore.DensityMatrix, "__post_init__", refuse)
    monkeypatch.setattr(measures.MeasureValue, "__post_init__", refuse)
    ev = StateEvaluator(psi)
    for tid in THEOREM_IDS:
        if n >= BOUNDS[tid].min_qubits:
            ev.evaluate(tid, 0.5)
    assert ev._pairs and ev._cuts


def _spec(psi):
    amps = psi.amplitudes
    return json.dumps({"kind": "amplitudes", "n": psi.num_qubits,
                       "re": [float(x) for x in amps.real],
                       "im": [float(x) for x in amps.imag]})


@pytest.mark.parametrize("n, pairs", [(4, 5), (6, 12), (8, 18)])
def test_verify_runs_one_pair_eigensolve_per_distinct_pair(monkeypatch, capsys, n, pairs):
    # Every pair that touches a focus qubit (0..2 at n >= 6, 0..1 below),
    # solved as one (pairs, 4, 4) stack before the first bound is evaluated.
    foci = 3 if n >= 6 else 2
    assert pairs == n * (n - 1) // 2 - (n - foci) * (n - foci - 1) // 2
    eighs = []
    eigh = np.linalg.eigh

    def counted(matrix):
        eighs.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(measures.np.linalg, "eigh", counted)
    assert cli.main(["verify", "--state", _spec(haar_random_pure(n, 8500 + n)),
                     "--theorem", "all"]) == 0
    capsys.readouterr()
    assert sum(shape[0] for shape in eighs) == pairs
    assert eighs == [(pairs, 4, 4)]


def _uncached_mu(rho):
    evals, vecs = np.linalg.eigh(rho.matrix)
    evals = np.where(evals < _RANK_CUTOFF, 0.0, evals)
    root = (vecs * np.sqrt(evals)) @ vecs.conj().T
    mu = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return np.zeros(4) if np.sum(mu) < _PAIR_NOISE_FLOOR else mu


def _werner(p):
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    return qcore.DensityMatrix(2, p * np.outer(bell, bell) + (1 - p) * np.eye(4) / 4)


@pytest.mark.parametrize("coa_first", [False, True])
def test_kept_pair_spectrum_equals_the_uncached_formula(monkeypatch, coa_first):
    rhos = [_werner(p) for p in (0.0, 0.2, 1 / 3, 0.9)]
    for psi in (haar_random_pure(5, 41), w(4), ghz(3), named("fig3", ())):
        rhos += [qcore.reduced_density(psi, pair)
                 for pair in itertools.combinations(range(psi.num_qubits), 2)]
    shapes = []
    eigh = np.linalg.eigh

    def counted(matrix):
        shapes.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(measures.np.linalg, "eigh", counted)
    for rho in rhos:
        mu = _uncached_mu(rho)
        c, ca = max(0.0, mu[0] - mu[1] - mu[2] - mu[3]), float(np.sum(mu))
        if coa_first:
            assert coa_two_qubit(rho).value == ca
        assert concurrence_two_qubit(rho).value == c
        assert coa_two_qubit(rho).value == ca
        kept = measures._kept_mu(rho)["_mu"]
        assert kept is measures._kept_mu(rho)["_mu"] and not kept.flags.writeable
        assert np.array_equal(kept, mu)
    # The formula solves one 2-D matrix; the measures solve a stack of one.
    assert shapes == [(4, 4), (1, 4, 4)] * len(rhos)


def _haar3_then_zeros(n, seed):
    zeros = np.zeros(2 ** (n - 3))
    zeros[0] = 1.0
    return qcore.PureState.from_amplitudes(np.kron(haar_random_pure(3, seed).amplitudes, zeros))


def _ghz_plus_w(n, seed):
    a, b = np.random.default_rng(seed).standard_normal(4).view(complex)
    return qcore.PureState.from_amplitudes(a * ghz(n).amplitudes + b * w(n).amplitudes,
                                           normalize=True)


CHAIN_ALPHAS = (0.0, 0.05, 0.25, 1.0, 1.37, 2.0)
CHAIN_STATES = [(f"{name}{n}", make(n)) for n in range(3, 10) for name, make in (
    ("haar", lambda n: haar_random_pure(n, 8600 + n)),
    ("ghz_w", lambda n: _ghz_plus_w(n, 8700 + n)),
    ("haar3_zeros", lambda n: _haar3_then_zeros(n, 8800 + n))) if n > 3 or name != "haar3_zeros"]


@pytest.mark.parametrize("name, psi", CHAIN_STATES, ids=[s[0] for s in CHAIN_STATES])
def test_front_best_keeps_one_grouping_per_chain(name, psi):
    ev = StateEvaluator(psi)
    shared = 0
    for focus in range(psi.num_qubits):
        c_sq, ca_sq = ev.tables(focus)
        chains = {}
        for alpha in CHAIN_ALPHAS:
            g = front_column(c_sq, ca_sq, bounds.AlphaGrid((alpha,)))[0][0]
            term = (g, bounds.OrderingCertificate(g, bounds._grouped_sums(ca_sq, g), True),
                    _front_weighted_sum(bounds._grouped_sums(c_sq, g), alpha))
            best = ev.front_best(focus, alpha)
            assert best == term, (focus, alpha)
            chains.setdefault(g, []).append(best[0])
        for groupings in chains.values():
            assert all(g is groupings[0] for g in groupings)
            shared += len(groupings) - 1
    assert shared > 0  # some alphas share a chain, so the identity check bites


def test_grouping_text_is_built_once_and_equality_stays_field_based():
    g = Grouping(((3, 1), (2,), (5, 4, 0)))
    text = str(g)
    assert text == "|".join(",".join(str(q) for q in grp) for grp in g.groups) == "1,3|2|0,4,5"
    assert str(g) is text
    twin = Grouping(((1, 3), (2,), (0, 4, 5)))
    assert twin == g and hash(twin) == hash(g) and len({g, twin}) == 1
    assert str(twin) == text and twin == g and hash(twin) == hash(g)
    assert repr(g) == repr(twin) and Grouping(((1, 3), (0, 2, 4, 5))) != g


def test_the_product_qubit_pairs_read_exact_zeros():
    # Haar(3) (x) |00>: every pair with qubit 3 or 4 is a product pair, whose
    # mu values come out of the eigensolver as ~1e-16 noise, not zeros.
    psi = _haar3_then_zeros(5, 5)
    for p, q in itertools.combinations(range(5), 2):
        rho = qcore.reduced_density(psi, (p, q))
        if q >= 3:
            assert concurrence_two_qubit(rho).value == 0.0
            assert coa_two_qubit(rho).value == 0.0
        else:
            assert coa_two_qubit(rho).value > 0.1
    ev = StateEvaluator(psi)
    assert ev.tables(3) == ({0: 0.0, 1: 0.0, 2: 0.0, 4: 0.0}, {0: 0.0, 1: 0.0, 2: 0.0, 4: 0.0})
    for alpha in (0.0, 0.05, 0.5):
        thm1 = ev.evaluate("thm1", alpha, (3,))
        assert (thm1.lhs, thm1.rhs, thm1.satisfied) == (0.0, 0.0, True), alpha
        jin = ev.evaluate("jin", alpha, (3,))
        assert jin.applicable and (jin.lhs, jin.rhs) == (0.0, 0.0), alpha


def _wclass(n, seed):
    c = np.random.default_rng(seed).standard_normal(2 * n).view(complex)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[1 << (n - 1 - i) for i in range(n)]] = c
    return qcore.PureState.from_amplitudes(amps, normalize=True)


STACK_STATES = [(f"{name}{n}", make(n)) for n in range(2, 13) for name, make in (
    ("haar", lambda n: haar_random_pure(n, 8900 + n)),
    ("wclass", lambda n: _wclass(n, 9000 + n)),
    ("ghz_w", lambda n: _ghz_plus_w(n, 9100 + n)),
    ("haar3_zeros", lambda n: _haar3_then_zeros(n, 5))) if n > 2 or name != "haar3_zeros"]


@pytest.mark.parametrize("name, psi", STACK_STATES, ids=[s[0] for s in STACK_STATES])
def test_stacked_pair_spectra_equal_the_one_pair_formula(monkeypatch, name, psi):
    n = psi.num_qubits
    reduced, stacks, pending = {}, [], []

    def reduce(parts, scratch, out=None):
        # The fill writes each batch of keys into its slice of one stack, and
        # makes the stack read-only once it is filled (checked in ``keep``).
        stack = qcore._reduced_densities(parts, scratch, out=out)
        assert all(len(tensor) == 1 for tensor, _ in parts)
        assert stack.shape == (len(parts), 4, 4)
        pending.extend((pair, matrix) for (_, pair), matrix in zip(parts, stack))
        return stack

    def project(state):
        rho = qcore.to_density(state)
        pending.append(((0, 1), rho.matrix))
        return rho

    def keep(rhos, stack):
        # One rho per reduction, in reduction order, each wrapping its matrix,
        # and the stack to solve is exactly the rhos' matrices.
        stacks.append(len(rhos))
        assert len(rhos) == len(pending) and not stack.flags.writeable
        for (pair, matrix), rho in zip(pending, rhos):
            assert np.array_equal(rho.matrix, matrix) and not rho.matrix.flags.writeable
            assert rho.num_qubits == 2
            reduced[pair] = rho
        assert np.array_equal(stack, np.stack([rho.matrix for rho in rhos]))
        pending.clear()
        measures._keep_mu_values(rhos, stack)

    monkeypatch.setattr(bounds, "_reduced_densities", reduce)
    monkeypatch.setattr(bounds, "to_density", project)
    monkeypatch.setattr(bounds, "_keep_mu_values", keep)
    ev = StateEvaluator(psi)
    foci = range(min(n, 3))
    for f in foci:
        ev.tables(f)
    # Focus f stacks its pairs with the qubits that no earlier focus measured;
    # a focus whose pairs are all kept, the last one of a 2-qubit state, stacks none.
    assert stacks == [n - 1 - f for f in foci if f < n - 1]
    assert sorted(reduced) == sorted(ev._pairs)
    for pair, rho in reduced.items():
        # A fresh reduction of the same pair, solved alone as a 2-D matrix.
        alone = qcore.to_density(psi) if n == 2 else qcore.reduced_density(psi, pair)
        assert np.array_equal(rho.matrix, alone.matrix), pair
        mu = _uncached_mu(alone)
        kept = vars(rho)["_mu"]
        assert kept.shape == (4,) and not kept.flags.writeable
        assert np.array_equal(kept, mu), pair
        c, ca = max(0.0, mu[0] - mu[1] - mu[2] - mu[3]), float(np.sum(mu))
        assert (vars(rho)["_c"], vars(rho)["_ca"]) == (c, ca), pair
        assert ev._pairs[pair] == (c ** 2, ca ** 2), pair
    for f in foci:
        c_sq, ca_sq = ev.tables(f)
        assert all((c_sq[p], ca_sq[p]) == ev._pairs[(min(f, p), max(f, p))] for p in c_sq)


def test_the_noise_floor_zeroes_only_the_product_rows_of_a_stack(monkeypatch):
    # Haar(3) (x) |00>: pairs with qubit 3 or 4 are product pairs whose raw
    # mu values are ~1e-16 noise; pairs among qubits 0..2 are genuine.
    psi = _haar3_then_zeros(5, 5)
    pairs = [(0, 3), (0, 1), (1, 4), (1, 2), (3, 4)]
    rhos = [qcore.reduced_density(psi, pair) for pair in pairs]
    measures._keep_mu_values(rhos)
    for pair, rho in zip(pairs, rhos):
        kept = vars(rho)["_mu"]
        if pair[1] >= 3:
            assert np.array_equal(kept, np.zeros(4)), pair
        else:
            assert np.sum(kept) > 0.1 and np.array_equal(kept, _uncached_mu(rho)), pair

    def refuse(*args, **kwargs):
        raise AssertionError("a kept spectrum was solved again")

    # C and Ca read the one kept array; a later stack skips the solved pairs.
    monkeypatch.setattr(measures.np.linalg, "eigh", refuse)
    for rho in rhos:
        kept = vars(rho)["_mu"]
        with pytest.raises(ValueError):
            kept[0] = 1.0
        concurrence_two_qubit(rho), coa_two_qubit(rho)
        assert measures._kept_mu(rho)["_mu"] is kept
    measures._keep_mu_values(rhos)



@pytest.mark.parametrize("bad", [True, 1.0, np.float64(1.0)])
def test_a_warm_evaluator_refuses_what_a_fresh_one_refuses(bad):
    psi = w(4)
    warm = StateEvaluator(psi)
    warm.tables(1), warm.j_best(1, 1.0), warm.front_best(1, 1.0), warm.cut_concurrence((1,))
    for ev in (StateEvaluator(psi), warm):
        for call in (lambda: ev.tables(bad), lambda: ev.j_best(bad, 1.0),
                     lambda: ev.front_best(bad, 1.0)):
            with pytest.raises(ValueError, match="focus must be an integer qubit index"):
                call()
        for read in (ev.cut_concurrence, ev.cut_negativity, ev.cut_rank):
            with pytest.raises(ValueError, match="integer qubit index"):
                read((bad,))
    # Every bound has run at the default foci and at the foci that ``bad``
    # equals (1, 2, ...), so every per-focus cache is warm, yet the checks
    # still run first.
    psi = w(6)
    warm = StateEvaluator(psi)
    _evaluate_all(warm, (0.5, 1.0))
    for tid, spec in BOUNDS.items():
        warm.evaluate(tid, 1.0, tuple(range(1, 1 + spec.arity)))
    for ev in (StateEvaluator(psi), warm):
        for tid, spec in BOUNDS.items():
            with pytest.raises(ValueError, match="focus must be an integer qubit index"):
                ev.evaluate(tid, 1.0, (bad,) + tuple(range(2, 1 + spec.arity)))
            for alpha in (-0.1, 2.5, math.nan):
                with pytest.raises(ValueError, match="alpha must be in"):
                    ev.evaluate(tid, alpha)


def test_a_numpy_integer_focus_reads_the_same_values_fresh_or_warm():
    psi = w(4)
    want = StateEvaluator(psi)
    warm = StateEvaluator(psi)
    warm.tables(1), warm.j_best(1, 1.0), warm.front_best(1, 1.0), warm.cut_concurrence((1,))
    for ev in (StateEvaluator(psi), warm):
        focus = np.int64(1)
        assert ev.tables(focus) == want.tables(1)
        assert ev.j_best(focus, 1.0)[2] == want.j_best(1, 1.0)[2]
        assert ev.front_best(focus, 1.0)[2] == want.front_best(1, 1.0)[2]
        assert ev.cut_concurrence((focus,)) == want.cut_concurrence((1,))


def _product_qubit(n, seed):
    # Haar on qubits 0..n-2 and |0> on the last qubit: its pairs are noise-floor rows.
    return qcore.PureState.from_amplitudes(np.kron(haar_random_pure(n - 1, seed).amplitudes,
                                                   [1.0, 0.0]))


FILL_FAMILIES = (
    lambda n, k: haar_random_pure(n, 9200 + 20 * n + k),
    lambda n, k: _wclass(n, 9300 + 20 * n + k),
    lambda n, k: ghz(n),
    lambda n, k: _ghz_plus_w(n, 9400 + 20 * n + k),
    lambda n, k: _product_qubit(n, 9500 + 20 * n + k),
)


def _applicable(n):
    return tuple(tid for tid in THEOREM_IDS if n >= BOUNDS[tid].min_qubits)


def _keys(theorems, n):
    """The pair and cut keys that ``fill_columns`` fills for these bounds on
    n qubits: those that its layout lists."""
    layout = bounds._layout(bounds._default_bounds(tuple(theorems), n), n, ())
    return layout.pairs, layout.cuts


@pytest.mark.parametrize("size", [1, 5, cli._SWEEP_CHUNK])
@pytest.mark.parametrize("n", range(2, 13))
def test_a_chunk_fill_equals_the_lazy_fill_bit_for_bit(n, size):
    states = [FILL_FAMILIES[k % len(FILL_FAMILIES)](n, k) for k in range(size)]
    chunk = [StateEvaluator(psi) for psi in states]
    bounds.fill_spectra(chunk, *_keys(_applicable(n), n))
    for psi, ev in zip(states, chunk):
        lazy = StateEvaluator(psi)
        _evaluate_all(lazy, (0.5,))
        assert ev._pairs == lazy._pairs
        assert ev._cuts == lazy._cuts


def _record_pair_rows(monkeypatch):
    """Patch ``fill_spectra``'s stacked pair reduction to record, for each
    row, the amplitude bytes of the state it reduced, the pair and the
    matrix.  (A chunk may hold equal states, such as GHZ twice.)

    Each batch of the reduction writes its keys' rows into its slice of one
    stack, which the fill makes read-only once it is filled and then
    solves, so each matrix is recorded as the row of that stack that
    ``_keep_mu_values`` takes, after checking that it is the very row the
    reduction wrote."""
    rows, pending = [], []

    def stacked(parts, scratch, out=None):
        stack = qcore._reduced_densities(parts, scratch, out=out)
        states = [(amps.tobytes(), pair) for tensor, pair in parts for amps in tensor]
        assert len(stack) == len(states)
        for (amps, pair), matrix in zip(states, stack):
            pending.append((amps, pair, matrix))
        return stack

    def keep(rhos, stack):
        assert len(stack) == len(pending)
        for (amps, pair, written), matrix in zip(pending, stack):
            assert np.shares_memory(written, matrix) and np.array_equal(written, matrix)
            rows.append((amps, pair, matrix))
        pending.clear()
        measures._keep_mu_values(rhos, stack)

    monkeypatch.setattr(bounds, "_reduced_densities", stacked)
    monkeypatch.setattr(bounds, "_keep_mu_values", keep)
    return rows


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("size", [1, 5, cli._SWEEP_CHUNK])
@pytest.mark.parametrize("n", range(3, 13))
def test_every_chunk_pair_matrix_equals_the_one_state_reduction(monkeypatch, n, size, held):
    """Each pair of a chunk is reduced once, for the states that lack it, and
    its matrix equals ``reduced_density`` of its state alone bit for bit.
    With ``held``, some evaluators already hold some of the pairs."""
    states = [FILL_FAMILIES[k % len(FILL_FAMILIES)](n, k) for k in range(size)]
    chunk = [StateEvaluator(psi) for psi in states]
    pairs, cuts = _keys(_applicable(n), n)
    if held:
        rng = np.random.default_rng(9600 + 20 * n + size)
        for ev in chunk[::2]:
            some = [pair for pair in pairs if rng.random() < 0.5]
            bounds.fill_spectra((ev,), some, ())
    lacking = [(psi.amplitudes.tobytes(), pair) for psi, ev in zip(states, chunk)
               for pair in pairs if pair not in ev._pairs]
    rows = _record_pair_rows(monkeypatch)
    bounds.fill_spectra(chunk, pairs, cuts)
    assert sorted((amps, pair) for amps, pair, _ in rows) == sorted(lacking)
    by_amps = {psi.amplitudes.tobytes(): psi for psi in states}
    for amps, pair, matrix in rows:
        alone = qcore.reduced_density(by_amps[amps], pair).matrix
        assert matrix.shape == (4, 4) and not matrix.flags.writeable
        assert np.array_equal(matrix, alone), pair
    for psi, ev in zip(states, chunk):
        lazy = StateEvaluator(psi)
        _evaluate_all(lazy, (0.5,))
        assert ev._pairs == lazy._pairs


def test_a_mixed_size_fill_is_refused():
    """``fill_spectra`` takes states of one qubit count: a chunk of 3-, 4- and
    5-qubit states is refused before any value is kept, and a chunk of no
    states fills nothing."""
    states = [FILL_FAMILIES[k % len(FILL_FAMILIES)](n, k)
              for k in range(4) for n in (3, 4, 5)]
    pairs, cuts = _keys(_applicable(3), 3)
    assert pairs and cuts
    chunk = [StateEvaluator(psi) for psi in states]
    with pytest.raises(ValueError, match=r"one qubit count, got \[3, 4, 5\]"):
        bounds.fill_spectra(chunk, pairs, cuts)
    assert not any(ev._pairs or ev._cuts for ev in chunk)
    bounds.fill_spectra([], pairs, cuts)


def _record_batches(monkeypatch):
    """Patch ``fill_spectra``'s batched pair reduction to record each
    batch as the list of its parts' ``(states, key)``."""
    batches = []

    def batch(parts, scratch, out=None):
        batches.append([(len(tensor), key) for tensor, key in parts])
        return qcore._reduced_densities(parts, scratch, out=out)

    monkeypatch.setattr(bounds, "_reduced_densities", batch)
    return batches


@pytest.mark.parametrize("n, size", [(4, cli._SWEEP_CHUNK), (8, 1), (10, 1), (12, 1)])
def test_a_fill_reduces_its_pair_keys_in_batches_within_the_budget(monkeypatch, n, size):
    """A ``--theorem all`` fill reduces its pair keys in consecutive batches
    of whole (key, states) entries, as many keys per batch as the budget
    holds: all 18 keys of an 8-qubit state, or all 5 of a 16-state 4-qubit
    chunk, in one batch, and 2 keys per batch at 12 qubits."""
    states = [FILL_FAMILIES[k % len(FILL_FAMILIES)](n, k) for k in range(size)]
    pairs, cuts = _keys(cli._parse_theorems("all", n), n)
    batches = _record_batches(monkeypatch)
    bounds.fill_spectra([StateEvaluator(psi) for psi in states], pairs, cuts)
    per_batch = max(1, bounds._BATCH_BYTES // (size * 16 << n))
    assert [key for batch in batches for _, key in batch] == list(pairs)
    assert all(states == size for batch in batches for states, _ in batch)
    assert [len(batch) for batch in batches] == [
        min(per_batch, len(pairs) - i) for i in range(0, len(pairs), per_batch)]
    assert len(batches) == {4: 1, 8: 1, 10: 3, 12: 15}[n]
    assert len(batches) == -(-len(pairs) // per_batch)


def test_a_held_pair_batches_only_the_states_that_lack_it(monkeypatch):
    """An entry is a key and the states that lack it; a batch takes whole
    entries while their copies fit the budget, and at least one entry."""
    n = 12
    states = [FILL_FAMILIES[k % len(FILL_FAMILIES)](n, k) for k in range(3)]
    chunk = [StateEvaluator(psi) for psi in states]
    pairs = _keys(cli._parse_theorems("all", n), n)[0][:4]
    bounds.fill_spectra(chunk[:2], pairs[:1], ())
    bounds.fill_spectra(chunk[1:], pairs[1:2], ())
    batches = _record_batches(monkeypatch)
    bounds.fill_spectra(chunk, pairs, ())
    # A 12-qubit state's copy takes 64 KiB, so the budget holds 2 states:
    # the two one-state entries share a batch, and each three-state entry,
    # over the budget, takes a batch of its own.
    assert bounds._BATCH_BYTES // (16 << n) == 2
    assert batches == [[(1, pairs[0]), (1, pairs[1])], [(3, pairs[2])], [(3, pairs[3])]]
    for psi, ev in zip(states, chunk):
        alone = StateEvaluator(psi)
        bounds.fill_spectra((alone,), pairs, ())
        assert ev._pairs == alone._pairs


@pytest.mark.parametrize("n, size", [(4, 1), (4, cli._SWEEP_CHUNK), (6, 5), (8, 1), (12, 1)])
def test_the_two_qubit_cut_is_read_from_the_pair_stack(monkeypatch, n, size):
    """A cut that is a pair key filled by the same call, the (0, 1) cut of
    every ``--theorem all`` fill, is reduced once, as a pair: a 16-state
    4-qubit chunk calls ``reduced_density`` 16 times, for its (0,) cut, not
    32.  Its C, N and Schmidt rank equal the public functions' bit for bit."""
    states = [FILL_FAMILIES[k % len(FILL_FAMILIES)](n, k) for k in range(size)]
    pairs, cuts = _keys(cli._parse_theorems("all", n), n)
    assert (0, 1) in pairs and (0, 1) in cuts
    reduced = []

    def reduce(psi, keep):
        reduced.append(keep)
        return qcore.reduced_density(psi, keep)

    monkeypatch.setattr(bounds, "reduced_density", reduce)
    chunk = [StateEvaluator(psi) for psi in states]
    bounds.fill_spectra(chunk, pairs, cuts)
    assert sorted(reduced) == sorted(cut for cut in cuts if cut != (0, 1) for _ in states)
    if n == 4:
        assert len(reduced) == size
    monkeypatch.undo()
    for psi, ev in zip(states, chunk):
        c, neg, rank = ev._cuts[(0, 1)]
        assert c.hex() == concurrence_pure(psi, (0, 1)).value.hex()
        assert neg.hex() == negativity_pure_schmidt(psi, (0, 1)).value.hex()
        assert rank == schmidt_rank(psi, (0, 1)) and type(rank) is int


@pytest.mark.parametrize("n", [2, 4, 6])
def test_after_the_fill_evaluate_reduces_nothing(monkeypatch, n):
    chunk = [StateEvaluator(make(n, k)) for k, make in enumerate(FILL_FAMILIES)]
    bounds.fill_spectra(chunk, *_keys(_applicable(n), n))

    def refuse(*args):
        raise AssertionError("a pair or cut was reduced after the fill")

    for module in (bounds, qcore):
        monkeypatch.setattr(module, "reduced_density", refuse)
        monkeypatch.setattr(module, "_reduced_densities", refuse)
    monkeypatch.setattr(bounds, "to_density", refuse)
    for ev in chunk:
        _evaluate_all(ev, (0.0, 0.5, 1.0, 2.0))


@pytest.mark.parametrize("n", range(2, 13))
def test_an_evaluator_is_freed_without_the_cycle_collector(n):
    """No kept certificate or column holds its evaluator, so a sweep releases
    each one when it is dropped, not when the cycle collector next runs."""
    psi = haar_random_pure(n, 9700 + n)
    theorems = cli._parse_theorems("all", n)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for caller in (False, True):
            ev = StateEvaluator(psi)
            for tid in theorems:
                groupings = None
                if caller and tid == "jin":
                    groupings = [bounds._descending_singletons(ev.tables(0)[1])]
                    if groupings[0] is None:
                        continue  # no feasible singleton order to pass
                elif caller:
                    groupings = [Grouping.merged(q for q in range(n) if q != f)
                                 for f in BOUNDS[tid].foci]
                for alpha in (0.5, 2.0):
                    ev.evaluate(tid, alpha, None, groupings)
            j_foci = {f for tid in theorems if BOUNDS[tid].rhs not in ("pair_sum", "jin")
                      for f in BOUNDS[tid].foci}
            assert set(ev._merged) == (set() if caller else j_foci)
            assert bool(ev._fronts) == (not caller and "thm2" in theorems)
            ref = weakref.ref(ev)
            del ev
            assert ref() is None, caller
    finally:
        if collecting:
            gc.enable()


def test_the_layout_keys_are_derived_once_per_bounds_and_qubits():
    for n in range(2, 13):
        for theorems in (cli._parse_theorems("all", n), ("thm1",), THEOREM_IDS,
                         ("cor2_lower", "ckw")):
            laid_out = bounds._default_bounds(theorems, n)
            fresh = bounds._layout.__wrapped__(laid_out, n, ())
            kept = bounds._layout(laid_out, n, ())
            assert (kept.pairs, kept.cuts) == (fresh.pairs, fresh.cuts)
            assert bounds._layout(laid_out, n, ()) is kept


def test_the_layout_keys_follow_the_bound_rows():
    assert _keys(("thm1",), 4) == (((0, 1), (0, 2), (0, 3)), ((0,),))
    pairs, cuts = _keys(("ckw", "thm2", "cor2_lower"), 6)
    assert pairs == tuple(itertools.chain(
        ((0, q) for q in range(1, 6)), ((1, q) for q in range(2, 6)), ((2, q) for q in range(3, 6))))
    assert cuts == ((0,), (0, 1), (0, 1, 2), (2,))
    assert _keys((), 5) == ((), ())
    # A lone call's foci in any order read the sorted cuts.
    layout = bounds._layout((("cor2_lower", (2, 1, 0)),), 4, ())
    assert layout.cuts == ((0, 1, 2), (0,), (1, 2))
    assert layout.pairs == ((0, 2), (1, 2), (2, 3), (0, 1), (1, 3), (0, 3))


@pytest.mark.parametrize("n, size", [(2, 5), (4, cli._SWEEP_CHUNK), (6, 5), (8, 1), (12, 1)])
def test_fill_columns_fills_its_layout_keys_in_one_call(monkeypatch, n, size):
    """``fill_columns`` on a fresh chunk makes one ``fill_spectra`` call, of
    the keys that its layout lists; neither its pass nor ``evaluate``
    then fills a miss."""
    chunk = [StateEvaluator(FILL_FAMILIES[k % len(FILL_FAMILIES)](n, k)) for k in range(size)]
    theorems = cli._parse_theorems("all", n)
    calls, fill = [], bounds.fill_spectra

    def record(evaluators, pairs, cuts):
        calls.append((list(evaluators), pairs, cuts))
        fill(evaluators, pairs, cuts)

    monkeypatch.setattr(bounds, "fill_spectra", record)
    grid = bounds.AlphaGrid((0.5, 1.0, 2.0))
    bounds.fill_columns(chunk, theorems, grid)
    for ev in chunk:
        for tid in theorems:
            ev.evaluate(tid, grid)
    assert calls == [(chunk, *_keys(theorems, n))]
    assert all(set(ev._pairs) == set(calls[0][1]) and set(ev._cuts) == set(calls[0][2])
               for ev in chunk)


@pytest.mark.parametrize("k", range(1, 12))
def test_j_sum_equals_the_geometric_sum_bit_for_bit(k):
    """The two kernels against the reference formulas of ``oracles``:
    ``_j_sum`` at ratio h is the geometric sum J and at ratio alpha/2 the
    jin sum, and ``_front_sum`` is the front-weighted sum."""
    rng = np.random.default_rng(9900 + k)
    value_sets = [tuple(rng.random(k) * 10.0 ** -rng.integers(0, 12, k)) for _ in range(20)]
    value_sets += [(0.0,) * k, tuple(0.0 if i % 2 else v for i, v in enumerate(value_sets[0])),
                   tuple(sorted(value_sets[1], reverse=True))]
    for alpha in (0.0, *bounds.AlphaGrid.default(), 2.0):
        p, h = alpha / 2.0, bounds.h_weight(alpha)
        for values in value_sets:
            where = (values, alpha)
            assert _j_sum(values, p, h).hex() == \
                float(_geometric_sum(values, alpha)).hex(), where
            assert _j_sum(values, p, p).hex() == float(_jin_sum(values, alpha)).hex(), where
            assert _front_sum(values, p, h).hex() == \
                float(_front_weighted_sum(values, alpha)).hex(), where


def test_every_sum_adds_left_to_right_on_every_python():
    """Adding 1.0, 1e-16 and 1e-16 in order stays at 1.0, while a compensated
    sum, as built-in ``sum`` of floats is from Python 3.12 on, rounds up to
    the next float.  Every kernel adds in order, so its bits do not depend on
    the Python version."""
    values = (1.0, 1e-16, 1e-16)
    in_order = (1.0 + 1e-16) + 1e-16
    assert in_order.hex() == "0x1.0000000000000p+0" and math.fsum(values) > in_order
    assert bounds._sum_in_order(values).hex() == in_order.hex()
    table = dict(zip((1, 2, 3), values))
    assert [x.hex() for x in bounds._grouped_sums(table, Grouping.merged(table))] == \
        [in_order.hex()]
    # At p = 1 with weight 1 every term is its value, and the front sum's
    # last term, here 0.0, is added after the others.
    assert _j_sum(values, 1.0, 1.0).hex() == in_order.hex()
    assert _front_sum(values + (0.0,), 1.0, 1.0).hex() == in_order.hex()


def test_grouped_sums_equal_the_subset_sums_at_their_masks():
    """A grouping's sums equal the search's subset sums at its groups' masks,
    bit for bit, so the chain DP ranks the sums that the certificate reports."""
    rng = np.random.default_rng(9950)
    for m in range(1, 9):
        partners = tuple(range(1, m + 1))
        for _ in range(30):
            values = (rng.random(m) * 10.0 ** -rng.integers(0, 12, m)).tolist()
            sums = bounds._subset_sums(np.array(values)).tolist()
            order = rng.permutation(partners).tolist()
            cuts = sorted(rng.choice(range(1, m), rng.integers(0, m), replace=False).tolist())
            g = Grouping(tuple(tuple(order[i:j]) for i, j in zip([0] + cuts, cuts + [m])))
            masks = [sum(1 << partners.index(q) for q in group) for group in g.groups]
            assert [x.hex() for x in bounds._grouped_sums(dict(zip(partners, values)), g)] == \
                [sums[t].hex() for t in masks], (values, g)


@pytest.mark.parametrize("n", [6, 10])
def test_evaluate_reads_j_off_its_rows_and_searches_only_front_rows(n, monkeypatch):
    """J is read off the kept merged group: ``evaluate`` never asks
    ``j_best``, and asks ``front_best`` once per focus of a best-grouping
    front bound only."""
    front_calls = []
    front_best = StateEvaluator.front_best

    def no_j_best(self, focus, alpha):
        raise AssertionError("evaluate must not call j_best")

    def counted_front_best(self, focus, alpha):
        front_calls.append(focus)
        return front_best(self, focus, alpha)

    monkeypatch.setattr(StateEvaluator, "j_best", no_j_best)
    monkeypatch.setattr(StateEvaluator, "front_best", counted_front_best)
    amps = np.zeros(2 ** n)
    for k in range(n):  # l_k^2 proportional to 3^-k: jin's singleton order is feasible
        amps[1 << (n - 1 - k)] = 3.0 ** (-k / 2)
    ev = StateEvaluator(qcore.PureState(n, amps / np.linalg.norm(amps)))
    for warm in (False, True):
        for tid, spec in BOUNDS.items():
            merged = [Grouping.merged(q for q in range(n) if q != f) for f in spec.foci]
            for groupings in (None, merged):
                if groupings is not None and spec.rhs == "jin":
                    groupings = [bounds._descending_singletons(ev.tables(0)[1])]
                for alpha in (0.5, 1.5):
                    front_calls.clear()
                    ev.evaluate(tid, alpha, None, groupings)
                    searched = spec.rhs == "front" and groupings is None
                    assert front_calls == (list(spec.foci[:2]) if searched else []), \
                        (tid, warm, groupings)
    assert set(ev._merged) == {0, 1, 2}
    assert {focus for focus, _ in ev._fronts} == {0, 1}


def _geometric_wclass(n):
    """sum_k l_k |0..1_k..0> with l_k^2 proportional to 3^-k: every pair C is
    above 0 and jin's singleton order is feasible."""
    amps = np.zeros(2 ** n)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 3.0 ** (-k / 2)
    return qcore.PureState(n, amps / np.linalg.norm(amps))


def _ghz_plus_wclass(n, seed):
    """GHZ ends of 0.5 plus a W-class part with coefficients uniform in [0, 1):
    the front search leaves the merged group at some alphas."""
    amps = np.zeros(2 ** n)
    amps[[1 << (n - 1 - q) for q in range(n)]] = np.random.default_rng(seed).random(n)
    amps[0] = amps[-1] = 0.5
    return qcore.PureState.from_amplitudes(amps, normalize=True)


def test_a_feasible_certificate_is_an_ordinary_frozen_certificate():
    """The certificates built without the dataclass's per-field set-up (the
    merged group, each searched chain, jin's order) equal, hash and print as
    ``OrderingCertificate(...)`` does, and setting or deleting a field
    still raises."""
    ev = StateEvaluator(_ghz_plus_wclass(6, 8402))
    chains = [cert for _, cert, _ in ev.front_best(0, bounds.AlphaGrid.default())]
    jin = StateEvaluator(_geometric_wclass(6)).evaluate("jin", 1.0).ordering
    assert {cert.grouping.k for cert in chains} == {1, 2} and jin.grouping.k == 5
    certs = [bounds._feasible_certificate(Grouping(((1, 2), (3,))), (0.5, 0.25)),
             ev._merged_group(0)[1], jin, *chains]
    for cert in certs:
        ref = bounds.OrderingCertificate(cert.grouping, cert.squared_values, True)
        assert type(cert) is bounds.OrderingCertificate and vars(cert) == vars(ref)
        assert cert == ref and hash(cert) == hash(ref) and repr(cert) == repr(ref)
        for field in ("grouping", "squared_values", "feasible"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, field, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(cert, field)


def test_reversed_foci_read_the_sorted_cut(monkeypatch):
    """``_cut`` tries the tuple it is given, then its sorted key: foci in any
    order read the one kept cut, fill each cut once, and never keep an
    unsorted key."""
    grid = bounds.AlphaGrid((0.0, 0.5, 1.37, 2.0))
    psi = haar_random_pure(6, 8450)
    cols = StateEvaluator(psi).evaluate("thm2", grid, foci=(0, 1))
    fills, fill = [], bounds.fill_spectra
    monkeypatch.setattr(bounds, "fill_spectra",
                        lambda evs, pairs, cuts: fills.extend(cuts) or fill(evs, pairs, cuts))
    ev = StateEvaluator(psi)
    reversed_cols = ev.evaluate("thm2", grid, foci=(1, 0))
    assert list(ev._cuts) == [(0, 1)]
    c = ev.cut_concurrence((0, 1))
    assert [x.hex() for x in reversed_cols.lhs] == [(c ** a).hex() for a in grid]
    assert [x.hex() for x in reversed_cols.rhs] == [x.hex() for x in cols.rhs]
    ev.evaluate("cor2_lower", grid, foci=(2, 1, 0))  # center cuts (0,) and (2, 1)
    kept = set(ev._cuts)
    assert kept == {(0, 1), (0, 1, 2), (1, 2), (0,)}
    assert sorted(fills) == sorted(kept)
    fills.clear()
    for foci in ((1, 0), (0, 1)):
        ev.evaluate("thm6", grid, foci=foci)
    for foci in ((2, 1, 0), (1, 2, 0)):  # center 0, others {1, 2}
        ev.evaluate("cor2_lower", 0.5, foci=foci)
    assert fills == [] and set(ev._cuts) == kept
    assert all(key == tuple(sorted(key)) for key in ev._cuts)


def test_a_bound_row_builds_its_default_foci_once():
    for spec in BOUNDS.values():
        assert spec.foci is spec.foci and spec.foci == tuple(range(spec.arity))
        twin = bounds.BoundSpec(spec.direction, spec.arity, spec.min_qubits, spec.cut,
                                spec.rhs, spec.center)
        assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)


@pytest.mark.parametrize("name,psi,summed", [
    ("ghz_wclass6", _ghz_plus_wclass(6, 8402), 0),
    ("ghz_wclass9", _ghz_plus_wclass(9, 8402), 0),
    ("wclass6", _geometric_wclass(6), 0),
    ("ghz6", ghz(6), 0),
    ("wclass12", _geometric_wclass(12), 0)])
def test_verify_sums_no_grouping_twice(monkeypatch, capsys, name, psi, summed):
    """The grouping sums of one ``verify --theorem all``.  Where every front
    focus has pair C above 0, no grouping is summed by ``_grouped_sums``:
    the merged group adds the tables, jin takes the sort's certificate, and
    each searched column certifies each distinct chain once from the search's
    subset sums.  A zero-C front focus (GHZ) takes its kept merged group.
    A canonical column (12 qubits) reads the descending singletons'
    certificate that jin reads and each singleton's C^2 off the tables, so
    it sums no grouping either."""
    fresh, grid = StateEvaluator(psi), bounds.AlphaGrid.default()
    chains = [len({g for g, _, _ in fresh.front_best(f, grid)}) for f in (0, 1)
              if fresh.search == "exhaustive" and any(fresh.tables(f)[0].values())]
    sums, certified = [], []
    grouped_sums, certificate = bounds._grouped_sums, bounds._chain_certificate
    monkeypatch.setattr(bounds, "_grouped_sums",
                        lambda pair_sq, g: sums.append(g) or grouped_sums(pair_sq, g))
    monkeypatch.setattr(bounds, "_chain_certificate",
                        lambda *args: certified.append(args[1]) or certificate(*args))
    amps = psi.amplitudes
    spec = json.dumps({"kind": "amplitudes", "n": psi.num_qubits,
                       "re": amps.real.tolist(), "im": amps.imag.tolist()})
    assert cli.main(["verify", "--state", spec, "--theorem", "all"]) == 0
    capsys.readouterr()
    assert len(sums) == summed, name
    assert len(certified) == sum(chains), name
    assert (sum(chains) > 2) == name.startswith("ghz_wclass"), chains

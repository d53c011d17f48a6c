"""StateEvaluator computes each alpha-independent quantity once per state.

Pins the call counts of the pair and cut layers, and checks that every value
read from the evaluator's caches equals, bit for bit, what the public
single-purpose functions compute on their own.
"""

import itertools
import math

import pytest

import entbounds.bounds as bounds
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
from entbounds.gallery import FAMILIES, ghz, named, w
from entbounds.measures import concurrence_pure, negativity_pure_schmidt
from entbounds.qcore import haar_random_pure, schmidt_rank

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
    calls = {"reduce": 0, "concurrence": 0, "coa": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    reduce = counted("reduce", qcore.reduced_density)
    monkeypatch.setattr(bounds, "reduced_density", reduce)
    monkeypatch.setattr(qcore, "reduced_density", reduce)
    monkeypatch.setattr(bounds, "concurrence_two_qubit",
                        counted("concurrence", bounds.concurrence_two_qubit))
    monkeypatch.setattr(bounds, "coa_two_qubit", counted("coa", bounds.coa_two_qubit))

    _evaluate_all(StateEvaluator(haar_random_pure(n, 77)), (0.0, 0.5, 1.0, 2.0))
    pairs = n * (n - 1) // 2 - (n - foci) * (n - foci - 1) // 2
    assert calls == {"reduce": pairs + cuts, "concurrence": pairs, "coa": pairs}


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


def test_jin_sorts_once_per_focus(monkeypatch):
    sorts = []
    sort = bounds.sort_descending_then_check

    def counted(values):
        sorts.append(tuple(values))
        return sort(values)

    monkeypatch.setattr(bounds, "sort_descending_then_check", counted)
    ev = StateEvaluator(haar_random_pure(6, 31))
    for _ in range(5):
        for f in (0, 3):
            for alpha in (0.5, 1.0):
                ev.evaluate("jin", alpha, f)
    assert sorts == [tuple(ev.tables(f)[1].values()) for f in (0, 3)]
    assert ev._splits == {}


@pytest.mark.parametrize("n", [4, 6, 9])
def test_only_front_bounds_build_the_split_table(n):
    front = {tid for tid, spec in BOUNDS.items() if spec.rhs == "front"}
    assert front == {"thm2", "thm6", "cor1_thm2"}
    psi = haar_random_pure(n, 8300 + n)
    ev = StateEvaluator(psi)
    for tid in sorted(set(THEOREM_IDS) - front):
        if n >= BOUNDS[tid].min_qubits:
            for alpha in (0.0, 0.5, 2.0):
                ev.evaluate(tid, alpha)
    assert ev._splits == {}
    for tid in sorted(front):
        if n >= BOUNDS[tid].min_qubits:
            ev = StateEvaluator(psi)
            ev.evaluate(tid, 0.5)
            assert set(ev._splits) == {0, 1}


@pytest.mark.parametrize("n", range(2, 13))
def test_internal_reductions_are_not_revalidated(monkeypatch, n):
    psi = haar_random_pure(n, 8400 + n)

    def refuse(self):
        raise AssertionError("an internal reduction re-ran the DensityMatrix checks")

    monkeypatch.setattr(qcore.DensityMatrix, "__post_init__", refuse)
    ev = StateEvaluator(psi)
    for tid in THEOREM_IDS:
        if n >= BOUNDS[tid].min_qubits:
            ev.evaluate(tid, 0.5)
    assert ev._pairs and ev._cuts

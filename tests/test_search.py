"""The evaluator's best groupings against brute force over every grouping.

The oracle scans ``ordered_groupings`` (and ``itertools.permutations`` for
the singleton-only ``jin`` bound), keeps the dominance-feasible orderings and
picks with the tie rule the front-sum search documents: values within
``_TIE_TOL`` tie, a tie keeps more groups, then the first ordering seen.  J
is not searched: the merged group must reach the oracle's least J, as the
paper's Lemma says.
"""

import itertools
import math

import pytest

from entbounds.bounds import (
    _TIE_TOL,
    Grouping,
    StateEvaluator,
    _front_weighted_sum,
    _geometric_sum,
    _grouped_sums,
    _jin_sum,
    feasibility,
    ordered_groupings,
)
from entbounds.gallery import FAMILIES, named
from entbounds.qcore import haar_random_pure

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


def _pick(best, candidate, value, k, minimize):
    if best is None:
        return candidate, value, k
    _, best_val, best_k = best
    better = value < best_val - _TIE_TOL if minimize else value > best_val + _TIE_TOL
    if better or (abs(value - best_val) <= _TIE_TOL and k > best_k):
        return candidate, value, k
    return best


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
    for g, _, c_vals in groupings:
        front = _pick(front, g, _front_weighted_sum(c_vals, alpha), g.k, False)
    for perm, vals in orders:
        jin = _pick(jin, perm, _jin_sum(vals, alpha), len(perm), True)
    j = min(_geometric_sum(ca_vals, alpha) for _, ca_vals, _ in groupings)
    return j, front[:2], (jin[:2] if jin else None)


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

import dataclasses
import itertools
import math
import pathlib
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entbounds.bounds as bounds_module
from entbounds.bounds import (
    BOUNDS,
    AlphaGrid,
    BoundReport,
    Grouping,
    InfeasibleGroupingError,
    StateEvaluator,
    canonical_grouping,
    ckw_check,
    coa_dual_check,
    cor1_lower,
    cor2_bounds,
    feasibility,
    h_weight,
    jin_upper,
    lemma_check,
    optimize_grouping,
    ordered_groupings,
    pairwise_tables,
    sort_descending_then_check,
    thm1_upper,
    thm2_lower,
    thm3_lower,
    thm4_upper,
    thm5_upper,
    thm6_lower,
    thm7_lower,
    thm8_upper,
)
from entbounds.gallery import cor_a, cor_b, fig3, ghz, gsd3, thm2_saturating, w, wclass4
from entbounds.measures import coa_two_qubit, concurrence_pure
from entbounds.qcore import PureState, haar_random_pure, reduced_density
from dp_count import DpCount
from oracles import _front_weighted_sum, _ordered_sum, grid_weights

EV5 = 1 / math.sqrt(5)
EX1 = gsd3(EV5, EV5, EV5, EV5, EV5)
H = h_weight

PRODUCT4 = PureState(4, np.eye(16)[0])
PRODUCT6 = PureState(6, np.eye(64)[0])


# ---------------------------------------------------------------------------
# scalar machinery
# ---------------------------------------------------------------------------

def test_h_weight_values():
    assert h_weight(2.0) == 1.0
    assert h_weight(0.0) == 0.0
    assert abs(h_weight(1.0) - (math.sqrt(2) - 1)) < 1e-12
    with pytest.raises(ValueError):
        h_weight(2.5)
    with pytest.raises(ValueError):
        h_weight(-0.1)


def test_h_weight_below_half_alpha():
    alphas = np.linspace(0.0, 2.0, 201)
    assert np.all(2.0 ** (alphas / 2.0) - 1.0 <= alphas / 2.0 + 1e-12)


def test_lemma_check_reference_points():
    assert lemma_check(1.0, 0.0, 0.5) == (True, True)
    assert lemma_check(1.0, 1.0, 0.7) == (True, True)
    with pytest.raises(ValueError):
        lemma_check(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        lemma_check(1.0, 0.5, 1.5)


@pytest.mark.parametrize("x,y,alpha", [
    (math.nan, 0.0, 0.5), (1.0, math.nan, 0.5), (math.inf, 0.0, 0.5), (math.inf, math.inf, 0.5),
    (0.0, -math.inf, 0.5), (-math.inf, -math.inf, 0.5), (1.0, 0.5, math.nan), (1.0, 0.5, math.inf)])
def test_lemma_check_refuses_non_finite_input(x, y, alpha):
    with pytest.raises(ValueError, match="requires"):
        lemma_check(x, y, alpha)


@given(st.floats(0.0, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_lemma_check_holds_everywhere(x, frac, alpha):
    y = x * frac
    assert lemma_check(x, y, alpha) == (True, True)


def test_power_expansion_inequalities():
    # (1+t)^x <= 1 + (2^x - 1) t^x on t in [0, 1] and the reverse on t >= 1.
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.0, 20_000)
    x = rng.uniform(0.0, 1.0, 20_000)
    lhs = (1.0 + t) ** x
    rhs = 1.0 + (2.0 ** x - 1.0) * t ** x
    assert np.all(lhs <= rhs + 1e-12)
    t_big = rng.uniform(1.0, 1000.0, 20_000)
    lhs = (1.0 + t_big) ** x
    rhs = 1.0 + (2.0 ** x - 1.0) * t_big ** x
    assert np.all(lhs >= rhs - 1e-12)


def test_geometric_weight_below_jin_weight_power():
    rng = np.random.default_rng(8)
    alpha = rng.uniform(0.0, 2.0, 100_000)
    i = rng.integers(1, 9, 100_000)
    h = 2.0 ** (alpha / 2.0) - 1.0
    assert np.all(h ** (i - 1) <= (alpha / 2.0) ** (i - 1) + 1e-12)


# ---------------------------------------------------------------------------
# feasibility and groupings
# ---------------------------------------------------------------------------

def test_feasibility_reference_cases():
    assert feasibility([1.0]).feasible
    assert feasibility([36 / 64, 18 / 64, 9 / 64]).feasible
    assert not feasibility([1.0, 1.0, 1.0]).feasible
    assert feasibility([2.0, 1.0]).feasible
    for perm in itertools.permutations([1.0, 1.0, 1.0]):
        assert not feasibility(perm).feasible


@pytest.mark.parametrize("values", [
    (math.nan,), (math.inf, 1.0), (1.0, math.inf), (1.0, -math.inf), (0.5, math.nan, 0.1)])
def test_feasibility_refuses_non_finite_values(values):
    for check in (feasibility, sort_descending_then_check):
        with pytest.raises(ValueError, match="non-negative"):
            check(values)
    ca_sq = dict(enumerate(values, start=1))
    with pytest.raises(ValueError, match="non-negative"):
        bounds_module._descending_singletons(ca_sq)


def test_sort_descending_then_check():
    order, cert = sort_descending_then_check([0.1, 0.5, 0.2])
    assert order == (1, 2, 0)
    assert cert.squared_values == (0.5, 0.2, 0.1)
    assert cert.feasible
    order, _ = sort_descending_then_check([0.3, 0.3])
    assert order == (0, 1)  # stable ties


@settings(max_examples=200)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5))
def test_descending_order_is_optimal_for_feasibility(values):
    # If any permutation satisfies the dominance precondition, the
    # descending one does.
    _, cert = sort_descending_then_check(values)
    any_feasible = any(feasibility(p).feasible
                       for p in itertools.permutations(values))
    assert cert.feasible == any_feasible


def test_grouping_validation():
    g = Grouping(((2, 1), (3,)))
    assert g.groups == ((1, 2), (3,))
    assert g.k == 2
    assert g.members() == {1, 2, 3}
    with pytest.raises(ValueError):
        Grouping(((1,), (1, 2)))
    with pytest.raises(ValueError):
        Grouping(((),))
    with pytest.raises(ValueError):
        Grouping(())


def test_ordered_groupings_counts():
    # ordered set partition counts: 1, 3, 13, 75 for 1..4 elements
    for m, count in [(1, 1), (2, 3), (3, 13), (4, 75)]:
        assert sum(1 for _ in ordered_groupings(range(m))) == count


def test_canonical_grouping():
    assert canonical_grouping({1: 4.0, 2: 1.0, 3: 2.0}).groups == ((1,), (3,), (2,))
    assert canonical_grouping({1: 1.0, 2: 1.0, 3: 1.0}).groups == ((1, 2, 3),)


def test_alpha_grid():
    grid = AlphaGrid.from_range(0.5, 2.0, 0.5)
    assert grid.values == (0.5, 1.0, 1.5, 2.0)
    assert AlphaGrid.default().values[0] == 0.05
    assert AlphaGrid.default().values[-1] == 2.0
    with pytest.raises(ValueError):
        AlphaGrid((0.5, 0.5))
    with pytest.raises(ValueError):
        AlphaGrid((0.5, 2.5))


@pytest.mark.parametrize("grid", [AlphaGrid.default(), AlphaGrid.from_range(0.25, 2.0, 0.25),
                                  AlphaGrid((0.0,)), AlphaGrid((-0.0, 0.3, 1.37, 2.0))],
                         ids=len)
def test_the_grid_array_is_read_only_and_holds_its_values_and_weights(grid):
    """``AlphaGrid.array`` is built once per grid; its rows alpha, p and h
    equal ``values`` and ``oracles.grid_weights`` bit for bit, and it cannot
    be written."""
    array = grid.array
    assert array is grid.array and array.shape == (3, len(grid))
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0] = 1.0
    alpha, p, h = array.tolist()
    assert [a.hex() for a in alpha] == [a.hex() for a in grid.values]
    assert [x.hex() for x in p] == [w[0].hex() for w in grid_weights(grid)]
    assert [x.hex() for x in h] == [w[1].hex() for w in grid_weights(grid)]


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=str)
def test_a_bool_alpha_is_refused(flag):
    """A bool is not an exponent, as it is not a qubit index: without the
    check, True read as alpha 1 and a report carried ``alpha is True``."""
    ev = StateEvaluator(haar_random_pure(4, 3))
    for call in (lambda: ev.evaluate("thm1", flag), lambda: ev.evaluate("ckw", flag),
                 lambda: ev.front_best(0, flag), lambda: ev.j_best(0, flag),
                 lambda: h_weight(flag), lambda: AlphaGrid((flag, 1.5)),
                 lambda: ev.evaluate("thm2", AlphaGrid((0.5, flag)))):
        with pytest.raises(ValueError, match="boolean"):
            call()
    assert ev.evaluate("thm1", 1).alpha == 1
    assert AlphaGrid((np.float64(0.5), 1)).values == (0.5, 1.0)


@pytest.mark.parametrize("value", ["1", "0.5", b"1", Decimal("0.5"), complex(0.5, 0.0),
                                   np.complex128(0.5), None], ids=repr)
def test_a_non_real_alpha_is_refused(value):
    """Only a real number is an exponent: a str or bytes, which ``float``
    would read, and a ``Decimal``, complex or None, which a comparison
    would refuse with ``TypeError``, are refused with ``ValueError`` by
    every entry point, one check for the grid and ``h_weight``."""
    ev = StateEvaluator(haar_random_pure(4, 3))
    for call in (lambda: ev.evaluate("thm1", value), lambda: ev.evaluate("ckw", value),
                 lambda: ev.front_best(0, value), lambda: ev.j_best(0, value),
                 lambda: h_weight(value), lambda: AlphaGrid((value,)),
                 lambda: AlphaGrid((0.25, value)),
                 lambda: ev.evaluate("thm2", AlphaGrid((value, 1.5)))):
        with pytest.raises(ValueError, match="real number"):
            call()
    for text in ("12", b"1"):
        with pytest.raises(ValueError, match="real number"):
            AlphaGrid(text)


def test_every_real_alpha_type_is_read_as_its_float():
    """A ``Fraction``, a numpy float or integer and an int pass the check
    and read as their float value."""
    ev = StateEvaluator(haar_random_pure(4, 3))
    for value in (Fraction(1, 2), np.float32(0.5), np.float64(0.5), np.int64(1), 1):
        assert ev.evaluate("thm1", value).rhs == ev.evaluate("thm1", float(value)).rhs
        assert ev.front_best(0, value) == ev.front_best(0, float(value))
    assert h_weight(Fraction(1, 2)) == h_weight(0.5) and h_weight(np.int64(1)) == h_weight(1.0)
    assert AlphaGrid((Fraction(1, 4), np.float32(0.5), np.int64(1))).values == (0.25, 0.5, 1.0)


@pytest.mark.parametrize("value", [np.float32(0.1), np.float16(0.3), np.float32(2.0),
                                   np.float16(0.0), np.float64(1.37), np.int32(1),
                                   Fraction(3, 7), 1])
def test_h_weight_is_a_python_float_for_every_real_alpha(value):
    """``h_weight`` reads a real alpha as its Python float, as ``AlphaGrid``
    does: a numpy ``float32`` or ``float16`` alpha gives the Python float
    weight of that value, not a weight of the argument's own type."""
    got = h_weight(value)
    assert type(got) is float
    assert got.hex() == h_weight(float(value)).hex() == (2.0 ** (float(value) / 2.0) - 1.0).hex()


def test_alpha_range_never_passes_its_stop():
    grid = AlphaGrid.from_range(0.0, 1.0, 0.10000000001)
    assert len(grid) == 10 and grid.values[-1] <= 1.0
    assert AlphaGrid.from_range(1.9, 2.0, 0.1000000001).values == (1.9,)
    assert AlphaGrid.from_range(0.0, 1.0, 0.1).values[-1] == 1.0


@pytest.mark.parametrize("start, stop, step", [
    (0.05, 2.0, 0.05), (0.25, 2.0, 0.25), (0.5, 2.0, 0.5), (0.0, 2.0, 0.5),
    (0.02, 2.0, 0.02), (0.0, 1.0, 0.1), (0.1, 1.9, 0.3)])
def test_range_grids_keep_every_value_up_to_stop(start, stop, step):
    # The default verify grid, the default sweep grid and other plain ranges
    # are the values start + k * step, rounded, up to and including stop.
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    want = tuple(round(start + k * step, 12) for k in range(count))
    assert AlphaGrid.from_range(start, stop, step).values == want
    assert want[-1] <= stop


def test_default_grids_are_unchanged():
    assert AlphaGrid.default().values == tuple(round(0.05 * k, 12) for k in range(1, 41))
    assert AlphaGrid.from_range(0.25, 2.0, 0.25).values == (
        0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


# ---------------------------------------------------------------------------
# single-focus bounds
# ---------------------------------------------------------------------------

def test_thm1_reference_state():
    r = thm1_upper(EX1, 0, Grouping.singletons((1, 2)), 1.0)
    assert abs(r.lhs - 2 * math.sqrt(3) / 5) < 1e-9
    assert abs(r.rhs - 4 / 5) < 1e-9
    assert r.satisfied


def test_thm1_alpha_two_collapses_to_squared_sum():
    for seed in range(10):
        psi = haar_random_pure(4, 250 + seed)
        _, ca_sq = pairwise_tables(psi, 0)
        expected = sum(ca_sq.values())
        grouping = canonical_grouping(ca_sq)
        r = thm1_upper(psi, 0, grouping, 2.0)
        assert abs(r.rhs - expected) < 1e-9


def test_thm1_single_group_is_alpha_power_of_squared_sum():
    psi = haar_random_pure(4, 77)
    _, ca_sq = pairwise_tables(psi, 0)
    r = thm1_upper(psi, 0, Grouping.merged((1, 2, 3)), 0.8)
    assert abs(r.rhs - sum(ca_sq.values()) ** 0.4) < 1e-12


def test_thm1_rejects_infeasible_grouping():
    # All three GHZ4 pairwise assistance values are 1, so singleton orders
    # violate dominance.
    with pytest.raises(InfeasibleGroupingError):
        thm1_upper(ghz(4), 0, Grouping.singletons((1, 2, 3)), 1.0)
    r = thm1_upper(ghz(4), 0, Grouping.merged((1, 2, 3)), 1.0)
    assert r.satisfied


def test_thm1_rejects_wrong_cover():
    with pytest.raises(ValueError):
        thm1_upper(EX1, 0, Grouping.singletons((1,)), 1.0)


def test_jin_reference_state():
    r = jin_upper(EX1, 0, (1, 2), 1.0)
    assert abs(r.rhs - 3 * math.sqrt(2) / 5) < 1e-9
    r2 = jin_upper(EX1, 0, (1, 2), 2.0)
    _, ca_sq = pairwise_tables(EX1, 0)
    assert abs(r2.rhs - sum(ca_sq.values())) < 1e-9


def test_thm1_tighter_than_jin_matched_ordering():
    for seed in range(15):
        psi = haar_random_pure(4, 500 + seed)
        _, ca_sq = pairwise_tables(psi, 0)
        order, cert = sort_descending_then_check(
            [ca_sq[q] for q in sorted(ca_sq)])
        if not cert.feasible:
            continue
        partners = sorted(ca_sq)
        perm = tuple(partners[i] for i in order)
        for alpha in (0.3, 0.9, 1.5, 2.0):
            t = thm1_upper(psi, 0, Grouping.singletons(perm), alpha)
            j = jin_upper(psi, 0, perm, alpha)
            assert t.rhs <= j.rhs + 1e-12


def test_ckw_reference_states():
    r = ckw_check(ghz(3), 0)
    assert r.lhs < 1e-12 and abs(r.rhs - 1.0) < 1e-9 and r.satisfied
    r = ckw_check(w(3), 0)
    assert abs(r.lhs - 8 / 9) < 1e-9
    assert abs(r.rhs - 8 / 9) < 1e-9  # saturated
    for seed in range(50):
        assert ckw_check(haar_random_pure(4, 800 + seed), 0).satisfied


def test_coa_dual_reference_states():
    r = coa_dual_check(w(3), 0)
    assert abs(r.lhs - 8 / 9) < 1e-9 and abs(r.rhs - 8 / 9) < 1e-9
    # GHZ3 pairwise assistance is 1 per partner (Bell-basis ensembles reach
    # average concurrence 1), so the bound reads 1 <= 2.
    r = coa_dual_check(ghz(3), 0)
    assert abs(r.lhs - 1.0) < 1e-9
    assert abs(r.rhs - 2.0) < 1e-9
    assert r.satisfied
    psi = PureState(3, np.eye(8)[0])
    r = coa_dual_check(psi, 0)
    assert r.lhs < 1e-12 and r.rhs < 1e-12 and r.satisfied


def test_thm5_reference_and_collapse():
    r = thm5_upper(EX1, 0, Grouping.singletons((1, 2)), 1.0)
    assert abs(r.rhs - 4 / 5) < 1e-9
    for seed in range(10):
        psi = haar_random_pure(4, 31 + seed)
        _, na_sq = pairwise_tables(psi, 0)
        grouping = canonical_grouping(na_sq)
        r = thm5_upper(psi, 0, grouping, 2.0)
        assert abs(r.rhs - sum(na_sq.values())) < 1e-9
        assert r.satisfied


# ---------------------------------------------------------------------------
# two-focus bounds
# ---------------------------------------------------------------------------

def _sat_groupings():
    ga = Grouping.singletons((3, 1, 2))  # descending assistance for qubit 0
    gb = Grouping.merged((0, 2, 3))
    return ga, gb


def test_thm2_saturating_state():
    ga, gb = _sat_groupings()
    r = thm2_lower(thm2_saturating(), 0, 1, ga, gb, 2.0)
    assert abs(r.slack) <= 1e-9
    for alpha in (0.25, 0.75, 1.0, 1.5):
        r = thm2_lower(thm2_saturating(), 0, 1, ga, gb, alpha)
        assert abs(r.rhs - (2 ** (alpha / 2) - 1)) < 1e-9
        assert r.satisfied


def test_thm2_product_state():
    g0 = Grouping.merged((1, 2, 3))
    g1 = Grouping.merged((0, 2, 3))
    r = thm2_lower(PRODUCT4, 0, 1, g0, g1, 1.0)
    assert r.rhs <= 1e-12
    assert r.lhs == 0.0
    assert r.satisfied


def test_thm2_requires_four_qubits():
    g = Grouping.merged((1, 2))
    with pytest.raises(ValueError):
        thm2_lower(EX1, 0, 1, g, g, 1.0)


def test_thm3_wclass_example():
    lam = (3 / 4, 1 / 2, math.sqrt(2) / 4, 1 / 4)
    psi = wclass4(*lam)
    ga = Grouping.singletons((1, 2, 3))   # descending assistance for qubit 0
    gb = Grouping.singletons((0, 2, 3))   # descending assistance for qubit 1
    alpha = 1.0
    r = thm3_lower(psi, 0, 1, ga, gb, alpha)
    # Independent arithmetic from the closed forms: the winning branch is
    # (sum of A-side C^2)^(1/2) - J_B with J_B built from qubit-1 pairs.
    h = H(alpha)
    j_b = 3 / 4 + h * (math.sqrt(2) / 4) + h * h * (1 / 4)
    j_a = 3 / 4 + h * (3 * math.sqrt(2) / 8) + h * h * (3 / 8)
    branch_a = math.sqrt(63) / 8 - j_b
    branch_b = math.sqrt(3) / 2 - j_a
    assert abs(r.rhs - max(branch_a, branch_b)) < 1e-9
    assert abs(r.lhs - math.sqrt(39) / 8) < 1e-9
    assert r.satisfied


def test_thm3_alpha_two_reduces_to_squared_sums():
    psi = haar_random_pure(4, 9)
    c0, ca0 = pairwise_tables(psi, 0)
    c1, ca1 = pairwise_tables(psi, 1)
    g0, g1 = canonical_grouping(ca0), canonical_grouping(ca1)
    r = thm3_lower(psi, 0, 1, g0, g1, 2.0)
    expected = max(sum(c0.values()) - sum(ca1.values()),
                   sum(c1.values()) - sum(ca0.values()))
    assert abs(r.rhs - expected) < 1e-9


def test_thm4_fig3_bound():
    psi = fig3()
    ga = Grouping.singletons((3, 2, 1))
    gb = Grouping.merged((0, 2, 3))
    for alpha in (0.5, 1.0, 1.7, 2.0):
        r = thm4_upper(psi, 0, 1, ga, gb, alpha)
        expected = (2 * math.sqrt(2) / 3) ** alpha + H(alpha) * (2 / 3) ** alpha
        assert abs(r.rhs - expected) < 1e-9
        assert abs(r.lhs - (2 * math.sqrt(2) / 3) ** alpha) < 1e-9
        assert r.satisfied


def test_thm4_product_state():
    g0 = Grouping.merged((1, 2, 3))
    g1 = Grouping.merged((0, 2, 3))
    r = thm4_upper(PRODUCT4, 0, 1, g0, g1, 1.0)
    assert r.lhs == 0.0 and r.rhs >= -1e-12 and r.satisfied


def test_negativity_bounds_match_concurrence_bounds_on_rhs():
    for seed in range(10):
        psi = haar_random_pure(4, 1500 + seed)
        _, ca0 = pairwise_tables(psi, 0)
        _, ca1 = pairwise_tables(psi, 1)
        g0, g1 = canonical_grouping(ca0), canonical_grouping(ca1)
        for alpha in (0.5, 1.25, 2.0):
            assert abs(thm5_upper(psi, 0, g0, alpha).rhs
                       - thm1_upper(psi, 0, g0, alpha).rhs) < 1e-9
            assert abs(thm6_lower(psi, 0, 1, g0, g1, alpha).rhs
                       - thm2_lower(psi, 0, 1, g0, g1, alpha).rhs) < 1e-9
            assert abs(thm7_lower(psi, 0, 1, g0, g1, alpha).rhs
                       - thm3_lower(psi, 0, 1, g0, g1, alpha).rhs) < 1e-9


def test_thm8_rank_two_matches_thm4_structure():
    psi = fig3()
    ga = Grouping.singletons((3, 2, 1))
    gb = Grouping.merged((0, 2, 3))
    for alpha in (0.5, 1.0, 2.0):
        r8 = thm8_upper(psi, 0, 1, ga, gb, alpha)
        r4 = thm4_upper(psi, 0, 1, ga, gb, alpha)
        assert abs(r8.rhs - r4.rhs) < 1e-9  # rank 2 gives unit prefactor
        assert r8.satisfied


def test_thm8_bell_pair_product_rank_four():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    amps = np.kron(bell, bell).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)
    psi = PureState(4, amps)  # Bell(0,2) x Bell(1,3)
    from entbounds.qcore import schmidt_rank
    assert schmidt_rank(psi, (0, 1)) == 4
    _, ca0 = pairwise_tables(psi, 0)
    _, ca1 = pairwise_tables(psi, 1)
    g0, g1 = canonical_grouping(ca0), canonical_grouping(ca1)
    alpha = 1.0
    r = thm8_upper(psi, 0, 1, g0, g1, alpha)
    j_sum = (thm4_upper(psi, 0, 1, g0, g1, alpha).rhs)
    assert abs(r.rhs - math.sqrt(6) * j_sum) < 1e-9
    assert r.satisfied


def test_thm8_product_state():
    g0 = Grouping.merged((1, 2, 3))
    g1 = Grouping.merged((0, 2, 3))
    r = thm8_upper(PRODUCT4, 0, 1, g0, g1, 1.0)
    assert r.lhs == 0.0 and r.satisfied


# ---------------------------------------------------------------------------
# three-focus bounds
# ---------------------------------------------------------------------------

def _merged_groupings_for(n, foci):
    return tuple(Grouping.merged(tuple(q for q in range(n) if q != f))
                 for f in foci)


def test_cor1_contrast_states():
    # Entangled pair 0<->2: choosing c1 = 3 keeps the pair on the A side of
    # every term, giving bound 1 on a cut of concurrence 1.
    psi = cor_a()
    groupings = _merged_groupings_for(6, (0, 1, 3))
    r = cor1_lower(psi, 0, 1, 3, groupings, 2.0, variant="thm3")
    assert abs(r.rhs - 1.0) < 1e-9
    assert abs(r.lhs - 1.0) < 1e-9
    assert r.satisfied
    # Entangled pair 2<->3: with c1 = 4 every term vanishes.
    psi = cor_b()
    groupings = _merged_groupings_for(6, (0, 1, 4))
    r = cor1_lower(psi, 0, 1, 4, groupings, 2.0, variant="thm3")
    assert abs(r.rhs) < 1e-9
    assert r.satisfied


def test_cor1_product_state():
    groupings = _merged_groupings_for(6, (0, 1, 2))
    for variant in ("thm2", "thm3"):
        r = cor1_lower(PRODUCT6, 0, 1, 2, groupings, 1.0, variant=variant)
        assert r.rhs <= 1e-12
        assert r.satisfied


def test_cor1_validation():
    groupings = _merged_groupings_for(6, (0, 1, 2))
    with pytest.raises(ValueError):
        cor1_lower(cor_a(), 0, 1, 2, groupings, 1.0, variant="thm9")
    with pytest.raises(ValueError):
        cor1_lower(PRODUCT4, 0, 1, 2, None, 1.0)  # too few qubits


def test_cor2_contrast_states():
    groupings = _merged_groupings_for(6, (0, 1, 2))
    # Pair 2<->3 crosses the ABC1 cut: the c1-centered squared sum reaches 1.
    low, up = cor2_bounds(cor_b(), 0, 1, 2, groupings, 2.0)
    assert low.applicable
    assert abs(low.rhs - 1.0) < 1e-9
    assert abs(low.lhs - 1.0) < 1e-9
    assert low.satisfied and up.satisfied
    # Pair 0<->2 sits inside ABC1: both sides collapse to zero.
    low, up = cor2_bounds(cor_a(), 0, 1, 2, groupings, 2.0)
    assert low.applicable
    assert abs(low.rhs) < 1e-9
    assert low.satisfied


def test_cor2_condition_not_met_reports_not_applicable():
    # With c1 = 3 the AB cut (concurrence 1) exceeds the c1 cut (0).
    groupings = _merged_groupings_for(6, (0, 1, 3))
    low, up = cor2_bounds(cor_a(), 0, 1, 3, groupings, 1.0)
    assert not low.applicable
    assert low.satisfied  # never reported as violated
    assert math.isnan(low.rhs)
    assert up.applicable and up.satisfied


def test_cor2_ghz6_upper():
    groupings = _merged_groupings_for(6, (0, 1, 2))
    low, up = cor2_bounds(ghz(6), 0, 1, 2, groupings, 1.0)
    assert abs(up.lhs - 1.0) < 1e-9
    assert up.satisfied


# ---------------------------------------------------------------------------
# grouping search
# ---------------------------------------------------------------------------

def test_optimize_thm1_reference_state():
    r = optimize_grouping(EX1, 0, 1.0, theorem_id="thm1")
    assert abs(r.rhs - 4 / 5) < 1e-9
    # J takes the merged pair; the singleton split ties with it here
    assert r.ordering.grouping.groups == ((1, 2),)
    assert abs(thm1_upper(EX1, 0, Grouping.singletons((1, 2)), 1.0).rhs - r.rhs) < 1e-12


def test_optimize_thm1_equal_values_selects_merged():
    r = optimize_grouping(ghz(4), 0, 1.0, theorem_id="thm1")
    assert r.ordering.grouping.k == 1
    assert abs(r.rhs - math.sqrt(3.0)) < 1e-9


def test_optimize_upper_never_beats_merged_fallback():
    for seed in range(10):
        psi = haar_random_pure(5, 2200 + seed)
        _, ca_sq = pairwise_tables(psi, 0)
        for alpha in (0.4, 1.0, 1.8):
            r = optimize_grouping(psi, 0, alpha, theorem_id="thm1")
            assert r.rhs <= sum(ca_sq.values()) ** (alpha / 2) + 1e-12


def test_optimize_objective_validation():
    with pytest.raises(ValueError):
        optimize_grouping(EX1, 0, 1.0, theorem_id="thm99")


def _canonical_front(c_sq, ca_sq, alpha):
    """Canonical mode's front grouping: the merged group, unless the
    canonical grouping's front-weighted C sum is strictly larger."""
    merged, canonical = Grouping.merged(ca_sq), canonical_grouping(ca_sq)
    front = [_front_weighted_sum([_ordered_sum(c_sq[q] for q in g) for g in grouping.groups],
                                 alpha)
             for grouping in (merged, canonical)]
    return canonical if front[1] > front[0] else merged


def test_optimize_above_the_partner_cap_is_canonical():
    # Above 8 partners only the front sum (thm2's certificate) takes canonical
    # mode's grouping, the better of the merged group and canonical_grouping
    # at each alpha; J (thm1) is the merged group at every size and jin a
    # sorted order.
    for n in (10, 12):
        for psi in (haar_random_pure(n, 1), _geometric_wclass(n)):
            for tid in ("thm1", "thm2", "jin"):
                foci = tuple(range(BOUNDS[tid].arity))
                for alpha in (0.05, 1.0, 2.0):
                    r = optimize_grouping(psi, foci, alpha, theorem_id=tid)
                    assert _same_report(r, StateEvaluator(psi).evaluate(tid, alpha, foci))
                    assert r.satisfied
                    if not r.applicable:  # jin on the Haar state
                        continue
                    tables = [pairwise_tables(psi, f) for f in foci]
                    expected = {
                        "thm1": lambda c, ca: Grouping.merged(ca),
                        "thm2": lambda c, ca: _canonical_front(c, ca, alpha),
                        "jin": lambda c, ca: Grouping.singletons(sorted(ca, key=lambda q: -ca[q]))}
                    assert r.ordering.grouping in [expected[tid](*t) for t in tables]


def test_optimizer_matches_explicit_enumeration():
    # Independent oracle: brute-force every feasible grouping through the
    # standalone evaluator and compare against the cached search.
    psi = haar_random_pure(4, 321)
    _, ca_sq = pairwise_tables(psi, 0)
    for alpha in (0.5, 1.3):
        best = math.inf
        for grouping in ordered_groupings((1, 2, 3)):
            vals = [sum(ca_sq[q] for q in g) for g in grouping.groups]
            if not feasibility(vals).feasible:
                continue
            best = min(best, thm1_upper(psi, 0, grouping, alpha).rhs)
        r = optimize_grouping(psi, 0, alpha, theorem_id="thm1")
        assert abs(r.rhs - best) < 1e-12


def _same_report(r1, r2):
    def key(r):
        return tuple(None if isinstance(x, float) and math.isnan(x) else x
                     for x in (r.theorem_id, r.alpha, r.lhs, r.rhs, r.slack,
                               r.ordering, r.satisfied, r.applicable))
    return key(r1) == key(r2)


def _given_report(psi, tid, alpha, foci, groupings):
    """The public given-grouping function of ``tid`` on ``groupings``."""
    if tid in ("thm1", "thm5"):
        return {"thm1": thm1_upper, "thm5": thm5_upper}[tid](
            psi, foci[0], groupings[0], alpha)
    if tid == "jin":
        return jin_upper(psi, foci[0], [g[0] for g in groupings[0].groups], alpha)
    if tid.startswith("cor1_"):
        return cor1_lower(psi, *foci, groupings, alpha, variant=tid[5:])
    if tid.startswith("cor2_"):
        return cor2_bounds(psi, *foci, groupings, alpha)[tid == "cor2_upper"]
    bound = {"thm2": thm2_lower, "thm3": thm3_lower, "thm4": thm4_upper,
             "thm6": thm6_lower, "thm7": thm7_lower, "thm8": thm8_upper}[tid]
    return bound(psi, *foci, *groupings, alpha)


def _best_groupings(ev, spec, foci, alpha, report):
    """Per-focus groupings for which the given path reproduces ``report``."""
    j = [ev.j_best(f, alpha) for f in foci]
    if spec.rhs == "jin":
        return (report.ordering.grouping,)
    if spec.rhs != "front":
        return tuple(t[0] for t in j)
    fa, fb = (ev.front_best(f, alpha) for f in foci[:2])
    lead = (fa[0], j[1][0]) if fa[2] - j[1][2] >= fb[2] - j[0][2] else (j[0][0], fb[0])
    return lead + tuple(t[0] for t in j[2:])


def _geometric_wclass(n):
    """W-class state with l_k^2 proportional to 3^-k: every jin order check passes."""
    amps = np.zeros(2 ** n)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 3.0 ** (-k / 2)
    return PureState(n, amps / np.linalg.norm(amps))


def test_evaluator_consistent_with_standalone_ops():
    for n in (4, 6):
        _check_best_equals_given(n)


def _check_best_equals_given(n):
    checked = set()
    for psi in (haar_random_pure(n, 4400 + n), haar_random_pure(n, 4410 + n), ghz(n), w(n),
                _geometric_wclass(n)):
        ev = StateEvaluator(psi)
        for tid, spec in BOUNDS.items():
            if spec.min_qubits > n:
                continue
            for foci in (tuple(range(spec.arity)), tuple(range(n - 1, n - 1 - spec.arity, -1))):
                if spec.fixed_alpha:
                    check = ckw_check if tid == "ckw" else coa_dual_check
                    assert ev.evaluate(tid, 2.0, foci) == check(psi, foci[0])
                    checked.add(tid)
                    continue
                for alpha in (0.5, 1.0, 1.75):
                    r = ev.evaluate(tid, alpha, foci)
                    if not r.applicable and tid == "jin":
                        continue
                    groupings = _best_groupings(ev, spec, foci, alpha, r)
                    assert _same_report(r, _given_report(psi, tid, alpha, foci, groupings))
                    checked.add(tid)
    assert checked == {t for t, spec in BOUNDS.items() if spec.min_qubits <= n}


def _ghz_plus_wclass(n, seed):
    """GHZ plus a random real W-class state: most of its front chains split."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(2 ** n)
    amps[[1 << q for q in range(n)]] = rng.normal(size=n)
    amps[0] = amps[-1] = rng.uniform(0.3, 1.0)
    return PureState(n, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", range(4, 10))
def test_the_best_groupings_given_back_reproduce_every_report(n):
    """Merged J and the searched front chain, passed as ``groupings=``, give
    reports equal (``==``) to the best-grouping path's for all 15 bounds."""
    for psi in (haar_random_pure(n, 4500 + n), _ghz_plus_wclass(n, 4520 + n),
                _geometric_wclass(n)):
        ev = StateEvaluator(psi)
        for tid, spec in BOUNDS.items():
            if spec.min_qubits > n:
                continue
            for alpha in (2.0,) if spec.fixed_alpha else (0.25, 1.0, 1.75):
                best = ev.evaluate(tid, alpha)
                if spec.rhs == "jin" and not best.applicable:
                    continue  # no feasible singleton order to pass
                groupings = _best_groupings(ev, spec, spec.foci, alpha, best)
                given = ev.evaluate(tid, alpha, None, groupings)
                if best.applicable:
                    assert given == best, (tid, alpha)
                else:
                    assert repr(given) == repr(best), (tid, alpha)


def test_readme_bound_table_matches_the_spec_table():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        if line.startswith("| `") and len(cells) == 4:
            for tid in re.findall(r"`(\w+)`", cells[0]):
                rows[tid] = int(cells[2])
    assert rows == {tid: spec.min_qubits for tid, spec in BOUNDS.items()}


def test_given_groupings_are_never_searched_or_cached(monkeypatch):
    count = DpCount(monkeypatch)
    searches = count.runs
    for n in (6, 12):
        count.clear()
        psi = haar_random_pure(n, 5)
        merged = Grouping.merged(range(1, n))
        ev = StateEvaluator(psi)
        assert ev.evaluate("thm1", 1.0, 0, (merged,)) == thm1_upper(psi, 0, merged, 1.0)
        fronts = [Grouping.merged(q for q in range(n) if q != f) for f in (0, 1, 2)]
        for tid in ("thm2", "thm3", "thm7", "cor1_thm3", "cor2_lower",  # totals too
                    "ckw", "coa_dual"):
            ev.evaluate(tid, 1.0, None, fronts[:BOUNDS[tid].arity])
        assert ev._merged == {} and ev._fronts == {} and searches == []
        wclass = StateEvaluator(_geometric_wclass(n))  # its singleton orders are feasible
        order = bounds_module._descending_singletons(wclass.tables(0)[1])
        assert wclass.evaluate("jin", 1.0, 0, (order,)).ordering.grouping == order
        assert wclass._merged == {} and wclass._fronts == {} and searches == []
        best = ev.evaluate("thm1", 1.0, 0)  # J is the merged group at every n
        assert best.satisfied and best.ordering.grouping == merged
        assert set(ev._merged) == {0} and ev._fronts == {} and searches == []
        ev.evaluate("thm2", 1.0)  # the front sum is searched by size
        assert set(ev._fronts) == {(0, (1.0,)), (1, (1.0,))}
        # A focus whose pair C are all 0 takes its merged group unsearched.
        searched = [f for f in (0, 1) if any(ev.tables(f)[0].values())]
        assert searched == {6: [1], 12: []}[n]
        assert searches == [([tuple(ev.tables(f)[1].values())], 1) for f in searched
                            if ev.search == "exhaustive"]
    with pytest.raises(ValueError, match="caps at 8"):  # listing stays capped at 8 partners
        ev.feasible_groupings(0)


def test_given_groupings_are_checked():
    psi = haar_random_pure(4, 7)
    ev = StateEvaluator(psi)
    merged = [Grouping.merged(q for q in range(4) if q != f) for f in range(4)]
    with pytest.raises(ValueError, match="one grouping per focus"):
        ev.evaluate("thm2", 1.0, (0, 1), (merged[0],))
    with pytest.raises(ValueError, match="must cover"):
        ev.evaluate("thm2", 1.0, (0, 1), (merged[0], merged[0]))
    with pytest.raises(ValueError, match="singleton"):
        ev.evaluate("jin", 1.0, 0, (merged[0],))
    with pytest.raises(ValueError, match="one grouping per focus"):
        cor1_lower(haar_random_pure(6, 1), 0, 1, 2, None, 1.0)


def test_a_warm_row_never_answers_for_caller_groupings():
    psi = _geometric_wclass(6)  # descending singletons are feasible at every focus
    warm = StateEvaluator(psi)
    for tid in BOUNDS:
        for alpha in (0.5, 1.0):
            warm.evaluate(tid, alpha)
    kept = {name: dict(getattr(warm, name)) for name in ("_merged", "_fronts")}
    assert all(kept.values())
    for tid, spec in BOUNDS.items():
        orders = [bounds_module._descending_singletons(warm.tables(f)[1]) for f in spec.foci]
        for alpha in (0.5, 1.0):
            got = warm.evaluate(tid, alpha, None, orders)
            assert _same_report(got, StateEvaluator(psi).evaluate(tid, alpha, None, orders))
            if spec.rhs != "pair_sum" and got.applicable:
                assert got.ordering.grouping in orders
            if spec.rhs in ("j", "rank_j"):  # the default takes the merged group
                assert not _same_report(got, warm.evaluate(tid, alpha))
        ascending = [Grouping.singletons(q for (q,) in reversed(g.groups)) for g in orders]
        with pytest.raises(InfeasibleGroupingError):
            warm.evaluate(tid, 1.0, None, ascending)
    for name, before in kept.items():  # no caller call adds or replaces a kept entry
        after = getattr(warm, name)
        assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


def test_the_fast_report_equals_the_dataclass_report():
    cert = feasibility((0.5, 0.25), Grouping(((1,), (2, 3))))
    for ordering in (cert, None):
        for upper in (False, True):
            for lhs, rhs in ((0.5, 0.25), (0.25, 0.5), (0.3, 0.3 + 2e-9)):
                slack = rhs - lhs if upper else lhs - rhs
                satisfied = slack >= -bounds_module.SLACK_TOL
                fast = bounds_module.BoundColumns("thm4", (0.5, 0.75), [0.0, lhs], [0.0, rhs],
                                                  [0.0, slack], [True, satisfied],
                                                  [None, ordering], True).report(1)
                want = BoundReport("thm4", 0.75, lhs, rhs, slack, ordering, satisfied)
                assert type(fast) is BoundReport and fast == want
                assert hash(fast) == hash(want) and repr(fast) == repr(want)
                assert vars(fast) == vars(want)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    fast.rhs = 0.0


@pytest.mark.parametrize("bad", [1.7, True, 1.5, "1", np.float64(1.0), None])
def test_focus_must_be_an_integer(bad):
    psi = haar_random_pure(4, 3)
    with pytest.raises(ValueError):
        thm1_upper(psi, bad, Grouping.merged((0, 2, 3)), 1.0)
    with pytest.raises(ValueError):
        StateEvaluator(psi).evaluate("thm2", 1.0, (0, bad))
    if bad is not None:  # None asks for the default foci
        with pytest.raises(ValueError):
            StateEvaluator(psi).evaluate("thm1", 1.0, bad)


def test_numpy_integer_foci_and_members_are_accepted():
    psi = haar_random_pure(4, 3)
    g = Grouping(((np.int64(2), 3), (np.int32(0),)))
    assert g.groups == ((2, 3), (0,)) and all(type(q) is int for q in g.members())
    ev = StateEvaluator(psi)
    assert ev.evaluate("thm1", 1.0, np.int64(1)) == ev.evaluate("thm1", 1.0, 1)


@pytest.mark.parametrize("groups", [((0, 2.9, 3.2),), ((True,), (2,)), (("1",),),
                                    ((1.0, 2),)])
def test_group_members_must_be_integers(groups):
    with pytest.raises(ValueError):
        Grouping(groups)


def test_jin_ordering_members_must_be_integers():
    psi = _geometric_wclass(4)
    assert jin_upper(psi, 0, [1, 2, 3], 1.0).applicable
    with pytest.raises(ValueError, match="integer"):
        jin_upper(psi, 0, [1.0, 2, 3], 1.0)


def test_evaluator_canonical_mode_sound():
    for seed in range(10):
        psi = haar_random_pure(10, 6200 + seed)
        ev = StateEvaluator(psi)
        assert ev.search == "canonical"
        for tid in ("thm1", "thm2", "thm3", "thm4", "jin"):
            foci = 0 if tid in ("thm1", "jin") else (0, 1)
            r = ev.evaluate(tid, 1.0, foci)
            assert (not r.applicable) or r.satisfied


@pytest.mark.parametrize("n", [10, 12])
def test_merged_j_is_no_looser_than_the_canonical_grouping(n):
    # Descending singletons are feasible here, so the canonical grouping is
    # not the merged group, and the Lemma makes the merged J the smaller one.
    psi = _geometric_wclass(n)
    ev = StateEvaluator(psi)
    tightened = 0
    for tid, spec in BOUNDS.items():
        if spec.fixed_alpha or spec.rhs == "jin":
            continue
        foci = tuple(range(spec.arity))
        canonical = tuple(canonical_grouping(ev.tables(f)[1]) for f in foci)
        assert all(g.k == n - 1 for g in canonical)
        for alpha in (0.25, 1.0, 1.75):
            best = ev.evaluate(tid, alpha, foci)
            given = ev.evaluate(tid, alpha, foci, canonical)
            assert best.applicable == given.applicable
            if best.applicable:
                assert best.satisfied and best.slack <= given.slack + 1e-12, (tid, alpha)
                tightened += best.slack < given.slack - 1e-9
    assert tightened


def test_evaluator_rejects_bad_foci():
    ev = StateEvaluator(haar_random_pure(4, 1))
    with pytest.raises(ValueError):
        ev.evaluate("thm2", 1.0, (0, 0))
    with pytest.raises(ValueError):
        ev.evaluate("thm1", 1.0, (0, 1))
    with pytest.raises(ValueError):
        ev.evaluate("cor1_thm3", 1.0, (0, 1, 2))  # needs 6 qubits


def test_jin_not_applicable_when_no_singleton_order_feasible():
    r = optimize_grouping(ghz(4), 0, 1.0, theorem_id="jin")
    assert not r.applicable
    assert r.satisfied
    assert math.isnan(r.rhs)


# ---------------------------------------------------------------------------
# randomized soundness spot checks (full-size sweep lives in acceptance)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,seeds", [(3, range(15)), (4, range(15))])
def test_soundness_spot_single_focus(n, seeds):
    for seed in seeds:
        ev = StateEvaluator(haar_random_pure(n, 9000 + seed))
        for alpha in (0.25, 1.0, 2.0):
            for tid in ("thm1", "thm5", "jin"):
                r = ev.evaluate(tid, alpha, 0)
                assert (not r.applicable) or r.slack >= -1e-9
        assert ev.evaluate("ckw", 2.0, 0).satisfied
        assert ev.evaluate("coa_dual", 2.0, 0).satisfied


def test_soundness_spot_corollaries():
    for seed in range(5):
        ev = StateEvaluator(haar_random_pure(6, 9900 + seed))
        for alpha in (0.5, 1.5):
            for tid in ("cor1_thm2", "cor1_thm3", "cor2_lower", "cor2_upper"):
                r = ev.evaluate(tid, alpha, (0, 1, 2))
                assert (not r.applicable) or r.slack >= -1e-9


def _tensor(*states):
    amps = states[0].amplitudes
    n = states[0].num_qubits
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        n += s.num_qubits
    return PureState(n, amps)


def test_soundness_on_rank_deficient_tensor_products():
    # Product structure creates exactly-zero cut measures and exactly-zero
    # pairwise terms; small exponents would amplify any residual noise, so
    # these states are the adversarial case for slack accounting.
    zero = PureState(1, np.array([1.0, 0.0]))
    cases = []
    for s in range(6):
        cases.append(_tensor(haar_random_pure(3, 60_000 + s),
                             haar_random_pure(1, 61_000 + s)))
        cases.append(_tensor(zero, haar_random_pure(3, 62_000 + s)))
        cases.append(_tensor(haar_random_pure(2, 63_000 + s),
                             haar_random_pure(2, 64_000 + s)))
    cases.append(_tensor(haar_random_pure(4, 65_000), haar_random_pure(2, 66_000)))
    cases.append(_tensor(haar_random_pure(2, 67_000), zero,
                         haar_random_pure(3, 68_000)))
    for psi in cases:
        ev = StateEvaluator(psi)
        for alpha in (0.05, 0.25, 1.0, 2.0):
            for tid in ("thm1", "thm5", "jin"):
                r = ev.evaluate(tid, alpha, 0)
                assert (not r.applicable) or r.slack >= -1e-9
            for tid in ("thm2", "thm3", "thm4", "thm6", "thm7", "thm8"):
                r = ev.evaluate(tid, alpha, (0, 1))
                assert (not r.applicable) or r.slack >= -1e-9
            if psi.num_qubits >= 6:
                for tid in ("cor1_thm2", "cor1_thm3", "cor2_lower", "cor2_upper"):
                    r = ev.evaluate(tid, alpha, (0, 1, 2))
                    assert (not r.applicable) or r.slack >= -1e-9


# ---------------------------------------------------------------------------
# regressions: two-qubit states, non-finite exponents
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("psi", [ghz(2), haar_random_pure(2, 808)], ids=["ghz2", "haar2"])
def test_single_focus_bounds_hold_on_two_qubit_states(psi):
    # A two-qubit state is its own pair state; asking for its reduction onto
    # both qubits used to fail every bound.
    ev = StateEvaluator(psi)
    for focus in (0, 1):
        assert ev.evaluate("ckw", 2.0, focus).satisfied
        assert ev.evaluate("coa_dual", 2.0, focus).satisfied
        for alpha in (0.5, 1.0, 2.0):
            for tid in ("jin", "thm1", "thm5"):
                r = ev.evaluate(tid, alpha, focus)
                assert r.applicable and r.satisfied, (tid, focus, alpha)
                assert r.ordering.grouping.groups == ((1 - focus,),)
    c_sq, ca_sq = pairwise_tables(psi, 0)
    conc = concurrence_pure(psi, (0,)).value
    assert abs(c_sq[1] - conc ** 2) < 1e-12 and abs(ca_sq[1] - conc ** 2) < 1e-12


@pytest.mark.parametrize("values", [(math.nan,), (0.5, math.nan), (math.inf,)])
def test_alpha_grid_rejects_non_finite(values):
    with pytest.raises(ValueError, match="finite"):
        AlphaGrid(values)


@pytest.mark.parametrize("bounds", [(0.0, math.nan, 0.5), (0.0, math.inf, 0.5),
                                    (0.0, 2.0, math.nan)])
def test_alpha_range_rejects_non_finite(bounds):
    with pytest.raises(ValueError, match="finite"):
        AlphaGrid.from_range(*bounds)


@pytest.mark.parametrize("bounds, message", [
    ((0.0, 1e300, 1.0), r"\[0, 2\]"), ((-1e300, 1.0, 1.0), r"\[0, 2\]"),
    ((0.5, 2.5, 0.5), r"\[0, 2\]"), ((0.0, 2.0, 1e-13), "at least 1e-12"),
    ((0.0, 2.0, 0.0), "at least 1e-12"), ((0.0, 2.0, -0.5), "at least 1e-12"),
    ((0.0, 2.0, 1e-9), "more than the maximum 10000")])
def test_alpha_range_is_checked_before_it_is_built(bounds, message, monkeypatch):
    def built(*args):  # a range built first would take memory without end
        raise AssertionError("the range was built before it was checked")

    monkeypatch.setattr(bounds_module, "round", built, raising=False)
    with pytest.raises(ValueError, match=message):
        AlphaGrid.from_range(*bounds)


def test_alpha_grid_holds_at_most_10000_values():
    values = [k / 5000 for k in range(10_001)]
    assert len(AlphaGrid(values[:-1])) == 10_000
    with pytest.raises(ValueError, match="grid has 10001 values, more than the maximum 10000"):
        AlphaGrid(values)


# Both states below read violated because every pair and cut value is read
# off an eigensolve of the Gram matrix rho = M M^dagger, whose eigenvalues
# carry an absolute error near 1e-16: a Schmidt value near 3e-7 then carries
# a relative error near 1e-3, and one below the rank cutoff reads 0.  The
# fix re-reads each eigenvalue from the amplitude factor M (ROADMAP.md,
# "Every pair and cut value from the amplitude factor").
_GRAM_ROUTE = ("false violation: pair and cut values are read off the Gram matrix's "
               "eigenvalues, which lose Schmidt values near 3e-7 to round-off")


def _violated(psi, theorem_ids, alphas):
    ev = StateEvaluator(psi)
    return [(tid, alpha, r.slack) for tid in theorem_ids for alpha in alphas
            for r in (ev.evaluate(tid, alpha),) if r.applicable and not r.satisfied]


@pytest.mark.xfail(strict=True, reason=_GRAM_ROUTE)
def test_the_weak_wclass_state_reads_no_violation():
    """The W-class reproducer: thm2's slack reads -0.0219 at alpha 0.05 and
    thm3's -0.0156, with an lhs of 0."""
    psi = wclass4(2.5e-7, 1.3e-7, 0.003, 0.9999955)
    assert _violated(psi, ("thm2", "thm3"), (0.05, 1.0)) == []


@pytest.mark.xfail(strict=True, reason=_GRAM_ROUTE)
def test_a_weakly_entangled_qubit_reads_no_violation():
    """sqrt(1 - eps^2)|0>|a> + eps|1>|b> with eps = 3.3e-7 and Haar 3-qubit
    a and b: thm1's slack reads -4.8e-3 at alpha 0.05, and thm5 and jin
    read violated too."""
    eps = 3.3e-7
    a, b = haar_random_pure(3, 10004).amplitudes, haar_random_pure(3, 20004).amplitudes
    psi = PureState.from_amplitudes(np.concatenate([math.sqrt(1.0 - eps ** 2) * a, eps * b]))
    assert _violated(psi, ("thm1", "thm5", "jin"), (0.05, 0.5, 1.0)) == []

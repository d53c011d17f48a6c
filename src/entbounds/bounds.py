"""Weighted monogamy and polygamy bound evaluation for multiqubit pure states.

Every bound here compares a cut entanglement (concurrence or negativity raised
to a power ``alpha`` in [0, 2]) against a weighted combination of pairwise
measures.  The pairwise terms are aggregated over an ordered grouping of the
non-focus qubits; the geometric weight ``h = 2**(alpha/2) - 1`` multiplies
successive groups.  Each evaluator enforces the dominance precondition the
weighting relies on: every group's squared assistance value must be at least
the sum over all later groups.

Conventions:
  * ``0**alpha`` is taken as 0 for every alpha in [0, 2], including alpha = 0.
  * ``slack >= 0`` means the inequality holds; reports are flagged satisfied
    down to ``-1e-9`` to absorb eigensolver noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .measures import (
    coa_two_qubit,
    concurrence_from_schmidt,
    concurrence_pure,
    concurrence_two_qubit,
    negativity_from_schmidt,
    negativity_pure_schmidt,
)
from .qcore import (
    PureState,
    rank_from_schmidt,
    reduced_density,
    schmidt_eigenvalues,
    schmidt_rank,
    to_density,
)

SLACK_TOL = 1e-9
FEAS_TOL = 1e-12
_TIE_TOL = 1e-12
_MAX_OPT_PARTNERS = 8

THEOREM_IDS = (
    "ckw", "coa_dual", "jin",
    "thm1", "thm2", "thm3", "thm4",
    "thm5", "thm6", "thm7", "thm8",
    "cor1_thm2", "cor1_thm3", "cor2_lower", "cor2_upper",
)

# Bound direction: "upper" bounds the cut value from above, "lower" from below.
_DIRECTION = {
    "ckw": "lower", "coa_dual": "upper", "jin": "upper",
    "thm1": "upper", "thm2": "lower", "thm3": "lower", "thm4": "upper",
    "thm5": "upper", "thm6": "lower", "thm7": "lower", "thm8": "upper",
    "cor1_thm2": "lower", "cor1_thm3": "lower",
    "cor2_lower": "lower", "cor2_upper": "upper",
}


class InfeasibleGroupingError(ValueError):
    """The grouping violates the squared-assistance dominance precondition."""


@dataclass(frozen=True)
class Grouping:
    """Ordered list of disjoint non-empty qubit-index groups."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("grouping needs at least one group")
        norm = []
        seen: set[int] = set()
        for g in self.groups:
            idx = tuple(sorted(int(i) for i in g))
            if not idx:
                raise ValueError("groups must be non-empty")
            if seen & set(idx):
                raise ValueError(f"groups are not disjoint at {idx}")
            seen.update(idx)
            norm.append(idx)
        object.__setattr__(self, "groups", tuple(norm))

    @classmethod
    def singletons(cls, order: Iterable[int]) -> "Grouping":
        return cls(tuple((int(q),) for q in order))

    @classmethod
    def merged(cls, members: Iterable[int]) -> "Grouping":
        return cls((tuple(sorted(int(q) for q in members)),))

    @property
    def k(self) -> int:
        return len(self.groups)

    def members(self) -> frozenset[int]:
        return frozenset(q for g in self.groups for q in g)

    def __str__(self):
        return "|".join(",".join(str(q) for q in g) for g in self.groups)


@dataclass(frozen=True)
class OrderingCertificate:
    """Squared assistance values per group and whether the order is dominant."""

    grouping: Grouping | None
    squared_values: tuple[float, ...]
    feasible: bool


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluation.

    ``slack >= 0`` means the inequality is satisfied; for upper bounds
    ``slack = rhs - lhs`` and for lower bounds ``slack = lhs - rhs``.
    Reports with ``applicable=False`` carry NaN rhs/slack and are never
    counted as violations.
    """

    theorem_id: str
    alpha: float
    lhs: float
    rhs: float
    slack: float
    ordering: OrderingCertificate | None
    satisfied: bool
    applicable: bool = True


@dataclass(frozen=True)
class AlphaGrid:
    """Strictly increasing exponents within [0, 2]."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("alpha grid must be non-empty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"alpha values must be finite, got {vals}")
        if any(v < 0.0 or v > 2.0 for v in vals):
            raise ValueError("alpha values must lie in [0, 2]")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("alpha values must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_range(cls, start: float, stop: float, step: float) -> "AlphaGrid":
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError("alpha range bounds and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return cls(tuple(round(start + k * step, 12) for k in range(count)))

    @classmethod
    def default(cls) -> "AlphaGrid":
        # Starts above 0 so the 0**0 convention never matters on default runs.
        return cls.from_range(0.05, 2.0, 0.05)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def h_weight(alpha: float) -> float:
    """Geometric weight 2**(alpha/2) - 1; lies in [0, 1] and below alpha/2."""
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must be in [0, 2], got {alpha}")
    return 2.0 ** (alpha / 2.0) - 1.0


def lemma_check(x: float, y: float, alpha: float) -> tuple[bool, bool]:
    """Truth of (x-y)^a >= x^a - y^a and (x+y)^a <= x^a + y^a for x >= y >= 0."""
    if y < 0 or x < y:
        raise ValueError("requires x >= y >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("requires 0 <= alpha <= 1")
    first = (x - y) ** alpha >= x ** alpha - y ** alpha - 1e-12
    second = (x + y) ** alpha <= x ** alpha + y ** alpha + 1e-12
    return first, second


def _apow(value: float, alpha: float) -> float:
    """value**alpha with negatives clipped and 0**alpha defined as 0."""
    v = max(0.0, float(value))
    if v == 0.0:
        return 0.0
    return v ** alpha


def feasibility(values_sq: Sequence[float],
                grouping: Grouping | None = None) -> OrderingCertificate:
    """Certificate for the dominance precondition in the given order.

    Feasible iff every prefix value dominates the sum of all later values.
    A single group is vacuously feasible.
    """
    vals = tuple(float(v) for v in values_sq)
    if not vals:
        raise ValueError("at least one squared value is required")
    if any(v < -FEAS_TOL for v in vals):
        raise ValueError("squared values must be non-negative")
    tail = list(itertools.accumulate(reversed(vals)))[::-1]
    feasible = all(vals[t] >= tail[t + 1] - FEAS_TOL for t in range(len(vals) - 1))
    return OrderingCertificate(grouping, vals, feasible)


def sort_descending_then_check(
    values_sq: Sequence[float],
) -> tuple[tuple[int, ...], OrderingCertificate]:
    """Descending permutation of the values and its dominance certificate.

    Ties keep their original relative order.
    """
    vals = [float(v) for v in values_sq]
    order = tuple(sorted(range(len(vals)), key=lambda i: -vals[i]))
    cert = feasibility([vals[i] for i in order])
    return order, cert


# ---------------------------------------------------------------------------
# Pairwise measure tables and grouping aggregation
# ---------------------------------------------------------------------------

def _single_qubit(value, num_qubits: int, name: str) -> int:
    if isinstance(value, (tuple, list)):
        if len(value) != 1:
            raise ValueError(f"{name} must be a single qubit, got {value}")
        value = value[0]
    q = int(value)
    if not 0 <= q < num_qubits:
        raise ValueError(f"{name}={q} out of range for {num_qubits} qubits")
    return q


def pairwise_tables(psi: PureState, focus: int) -> tuple[dict[int, float], dict[int, float]]:
    """Squared pairwise concurrence and assistance values against ``focus``.

    Returns ``(c_sq, ca_sq)`` keyed by partner qubit.  On two-qubit
    reductions these equal the squared CREN / CRENOA values as well.  A
    two-qubit state is its own pair state.
    """
    return StateEvaluator(psi).tables(focus)


def _covering_grouping(grouping: Grouping, universe: frozenset[int]) -> Grouping:
    if not isinstance(grouping, Grouping):
        grouping = Grouping(tuple(tuple(g) for g in grouping))
    if grouping.members() != universe:
        raise ValueError(
            f"grouping {grouping} must cover exactly qubits {sorted(universe)}")
    return grouping


def _grouped_sums(pair_sq: Mapping[int, float], grouping: Grouping) -> tuple[float, ...]:
    return tuple(sum(pair_sq[q] for q in g) for g in grouping.groups)


def _require_feasible(pair_sq: Mapping[int, float], grouping: Grouping,
                      what: str) -> OrderingCertificate:
    cert = feasibility(_grouped_sums(pair_sq, grouping), grouping)
    if not cert.feasible:
        raise InfeasibleGroupingError(
            f"grouping {grouping} violates the dominance precondition for {what}; "
            "reorder or merge groups")
    return cert


def _geometric_sum(grouped_sq: Sequence[float], alpha: float) -> float:
    """sum_i h^(i-1) * (g_i^2)^(alpha/2) over the groups in order."""
    h = h_weight(alpha)
    return sum((h ** i) * _apow(v, alpha / 2.0) for i, v in enumerate(grouped_sq))


def _front_weighted_sum(grouped_sq: Sequence[float], alpha: float) -> float:
    """h * sum_{i<k} (g_i^2)^(alpha/2) + (g_k^2)^(alpha/2)."""
    h = h_weight(alpha)
    terms = [_apow(v, alpha / 2.0) for v in grouped_sq]
    return h * sum(terms[:-1]) + terms[-1]


def _jin_sum(grouped_sq: Sequence[float], alpha: float) -> float:
    """sum_i (alpha/2)^(i-1) * (g_i^2)^(alpha/2) over the groups in order."""
    return sum(((alpha / 2.0) ** i) * _apow(v, alpha / 2.0)
               for i, v in enumerate(grouped_sq))


def _report(theorem_id: str, alpha: float, lhs: float, rhs: float,
            ordering: OrderingCertificate | None) -> BoundReport:
    slack = (rhs - lhs) if _DIRECTION[theorem_id] == "upper" else (lhs - rhs)
    return BoundReport(theorem_id, alpha, lhs, rhs, slack, ordering,
                       slack >= -SLACK_TOL)


def _not_applicable(theorem_id: str, alpha: float, lhs: float) -> BoundReport:
    return BoundReport(theorem_id, alpha, lhs, float("nan"), float("nan"),
                       None, True, applicable=False)


# ---------------------------------------------------------------------------
# Single-focus bounds
# ---------------------------------------------------------------------------

def thm1_upper(psi: PureState, focus: int, grouping: Grouping,
               alpha: float) -> BoundReport:
    """Geometric-weight polygamy bound on the focus-vs-rest concurrence.

    ``C^a(focus|rest) <= sum_i h^(i-1) Ca^a(group_i)`` where each group's
    squared assistance value is the sum of its pairwise values and groups obey
    the dominance precondition.
    """
    h_weight(alpha)
    n = psi.num_qubits
    f = _single_qubit(focus, n, "focus")
    grouping = _covering_grouping(grouping, frozenset(range(n)) - {f})
    _, ca_sq = pairwise_tables(psi, f)
    cert = _require_feasible(ca_sq, grouping, "thm1")
    lhs = _apow(concurrence_pure(psi, (f,)).value, alpha)
    rhs = _geometric_sum(cert.squared_values, alpha)
    return _report("thm1", alpha, lhs, rhs, cert)


def jin_upper(psi: PureState, focus: int, ordering: Sequence[int],
              alpha: float) -> BoundReport:
    """(alpha/2)-weighted singleton polygamy bound, for comparison with thm1."""
    h_weight(alpha)
    n = psi.num_qubits
    f = _single_qubit(focus, n, "focus")
    order = tuple(int(q) for q in ordering)
    grouping = Grouping.singletons(order)
    _covering_grouping(grouping, frozenset(range(n)) - {f})
    _, ca_sq = pairwise_tables(psi, f)
    cert = _require_feasible(ca_sq, grouping, "jin")
    lhs = _apow(concurrence_pure(psi, (f,)).value, alpha)
    return _report("jin", alpha, lhs, _jin_sum(cert.squared_values, alpha), cert)


def ckw_check(psi: PureState, focus: int) -> BoundReport:
    """Squared-concurrence monogamy: sum of pairwise C^2 below the cut C^2."""
    return StateEvaluator(psi).evaluate("ckw", 2.0, focus)


def coa_dual_check(psi: PureState, focus: int) -> BoundReport:
    """Squared-assistance polygamy: cut C^2 below the sum of pairwise Ca^2."""
    return StateEvaluator(psi).evaluate("coa_dual", 2.0, focus)


def thm5_upper(psi: PureState, focus: int, grouping: Grouping,
               alpha: float) -> BoundReport:
    """Negativity counterpart of thm1, using CRENOA values per pair.

    On qubit reductions the pairwise CRENOA equals the concurrence of
    assistance, so the bound side coincides with thm1; the cut side is the
    negativity, which dominates the cut concurrence.
    """
    h_weight(alpha)
    n = psi.num_qubits
    f = _single_qubit(focus, n, "focus")
    grouping = _covering_grouping(grouping, frozenset(range(n)) - {f})
    _, na_sq = pairwise_tables(psi, f)
    cert = _require_feasible(na_sq, grouping, "thm5")
    lhs = _apow(negativity_pure_schmidt(psi, (f,)).value, alpha)
    rhs = _geometric_sum(cert.squared_values, alpha)
    return _report("thm5", alpha, lhs, rhs, cert)


# ---------------------------------------------------------------------------
# Two-focus bounds (partition AB | rest)
# ---------------------------------------------------------------------------

def _two_focus_setup(psi: PureState, a: int, b: int, grouping_a: Grouping,
                     grouping_b: Grouping, what: str):
    n = psi.num_qubits
    if n < 4:
        raise ValueError(f"{what} requires at least 4 qubits, got {n}")
    qa = _single_qubit(a, n, "a")
    qb = _single_qubit(b, n, "b")
    if qa == qb:
        raise ValueError("focus qubits a and b must differ")
    grouping_a = _covering_grouping(grouping_a, frozenset(range(n)) - {qa})
    grouping_b = _covering_grouping(grouping_b, frozenset(range(n)) - {qb})
    return qa, qb, grouping_a, grouping_b


def _branch_front(c_sq: Mapping[int, float], ca_sq: Mapping[int, float],
                  grouping: Grouping, alpha: float, what: str):
    """Front-weighted concurrence sum plus the grouping's J value and cert."""
    cert = _require_feasible(ca_sq, grouping, what)
    front = _front_weighted_sum(_grouped_sums(c_sq, grouping), alpha)
    j = _geometric_sum(cert.squared_values, alpha)
    return front, j, cert


def thm2_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Monogamy lower bound on C^a(AB|rest) from grouped pairwise terms.

    Each branch puts weight h on all but the last group's concurrence term,
    weight 1 on the last, and subtracts the other focus qubit's geometric
    assistance sum.  The larger branch is reported.
    """
    h_weight(alpha)
    qa, qb, grouping_a, grouping_b = _two_focus_setup(
        psi, a, b, grouping_a, grouping_b, "thm2")
    c_a, ca_a = pairwise_tables(psi, qa)
    c_b, ca_b = pairwise_tables(psi, qb)
    front_a, j_a, cert_a = _branch_front(c_a, ca_a, grouping_a, alpha, "thm2 (focus a)")
    front_b, j_b, cert_b = _branch_front(c_b, ca_b, grouping_b, alpha, "thm2 (focus b)")
    branch_a = front_a - j_b
    branch_b = front_b - j_a
    rhs = max(branch_a, branch_b)
    cert = cert_a if branch_a >= branch_b else cert_b
    lhs = _apow(concurrence_pure(psi, (qa, qb)).value, alpha)
    return _report("thm2", alpha, lhs, rhs, cert)


def thm3_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Monogamy lower bound using each focus qubit's total pairwise C^2."""
    h_weight(alpha)
    qa, qb, grouping_a, grouping_b = _two_focus_setup(
        psi, a, b, grouping_a, grouping_b, "thm3")
    c_a, ca_a = pairwise_tables(psi, qa)
    c_b, ca_b = pairwise_tables(psi, qb)
    cert_a = _require_feasible(ca_a, grouping_a, "thm3 (focus a)")
    cert_b = _require_feasible(ca_b, grouping_b, "thm3 (focus b)")
    j_a = _geometric_sum(cert_a.squared_values, alpha)
    j_b = _geometric_sum(cert_b.squared_values, alpha)
    branch_a = _apow(sum(c_a.values()), alpha / 2.0) - j_b
    branch_b = _apow(sum(c_b.values()), alpha / 2.0) - j_a
    rhs = max(branch_a, branch_b)
    cert = cert_a if branch_a >= branch_b else cert_b
    lhs = _apow(concurrence_pure(psi, (qa, qb)).value, alpha)
    return _report("thm3", alpha, lhs, rhs, cert)


def thm4_upper(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Polygamy upper bound C^a(AB|rest) <= J_A + J_B."""
    h_weight(alpha)
    qa, qb, grouping_a, grouping_b = _two_focus_setup(
        psi, a, b, grouping_a, grouping_b, "thm4")
    _, ca_a = pairwise_tables(psi, qa)
    _, ca_b = pairwise_tables(psi, qb)
    cert_a = _require_feasible(ca_a, grouping_a, "thm4 (focus a)")
    cert_b = _require_feasible(ca_b, grouping_b, "thm4 (focus b)")
    rhs = (_geometric_sum(cert_a.squared_values, alpha)
           + _geometric_sum(cert_b.squared_values, alpha))
    lhs = _apow(concurrence_pure(psi, (qa, qb)).value, alpha)
    return _report("thm4", alpha, lhs, rhs, cert_a)


def thm6_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Negativity counterpart of thm2 (CREN/CRENOA pairwise terms)."""
    h_weight(alpha)
    qa, qb, grouping_a, grouping_b = _two_focus_setup(
        psi, a, b, grouping_a, grouping_b, "thm6")
    c_a, ca_a = pairwise_tables(psi, qa)
    c_b, ca_b = pairwise_tables(psi, qb)
    front_a, j_a, cert_a = _branch_front(c_a, ca_a, grouping_a, alpha, "thm6 (focus a)")
    front_b, j_b, cert_b = _branch_front(c_b, ca_b, grouping_b, alpha, "thm6 (focus b)")
    branch_a = front_a - j_b
    branch_b = front_b - j_a
    rhs = max(branch_a, branch_b)
    cert = cert_a if branch_a >= branch_b else cert_b
    lhs = _apow(negativity_pure_schmidt(psi, (qa, qb)).value, alpha)
    return _report("thm6", alpha, lhs, rhs, cert)


def thm7_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Negativity counterpart of thm3."""
    h_weight(alpha)
    qa, qb, grouping_a, grouping_b = _two_focus_setup(
        psi, a, b, grouping_a, grouping_b, "thm7")
    c_a, ca_a = pairwise_tables(psi, qa)
    c_b, ca_b = pairwise_tables(psi, qb)
    cert_a = _require_feasible(ca_a, grouping_a, "thm7 (focus a)")
    cert_b = _require_feasible(ca_b, grouping_b, "thm7 (focus b)")
    j_a = _geometric_sum(cert_a.squared_values, alpha)
    j_b = _geometric_sum(cert_b.squared_values, alpha)
    branch_a = _apow(sum(c_a.values()), alpha / 2.0) - j_b
    branch_b = _apow(sum(c_b.values()), alpha / 2.0) - j_a
    rhs = max(branch_a, branch_b)
    cert = cert_a if branch_a >= branch_b else cert_b
    lhs = _apow(negativity_pure_schmidt(psi, (qa, qb)).value, alpha)
    return _report("thm7", alpha, lhs, rhs, cert)


def thm8_upper(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Schmidt-rank-scaled negativity upper bound across the AB cut.

    ``N^a(AB|rest) <= (r(r-1)/2)^(a/2) (J'_A + J'_B)`` where r is the Schmidt
    rank of the cut.
    """
    h_weight(alpha)
    qa, qb, grouping_a, grouping_b = _two_focus_setup(
        psi, a, b, grouping_a, grouping_b, "thm8")
    _, na_a = pairwise_tables(psi, qa)
    _, na_b = pairwise_tables(psi, qb)
    cert_a = _require_feasible(na_a, grouping_a, "thm8 (focus a)")
    cert_b = _require_feasible(na_b, grouping_b, "thm8 (focus b)")
    r = schmidt_rank(psi, (qa, qb))
    factor = _apow(r * (r - 1) / 2.0, alpha / 2.0)
    rhs = factor * (_geometric_sum(cert_a.squared_values, alpha)
                    + _geometric_sum(cert_b.squared_values, alpha))
    lhs = _apow(negativity_pure_schmidt(psi, (qa, qb)).value, alpha)
    return _report("thm8", alpha, lhs, rhs, cert_a)


# ---------------------------------------------------------------------------
# Three-focus bounds (partition ABC1 | rest)
# ---------------------------------------------------------------------------

def _three_focus_setup(psi: PureState, a: int, b: int, c1: int,
                       groupings, what: str):
    n = psi.num_qubits
    if n < 6:
        raise ValueError(f"{what} requires at least 6 qubits, got {n}")
    qa = _single_qubit(a, n, "a")
    qb = _single_qubit(b, n, "b")
    qc = _single_qubit(c1, n, "c1")
    if len({qa, qb, qc}) != 3:
        raise ValueError("focus qubits a, b, c1 must be distinct")
    try:
        ga, gb, gc = groupings
    except (TypeError, ValueError):
        raise ValueError("groupings must be a (grouping_a, grouping_b, grouping_c1) triple")
    ga = _covering_grouping(ga, frozenset(range(n)) - {qa})
    gb = _covering_grouping(gb, frozenset(range(n)) - {qb})
    gc = _covering_grouping(gc, frozenset(range(n)) - {qc})
    return qa, qb, qc, ga, gb, gc


def cor1_lower(psi: PureState, a: int, b: int, c1: int, groupings,
               alpha: float, variant: str = "thm3") -> BoundReport:
    """Lower bound on C^a(ABC1|rest): a two-focus bound minus J_{C1}.

    ``variant`` selects whether the two-focus part follows the thm2 or the
    thm3 branch structure.
    """
    if variant not in ("thm2", "thm3"):
        raise ValueError("variant must be 'thm2' or 'thm3'")
    h_weight(alpha)
    theorem_id = f"cor1_{variant}"
    qa, qb, qc, ga, gb, gc = _three_focus_setup(psi, a, b, c1, groupings, theorem_id)
    c_a, ca_a = pairwise_tables(psi, qa)
    c_b, ca_b = pairwise_tables(psi, qb)
    _, ca_c = pairwise_tables(psi, qc)
    cert_a = _require_feasible(ca_a, ga, f"{theorem_id} (focus a)")
    cert_b = _require_feasible(ca_b, gb, f"{theorem_id} (focus b)")
    cert_c = _require_feasible(ca_c, gc, f"{theorem_id} (focus c1)")
    j_a = _geometric_sum(cert_a.squared_values, alpha)
    j_b = _geometric_sum(cert_b.squared_values, alpha)
    j_c = _geometric_sum(cert_c.squared_values, alpha)
    if variant == "thm2":
        branch_a = _front_weighted_sum(_grouped_sums(c_a, ga), alpha) - j_b
        branch_b = _front_weighted_sum(_grouped_sums(c_b, gb), alpha) - j_a
    else:
        branch_a = _apow(sum(c_a.values()), alpha / 2.0) - j_b
        branch_b = _apow(sum(c_b.values()), alpha / 2.0) - j_a
    rhs = max(branch_a, branch_b) - j_c
    cert = cert_a if branch_a >= branch_b else cert_b
    lhs = _apow(concurrence_pure(psi, (qa, qb, qc)).value, alpha)
    return _report(theorem_id, alpha, lhs, rhs, cert)


def cor2_bounds(psi: PureState, a: int, b: int, c1: int, groupings,
                alpha: float) -> tuple[BoundReport, BoundReport]:
    """Lower and upper bounds on C^a(ABC1|rest) centered on qubit c1.

    The lower bound only applies when the AB cut does not exceed the c1 cut;
    otherwise it is reported as not applicable, never as violated.  The upper
    bound ``J_A + J_B + J_{C1}`` is always evaluated.
    """
    h_weight(alpha)
    qa, qb, qc, ga, gb, gc = _three_focus_setup(psi, a, b, c1, groupings, "cor2")
    c_c, ca_c = pairwise_tables(psi, qc)
    _, ca_a = pairwise_tables(psi, qa)
    _, ca_b = pairwise_tables(psi, qb)
    cert_a = _require_feasible(ca_a, ga, "cor2 (focus a)")
    cert_b = _require_feasible(ca_b, gb, "cor2 (focus b)")
    cert_c = _require_feasible(ca_c, gc, "cor2 (focus c1)")
    j_a = _geometric_sum(cert_a.squared_values, alpha)
    j_b = _geometric_sum(cert_b.squared_values, alpha)
    j_c = _geometric_sum(cert_c.squared_values, alpha)
    lhs = _apow(concurrence_pure(psi, (qa, qb, qc)).value, alpha)

    cut_ab = concurrence_pure(psi, (qa, qb)).value
    cut_c1 = concurrence_pure(psi, (qc,)).value
    if cut_ab <= cut_c1 + SLACK_TOL:
        rhs_low = _apow(sum(c_c.values()), alpha / 2.0) - j_a - j_b
        lower = _report("cor2_lower", alpha, lhs, rhs_low, cert_c)
    else:
        lower = _not_applicable("cor2_lower", alpha, lhs)

    rhs_up = j_a + j_b + j_c
    upper = _report("cor2_upper", alpha, lhs, rhs_up, cert_c)
    return lower, upper


# ---------------------------------------------------------------------------
# Grouping search
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partition_patterns(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All ordered set partitions of range(m), as position patterns."""
    if m == 0:
        return ()

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        rest_set = remaining
        for size in range(1, len(rest_set) + 1):
            for block in itertools.combinations(rest_set, size):
                left = tuple(x for x in rest_set if x not in block)
                for tail in rec(left):
                    yield (block,) + tail

    return tuple(rec(tuple(range(m))))


def ordered_groupings(partners: Sequence[int]):
    """Yield every ordered grouping of the given qubit set."""
    partners = tuple(sorted(int(p) for p in partners))
    for pattern in _partition_patterns(len(partners)):
        yield Grouping(tuple(tuple(partners[i] for i in block) for block in pattern))


@lru_cache(maxsize=None)
def _split_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Proper non-empty sub-masks of every bit mask over range(m).

    Each subset's sub-masks are listed by size, then lexicographically by
    position: the order in which ``ordered_groupings`` leads with them.
    """
    table = []
    for s in range(1 << m):
        bits = [i for i in range(m) if s >> i & 1]
        table.append(tuple(sum(1 << i for i in block)
                           for size in range(1, len(bits))
                           for block in itertools.combinations(bits, size)))
    return tuple(table)


def _subset_sums(values: Sequence[float]) -> list[float]:
    """Sum over every bit mask, added in ascending position like ``_grouped_sums``."""
    sums = [0.0] * (1 << len(values))
    for s in range(1, len(sums)):
        top = s.bit_length() - 1
        sums[s] = sums[s ^ (1 << top)] + values[top]
    return sums


def _chain_dp(splits, lead: Sequence[float], lead_w: float, tail_w: float,
              merged_ok: bool) -> list[int]:
    """Leading group of the minimal chain over every subset of the partners.

    ``value(s)`` is the smaller of ``lead[s]`` (the whole subset as one group,
    when ``merged_ok`` or ``s`` is one qubit) and, over ``(t, r)`` in
    ``splits[s]``, ``lead_w * lead[t] + tail_w * value(r)``.  Candidates are
    scanned in search order and a later one wins only when it is lower by more
    than ``_TIE_TOL``, or within it with more groups, so at each subset a tie
    keeps more groups and then the first leading group.  With ``tail_w == 0``
    a tail's value cannot change the total, so below the full set every
    candidate scores 0 and only the group count decides.
    """
    full = len(splits) - 1
    value = [0.0] * (full + 1)
    groups = [0] * (full + 1)
    pick = [0] * (full + 1)
    flat = lead if tail_w else [0.0] * (full + 1)
    for s in range(1, full + 1):
        score = lead if s == full else flat
        best = None
        for t, r in splits[s]:
            v = lead_w * score[t] + tail_w * value[r]
            k = groups[r] + 1
            if best is None or v < best - _TIE_TOL or (v <= best + _TIE_TOL and k > best_k):
                best, best_k, best_t = v, k, t
        if merged_ok or not s & (s - 1):
            v = score[s]
            if best is None or v < best - _TIE_TOL:
                best, best_k, best_t = v, 1, s
        if best is not None:
            value[s], groups[s], pick[s] = best, best_k, best_t
    return pick


class _SplitSearch:
    """Dominance-feasible splits of one focus's partners, shared by every alpha.

    Subsets of the sorted partners are bit masks.  ``splits[s]`` holds each
    ``(t, s ^ t)`` with ``ca[t] >= ca[s ^ t] - FEAS_TOL``, in search order, so a
    feasible grouping of ``s`` is a feasible split followed by a feasible
    grouping of the rest.  ``singles[s]`` keeps the one-qubit leads whose rest
    still has a feasible singleton order.
    """

    def __init__(self, c_sq: Mapping[int, float], ca_sq: Mapping[int, float]):
        self.partners = tuple(sorted(ca_sq))
        self.c = _subset_sums([c_sq[q] for q in self.partners])
        self.ca = ca = _subset_sums([ca_sq[q] for q in self.partners])
        self.splits = [tuple((t, s ^ t) for t in subs if ca[t] >= ca[s ^ t] - FEAS_TOL)
                       for s, subs in enumerate(_split_table(len(self.partners)))]
        ordered = [True] * len(ca)
        self.singles = [()] * len(ca)
        for s in range(1, len(ca)):
            if s & (s - 1):
                self.singles[s] = tuple((t, r) for t, r in self.splits[s]
                                        if not t & (t - 1) and ordered[r])
                ordered[s] = bool(self.singles[s])
        self.jin_ok = ordered[-1]

    def _grouping(self, masks: Iterable[int]) -> Grouping:
        return Grouping(tuple(tuple(q for i, q in enumerate(self.partners) if t >> i & 1)
                              for t in masks))

    def best(self, objective: str, alpha: float) -> Grouping | None:
        """Grouping that minimizes J (``"j"``), maximizes the front sum
        (``"front"``) or minimizes the jin sum over singletons (``"jin"``);
        None for ``"jin"`` when no singleton order is feasible."""
        if objective == "jin" and not self.jin_ok:
            return None
        half = alpha / 2.0
        if objective == "front":
            # The front sum is maximized: minimize its negation.
            pick = _chain_dp(self.splits, [-_apow(v, half) for v in self.c],
                             h_weight(alpha), 1.0, True)
        else:
            lead = [_apow(v, half) for v in self.ca]
            if objective == "j":
                pick = _chain_dp(self.splits, lead, 1.0, h_weight(alpha), True)
            else:
                pick = _chain_dp(self.singles, lead, 1.0, half, False)
        chain, s = [], len(pick) - 1
        while s:
            chain.append(pick[s])
            s ^= pick[s]
        return self._grouping(chain)

    def groupings(self):
        """Every feasible grouping, in ``ordered_groupings`` order."""
        def walk(s):
            for t, r in self.splits[s]:
                for tail in walk(r):
                    yield (t,) + tail
            yield (s,)

        for chain in walk(len(self.ca) - 1):
            yield self._grouping(chain)


def _check_partner_cap(num_partners: int) -> None:
    if num_partners > _MAX_OPT_PARTNERS:
        raise ValueError(
            f"grouping search caps at {_MAX_OPT_PARTNERS} non-focus qubits, "
            f"got {num_partners}")


def canonical_grouping(pair_sq: Mapping[int, float]) -> Grouping:
    """Descending singleton order when dominance-feasible, else one merged group.

    The merged single group is vacuously feasible, so this always returns a
    usable grouping without searching.
    """
    partners = tuple(sorted(pair_sq))
    order, cert = sort_descending_then_check([pair_sq[q] for q in partners])
    if cert.feasible:
        return Grouping.singletons(partners[i] for i in order)
    return Grouping.merged(partners)


class StateEvaluator:
    """Caches every alpha-independent quantity of one state.

    Each distinct qubit pair is reduced and measured once, whichever focus
    asks for it, and the focus tables are read from those pair values.  Each
    distinct cut is reduced once and its concurrence, negativity and Schmidt
    rank all come from that one spectrum.  Each focus's dominance-feasible
    splits (or, in canonical mode, its one grouping) are also built once;
    each (theorem, alpha) evaluation then runs a subset dynamic program and
    plain arithmetic.

    ``search='exhaustive'`` (non-focus count capped at 8) finds the best
    feasible ordered grouping without listing the groupings.  A grouping is a
    leading group ``T`` of the remaining set ``S`` followed by a grouping of
    ``S - T``, and dominance only asks ``Ca2(T) >= Ca2(S - T)``, so one pass
    over the 3^m (subset, leading group) pairs of the m partners solves
    ``J(S) = min(Ca2(S)^(a/2), min_T Ca2(T)^(a/2) + h J(S - T))``, the front
    sum ``F(S) = max(C2(S)^(a/2), max_T h C2(T)^(a/2) + F(S - T))`` and the
    singleton-only jin sum, where the enumeration of ``ordered_groupings``
    costs Fubini(m).  Values within ``_TIE_TOL`` tie; a tie keeps more groups,
    then the leading group that comes first by size and then
    lexicographically, applied at every subset, as a scan of
    ``ordered_groupings`` would.  Reported values are summed over the chosen
    grouping, never taken from the program.

    ``search='canonical'`` uses only the descending singleton order with
    merged fallback, which scales to the full 12-qubit cap.
    """

    def __init__(self, psi: PureState, search: str = "exhaustive"):
        if search not in ("exhaustive", "canonical"):
            raise ValueError(f"unknown search mode {search!r}")
        self.psi = psi
        self.search = search
        self._pairs: dict[tuple[int, int], tuple[float, float]] = {}
        self._tables: dict[int, tuple[dict[int, float], dict[int, float]]] = {}
        self._cuts: dict[tuple[int, ...], tuple[float, float, int]] = {}
        self._splits: dict[int, _SplitSearch] = {}
        self._canonical: dict[int, Grouping] = {}
        self._j_best: dict[tuple[int, float], tuple[Grouping, tuple[float, ...], float]] = {}
        self._front_best: dict[tuple[int, float], tuple[Grouping, tuple[float, ...], float]] = {}

    # -- cached primitives ---------------------------------------------------

    def _pair_squares(self, p: int, q: int) -> tuple[float, float]:
        """Squared concurrence and assistance of the reduction onto p and q."""
        key = (p, q) if p < q else (q, p)
        if key not in self._pairs:
            psi = self.psi
            rho = to_density(psi) if psi.num_qubits == 2 else reduced_density(psi, key)
            self._pairs[key] = (concurrence_two_qubit(rho).value ** 2,
                                coa_two_qubit(rho).value ** 2)
        return self._pairs[key]

    def tables(self, focus: int) -> tuple[dict[int, float], dict[int, float]]:
        """``(c_sq, ca_sq)`` keyed by partner qubit, as ``pairwise_tables``."""
        if focus not in self._tables:
            n = self.psi.num_qubits
            f = _single_qubit(focus, n, "focus")
            c_sq: dict[int, float] = {}
            ca_sq: dict[int, float] = {}
            for p in range(n):
                if p != f:
                    c_sq[p], ca_sq[p] = self._pair_squares(f, p)
            self._tables[focus] = (c_sq, ca_sq)
        return self._tables[focus]

    def _cut(self, qubits: tuple[int, ...]) -> tuple[float, float, int]:
        """Concurrence, negativity and Schmidt rank across one cut."""
        key = tuple(sorted(qubits))
        if key not in self._cuts:
            lam = schmidt_eigenvalues(self.psi, key)
            self._cuts[key] = (concurrence_from_schmidt(lam).value,
                               negativity_from_schmidt(lam).value,
                               rank_from_schmidt(lam))
        return self._cuts[key]

    def cut_concurrence(self, qubits: tuple[int, ...]) -> float:
        return self._cut(qubits)[0]

    def cut_negativity(self, qubits: tuple[int, ...]) -> float:
        return self._cut(qubits)[1]

    def cut_rank(self, qubits: tuple[int, ...]) -> int:
        return self._cut(qubits)[2]

    def _split_search(self, focus: int) -> _SplitSearch:
        if focus not in self._splits:
            c_sq, ca_sq = self.tables(focus)
            _check_partner_cap(len(ca_sq))
            self._splits[focus] = _SplitSearch(c_sq, ca_sq)
        return self._splits[focus]

    def feasible_groupings(self, focus: int):
        """(grouping, ca_grouped, c_grouped) per dominance-feasible ordering.

        Lists what the search chooses from, in ``ordered_groupings`` order;
        the search itself never builds this list.
        """
        c_sq, ca_sq = self.tables(focus)
        return [(g, _grouped_sums(ca_sq, g), _grouped_sums(c_sq, g))
                for g in self._split_search(focus).groupings()]

    def _best_grouping(self, focus: int, objective: str, alpha: float) -> Grouping | None:
        if self.search == "canonical":
            if focus not in self._canonical:
                self._canonical[focus] = canonical_grouping(self.tables(focus)[1])
            grouping = self._canonical[focus]
            return None if objective == "jin" and grouping.k < self.psi.num_qubits - 1 \
                else grouping
        return self._split_search(focus).best(objective, alpha)

    def j_best(self, focus: int, alpha: float):
        """Feasible grouping minimizing the geometric assistance sum."""
        key = (focus, alpha)
        if key not in self._j_best:
            grouping = self._best_grouping(focus, "j", alpha)
            ca_vals = _grouped_sums(self.tables(focus)[1], grouping)
            self._j_best[key] = (grouping, ca_vals, _geometric_sum(ca_vals, alpha))
        return self._j_best[key]

    def front_best(self, focus: int, alpha: float):
        """Assistance-feasible grouping maximizing the front-weighted C sum."""
        key = (focus, alpha)
        if key not in self._front_best:
            grouping = self._best_grouping(focus, "front", alpha)
            c_sq, ca_sq = self.tables(focus)
            self._front_best[key] = (
                grouping, _grouped_sums(ca_sq, grouping),
                _front_weighted_sum(_grouped_sums(c_sq, grouping), alpha))
        return self._front_best[key]

    # -- report assembly -----------------------------------------------------

    @staticmethod
    def _cert(grouping: Grouping, ca_vals: tuple[float, ...]) -> OrderingCertificate:
        return OrderingCertificate(grouping, ca_vals, True)

    def _foci(self, theorem_id: str, foci) -> tuple[int, ...]:
        n = self.psi.num_qubits
        arity = 1 if theorem_id in ("ckw", "coa_dual", "jin", "thm1", "thm5") else \
            2 if theorem_id in ("thm2", "thm3", "thm4", "thm6", "thm7", "thm8") else 3
        if foci is None:
            foci = tuple(range(arity))
        elif isinstance(foci, (int, np.integer)):
            foci = (int(foci),)
        else:
            foci = tuple(int(q) for q in foci)
        if len(foci) != arity:
            raise ValueError(f"{theorem_id} takes {arity} focus qubit(s), got {foci}")
        if len(set(foci)) != len(foci):
            raise ValueError("focus qubits must be distinct")
        for q in foci:
            _single_qubit(q, n, "focus")
        if arity >= 2 and n < 4:
            raise ValueError(f"{theorem_id} requires at least 4 qubits, got {n}")
        if arity == 3 and n < 6:
            raise ValueError(f"{theorem_id} requires at least 6 qubits, got {n}")
        return foci

    def evaluate(self, theorem_id: str, alpha: float, foci=None) -> BoundReport:
        """Best-grouping report for one bound at one exponent."""
        if theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem_id {theorem_id!r}")
        h_weight(alpha)
        foci = self._foci(theorem_id, foci)

        if theorem_id in ("ckw", "coa_dual"):
            c_sq, ca_sq = self.tables(foci[0])
            cut_sq = self.cut_concurrence(foci) ** 2
            if theorem_id == "ckw":
                lhs, rhs = sum(c_sq.values()), cut_sq
            else:
                lhs, rhs = cut_sq, sum(ca_sq.values())
            slack = rhs - lhs
            return BoundReport(theorem_id, 2.0, lhs, rhs, slack, None, slack >= -SLACK_TOL)

        if theorem_id in ("thm1", "thm5", "jin"):
            f = foci[0]
            if theorem_id == "jin":
                return self._eval_jin(f, alpha)
            cut = self.cut_concurrence((f,)) if theorem_id == "thm1" \
                else self.cut_negativity((f,))
            grouping, ca_vals, rhs = self.j_best(f, alpha)
            return _report(theorem_id, alpha, _apow(cut, alpha), rhs,
                           self._cert(grouping, ca_vals))

        if theorem_id in ("thm2", "thm6"):
            a, b = foci
            lhs_val = self.cut_concurrence((a, b)) if theorem_id == "thm2" \
                else self.cut_negativity((a, b))
            ga, ca_a, front_a = self.front_best(a, alpha)
            gb, ca_b, front_b = self.front_best(b, alpha)
            _, _, j_a = self.j_best(a, alpha)
            _, _, j_b = self.j_best(b, alpha)
            branch_a = front_a - j_b
            branch_b = front_b - j_a
            if branch_a >= branch_b:
                rhs, cert = branch_a, self._cert(ga, ca_a)
            else:
                rhs, cert = branch_b, self._cert(gb, ca_b)
            return _report(theorem_id, alpha, _apow(lhs_val, alpha), rhs, cert)

        if theorem_id in ("thm3", "thm7"):
            a, b = foci
            lhs_val = self.cut_concurrence((a, b)) if theorem_id == "thm3" \
                else self.cut_negativity((a, b))
            ja_g, ja_vals, j_a = self.j_best(a, alpha)
            jb_g, jb_vals, j_b = self.j_best(b, alpha)
            c_a, _ = self.tables(a)
            c_b, _ = self.tables(b)
            branch_a = _apow(sum(c_a.values()), alpha / 2.0) - j_b
            branch_b = _apow(sum(c_b.values()), alpha / 2.0) - j_a
            if branch_a >= branch_b:
                rhs, cert = branch_a, self._cert(ja_g, ja_vals)
            else:
                rhs, cert = branch_b, self._cert(jb_g, jb_vals)
            return _report(theorem_id, alpha, _apow(lhs_val, alpha), rhs, cert)

        if theorem_id in ("thm4", "thm8"):
            a, b = foci
            ja_g, ja_vals, j_a = self.j_best(a, alpha)
            _, _, j_b = self.j_best(b, alpha)
            if theorem_id == "thm4":
                lhs = _apow(self.cut_concurrence((a, b)), alpha)
                rhs = j_a + j_b
            else:
                r = self.cut_rank((a, b))
                lhs = _apow(self.cut_negativity((a, b)), alpha)
                rhs = _apow(r * (r - 1) / 2.0, alpha / 2.0) * (j_a + j_b)
            return _report(theorem_id, alpha, lhs, rhs, self._cert(ja_g, ja_vals))

        a, b, c1 = foci
        lhs = _apow(self.cut_concurrence((a, b, c1)), alpha)
        ja_g, ja_vals, j_a = self.j_best(a, alpha)
        jb_g, jb_vals, j_b = self.j_best(b, alpha)
        jc_g, jc_vals, j_c = self.j_best(c1, alpha)
        if theorem_id in ("cor1_thm2", "cor1_thm3"):
            if theorem_id == "cor1_thm2":
                ga, ca_a, front_a = self.front_best(a, alpha)
                gb, ca_b, front_b = self.front_best(b, alpha)
                branch_a, branch_b = front_a - j_b, front_b - j_a
                cert = self._cert(ga, ca_a) if branch_a >= branch_b \
                    else self._cert(gb, ca_b)
            else:
                c_a, _ = self.tables(a)
                c_b, _ = self.tables(b)
                branch_a = _apow(sum(c_a.values()), alpha / 2.0) - j_b
                branch_b = _apow(sum(c_b.values()), alpha / 2.0) - j_a
                cert = self._cert(ja_g, ja_vals) if branch_a >= branch_b \
                    else self._cert(jb_g, jb_vals)
            rhs = max(branch_a, branch_b) - j_c
            return _report(theorem_id, alpha, lhs, rhs, cert)

        if theorem_id == "cor2_lower":
            if self.cut_concurrence((a, b)) > self.cut_concurrence((c1,)) + SLACK_TOL:
                return _not_applicable("cor2_lower", alpha, lhs)
            c_c, _ = self.tables(c1)
            rhs = _apow(sum(c_c.values()), alpha / 2.0) - j_a - j_b
            return _report("cor2_lower", alpha, lhs, rhs, self._cert(jc_g, jc_vals))

        rhs = j_a + j_b + j_c
        return _report("cor2_upper", alpha, lhs, rhs, self._cert(jc_g, jc_vals))

    def _eval_jin(self, focus: int, alpha: float) -> BoundReport:
        lhs = _apow(self.cut_concurrence((focus,)), alpha)
        grouping = self._best_grouping(focus, "jin", alpha)
        if grouping is None:
            return _not_applicable("jin", alpha, lhs)
        vals = _grouped_sums(self.tables(focus)[1], grouping)
        cert = OrderingCertificate(grouping, vals, True)
        return _report("jin", alpha, lhs, _jin_sum(vals, alpha), cert)


def optimize_grouping(psi: PureState, focus, alpha: float,
                      objective: str | None = None,
                      theorem_id: str = "thm1") -> BoundReport:
    """Search all feasible ordered groupings and return the best bound.

    ``objective`` is ``"min-upper"`` for upper bounds and ``"max-lower"`` for
    lower bounds; when omitted it is inferred from the bound direction.  The
    merged single-group fallback is always feasible, so a report is always
    produced, except for the singleton-only bound ``jin`` which is reported
    not-applicable when no singleton order is dominance-feasible.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem_id {theorem_id!r}")
    expected = "min-upper" if _DIRECTION[theorem_id] == "upper" else "max-lower"
    if objective is None:
        objective = expected
    if objective != expected:
        raise ValueError(
            f"{theorem_id} needs objective {expected!r}, got {objective!r}")
    return StateEvaluator(psi).evaluate(theorem_id, alpha, foci=focus)

"""Weighted monogamy and polygamy bound evaluation for multiqubit pure states.

Every bound here compares a cut entanglement (concurrence or negativity raised
to a power ``alpha`` in [0, 2]) against a weighted combination of pairwise
measures.  The pairwise terms are aggregated over an ordered grouping of the
non-focus qubits; the geometric weight ``h = 2**(alpha/2) - 1`` multiplies
successive groups.  Each evaluator enforces the dominance precondition the
weighting relies on: every group's squared assistance value must be at least
the sum over all later groups.

Each bound id has one ``BoundSpec`` row in ``BOUNDS``, and only
``StateEvaluator.evaluate`` computes a bound.  Its ``groupings=`` argument
picks the grouping provider.  None takes each focus's best grouping: the
merged group for the geometric sum J (exact by the paper's Lemma), the
descending singleton order for jin, and a search for the front sum.
Explicit groupings, which the public ``thm*``/``jin``/``cor*`` functions
pass, are checked and used as given.

The weighted sums have one kernel each: ``_j_sum`` for J and jin, and
``_front_sum`` for every lead term, the total C^2 being the front sum of one
group.  The dominance precondition has one test, ``_dominates``, which the
front search and ``feasibility`` both read.

Conventions:
  * ``0**alpha`` is taken as 0 for every alpha in [0, 2], including alpha = 0.
  * ``slack >= 0`` means the inequality holds; reports are flagged satisfied
    down to ``-1e-9`` to absorb eigensolver noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import add
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .measures import (
    _cut_measures,
    _keep_mu_values,
    coa_two_qubit,
    concurrence_two_qubit,
)
from .qcore import (
    PureState,
    _amplitude_tensor,
    _gram_density,
    _reduced_densities,
    _schmidt_spectra,
    _subsystem,
    qubit_index,
    reduced_density,
    to_density,
)

SLACK_TOL = 1e-9
FEAS_TOL = 1e-12
_TIE_TOL = 1e-12
_MAX_OPT_PARTNERS = 8
# Range grids are rounded to this many decimals, so a smaller step repeats values.
_ALPHA_DIGITS = 12
_ALPHA_RESOLUTION = 10.0 ** -_ALPHA_DIGITS
# A grid may hold at most this many values; a longer range is refused before it is built.
_MAX_ALPHA_VALUES = 10_000


@dataclass(frozen=True)
class BoundSpec:
    """The shape of one bound, as ``StateEvaluator.evaluate`` reads it.

    ``direction`` is "upper" (the rhs bounds the cut from above) or "lower".
    ``cut`` is the lhs measure of the foci's cut: "C" concurrence, "N"
    negativity.  ``rhs`` combines the foci's groupings:

    * ``pair_sum``: squared pairwise C (lower) or Ca (upper) against the
      squared cut, at alpha = 2 only (``fixed_alpha``);
    * ``jin``: the (alpha/2)-weighted singleton assistance sum;
    * ``j``: the sum of the foci's geometric assistance sums ``J``; ``rank_j``
      scales it by ``(r(r-1)/2)^(alpha/2)``, r the cut's Schmidt rank;
    * ``front`` / ``total``: the larger branch "lead term of focus A (B)
      minus ``J`` of B (A)", the lead being the front-weighted C sum, or
      the total C^2 to the power alpha/2, which is the front sum of the
      merged group; the ``J`` of every focus after the first two (cor1's
      ``J_C1``) is then subtracted;
    * ``center_total``: total C^2 of focus ``center`` to the power alpha/2
      minus the other foci's ``J``; not applicable when the other foci's
      cut exceeds the ``center`` cut (``center_cuts``).

    ``center`` is the focus whose grouping certifies a non-branch report.
    """

    direction: str
    arity: int
    min_qubits: int
    cut: str
    rhs: str
    center: int = 0

    @property
    def foci(self) -> tuple[int, ...]:
        """The default foci: qubits 0..arity-1."""
        return tuple(range(self.arity))

    @property
    def fixed_alpha(self) -> bool:
        """Whether the bound is read at alpha = 2 only, whatever the grid."""
        return self.rhs == "pair_sum"

    def center_cuts(self, foci: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``center_total``'s two extra cuts on ``foci``: the center alone, and
        the other foci, whose cut must not exceed the center's."""
        c = self.center
        return (foci[c],), foci[:c] + foci[c + 1:]


BOUNDS: dict[str, BoundSpec] = {
    "ckw": BoundSpec("lower", 1, 2, "C", "pair_sum"),
    "coa_dual": BoundSpec("upper", 1, 2, "C", "pair_sum"),
    "jin": BoundSpec("upper", 1, 2, "C", "jin"),
    "thm1": BoundSpec("upper", 1, 2, "C", "j"),
    "thm2": BoundSpec("lower", 2, 4, "C", "front"),
    "thm3": BoundSpec("lower", 2, 4, "C", "total"),
    "thm4": BoundSpec("upper", 2, 4, "C", "j"),
    "thm5": BoundSpec("upper", 1, 2, "N", "j"),
    "thm6": BoundSpec("lower", 2, 4, "N", "front"),
    "thm7": BoundSpec("lower", 2, 4, "N", "total"),
    "thm8": BoundSpec("upper", 2, 4, "N", "rank_j"),
    "cor1_thm2": BoundSpec("lower", 3, 6, "C", "front"),
    "cor1_thm3": BoundSpec("lower", 3, 6, "C", "total"),
    "cor2_lower": BoundSpec("lower", 3, 6, "C", "center_total", center=2),
    "cor2_upper": BoundSpec("upper", 3, 6, "C", "j", center=2),
}

THEOREM_IDS = tuple(BOUNDS)


def _focus_pairs(focus: int, num_qubits: int) -> dict[int, tuple[int, int]]:
    """The ``(low, high)`` pair key of ``focus`` with each partner qubit."""
    return {p: (focus, p) if focus < p else (p, focus)
            for p in range(num_qubits) if p != focus}


def spectra_keys(theorem_ids: Iterable[str], num_qubits: int
                 ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The pairs and cuts that ``evaluate`` reads for these bounds at their
    default foci, each once, as ``fill_spectra`` takes them.

    Every focus reads the pairs it belongs to, and every bound the cut of its
    foci; ``center_total`` also reads the cut of its center and the cut of
    the other foci.  The keys are immutable tuples, derived once per
    (theorem ids, qubit count).
    """
    return _spectra_keys(tuple(theorem_ids), num_qubits)


@lru_cache(maxsize=256)
def _spectra_keys(theorem_ids: tuple[str, ...], num_qubits: int
                  ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    pairs: dict[tuple[int, int], None] = {}
    cuts: dict[tuple[int, ...], None] = {}
    for tid in theorem_ids:
        spec = BOUNDS[tid]
        foci = spec.foci
        for f in foci:
            pairs.update(dict.fromkeys(_focus_pairs(f, num_qubits).values()))
        cuts[foci] = None
        if spec.rhs == "center_total":
            cuts.update(dict.fromkeys(spec.center_cuts(foci)))
    return tuple(pairs), tuple(cuts)


def search_mode(num_qubits: int) -> str:
    """Front-sum search for ``num_qubits``: exhaustive within the partner cap,
    else canonical."""
    return "exhaustive" if num_qubits - 1 <= _MAX_OPT_PARTNERS else "canonical"


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
            idx = tuple(sorted(i if type(i) is int else qubit_index(i, None, "group member")
                               for i in g))
            if not idx:
                raise ValueError("groups must be non-empty")
            if not seen.isdisjoint(idx):
                raise ValueError(f"groups are not disjoint at {idx}")
            seen.update(idx)
            norm.append(idx)
        object.__setattr__(self, "groups", tuple(norm))

    @classmethod
    def singletons(cls, order: Iterable[int]) -> "Grouping":
        return cls(tuple((q,) for q in order))

    @classmethod
    def merged(cls, members: Iterable[int]) -> "Grouping":
        return cls((tuple(members),))

    @property
    def k(self) -> int:
        return len(self.groups)

    def members(self) -> frozenset[int]:
        return frozenset(q for g in self.groups for q in g)

    def __str__(self):
        """Groups joined by "|", members by ","; built once per instance.

        A grouping is frozen, so its text cannot go stale.  The text is kept
        outside the dataclass fields: equality and hashing stay field-based.
        """
        text = vars(self).get("_text")
        if text is None:
            text = "|".join(",".join(str(q) for q in g) for g in self.groups)
            object.__setattr__(self, "_text", text)
        return text


@dataclass(frozen=True)
class OrderingCertificate:
    """Squared assistance values per group and whether the order is dominant."""

    grouping: Grouping | None
    squared_values: tuple[float, ...]
    feasible: bool


# A dominance-feasible grouping with its certificate and its grouped squared
# concurrences: all that a term needs besides alpha.
Certified = tuple[Grouping, OrderingCertificate, tuple[float, ...]]


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


class BoundColumns(NamedTuple):
    """One bound evaluated over an alpha grid, as columns of its rows.

    Row ``i`` is the report at ``alpha[i]``: ``lhs``, ``rhs``, ``slack``,
    ``satisfied`` and the ordering certificate ``ordering`` each hold one
    value per row, and ``applicable`` holds for every row.  A fixed-alpha
    bound has the one row alpha = 2, whatever the grid.  Rows that are not
    applicable carry NaN rhs/slack, no ordering and ``satisfied``.
    """

    theorem_id: str
    alpha: tuple[float, ...]
    lhs: list[float]
    rhs: list[float]
    slack: list[float]
    satisfied: list[bool]
    ordering: list[OrderingCertificate | None]
    applicable: bool

    def report(self, i: int) -> BoundReport:
        """The ``BoundReport`` of row ``i``.

        Built as ``qcore._gram_density`` builds its matrices: ``object.__new__``
        and one update of the field dict, which skips the frozen dataclass's
        per-field ``object.__setattr__`` calls.  Equality, hashing and ``repr``
        read the same fields, and setting one still raises.
        """
        report = object.__new__(BoundReport)
        vars(report).update(theorem_id=self.theorem_id, alpha=self.alpha[i], lhs=self.lhs[i],
                            rhs=self.rhs[i], slack=self.slack[i], ordering=self.ordering[i],
                            satisfied=self.satisfied[i], applicable=self.applicable)
        return report


@dataclass(frozen=True)
class AlphaGrid:
    """Strictly increasing exponents within [0, 2]; a bool is refused."""

    values: tuple[float, ...]

    def __post_init__(self):
        given = tuple(self.values)
        if any(isinstance(v, (bool, np.bool_)) for v in given):
            raise ValueError(f"alpha values must be numbers, not booleans, got {given!r}")
        # ``+ 0.0`` turns -0.0 into 0.0 and leaves every other value as it is,
        # so "-0" reads and prints as alpha 0.
        vals = tuple(float(v) + 0.0 for v in given)
        if not vals:
            raise ValueError("alpha grid must be non-empty")
        if len(vals) > _MAX_ALPHA_VALUES:
            raise ValueError(f"alpha grid has {len(vals)} values, more than the maximum "
                             f"{_MAX_ALPHA_VALUES}")
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
        if not (0.0 <= start <= 2.0 and 0.0 <= stop <= 2.0):
            raise ValueError("alpha values must lie in [0, 2]")
        if step < _ALPHA_RESOLUTION:
            raise ValueError(f"step must be at least {_ALPHA_RESOLUTION:g}, the grid's "
                             f"rounding resolution, got {step!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count > _MAX_ALPHA_VALUES:
            raise ValueError(f"alpha range has {count} values, more than the maximum "
                             f"{_MAX_ALPHA_VALUES}")
        # The count's slack admits a last value up to 1e-9 steps past stop; drop it.
        top = round(stop, _ALPHA_DIGITS)
        values = (round(start + k * step, _ALPHA_DIGITS) for k in range(count))
        return cls(tuple(v for v in values if v <= top))

    @classmethod
    def default(cls) -> "AlphaGrid":
        # Starts above 0 so the 0**0 convention never matters on default runs.
        return cls.from_range(0.05, 2.0, 0.05)

    @cached_property
    def weights(self) -> tuple[tuple[float, float], ...]:
        """``(p, h)`` = ``(alpha/2, h_weight(alpha))`` of each value, built once per grid."""
        return tuple((a / 2.0, h_weight(a)) for a in self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def h_weight(alpha: float) -> float:
    """Geometric weight 2**(alpha/2) - 1; lies in [0, 1] and below alpha/2.
    A bool alpha is refused, as a bool qubit index is."""
    if isinstance(alpha, (bool, np.bool_)):
        raise ValueError(f"alpha must be a number, not a boolean, got {alpha!r}")
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"alpha must be in [0, 2], got {alpha}")
    return 2.0 ** (alpha / 2.0) - 1.0


def lemma_check(x: float, y: float, alpha: float) -> tuple[bool, bool]:
    """Truth of (x-y)^a >= x^a - y^a and (x+y)^a <= x^a + y^a for finite
    x >= y >= 0; NaN and infinite x or y are refused."""
    if not 0 <= y <= x < math.inf:
        raise ValueError("requires finite x >= y >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("requires 0 <= alpha <= 1")
    first = (x - y) ** alpha >= x ** alpha - y ** alpha - 1e-12
    second = (x + y) ** alpha <= x ** alpha + y ** alpha + 1e-12
    return first, second


def _dominates(head: float, tail: float) -> bool:
    """The dominance rule: a group's squared assistance value ``head`` is at
    least the sum ``tail`` over all later groups, within ``FEAS_TOL``.
    ``feasibility`` and the front search both read it."""
    return head >= tail - FEAS_TOL


def feasibility(values_sq: Sequence[float],
                grouping: Grouping | None = None) -> OrderingCertificate:
    """Certificate for the dominance precondition in the given order.

    Feasible iff every value dominates the sum of all later values
    (``_dominates``).  A single group is vacuously feasible.  A value below
    ``-FEAS_TOL``, NaN or infinite is refused with ``ValueError``.
    """
    vals = tuple(float(v) for v in values_sq)
    if not vals:
        raise ValueError("at least one squared value is required")
    if not all(-FEAS_TOL <= v < math.inf for v in vals):
        raise ValueError("squared values must be finite and non-negative")
    tail = list(itertools.accumulate(reversed(vals)))[::-1]
    feasible = all(_dominates(vals[t], tail[t + 1]) for t in range(len(vals) - 1))
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


def _sum_in_order(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, as ``_subset_sums`` and
    ``feasibility`` add them.  Built-in ``sum`` of floats is compensated from
    Python 3.12 on, so it would round differently across versions."""
    return reduce(add, values, 0.0)


def _grouped_sums(pair_sq: Mapping[int, float], grouping: Grouping) -> tuple[float, ...]:
    return tuple(_sum_in_order(pair_sq[q] for q in g) for g in grouping.groups)


def _require_feasible(pair_sq: Mapping[int, float], grouping: Grouping,
                      what: str) -> OrderingCertificate:
    cert = feasibility(_grouped_sums(pair_sq, grouping), grouping)
    if not cert.feasible:
        raise InfeasibleGroupingError(
            f"grouping {grouping} violates the dominance precondition for {what}; "
            "reorder or merge groups")
    return cert


# The two weighted sums of the bounds.  Each takes ``p = alpha/2`` and a
# weight, and reads a value at or below 0 as 0 (``0**alpha`` is 0); a single
# group is one ``**``, and several are added by ``_sum_in_order``.

def _j_sum(grouped_sq: Sequence[float], p: float, ratio: float) -> float:
    """sum_i ratio^(i-1) * (g_i^2)^p over the groups in order: J with
    ``ratio = h_weight(alpha)``, jin with ``ratio = p``."""
    if len(grouped_sq) == 1:  # the merged group
        return grouped_sq[0] ** p if grouped_sq[0] > 0.0 else 0.0
    return _sum_in_order((ratio ** i) * (v ** p if v > 0.0 else 0.0)
                         for i, v in enumerate(grouped_sq))


def _front_sum(c_sums: Sequence[float], p: float, h: float) -> float:
    """h * sum_{i<k} (g_i^2)^p + (g_k^2)^p over the groups in order: the
    front-weighted C sum; of one group, the total C^2 to the power p."""
    if len(c_sums) == 1:  # the merged group
        return c_sums[0] ** p if c_sums[0] > 0.0 else 0.0
    terms = [v ** p if v > 0.0 else 0.0 for v in c_sums]
    return h * _sum_in_order(terms[:-1]) + terms[-1]


def _per_focus(groupings) -> tuple:
    """``groupings`` as a tuple; a non-iterable gives () and fails the count check."""
    try:
        return tuple(groupings)
    except TypeError:
        return ()


# ---------------------------------------------------------------------------
# Bounds on caller-given groupings (one StateEvaluator.evaluate each)
# ---------------------------------------------------------------------------

def thm1_upper(psi: PureState, focus: int, grouping: Grouping,
               alpha: float) -> BoundReport:
    """Geometric-weight polygamy bound on the focus-vs-rest concurrence.

    ``C^a(focus|rest) <= sum_i h^(i-1) Ca^a(group_i)`` where each group's
    squared assistance value is the sum of its pairwise values and groups obey
    the dominance precondition.
    """
    return StateEvaluator(psi).evaluate("thm1", alpha, (focus,), (grouping,))


def jin_upper(psi: PureState, focus: int, ordering: Sequence[int],
              alpha: float) -> BoundReport:
    """(alpha/2)-weighted singleton polygamy bound, for comparison with thm1."""
    return StateEvaluator(psi).evaluate("jin", alpha, (focus,),
                                        (Grouping.singletons(ordering),))


def ckw_check(psi: PureState, focus: int) -> BoundReport:
    """Squared-concurrence monogamy: sum of pairwise C^2 below the cut C^2."""
    return StateEvaluator(psi).evaluate("ckw", 2.0, (focus,))


def coa_dual_check(psi: PureState, focus: int) -> BoundReport:
    """Squared-assistance polygamy: cut C^2 below the sum of pairwise Ca^2."""
    return StateEvaluator(psi).evaluate("coa_dual", 2.0, (focus,))


def thm5_upper(psi: PureState, focus: int, grouping: Grouping,
               alpha: float) -> BoundReport:
    """Negativity counterpart of thm1, using CRENOA values per pair.

    On qubit reductions the pairwise CRENOA equals the concurrence of
    assistance, so the bound side coincides with thm1; the cut side is the
    negativity, which dominates the cut concurrence.
    """
    return StateEvaluator(psi).evaluate("thm5", alpha, (focus,), (grouping,))


def thm2_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Monogamy lower bound on C^a(AB|rest) from grouped pairwise terms.

    Each branch puts weight h on all but the last group's concurrence term,
    weight 1 on the last, and subtracts the other focus qubit's geometric
    assistance sum.  The larger branch is reported.
    """
    return StateEvaluator(psi).evaluate("thm2", alpha, (a, b), (grouping_a, grouping_b))


def thm3_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Monogamy lower bound using each focus qubit's total pairwise C^2."""
    return StateEvaluator(psi).evaluate("thm3", alpha, (a, b), (grouping_a, grouping_b))


def thm4_upper(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Polygamy upper bound C^a(AB|rest) <= J_A + J_B."""
    return StateEvaluator(psi).evaluate("thm4", alpha, (a, b), (grouping_a, grouping_b))


def thm6_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Negativity counterpart of thm2 (CREN/CRENOA pairwise terms)."""
    return StateEvaluator(psi).evaluate("thm6", alpha, (a, b), (grouping_a, grouping_b))


def thm7_lower(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Negativity counterpart of thm3."""
    return StateEvaluator(psi).evaluate("thm7", alpha, (a, b), (grouping_a, grouping_b))


def thm8_upper(psi: PureState, a: int, b: int, grouping_a: Grouping,
               grouping_b: Grouping, alpha: float) -> BoundReport:
    """Schmidt-rank-scaled negativity upper bound across the AB cut.

    ``N^a(AB|rest) <= (r(r-1)/2)^(a/2) (J'_A + J'_B)`` where r is the Schmidt
    rank of the cut.
    """
    return StateEvaluator(psi).evaluate("thm8", alpha, (a, b), (grouping_a, grouping_b))


def cor1_lower(psi: PureState, a: int, b: int, c1: int, groupings,
               alpha: float, variant: str = "thm3") -> BoundReport:
    """Lower bound on C^a(ABC1|rest): a two-focus bound minus J_{C1}.

    ``variant`` selects whether the two-focus part follows the thm2 or the
    thm3 branch structure.
    """
    if variant not in ("thm2", "thm3"):
        raise ValueError("variant must be 'thm2' or 'thm3'")
    return StateEvaluator(psi).evaluate(f"cor1_{variant}", alpha, (a, b, c1),
                                        _per_focus(groupings))


def cor2_bounds(psi: PureState, a: int, b: int, c1: int, groupings,
                alpha: float) -> tuple[BoundReport, BoundReport]:
    """Lower and upper bounds on C^a(ABC1|rest) centered on qubit c1.

    The lower bound only applies when the AB cut does not exceed the c1 cut;
    otherwise it is reported as not applicable, never as violated.  The upper
    bound ``J_A + J_B + J_{C1}`` is always evaluated.
    """
    ev, groupings = StateEvaluator(psi), _per_focus(groupings)
    return (ev.evaluate("cor2_lower", alpha, (a, b, c1), groupings),
            ev.evaluate("cor2_upper", alpha, (a, b, c1), groupings))


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
        for size in range(1, len(remaining) + 1):
            for block in itertools.combinations(remaining, size):
                left = tuple(x for x in remaining if x not in block)
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


@lru_cache(maxsize=256)
def _shared_grouping(partners: tuple[int, ...], masks: tuple[int, ...]) -> Grouping:
    """The grouping whose groups are the given bit masks over the sorted
    ``partners``, in order, built and validated once per process.

    A ``Grouping`` is frozen and keeps its text on itself, so one instance
    serves every state: the merged group, each searched chain and each
    descending singleton order.  Certificates, which hold a state's values,
    are never shared.  Few keys recur: on the three benchmark workloads
    99.6-99.9% of lookups hit, and the whole CLI digest command set (every
    family at 2-12 qubits) leaves 61 keys, so 256 entries keep every common
    key while bounding what an unusual stream of states can hold.
    """
    return Grouping(tuple(tuple(q for i, q in enumerate(partners) if t >> i & 1)
                          for t in masks))


def _shared_merged(partners: tuple[int, ...]) -> Grouping:
    """The shared merged group of the sorted ``partners``."""
    return _shared_grouping(partners, ((1 << len(partners)) - 1,))


def _subset_sums(values: Sequence[float]) -> list[float]:
    """Sum over every bit mask, added in ascending position like ``_grouped_sums``."""
    sums = [0.0] * (1 << len(values))
    for s in range(1, len(sums)):
        top = s.bit_length() - 1
        sums[s] = sums[s ^ (1 << top)] + values[top]
    return sums


def _chain_dp(splits: Mapping[int, Sequence[tuple[int, int]]],
              lead: Sequence[float], h: float) -> tuple[list[float], list[int]]:
    """``(value, pick)`` of the minimal chain over every subset: its value and
    its leading group.

    ``value(s)`` is the smaller of ``lead[s]`` (the whole subset as one group)
    and, over ``(t, r)`` in ``splits[s]``, ``h * lead[t] + value(r)``.  A
    subset that ``splits`` does not hold is a leaf: its value is ``lead[s]``
    and its pick the subset itself.  The subsets are visited in ``splits``
    order, which puts every rest ``r`` before the subsets that split into it.
    The whole subset is the first candidate and the splits follow in search
    order; a split replaces the current best only when it is lower by more
    than ``_TIE_TOL``.  So at each subset a tie keeps the whole subset, and
    after that the first leading group.
    """
    value, pick = list(lead), list(range(len(lead)))
    for s, row in splits.items():
        best, best_t = lead[s], s
        for t, r in row:
            v = h * lead[t] + value[r]
            if v < best - _TIE_TOL:
                best, best_t = v, t
        value[s], pick[s] = best, best_t
    return value, pick


class _SplitSearch:
    """Dominance-feasible splits of one focus's partners, shared by every alpha.

    Subsets of the sorted partners are bit masks.  ``_row(s)`` holds each
    ``(t, s ^ t)`` whose ``Ca2(t)`` dominates ``Ca2(s ^ t)`` by the rule that
    ``feasibility`` applies (``_dominates``), in search order, so a
    feasible grouping of ``s`` is a feasible split followed by a feasible
    grouping of the rest.  ``splits`` keeps the row of each subset
    that is reachable from the full set and has a C^2 sum above 0: the full
    set and every rest of a kept row.  C^2 values are non-negative, so every
    grouping of a subset whose C^2 sum is 0 reads 0 at every alpha, and the
    tie rule keeps the whole subset: it is a leaf, with no row, whose rests
    are not expanded.  When the full set's C^2 sum is 0, as on Haar states
    at 8 qubits and on GHZ states, ``splits`` is empty and no DP runs: the
    C^2 subset sums ``c`` are not built (None), no mask is scanned, and no
    ``_row`` reads the Ca^2 subset sums or ``_split_table``.  ``full`` is
    the full set's mask.  A rest is a proper sub-mask, so a descending scan
    reaches each subset after every subset that splits into it, and the
    rows are kept in ascending order, rests first.
    """

    def __init__(self, c_sq: Mapping[int, float], ca_sq: Mapping[int, float]):
        self.partners = tuple(sorted(ca_sq))
        values = [float(c_sq[q]) for q in self.partners]
        self.full = (1 << len(values)) - 1
        self._ca_sq = ca_sq
        self.splits: dict[int, list[tuple[int, int]]] = {}
        self.c = _subset_sums(values) if any(values) else None
        if self.c is None:
            return
        reached = [False] * self.full + [True]
        splits = {}
        for s in range(self.full, 0, -1):
            if reached[s] and self.c[s] != 0.0:
                splits[s] = row = self._row(s)
                for _, r in row:
                    reached[r] = True
        self.splits = dict(reversed(splits.items()))

    @cached_property
    def _ca(self) -> list[float]:
        return _subset_sums([self._ca_sq[q] for q in self.partners])

    def _row(self, s: int) -> list[tuple[int, int]]:
        """The dominance-feasible splits ``(t, s ^ t)`` of ``s``, in search order."""
        ca = self._ca
        return [(t, s ^ t) for t in _split_table(len(self.partners))[s]
                if _dominates(ca[t], ca[s ^ t])]

    def grouping(self, masks: Iterable[int]) -> Grouping:
        """The grouping whose groups are the given partner masks, in order,
        shared across states by ``_shared_grouping``."""
        return _shared_grouping(self.partners, tuple(masks))

    def chain(self, p: float, h: float) -> tuple[int, ...]:
        """Leading-group masks of the grouping that maximizes the front-weighted
        C sum at ``p = alpha/2`` and ``h = h_weight(alpha)``; ``grouping``
        turns them into the grouping."""
        s = self.full
        if not self.splits:  # the full set's C^2 sum is 0: the merged group
            return (s,)
        # The front sum is maximized: minimize its negation.  Each lead is
        # the negated one-group ``_front_sum`` of the subset, inlined.
        pick = _chain_dp(self.splits, [-(v ** p) if v > 0.0 else -0.0 for v in self.c], h)[1]
        chain = []
        while s:
            chain.append(pick[s])
            s ^= pick[s]
        return tuple(chain)

    def groupings(self):
        """Every feasible grouping, in ``ordered_groupings`` order."""
        def walk(s):
            for t, r in self._row(s):
                for tail in walk(r):
                    yield (t,) + tail
            yield (s,)

        for chain in walk(self.full):
            yield self.grouping(chain)


def _descending_singletons(pair_sq: Mapping[int, float]) -> Grouping | None:
    """Singletons in descending order of value when dominance-feasible, else None.

    A feasible singleton order is non-increasing, since each value is at
    least the sum of all later ones, so this is the only candidate.
    """
    partners = tuple(sorted(pair_sq))
    order, cert = sort_descending_then_check([pair_sq[q] for q in partners])
    return _shared_grouping(partners, tuple(1 << i for i in order)) if cert.feasible else None


def canonical_grouping(pair_sq: Mapping[int, float]) -> Grouping:
    """Descending singleton order when dominance-feasible, else one merged group.

    The merged single group is vacuously feasible, so this always returns a
    usable grouping without searching.
    """
    return _descending_singletons(pair_sq) or _shared_merged(tuple(sorted(pair_sq)))


class StateEvaluator:
    """Keeps the alpha-independent values of one state that its calls read again.

    Each distinct qubit pair is reduced and measured once, whichever focus
    asks for it, and the focus tables are read from those pair values; its C
    and Ca come from one mu spectrum and are kept with it on the pair's
    ``DensityMatrix``.  Each distinct cut is reduced once and its
    concurrence, negativity and Schmidt rank all come from that one
    spectrum.  ``fill_spectra`` is the one path that solves them: ``verify``
    and ``sweep`` fill every pair and cut that ``spectra_keys`` names up
    front, for a whole chunk of states with one stacked reduction per pair,
    one stacked ``eigh`` + ``svd`` and one ``eigvalsh`` per cut size, and a
    later miss in ``tables`` or ``_cut`` fills as a chunk of one.

    ``evaluate`` computes a bound in one pass over its ``BOUNDS`` row and
    keeps nothing per bound: it reads the lhs cut value, the C^2 totals and
    each focus's J certificate off these caches and adds only the alpha
    arithmetic, by two kernels: ``_j_sum`` for J and jin, and ``_front_sum``
    for every lead term, the searched ones from ``front_best``.  With
    ``groupings=`` the caller's checked groupings take the place of J's
    certificates and of the searched fronts.  Five dicts are kept: the pair
    values (``_pairs``), the focus tables (``_tables``), the cut values
    (``_cuts``), each focus's merged-group ``Certified`` triple (grouping,
    certificate, grouped C sums; ``_merged``) and ``front_best``'s column
    per (focus, grid values) (``_fronts``), which thm2, thm6 and cor1_thm2
    share.  jin certifies its descending singleton order on each call, and
    a column certifies each chain of leading groups once; the ``Grouping``
    objects themselves are shared by every state (``_shared_grouping``).
    The weights ``(alpha/2, h_weight(alpha))`` are the grid's own
    (``AlphaGrid.weights``).  Every kept object is immutable or copied on
    the way out, and the state is fixed, so none can go stale; none refers
    back to its evaluator.

    * ``J`` takes the merged group.  The paper's Lemma gives
      ``(x + y)^p <= x^p + h y^p`` for ``x >= y``, ``p = a/2``; applied from
      the last group forwards, every dominance-feasible grouping has
      ``J >= Ca2(all)^(a/2)``, the merged group's value.
    * jin takes the descending singleton order, the only feasible one.
    * The front sum is searched.  Up to 8 non-focus qubits (``search_mode``)
      one pass solves ``F(S) = max(C2(S)^(a/2), max_T h C2(T)^(a/2) + F(S - T))``
      over the leading groups ``T`` with ``Ca2(T) >= Ca2(S - T)``, without
      listing the Fubini(m) groupings.  It visits only the subsets ``S``
      reachable from the full partner set through such splits, with their
      (subset, leading group) pairs, at most 3^m of them for m partners;
      the rows and their order are built once per front column and shared
      by every alpha of its grid.  Values within ``_TIE_TOL`` tie, and a
      tie keeps the whole subset, then the leading group that comes first
      by size and then lexicographically, at every subset.  A subset whose
      C^2 sum is 0 reads 0 under every grouping, so it is kept whole with no
      row; a focus whose pair C are all 0 takes the merged group with no DP
      at all.  Above 8 non-focus qubits the front sum takes the merged
      group, or ``canonical_grouping`` at an alpha where its front sum is
      strictly larger (the tie rule of the search), by a measured decision.
      On a 12-qubit Gaussian W-class focus the exact search would cost
      0.1-0.18 s to build ``_split_table(11)`` once per process, 10-13 ms
      of split rows and 61-72 ms of DPs for the 40 default alphas (11, 3
      and 8-14 ms at 10 qubits), against ~6 ms for a whole 12-qubit
      ``verify``.  The price is tightness: over 30 states per size at 10-12
      qubits, the exact optimum beats this front sum by up to 0.03-0.07 on
      GHZ+W states, by up to 0.01 on log-uniform W-class states over 6
      decades, and not at all on Haar or Gaussian W-class states.

    Reported values are always summed over the chosen grouping.
    """

    def __init__(self, psi: PureState):
        self.psi = psi
        self.search = search_mode(psi.num_qubits)
        self._pairs: dict[tuple[int, int], tuple[float, float]] = {}
        self._tables: dict[int, tuple[dict[int, float], dict[int, float]]] = {}
        self._cuts: dict[tuple[int, ...], tuple[float, float, int]] = {}
        self._merged: dict[int, Certified] = {}
        self._fronts: dict[tuple[int, tuple[float, ...]], list[tuple]] = {}

    # -- cached primitives ---------------------------------------------------

    def tables(self, focus: int) -> tuple[dict[int, float], dict[int, float]]:
        """``(c_sq, ca_sq)`` keyed by partner qubit, as ``pairwise_tables``.

        Read from the kept pair values; ``fill_spectra``, as a chunk of one,
        first solves the focus's pairs that are not yet kept, if any.  The
        focus is checked once, before any kept table answers for it.  A focus with no
        partner qubit, on a 1-qubit state, is refused with ``ValueError``;
        every search and best grouping reads its tables here first.
        """
        if type(focus) is not int or focus not in self._tables:
            n = self.psi.num_qubits
            focus = qubit_index(focus, n, "focus")
            if focus not in self._tables:
                keys = _focus_pairs(focus, n)
                if not keys:
                    raise ValueError(f"focus {focus} has no partner qubit to group")
                kept = self._pairs
                missing = [key for key in keys.values() if key not in kept]
                if missing:
                    fill_spectra((self,), missing, ())
                c_sq: dict[int, float] = {}
                ca_sq: dict[int, float] = {}
                for p, key in keys.items():
                    c_sq[p], ca_sq[p] = kept[key]
                self._tables[focus] = (c_sq, ca_sq)
        return self._tables[focus]

    def _cut(self, qubits: tuple[int, ...]) -> tuple[float, float, int]:
        """Concurrence, negativity and Schmidt rank across one cut."""
        key = tuple(sorted(qubits))
        if key not in self._cuts:
            fill_spectra((self,), (), (key,))
        return self._cuts[key]

    # The public cut readers check ``qubits`` before the cache is consulted,
    # so a cached cut never answers for an index that a fresh one refuses.
    def cut_concurrence(self, qubits: tuple[int, ...]) -> float:
        return self._cut(_subsystem(qubits, self.psi.num_qubits, name="cut"))[0]

    def cut_negativity(self, qubits: tuple[int, ...]) -> float:
        return self._cut(_subsystem(qubits, self.psi.num_qubits, name="cut"))[1]

    def cut_rank(self, qubits: tuple[int, ...]) -> int:
        return self._cut(_subsystem(qubits, self.psi.num_qubits, name="cut"))[2]

    def feasible_groupings(self, focus: int):
        """(grouping, ca_grouped, c_grouped) per dominance-feasible ordering.

        Lists what the search chooses from, in ``ordered_groupings`` order,
        by walking the search's feasible split rows from the full partner
        set, zero-C^2 subsets included; the search itself never builds this
        list.  The list has up to Fubini(m) entries, so m is capped at 8
        non-focus qubits.
        """
        c_sq, ca_sq = self.tables(focus)
        if len(ca_sq) > _MAX_OPT_PARTNERS:
            raise ValueError(f"feasible_groupings caps at {_MAX_OPT_PARTNERS} "
                             f"non-focus qubits, got {len(ca_sq)}")
        return [(g, _grouped_sums(ca_sq, g), _grouped_sums(c_sq, g))
                for g in _SplitSearch(c_sq, ca_sq).groupings()]

    def _certified(self, focus: int, grouping: Grouping) -> Certified:
        """``Certified`` triple of a grouping known to be feasible."""
        c_sq, ca_sq = self.tables(focus)
        return (grouping, OrderingCertificate(grouping, _grouped_sums(ca_sq, grouping), True),
                _grouped_sums(c_sq, grouping))

    def _merged_group(self, focus: int) -> Certified:
        """The merged group's ``Certified`` triple, kept once per focus."""
        merged = self._merged.get(focus)
        if merged is None:
            merged = self._merged[focus] = self._certified(
                focus, _shared_merged(tuple(sorted(self.tables(focus)[1]))))
        return merged

    # The term getters check a focus that is not an int and the alpha before
    # any kept value answers, so a warm evaluator refuses what a fresh one does.
    def j_best(self, focus: int, alpha: float):
        """``(grouping, certificate, J)`` of the merged group, which minimizes
        the geometric assistance sum: ``J = Ca2(all)^(alpha/2)`` by ``_j_sum``.
        ``evaluate`` reads the same kept certificate and computes the same J
        from it, so it never calls this."""
        if type(focus) is not int:
            focus = qubit_index(focus, self.psi.num_qubits, "focus")
        h = h_weight(alpha)
        grouping, cert, _ = self._merged_group(focus)
        return grouping, cert, _j_sum(cert.squared_values, alpha / 2.0, h)

    def front_best(self, focus: int, alpha: float | AlphaGrid):
        """``(grouping, certificate, front sum)`` of the assistance-feasible
        grouping that maximizes the front-weighted C sum, at one alpha, or
        the list of them over an ``AlphaGrid``, one per value.

        A float alpha is a grid of one: ``front_best(f, a)`` is
        ``front_best(f, AlphaGrid((a,)))[0]``.  The column is found once per
        (focus, grid values) and kept, as thm2, thm6 and cor1_thm2 share
        it; each call returns a fresh list.  Building it builds the focus's
        ``_SplitSearch`` and runs the chain DP once per alpha, and certifies
        each chain it picks once: alphas of the column that pick the same
        chain share one ``Certified`` triple, and every state shares the
        ``Grouping`` of a chain.  The sum is ``_front_sum`` of the grouping's
        C^2 sums, the kernel that ``evaluate`` applies to every other lead
        term.
        """
        if type(focus) is not int:
            focus = qubit_index(focus, self.psi.num_qubits, "focus")
        if isinstance(alpha, AlphaGrid):
            return self._front_column(focus, alpha)[:]
        h_weight(alpha)
        return self._front_column(focus, AlphaGrid((alpha,)))[0]

    def _front_column(self, focus: int, grid: AlphaGrid):
        """``front_best``'s kept column of one focus over one grid."""
        key = (focus, grid.values)
        column = self._fronts.get(key)
        if column is not None:
            return column
        c_sq, ca_sq = self.tables(focus)
        search = _SplitSearch(c_sq, ca_sq) if self.search == "exhaustive" else None
        column, chains = [], {}
        for p, h in grid.weights:
            chain = None if search is None else search.chain(p, h)
            certified = chains.get(chain)
            if certified is None:
                grouping = canonical_grouping(ca_sq) if search is None else search.grouping(chain)
                certified = chains[chain] = self._certified(focus, grouping)
            front = _front_sum(certified[2], p, h)
            if search is None:
                # The merged group is always feasible: as a tie keeps the
                # whole subset in the search, it stays unless the canonical
                # grouping's front sum is strictly larger.
                merged = self._merged_group(focus)
                merged_front = _front_sum(merged[2], p, h)
                if not front > merged_front:
                    certified, front = merged, merged_front
            column.append((certified[0], certified[1], front))
        self._fronts[key] = column
        return column

    # -- report assembly -----------------------------------------------------

    def _foci(self, theorem_id: str, spec: BoundSpec, foci) -> tuple[int, ...]:
        """Validated focus qubits: ``spec.arity`` distinct indices, 0.. by default."""
        n = self.psi.num_qubits
        if foci is None and n >= spec.min_qubits:  # the default foci are then valid
            return spec.foci
        try:
            foci = spec.foci if foci is None else tuple(foci)
        except TypeError:
            foci = (foci,)
        if len(foci) != spec.arity:
            raise ValueError(f"{theorem_id} takes {spec.arity} focus qubit(s), got {foci}")
        foci = tuple(qubit_index(q, n, "focus") for q in foci)
        if len(set(foci)) != len(foci):
            raise ValueError("focus qubits must be distinct")
        if n < spec.min_qubits:
            raise ValueError(f"{theorem_id} requires at least {spec.min_qubits} qubits, got {n}")
        return foci

    def _given(self, theorem_id: str, spec: BoundSpec, foci: tuple[int, ...],
               groupings) -> tuple[Certified, ...]:
        """The caller's grouping per focus, checked for cover and dominance."""
        given = _per_focus(groupings)
        if len(given) != len(foci):
            raise ValueError(f"{theorem_id} takes one grouping per focus qubit, got {groupings!r}")
        n = self.psi.num_qubits
        given = [_covering_grouping(g, frozenset(range(n)) - {f}) for f, g in zip(foci, given)]
        if spec.rhs == "jin" and given[0].k < n - 1:
            raise ValueError(f"jin takes singleton groups only, got {given[0]}")
        return tuple((g, _require_feasible(self.tables(f)[1], g, f"{theorem_id} (focus {f})"),
                      _grouped_sums(self.tables(f)[0], g))
                     for f, g in zip(foci, given))

    def evaluate(self, theorem_id: str, alpha: float | AlphaGrid, foci=None,
                 groupings=None) -> BoundReport | BoundColumns:
        """One bound read off its ``BOUNDS`` row, at one exponent or over a grid.

        ``alpha`` is one exponent, which gives a ``BoundReport``, or an
        ``AlphaGrid``, which gives the bound's ``BoundColumns``: one row per
        grid value, or the one alpha = 2 row of ``ckw`` and ``coa_dual``.  A
        report is row 0 of the columns of a one-value grid, so both share
        one body, ``_columns``.  ``foci`` defaults to qubits 0..arity-1.  A
        call checks the bound id, then alpha once (a grid checked its values
        when it was built), then the foci, then the caller's groupings, and
        computes the bound in one pass from the evaluator's kept alpha-free
        values: J and jin by ``_j_sum``, and each lead term by
        ``_front_sum``, from a total C^2 as one group, from a caller's
        grouping or, for a searched front, through ``front_best`` per
        (focus, grid).  thm3, thm7 and cor1_thm3 lead with each focus's total
        C^2 as one group, and report the winning focus's J certificate, as
        caller front bounds do.  Otherwise ``groupings`` holds one grouping
        per focus; each must cover its focus's partners and pass the
        dominance check (else ``InfeasibleGroupingError``), and it is never
        searched or kept.
        """
        spec = BOUNDS.get(theorem_id)
        if spec is None:
            raise ValueError(f"unknown theorem_id {theorem_id!r}")
        grid = isinstance(alpha, AlphaGrid)
        if not grid:
            h_weight(alpha)  # checks alpha
        foci = self._foci(theorem_id, spec, foci)
        given = None if groupings is None else self._given(theorem_id, spec, foci, groupings)
        if grid:
            return self._columns(theorem_id, spec, foci, given, alpha, alpha.values)
        return self._columns(theorem_id, spec, foci, given, AlphaGrid((alpha,)),
                             (alpha,)).report(0)

    def _columns(self, theorem_id: str, spec: BoundSpec, foci: tuple[int, ...],
                 given: tuple[Certified, ...] | None, grid: AlphaGrid,
                 alphas: tuple[float, ...]) -> BoundColumns:
        """The columns of a bound on validated foci over ``grid``, in order;
        ``given`` is None for the best groupings, else the caller's, one per
        focus, and ``alphas`` labels the rows as the caller gave them.

        Each value reads ``p = alpha/2`` and ``h = h_weight(alpha)`` from
        ``grid.weights``, and a searched lead reads ``front_best``'s column.
        The foci's J are added in focus order.  A front or total lead is
        followed by the J of each focus after the first two, and
        cor2_lower's center lead by the J of each other focus, each
        subtracted in focus order.
        """
        kind = spec.rhs
        c_cut, n_cut, rank = self._cut(foci)
        if kind == "pair_sum":
            c_sq, ca_sq = self.tables(foci[0])
            # Printed as "smaller side, larger side": ckw's lhs is the pair
            # sum, and the slack is rhs - lhs in both directions.
            lhs, rhs = ((c_cut ** 2, _sum_in_order(ca_sq.values())) if spec.direction == "upper"
                        else (_sum_in_order(c_sq.values()), c_cut ** 2))
            slack = rhs - lhs
            return BoundColumns(theorem_id, (2.0,), [lhs], [rhs], [slack],
                                [slack >= -SLACK_TOL], [None], True)
        cut = n_cut if spec.cut == "N" else c_cut
        lhs = [cut ** a if cut > 0.0 else 0.0 for a in grid.values]
        weights = grid.weights
        if kind == "jin":
            if given is None:
                order = _descending_singletons(self.tables(foci[0])[1])
                if order is None:
                    return _inapplicable(theorem_id, alphas, lhs)
                given = (self._certified(foci[0], order),)
            cert = given[0][1]
            rhs = [_j_sum(cert.squared_values, p, p) for p, _ in weights]
            certs = [cert] * len(alphas)
        else:
            js = [cert for _, cert, _ in (
                given if given is not None else map(self._merged_group, foci))]
            vals = [j.squared_values for j in js]
            certs = [js[spec.center]] * len(alphas)
            if kind == "front" or kind == "total":
                if kind == "total":
                    fronts = [(_sum_in_order(self.tables(f)[0].values()),) for f in foci[:2]]
                elif given is not None:
                    fronts = [c_sums for _, _, c_sums in given[:2]]
                else:
                    fronts = None
                    col_a, col_b = self.front_best(foci[0], grid), self.front_best(foci[1], grid)
                rhs = []
                for i, (p, h) in enumerate(weights):
                    j_a, j_b = _j_sum(vals[0], p, h), _j_sum(vals[1], p, h)
                    if fronts is None:
                        (_, cert_a, lead_a), (_, cert_b, lead_b) = col_a[i], col_b[i]
                    else:
                        cert_a, cert_b = js[0], js[1]
                        lead_a, lead_b = _front_sum(fronts[0], p, h), _front_sum(fronts[1], p, h)
                    branch_a, branch_b = lead_a - j_b, lead_b - j_a
                    r, certs[i] = (branch_a, cert_a) if branch_a >= branch_b else (branch_b, cert_b)
                    for v in vals[2:]:  # cor1: minus J_C1
                        r -= _j_sum(v, p, h)
                    rhs.append(r)
            elif kind == "center_total":
                center_cut, others = spec.center_cuts(foci)
                if self._cut(others)[0] > self._cut(center_cut)[0] + SLACK_TOL:
                    return _inapplicable(theorem_id, alphas, lhs)
                lead = (_sum_in_order(self.tables(foci[spec.center])[0].values()),)
                minus = vals[:spec.center] + vals[spec.center + 1:]
                rhs = []
                for p, h in weights:
                    r = _front_sum(lead, p, h)
                    for v in minus:
                        r -= _j_sum(v, p, h)
                    rhs.append(r)
            else:  # "j" and "rank_j": J_A + J_B (+ J_C1), added in focus order
                factor = rank * (rank - 1) / 2.0
                rhs = []
                for p, h in weights:
                    r = _j_sum(vals[0], p, h)
                    for v in vals[1:]:
                        r += _j_sum(v, p, h)
                    if kind == "rank_j":
                        r = (factor ** p if factor > 0.0 else 0.0) * r
                    rhs.append(r)
        slack = ([r - x for x, r in zip(lhs, rhs)] if spec.direction == "upper"
                 else [x - r for x, r in zip(lhs, rhs)])
        return BoundColumns(theorem_id, alphas, lhs, rhs, slack,
                            [x >= -SLACK_TOL for x in slack], certs, True)


def _inapplicable(theorem_id: str, alphas: tuple[float, ...], lhs: list[float]) -> BoundColumns:
    """The columns of a bound that does not apply: NaN rhs and slack, no
    ordering, and every row ``satisfied``."""
    nan = [math.nan] * len(alphas)
    return BoundColumns(theorem_id, alphas, lhs, nan, nan[:], [True] * len(alphas),
                        [None] * len(alphas), False)


def fill_spectra(evaluators: Sequence[StateEvaluator], pairs: Collection[tuple[int, int]],
                 cuts: Collection[tuple[int, ...]]) -> None:
    """Keep on each evaluator the listed pair and cut values it lacks.

    ``pairs`` holds ``(low, high)`` qubit pairs and ``cuts`` sorted qubit
    tuples, each once, as ``spectra_keys`` gives them.  The evaluators are
    grouped by qubit count, and each group's amplitudes are stacked once, as
    an (S, 2, ..., 2) tensor (a view for a group of one).  Each pair is then
    reduced for every evaluator of the group that lacks it with one
    transposed copy and one stacked matmul, ``qcore._reduced_densities``; a
    two-qubit state is its own pair state.  The new pairs' stacks are joined
    and solved as one ``_keep_mu_values`` stack, which keeps each pair's C
    and Ca on its ``rho``, and each pair keeps their squares, read through
    ``concurrence_two_qubit`` and ``coa_two_qubit``.  The cuts of one size
    are reduced one by one with ``reduced_density`` and solved with one
    stacked ``eigvalsh``, and ``_cut_measures`` gives each its concurrence,
    negativity and Schmidt rank.  numpy runs the same BLAS or LAPACK routine
    on each matrix of a stack as on a single one, so the values equal, bit
    for bit, those of a chunk of one: ``tables`` and ``_cut`` fill their
    misses with this as a chunk of one.
    """
    by_size: dict[int, list[StateEvaluator]] = {}
    for ev in evaluators:
        by_size.setdefault(ev.psi.num_qubits, []).append(ev)
    new, stacks = [], []
    for n, group in by_size.items():
        if n == 2:
            rows = [(ev._pairs, key, to_density(ev.psi))
                    for ev in group for key in pairs if key not in ev._pairs]
            new += rows
            stacks += (rho.matrix[None] for _, _, rho in rows)
            continue
        tensor = None
        for key in pairs:
            lacking = [i for i, ev in enumerate(group) if key not in ev._pairs]
            if not lacking:
                continue
            if tensor is None:
                tensor = _amplitude_tensor([ev.psi for ev in group])
                scratch = (np.empty(tensor.shape, complex), np.empty(tensor.shape, complex))
            if len(lacking) < len(group):  # some states already hold the pair
                stack = _reduced_densities(tensor[lacking], key,
                                           tuple(buf[:len(lacking)] for buf in scratch))
            else:
                stack = _reduced_densities(tensor, key, scratch)
            stacks.append(stack)
            new.extend((group[i]._pairs, key, _gram_density(m)) for i, m in zip(lacking, stack))
    if new:
        _keep_mu_values([rho for _, _, rho in new], np.concatenate(stacks))
    for kept, key, rho in new:
        kept[key] = (concurrence_two_qubit(rho).value ** 2, coa_two_qubit(rho).value ** 2)
    cut_todo: dict[int, list[tuple[StateEvaluator, tuple[int, ...]]]] = {}
    for ev in evaluators:
        for key in cuts:
            if key not in ev._cuts:
                cut_todo.setdefault(len(key), []).append((ev, key))
    for todo in cut_todo.values():
        spectra = _schmidt_spectra([reduced_density(ev.psi, key).matrix for ev, key in todo])
        for (ev, key), c, neg, rank in zip(todo, *_cut_measures(spectra)):
            ev._cuts[key] = (c, neg, rank)


def optimize_grouping(psi: PureState, focus, alpha: float,
                      theorem_id: str = "thm1") -> BoundReport:
    """The bound's report over the best feasible ordered groupings.

    The bound's direction sets the objective: the lowest upper bound or the
    highest lower bound.  The groupings are ``StateEvaluator``'s: J takes the
    merged group, jin the descending singleton order, and the front sum is
    searched exactly up to 8 non-focus qubits and in canonical mode above.
    A report is always produced, except for the singleton-only bound
    ``jin``, which is reported not-applicable when no singleton order is
    dominance-feasible.
    """
    return StateEvaluator(psi).evaluate(theorem_id, alpha, foci=focus)

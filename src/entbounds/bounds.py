"""Weighted monogamy and polygamy bound evaluation for multiqubit pure states.

Every bound here compares a cut entanglement (concurrence or negativity raised
to a power ``alpha`` in [0, 2]) against a weighted combination of pairwise
measures.  The pairwise terms are aggregated over an ordered grouping of the
non-focus qubits; the geometric weight ``h = 2**(alpha/2) - 1`` multiplies
successive groups.  Each evaluator enforces the dominance precondition the
weighting relies on: every group's squared assistance value must be at least
the sum over all later groups.

Each bound id has one ``BoundSpec`` row in ``BOUNDS``, and only
``StateEvaluator.evaluate`` computes a bound.  The paper states every bound
for any dominance-feasible ordered grouping, and ``evaluate``'s
``groupings=`` argument only picks which grouping each focus feeds in.
None takes each focus's best grouping: the merged group for the geometric
sum J (exact by the paper's Lemma), the descending singleton order for
jin, and a search for the front sum.  Explicit groupings, which the public
``thm*``/``jin``/``cor*`` functions pass, are checked and fed in as they
are.

``evaluate`` and ``fill_columns`` compute every bound that reads alpha in
one array pass over a chunk of states (``_ChunkPass``): each rhs is one
formula of eight rows of (states x alpha) values (``_recipe``), and one
``np.float_power`` call raises every row's base, each group term of J and
jin among them, so that every value equals the per-alpha Python arithmetic
bit for bit.  Best and caller groupings read the same row kinds; a focus's
grouping only sets how many group terms its J and front sum add.  One
function, ``_fill_fronts``, forms every front column, for a chunk pass or
for a lone ``front_best``: a focus whose pair C are all 0 takes its merged
group, canonical mode raises the merged total and the descending
singletons' C^2 as arrays, and every other (state, focus) entry of a pass,
whichever front focus it is, is searched by one chain DP over (subsets x
entries x alpha) arrays (``_front_dp``), whose front sums are formed from the terms that the DP has already raised
(``_front_chains``).  The dominance precondition has one test,
``_dominates``, which the front search and ``feasibility`` both read, on
floats and on arrays.

Conventions:
  * ``0**alpha`` is taken as 0 for every alpha in [0, 2], including alpha = 0.
  * ``slack >= 0`` means the inequality holds; reports are flagged satisfied
    down to ``-1e-9`` to absorb eigensolver noise.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
    MAX_QUBITS,
    PureState,
    _amplitude_tensor,
    _gram_densities,
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
# The most bytes of transposed amplitude copies that one batch of
# ``fill_spectra``'s pair reductions takes, unless one entry alone takes more.
# Of 32, 64, 128 and 256 KiB, timed at 4-12 qubits, it is the smallest that
# takes an 8-qubit state's 18 pair keys (72 KiB) in one batch; the others were
# no faster beyond noise.  An unbounded batch was 3x slower at 12 qubits.
_BATCH_BYTES = 128 << 10
# The most bytes of candidate values that ``_front_dp`` forms at once: a
# layer's split positions are taken in blocks of this size, but at least one
# position.  The largest DP of the benchmark and the tests takes under 3 MiB
# (5 entries x 40 alpha at 9 qubits), so each runs every layer in one block;
# a 9-qubit search over 2,000 alpha took 192 MiB unbounded.
_DP_BYTES = 4 << 20


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

    @cached_property
    def foci(self) -> tuple[int, ...]:
        """The default foci: qubits 0..arity-1, built once per spec."""
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


def _feasible_certificate(grouping: Grouping,
                          squared_values: tuple[float, ...]) -> OrderingCertificate:
    """The certificate of a grouping that is feasible by construction: the
    merged group, a searched chain or a feasible descending singleton order.

    Built as ``BoundColumns.report`` builds a report: ``object.__new__`` and
    one update of the field dict, which skips the frozen dataclass's
    per-field ``object.__setattr__`` calls.  Equality, hashing and ``repr``
    read the same fields, and setting one still raises.
    """
    cert = object.__new__(OrderingCertificate)
    vars(cert).update(grouping=grouping, squared_values=squared_values, feasible=True)
    return cert


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

        Built as ``qcore._gram_densities`` builds its matrices: ``object.__new__``
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
    """Strictly increasing exponents within [0, 2]; each value must be a
    real number (``_check_alpha``)."""

    values: tuple[float, ...]

    def __post_init__(self):
        # Text is one value, not a sequence of them, so bytes are not read
        # as their byte values.
        text = isinstance(self.values, (str, bytes, bytearray))
        given = (self.values,) if text else tuple(self.values)
        for v in given:
            _check_alpha(v)
        # ``+ 0.0`` turns -0.0 into 0.0 and leaves every other value as it is,
        # so "-0" reads and prints as alpha 0.
        vals = tuple(float(v) + 0.0 for v in given)
        if not vals:
            raise ValueError("alpha grid must be non-empty")
        if len(vals) > _MAX_ALPHA_VALUES:
            raise ValueError(f"alpha grid has {len(vals)} values, more than the maximum "
                             f"{_MAX_ALPHA_VALUES}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"alpha values must be finite, got {vals}")
        if min(vals) < 0.0 or max(vals) > 2.0:
            raise ValueError("alpha values must lie in [0, 2]")
        if any(map(float.__le__, vals[1:], vals)):  # each value against the one before
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
    def array(self) -> np.ndarray:
        """The rows alpha, p = alpha/2 and h = ``h_weight(alpha)`` of
        ``values`` as one read-only (3 x values) array, built once per grid:
        every chunk pass and front fill over the grid reads it."""
        values = self.values
        array = np.array([values, [a / 2.0 for a in values], [h_weight(a) for a in values]])
        array.setflags(write=False)
        return array

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def _check_alpha(alpha) -> None:
    """Refuse, with ``ValueError``, an alpha that is not a real number: a bool,
    as a bool qubit index is, and a str, bytes, ``Decimal``, complex or None,
    which ``float`` would read or a comparison would refuse with ``TypeError``."""
    if type(alpha) is float:
        return
    if isinstance(alpha, (bool, np.bool_)):
        raise ValueError(f"alpha must be a number, not a boolean, got {alpha!r}")
    if not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")


def h_weight(alpha: float) -> float:
    """Geometric weight 2**(alpha/2) - 1; lies in [0, 1] and at most alpha/2.
    An alpha that is not a real number is refused (``_check_alpha``); any
    other is read as its Python float, so a numpy ``float32`` or ``float16``
    alpha gives a Python float, as ``AlphaGrid`` reads its values."""
    _check_alpha(alpha)
    a = float(alpha)
    if not 0.0 <= a <= 2.0:
        raise ValueError(f"alpha must be in [0, 2], got {alpha}")
    return 2.0 ** (a / 2.0) - 1.0


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
    vals = tuple(map(float, values_sq))
    if not vals:
        raise ValueError("at least one squared value is required")
    if not all(-FEAS_TOL <= v < math.inf for v in vals):
        raise ValueError("squared values must be finite and non-negative")
    tail = list(itertools.accumulate(reversed(vals)))[::-1]
    feasible = all(map(_dominates, vals, tail[1:]))  # each value against the sum after it
    return OrderingCertificate(grouping, vals, feasible)


def sort_descending_then_check(
    values_sq: Sequence[float],
) -> tuple[tuple[int, ...], OrderingCertificate]:
    """Descending permutation of the values and its dominance certificate.

    Ties keep their original relative order.
    """
    vals = list(map(float, values_sq))
    order = tuple(sorted(range(len(vals)), key=vals.__getitem__, reverse=True))
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


@lru_cache(maxsize=None)
def _split_layers(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """``_split_table(m)`` as index arrays, one layer per subset size k = 2..m.

    A layer holds its subsets ascending and the leading group and the rest
    of each of their splits, as (2^k - 2 positions x subsets) arrays: row
    ``j`` holds each subset's ``j``-th split in ``_split_table`` order.
    Every rest is smaller than its subset, so a layer reads only the values
    of layers before it.  The arrays are built once per process and are
    read-only.
    """
    table, layers = _split_table(m), []
    for k in range(2, m + 1):
        subsets = np.array([s for s in range(1 << m) if bin(s).count("1") == k], dtype=np.intp)
        heads = np.array([table[s] for s in subsets.tolist()], dtype=np.intp).T
        layer = (subsets, heads, subsets ^ heads)
        for array in layer:
            array.setflags(write=False)
        layers.append(layer)
    return tuple(layers)


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """The sum over every bit mask of the m values along the first axis, as
    a (2^m, ...) array: each mask's sum is the sum of the mask without its
    top bit plus that bit's value, so every mask adds its members in
    ascending position, as ``_grouped_sums`` adds a group's."""
    sums = np.zeros((1 << len(values),) + values.shape[1:])
    for i, v in enumerate(values):
        sums[1 << i:2 << i] = sums[:1 << i] + v
    return sums


def _front_dp(lead: np.ndarray, ca: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The leading group of the minimal chain of every subset, for every
    entry and alpha: the chain DP over (subsets x entries x alpha) arrays.
    An entry is one (state, focus) search, its subsets those of the focus's
    partners.

    ``lead`` holds each subset's value as one group, ``ca`` each subset's
    Ca^2 sum per entry (subsets x entries), and ``h`` the weight of each
    alpha.  ``value(s)`` is the smaller of ``lead[s]`` (the whole subset)
    and, over the splits ``(t, s ^ t)`` of ``s`` whose Ca^2(t) dominates
    Ca^2(s ^ t) (``_dominates``), ``h * lead[t] + value(s ^ t)``; a
    subset of one member is its own pick.  The subsets are solved by size,
    each size's splits as one array per block of split positions, a block
    as many positions as ``_DP_BYTES`` of candidates allows, but at least
    one; an entry masks the splits it does not hold.  Every block of a size
    reads only the values of smaller sizes, and the blocks are scanned in
    order, so the blocks change no pick.  The whole subset is the first
    candidate and the splits follow in ``_split_table`` order, one array
    step per position, skipped where no entry holds a split: a split
    replaces the running best only where it is lower by more than
    ``_TIE_TOL``.  So at every subset a tie keeps the whole subset, and
    after that the first leading group, as a per-entry scan of the same
    candidates does.  Every step acts on each entry alone, so an entry's
    picks do not depend on the others.
    """
    value = lead.copy()
    pick = np.empty(lead.shape, dtype=np.intp)
    pick[...] = np.arange(len(lead))[:, None, None]
    row_bytes = value[0].nbytes  # one subset's values
    for subsets, heads, rests in _split_layers(len(lead).bit_length() - 1):
        held = _dominates(ca[heads], ca[rests])
        best, chosen = value[subsets], pick[subsets]
        step = max(1, _DP_BYTES // (len(subsets) * row_bytes))  # split positions per block
        for start in range(0, len(heads), step):
            block = slice(start, start + step)
            block_heads, block_held = heads[block], held[block]
            candidates = np.where(block_held[..., None],
                                  h * lead[block_heads] + value[rests[block]], np.inf)
            for j in np.flatnonzero(block_held.reshape(len(block_held), -1).any(1)).tolist():
                v = candidates[j]
                better = v < best - _TIE_TOL
                np.copyto(best, v, where=better)
                np.copyto(chosen, block_heads[j, :, None, None], where=better)
        value[subsets], pick[subsets] = best, chosen
    return pick


def _front_chains(pick: np.ndarray, terms: np.ndarray, h: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(chains, fronts)`` read off ``_front_dp``'s picks: each entry's and
    alpha's leading groups from the full set down, as (entries x alpha x
    groups) masks padded with 0, and its front sum, ``_front_of_rows``'s
    formula on the groups' ``terms`` (C^2 subset sum to the power p): h
    times the sum of all but the last, added in order from 0.0, plus the
    last, which for one group is its term.  Each group writes that sum over
    the groups so far, so the last group's write stands; the empty set
    picks itself, 0, with term 0.0, so a finished chain adds nothing."""
    size, shape = len(pick), pick.shape[1:]
    pick, terms = pick.reshape(size, -1), terms.reshape(size, -1)
    each = np.arange(pick.shape[1]).reshape(shape)
    rest = np.full(shape, size - 1)
    before, front, chain = np.zeros(shape), np.zeros(shape), []
    while rest.any():
        t = pick[rest, each]
        term = terms[t, each]
        np.copyto(front, h * before + term, where=t != 0)
        before = before + term
        rest = rest ^ t
        chain.append(t)
    return np.stack(chain, axis=-1), front


def _chain_certificate(partners: tuple[int, ...], chain: tuple[int, ...],
                       ca: Sequence[float]) -> OrderingCertificate:
    """The certificate of a searched chain of feasible splits, with the
    chain's shared ``Grouping``: read off the Ca^2 subset sums ``ca`` at its
    masks, which equal the grouping's summed Ca^2 values bit for bit."""
    return _feasible_certificate(_shared_grouping(partners, chain),
                                 tuple(map(ca.__getitem__, chain)))


def _singleton_certificate(pair_sq: Mapping[int, float]) -> OrderingCertificate | None:
    """The certificate of the descending singleton order when it is
    dominance-feasible, else None.

    A feasible singleton order is non-increasing, since each value is at
    least the sum of all later ones, so this is the only candidate.  The
    certificate is the one that ``sort_descending_then_check`` builds, its
    values taken as they are, with the order's shared ``Grouping`` set on it.
    """
    partners = tuple(sorted(pair_sq))
    order, cert = sort_descending_then_check([pair_sq[q] for q in partners])
    if not cert.feasible:
        return None
    # The certificate is new and held by nothing else, so it takes the
    # order's grouping in place of None, as ``_feasible_certificate`` sets
    # fields, rather than being built a second time.
    vars(cert)["grouping"] = _shared_grouping(partners, tuple(1 << i for i in order))
    return cert


def _descending_singletons(pair_sq: Mapping[int, float]) -> Grouping | None:
    """Singletons in descending order of value when dominance-feasible, else None."""
    cert = _singleton_certificate(pair_sq)
    return None if cert is None else cert.grouping


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
    spectrum.  ``fill_spectra`` is the one path that solves them:
    ``fill_columns`` fills every pair and cut that its ``_Layout`` lists up
    front, for a whole chunk of states of one size with one stacked
    reduction per batch of pairs into one output stack, one stacked
    ``eigh`` + ``svd`` and one ``eigvalsh`` per cut size, and a later miss
    in ``tables`` or ``_cut`` fills as a chunk of one.

    The alpha arithmetic of the bounds runs as one array pass over a chunk
    of states (``_ChunkPass``): ``verify`` and ``sweep`` call
    ``fill_columns`` once per chunk, which fills the spectra and forms
    every bound's lhs, rhs, slack and verdict as (states x alpha) arrays and
    leaves each state's ``BoundColumns`` here, and ``evaluate`` takes them;
    a lone ``evaluate`` call, at other foci or with ``groupings=``, runs
    the same pass as a chunk of one.  Per chunk, the pass reads the cut
    values, each focus's merged group (J's certificate, its Ca^2 and the
    total C^2), jin's certificate and each searched focus's ``front_best``
    column off these caches, once each, and raises every base with one
    ``np.float_power`` call.  The front columns themselves are formed per
    pass too, by one ``_fill_fronts`` call over every front focus of the
    pass, which leaves each state's columns here: one chain DP per (pass,
    grid) over every (state, focus) entry whose focus has a pair C above
    0, and no DP in canonical mode or for a focus whose pair C are all 0.
    So a lone ``evaluate`` of thm2, thm6 or cor1_thm2 runs one DP for both
    its front foci.  A lone ``front_best`` calls ``_fill_fronts`` for this
    evaluator and its one focus alone and builds no pass; ``evaluate`` is the only method
    that builds one.  ``np.float_power`` calls the C library's ``pow``,
    as Python's ``**`` on floats does, so each value equals the per-alpha
    Python arithmetic bit for bit; ``np.power`` runs numpy's own float64
    loops, which differ from it by an ulp on about 5% of inputs.  With
    ``groupings=`` the pass reads the same rows, from the caller's checked
    groupings instead of these caches: they are its J and jin certificates
    and its front groupings, and it keeps them itself, so nothing here
    changes.  Seven dicts are kept: the pair values (``_pairs``), the focus
    tables (``_tables``), the cut values (``_cuts``), each focus's
    merged-group ``Certified`` triple (grouping, certificate, grouped C
    sums; ``_merged``), each focus's descending singleton certificate, or
    None where that order is not feasible (``_singles``), ``front_best``'s
    column per (focus, grid values)
    (``_fronts``), which thm2, thm6 and cor1_thm2 share, and, per bound,
    the columns that ``fill_columns`` left, with their foci and grid
    values, until ``evaluate`` takes them (``_columns``).  No certificate
    or front sum re-sums what is already summed: the merged group's
    one-group sums add the focus tables in order, and the total C^2 of
    thm3, thm7, cor1_thm3, cor2_lower, ckw and coa_dual is read off it;
    jin takes the certificate that ``sort_descending_then_check`` builds
    for its descending singleton order, once per state and focus
    (``_singleton``), and a canonical front column reads the same kept
    certificate, with each singleton's C^2 read off the focus table, so a
    focus's values are sorted once whichever reads them first; a searched
    column reads each chain's certificate off
    the search's Ca^2 subset sums, once per distinct chain and state, and
    each front sum off the terms that the chain DP raised; a focus whose
    pair C are all 0 takes its merged group, with no DP.  Certificates of
    these groupings, feasible by construction, are built without the
    dataclass's per-field set-up (``_feasible_certificate``).  The
    ``Grouping`` objects themselves are shared by every state
    (``_shared_grouping``).  Every pass and front fill over a grid reads
    the grid's one (alpha, p, h) array (``AlphaGrid.array``), which holds
    the weights ``(alpha/2, h_weight(alpha))``.
    Every kept object is immutable or copied on the way out, and the state
    is fixed, so none can go stale; none refers back to its evaluator.

    * ``J`` takes the merged group.  The paper's Lemma gives
      ``(x + y)^p <= x^p + h y^p`` for ``x >= y``, ``p = a/2``; applied from
      the last group forwards, every dominance-feasible grouping has
      ``J >= Ca2(all)^(a/2)``, the merged group's value.
    * jin takes the descending singleton order, the only feasible one.
    * The front sum is searched.  Up to 8 non-focus qubits (``search_mode``)
      one pass solves ``F(S) = max(C2(S)^(a/2), max_T h C2(T)^(a/2) + F(S - T))``
      over the leading groups ``T`` with ``Ca2(T) >= Ca2(S - T)``, without
      listing the Fubini(m) groupings.  It solves every subset ``S`` of the
      partners by size, over all (subset, leading group) pairs of that
      size as one array step per position in ``_split_table``'s order,
      3^m pairs in all for m partners, for every searched (state, focus)
      entry of a pass and every alpha of its grid at once (``_front_dp``).  Values
      within ``_TIE_TOL`` tie, and a tie keeps the whole subset, then the
      leading group that comes first by size and then lexicographically,
      at every subset.  A subset whose C^2 sum is 0 reads 0 under every
      grouping, so the tie rule keeps it whole; a focus whose pair C are
      all 0 takes the merged group with no DP at all.  Above 8 non-focus
      qubits the front sum takes the merged group, or
      ``canonical_grouping`` at an alpha where its front sum is strictly
      larger (the tie rule of the search), by a measured decision.  On a
      12-qubit Gaussian W-class focus the exact search, as a per-state
      program over the reachable subsets, would cost 0.1-0.18 s to build
      ``_split_table(11)`` once per process, 10-13 ms of split rows and
      61-72 ms of DPs for the 40 default alphas (11, 3 and 8-14 ms at 10
      qubits), against ~3.6 ms for a whole 12-qubit ``verify``.  The price
      is tightness: over 30 states per size at 10-12 qubits, the exact
      optimum beats this front sum by up to 0.03-0.07 on GHZ+W states, by
      up to 0.01 on log-uniform W-class states over 6 decades, and not at
      all on Haar or Gaussian W-class states.

    Reported values are always summed over the chosen grouping.
    """

    def __init__(self, psi: PureState):
        self.psi = psi
        self.search = search_mode(psi.num_qubits)
        self._pairs: dict[tuple[int, int], tuple[float, float]] = {}
        self._tables: dict[int, tuple[dict[int, float], dict[int, float]]] = {}
        self._cuts: dict[tuple[int, ...], tuple[float, float, int]] = {}
        self._merged: dict[int, Certified] = {}
        self._singles: dict[int, OrderingCertificate | None] = {}
        self._fronts: dict[tuple[int, tuple[float, ...]], list[tuple]] = {}
        self._columns: dict[str, tuple[tuple[int, ...], tuple[float, ...], BoundColumns]] = {}

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
        cut = self._cuts.get(qubits)  # kept keys are sorted, as most callers' cuts are
        if cut is None:
            key = tuple(sorted(qubits))
            if key not in self._cuts:
                fill_spectra((self,), (), (key,))
            cut = self._cuts[key]
        return cut

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
        by walking the feasible splits (``_dominates`` on the Ca^2 subset
        sums) of ``_split_table`` from the full partner set, zero-C^2
        subsets included; the search itself never builds this list.  The
        list has up to Fubini(m) entries, so m is capped at 8 non-focus
        qubits.
        """
        c_sq, ca_sq = self.tables(focus)
        if len(ca_sq) > _MAX_OPT_PARTNERS:
            raise ValueError(f"feasible_groupings caps at {_MAX_OPT_PARTNERS} "
                             f"non-focus qubits, got {len(ca_sq)}")
        partners = tuple(ca_sq)
        ca = _subset_sums(np.array(list(ca_sq.values()), dtype=float)).tolist()
        table = _split_table(len(partners))

        def walk(s):
            for t in table[s]:
                if _dominates(ca[t], ca[s ^ t]):
                    for tail in walk(s ^ t):
                        yield (t,) + tail
            yield (s,)

        return [(g, _grouped_sums(ca_sq, g), _grouped_sums(c_sq, g))
                for g in (_shared_grouping(partners, chain) for chain in walk(len(ca) - 1))]

    def _merged_group(self, focus: int) -> Certified:
        """The merged group's ``Certified`` triple, kept once per focus.

        Its one-group sums add the tables' values in order; the tables are
        keyed in ascending partner order, as the merged group lists them."""
        merged = self._merged.get(focus)
        if merged is None:
            c_sq, ca_sq = self.tables(focus)
            grouping = _shared_merged(tuple(ca_sq))
            merged = self._merged[focus] = (
                grouping, _feasible_certificate(grouping, (_sum_in_order(ca_sq.values()),)),
                (_sum_in_order(c_sq.values()),))
        return merged

    def _singleton(self, focus: int) -> OrderingCertificate | None:
        """The certificate of the descending singleton order of the focus's
        Ca^2, or None where it is not feasible, kept once per focus: jin
        reads it, and so does a canonical front column, so each focus's
        values are sorted once."""
        try:
            return self._singles[focus]
        except KeyError:
            cert = self._singles[focus] = _singleton_certificate(self.tables(focus)[1])
            return cert

    # The term getters check a focus that is not an int and the alpha before
    # any kept value answers, so a warm evaluator refuses what a fresh one does.
    def j_best(self, focus: int, alpha: float):
        """``(grouping, certificate, J)`` of the merged group, which minimizes
        the geometric assistance sum: ``J = Ca2(all)^(alpha/2)``, 0 where
        Ca2(all) is 0.  ``evaluate`` reads the same kept certificate and
        raises the same total, so it never calls this."""
        if type(focus) is not int:
            focus = qubit_index(focus, self.psi.num_qubits, "focus")
        h_weight(alpha)  # checks alpha
        grouping, cert, _ = self._merged_group(focus)
        (total,) = cert.squared_values
        return grouping, cert, total ** (alpha / 2.0) if total > 0.0 else 0.0

    def front_best(self, focus: int, alpha: float | AlphaGrid):
        """``(grouping, certificate, front sum)`` of the assistance-feasible
        grouping that maximizes the front-weighted C sum, at one alpha, or
        the list of them over an ``AlphaGrid``, one per value.

        A float alpha is a grid of one: ``front_best(f, a)`` is
        ``front_best(f, AlphaGrid((a,)))[0]``.  The column is found once per
        (focus, grid values) and kept, as thm2, thm6 and cor1_thm2 share
        it; each call returns a fresh list.  A column that is not kept yet
        is formed by ``_fill_fronts`` for this evaluator and this focus
        alone, with no ``_ChunkPass`` built: one chain DP over the whole
        grid, or none in canonical mode or when the focus's pair C are all
        0.  A pass, and so a lone ``evaluate`` of a front bound, fills the
        columns of all its front foci with one DP instead.  Each chain it
        picks is certified once: alphas of the column that pick the same
        chain share one certificate, and every state shares the
        ``Grouping`` of a chain.  The sum equals, bit for bit, the per-alpha
        Python front sum of the grouping's C^2 sums, whose scalar kernel
        ``tests/oracles.py`` keeps.
        """
        if type(focus) is not int:
            focus = qubit_index(focus, self.psi.num_qubits, "focus")
        if isinstance(alpha, AlphaGrid):
            return self._front_column(focus, alpha)[:]
        h_weight(alpha)
        return self._front_column(focus, AlphaGrid((alpha,)))[0]

    def _front_column(self, focus: int, grid: AlphaGrid):
        """``front_best``'s kept column of one focus over one grid, formed
        by ``_fill_fronts`` for this evaluator and focus alone when it is
        not kept."""
        key = (focus, grid.values)
        if key not in self._fronts:
            _fill_fronts((self,), (focus,), grid)
        return self._fronts[key]

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
        report is row 0 of the columns of a one-value grid.  ``foci``
        defaults to qubits 0..arity-1.  A call checks the bound id, then
        alpha once (a grid checked its values when it was built), then the
        foci, then the caller's groupings.  The columns that ``fill_columns``
        left for this bound are then taken off the evaluator and returned,
        if no groupings are given and they are for these foci and grid
        values; otherwise the bound is computed by the same array pass as a
        chunk of one state (``_ChunkPass``): J and jin by the geometric sum
        of their group terms, and each lead term by the front sum, from a
        total C^2 as one group or from the focus's front grouping, searched
        through ``front_best`` per (focus, grid) or the caller's.  The pass
        raises with ``np.float_power``, the C library's ``pow`` that
        Python's ``**`` calls, so every value equals the per-alpha Python
        arithmetic bit for bit.  thm3, thm7 and cor1_thm3 lead with each
        focus's total C^2 as one group, and report the winning focus's J
        certificate.  ``groupings`` is None, for each focus's best grouping,
        or one grouping per focus; each must cover its focus's partners and
        pass the dominance check (else ``InfeasibleGroupingError``).  A
        caller's grouping is its focus's J, jin and front grouping alike,
        and is never searched or kept.
        """
        spec = BOUNDS.get(theorem_id)
        if spec is None:
            raise ValueError(f"unknown theorem_id {theorem_id!r}")
        grid = isinstance(alpha, AlphaGrid)
        if not grid:
            h_weight(alpha)  # checks alpha
        foci = self._foci(theorem_id, spec, foci)
        given = () if groupings is None else tuple(
            zip(foci, self._given(theorem_id, spec, foci, groupings)))
        bound = ((theorem_id, foci),)
        if not grid:
            return _ChunkPass((self,), AlphaGrid((alpha,)), given).columns(
                bound, (alpha,))[0][0].report(0)
        if not given:
            kept = self._columns.get(theorem_id)
            if kept is not None and kept[0] == foci and kept[1] == alpha.values:
                del self._columns[theorem_id]
                return kept[2]
        return _ChunkPass((self,), alpha, given).columns(bound, alpha.values)[0][0]


def _inapplicable(theorem_id: str, alphas: tuple[float, ...], lhs: list[float]) -> BoundColumns:
    """The columns of a bound that does not apply: NaN rhs and slack, no
    ordering, and every row ``satisfied``."""
    nan = [math.nan] * len(alphas)
    return BoundColumns(theorem_id, alphas, lhs, nan, nan[:], [True] * len(alphas),
                        [None] * len(alphas), False)


def _pair_sum_columns(ev: StateEvaluator, theorem_id: str, spec: BoundSpec,
                      foci: tuple[int, ...], totals: tuple[float, float]) -> BoundColumns:
    """The one alpha = 2 row of ``ckw`` or ``coa_dual``, printed as "smaller
    side, larger side": ckw's lhs is the pair sum, and the slack is
    rhs - lhs in both directions.  ``totals`` are the focus's C^2 and Ca^2
    sums."""
    c_cut = ev._cut(foci)[0]
    lhs, rhs = ((c_cut ** 2, totals[1]) if spec.direction == "upper" else (totals[0], c_cut ** 2))
    slack = rhs - lhs
    # Built as ``_ChunkPass.columns`` builds its columns: one tuple of the fields.
    return tuple.__new__(BoundColumns, (theorem_id, (2.0,), [lhs], [rhs], [slack],
                                        [slack >= -SLACK_TOL], [None], True))


# A row of a pass's table, named by what it holds for each state:
#   ("cut", foci, k)   the cut's C (k = 0) or N (k = 1), to the power alpha;
#   ("rank", foci)     the cut's r(r-1)/2, r its Schmidt rank, to the power p;
#   ("total", f)       the total C^2 of focus f to the power p, the front sum
#                      of its merged group;
#   ("J", f)           J of focus f, sum_i h^i t_i over its J certificate's
#                      group terms t_i, each group's Ca^2 to the power p;
#   ("jin", f)         jin on focus f, sum_i p^i t_i over the terms of its
#                      singleton certificate (0.0 where jin does not apply);
#   ("front", f)       the front sum of focus f: read off its searched front
#                      column, or for a caller's grouping h * sum_{i<k} t_i +
#                      t_k over the terms of its groups' C^2;
#   (kind, f, i)       the i-th group term t_i of one of those three;
#   ("zero",), ("one",): +0.0 and 1.0.
# A row of several group terms is formed from them, and a row of one term is
# that term's row, so the merged group's J is one raised base.  A searched
# front is formed from its column.  Every other row is a base raised to its
# power.
_TERMED = ("J", "jin", "front")
_ZERO, _ONE = ("zero",), ("one",)
# The exponents i of the weights ratio^i of a sum of up to MAX_QUBITS groups.
_POWERS = np.arange(float(MAX_QUBITS))[:, None]


def _recipe(spec: BoundSpec, foci: tuple[int, ...]):
    """``(operands, certificates, check)`` of a bound that reads alpha.

    Every such bound's rhs is one formula of eight operand rows
    ``(A, B, C, D, E, G1, G2, F)``, in the order of the per-alpha Python
    arithmetic:

        F * (((max(A - B, C - D) - E) + G1) + G2),

    ``max`` taking ``A - B`` on a tie, as ``branch_a >= branch_b`` does.
    A front or total bound is the larger branch "lead A minus J_B", "lead
    B minus J_A", minus cor1's J_C1 (E); cor2_lower is the center's lead
    minus the other foci's J (B, then E); thm1, thm4, thm5, thm8 and
    cor2_upper add the foci's J in focus order (A, G1, G2), times thm8's
    rank factor (F); jin is its weighted sum (A).  A bound with one branch
    reads it twice (C = A, D = B), and an unused operand reads a row that
    changes nothing: 1.0 for F, and 0.0 for B, E, G1 and G2.  ``x - 0.0`` is
    ``x`` for every x, and ``x + 0.0`` is ``x`` for every x but -0.0, which
    no sum here is: every lead and J is at least +0.0, and a difference of
    two such values is never -0.0.

    ``certificates`` names where each row's certificate is read: one source,
    or for a branch bound the sources of branch A and of branch B.
    ``check`` names which states the bound does not apply to (None: it
    applies to all).
    """
    kind = spec.rhs
    if kind == "jin":
        jin = ("jin", foci[0])
        return (jin, _ZERO, jin, _ZERO, _ZERO, _ZERO, _ZERO, _ONE), jin, jin
    js = tuple(("J", f) for f in foci)
    if kind == "front" or kind == "total":
        leads = tuple((kind, f) for f in foci[:2])
        (minus,) = js[2:] or (_ZERO,)  # cor1: J_C1
        return ((leads[0], js[1], leads[1], js[0], minus, _ZERO, _ZERO, _ONE),
                leads if kind == "front" else js[:2], None)
    center = spec.center
    if kind == "center_total":
        lead = ("total", foci[center])
        first, second = js[:center] + js[center + 1:]
        return ((lead, first, lead, first, second, _ZERO, _ZERO, _ONE), js[center],
                ("center",) + spec.center_cuts(foci))
    # "j" and "rank_j": J_A + J_B (+ J_C1), added in focus order
    first, *more = js
    g1, g2 = tuple(more) + (_ZERO,) * (2 - len(more))
    factor = ("rank", foci) if kind == "rank_j" else _ONE
    return (first, _ZERO, first, _ZERO, _ZERO, g1, g2, factor), js[center], None


class _Layout(NamedTuple):
    """The alpha-free, state-free plan of a pass over a list of bounds on
    states of one size.

    The table's first rows are raised, one per entry of ``of_alpha``, which
    tells which of them take the exponent alpha (the cuts) rather than p.
    ``bases`` names what they read, in order: a row of its own base each,
    then the rows of group terms, which read one raised row per term.  The
    searched front rows of the foci ``fronts`` follow, and the rows of
    several group terms come last, ``terms`` holding the slice of the
    table that holds each one's terms.  ``take`` lists the table rows of
    the operands A of every bound, then of its operands B, and so on to F,
    then of each bound's lhs, so that one reshape of the taken rows gives
    all nine.  ``upper`` tells whether each bound's slack is rhs - lhs, and
    ``bounds`` holds each bound's ``(index, theorem id, certificate
    sources, check)`` in table order; ``fixed`` lists the indices of the
    fixed-alpha bounds.  ``pairs`` and ``cuts`` are the ``(low, high)`` pair
    keys and sorted cut keys that the bounds read, each once, as
    ``fill_spectra`` takes them.
    """

    bases: tuple[tuple, ...]
    of_alpha: np.ndarray
    fronts: tuple[int, ...]
    terms: dict[tuple, slice]
    take: np.ndarray
    upper: np.ndarray
    bounds: tuple[tuple[int, str, tuple, tuple | None], ...]
    fixed: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    cuts: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=256)
def _layout(bounds: tuple[tuple[str, tuple[int, ...]], ...], num_qubits: int,
            groups: tuple[tuple[int, int], ...]) -> _Layout:
    """The layout of a pass over ``bounds``, each ``(theorem id, foci)``, on
    ``num_qubits`` qubits.  ``groups`` lists ``(focus, count)`` for each
    focus that takes a caller's grouping of ``count`` groups, whose J and
    front sum add that many group terms.  Any other focus's J is its merged
    group's, one term, and its front sum is searched; jin adds
    ``num_qubits - 1`` singleton terms.  Every focus of a bound reads its
    pairs, every bound the cut of its foci, and ``center_total`` also the
    cut of its center and of the other foci.  Derived once per process for
    each list that the CLI evaluates, and for each lone call's bound and
    group counts."""
    members, fixed, pairs, cuts = [], [], {}, {}
    for b, (theorem_id, foci) in enumerate(bounds):
        spec = BOUNDS[theorem_id]
        for f in foci:
            pairs.update(dict.fromkeys(_focus_pairs(f, num_qubits).values()))
        cuts[tuple(sorted(foci))] = None
        if spec.rhs == "center_total":
            cuts.update(dict.fromkeys(tuple(sorted(cut)) for cut in spec.center_cuts(foci)))
        if spec.fixed_alpha:
            fixed.append(b)
        else:
            members.append((b, theorem_id, spec, foci, *_recipe(spec, foci)))
    slots = [operands[k] for k in range(8) for _, _, _, _, operands, _, _ in members]
    slots += [("cut", foci, 1 if spec.cut == "N" else 0) for _, _, spec, foci, _, _, _ in members]
    distinct, counts = list(dict.fromkeys(slots)), dict(groups)
    sums = {s: num_qubits - 1 if s[0] == "jin" else counts.get(s[1], 1) for s in distinct
            if s[0] in _TERMED and (s[0] != "front" or s[1] in counts)}
    own = [s for s in distinct if s[0] not in _TERMED]
    raised = own + [s + (i,) for s, count in sums.items() for i in range(count)]
    fronts = [s for s in distinct if s[0] == "front" and s not in sums]
    many = [s for s, count in sums.items() if count > 1]
    index = {source: i for i, source in enumerate(raised + fronts + many)}
    index.update((s, index[s + (0,)]) for s, count in sums.items() if count == 1)
    arrays = (np.array([s[0] == "cut" for s in raised], dtype=bool)[:, None],
              np.array([index[s] for s in slots], dtype=np.intp),
              np.array([spec.direction == "upper"
                        for _, _, spec, _, _, _, _ in members])[:, None, None])
    for array in arrays:  # shared by every pass over these bounds
        array.setflags(write=False)
    of_alpha, take, upper = arrays
    return _Layout(
        tuple(own + list(sums)), of_alpha, tuple(f for _, f in fronts),
        {s: slice(index[s + (0,)], index[s + (0,)] + sums[s]) for s in many},
        take, upper,
        tuple((b, theorem_id, certs, check) for b, theorem_id, _, _, _, certs, check in members),
        tuple(fixed), tuple(pairs), tuple(cuts))


class _ChunkPass:
    """The bounds of a chunk of same-size states over one grid, formed as
    one table of (states x alpha) rows instead of a Python loop per (state,
    bound, alpha).

    Every value equals, bit for bit, what a per-alpha loop of Python floats
    gives (``tests/oracles.py`` keeps that loop):

    * each ``x**y`` is ``np.float_power``, which calls the C library's
      ``pow`` as Python's ``**`` on floats does, where ``np.power`` runs
      numpy's own float64 loops, which differ by an ulp on about 5% of
      inputs; a base at or below 0 reads 0, also at exponent 0, where
      ``0.0**0`` is 1.0;
    * ``+``, ``-`` and ``*`` run element-wise with the operands in the same
      order, and ``np.where`` takes the larger branch as ``branch_a >=
      branch_b`` does;
    * a sum over several groups adds its terms one at a time in group
      order (``np.add.accumulate``); Python adds them to 0.0, which changes
      nothing, as no term is below +0.0.

    What does not depend on the states, which rows each bound reads and in
    which operand of the one formula of ``_recipe``, is a ``_Layout``,
    derived once per list of bounds.  Per chunk, each distinct row's
    alpha-free inputs are gathered once and shared by every bound that
    reads them: each cut's C, N and Schmidt rank, each focus's merged group
    (the total C^2, and J's certificate), jin's certificate and each
    focus's ``front_best`` column.  One ``np.float_power`` call raises
    every base of the chunk, the group terms of J and jin among them, one
    take lays out the operands, and the formula runs once for all bounds.
    So a chunk costs a fixed number of numpy calls, whatever its size and
    bounds.  The front columns are formed per chunk as well, on the
    table's first front read, by one call of the module's
    ``_fill_fronts`` for every front focus of the layout: one chain DP over
    every (state, focus) entry that needs it and the whole grid, whose
    number of array steps depends on the partner count, not on the chunk
    or its foci.  A chunk of one state is the pass that a lone ``evaluate``
    call runs; a lone ``front_best`` calls ``_fill_fronts`` itself, for its
    one focus, and builds no pass.

    A lone ``evaluate`` call with ``groupings=`` gives the pass its checked
    groupings, as ``given`` pairs of a focus and its ``Certified`` triple.
    They become that focus's inputs, kept by this pass only and read only
    where a row of the bound reads them: J's and jin's certificate are the
    caller's, the front sum's certificate is the caller's at every alpha
    and its group values are the grouping's C^2 sums, and the C^2 and Ca^2
    totals are summed from the tables rather than read off a merged group
    kept on the evaluator.  So a J-only bound such as thm4 builds no front
    certificates and sums no totals.  The same row kinds serve both paths;
    the layout gives such a focus's J and front sum as many group terms as
    the caller's grouping has groups.

    A pass over a chunk of one state, which every lone call runs, costs
    what its bounds read and little more: the grid's (alpha, p, h) array
    is the grid's own, each output array is turned into Python values by
    one ``tolist``, and the ``BoundColumns`` of every (bound, state) row
    are built by one ``map`` over one zip of all the rows.
    """

    def __init__(self, evaluators: Sequence[StateEvaluator], grid: AlphaGrid,
                 given: Sequence[tuple[int, Certified]] = ()):
        self.evaluators = evaluators
        self.grid = grid
        self.alpha, self.p, self.h = grid.array
        self.given = dict(given)  # a lone call's, so of one state
        self.groups = tuple((focus, grouping.k) for focus, (grouping, _, _) in given)
        self._merged: dict[int, list[Certified]] = {}
        self._fronts: dict[int, tuple[list[tuple], list[tuple]]] = {}
        self._certificates: dict[tuple, list] = {}

    def columns(self, bounds: tuple[tuple[str, tuple[int, ...]], ...],
                alphas: tuple[float, ...]) -> list[list[BoundColumns]]:
        """Each bound's ``BoundColumns`` per state, for ``bounds`` given as
        ``_layout`` takes them, ``(theorem_id, foci)`` with checked foci;
        ``alphas`` labels the rows.  The slacks and verdicts of every bound
        are formed in one stacked step, and each array is turned into
        Python floats and bools once."""
        evs = self.evaluators
        layout = _layout(bounds, evs[0].psi.num_qubits, self.groups)
        out: list = [None] * len(bounds)
        for b in layout.fixed:
            tid, foci = bounds[b]
            out[b] = [_pair_sum_columns(ev, tid, BOUNDS[tid], foci, totals)
                      for ev, totals in zip(evs, self._total_sums(foci[0]))]
        if not layout.bounds:
            return out
        count, states, size = len(layout.bounds), len(evs), len(self.grid)
        rows = self._table(layout)[layout.take]
        a, b, c, d, e, g1, g2, f, lhs = rows.reshape(9, count, states, size)
        branch_a, branch_b = a - b, c - d
        pick = branch_a >= branch_b
        rhs = f * (((np.where(pick, branch_a, branch_b) - e) + g1) + g2)
        slack = np.where(layout.upper, rhs - lhs, lhs - rhs)
        # One list per (bound, state) row, each read by index: bound i's
        # rows start at i * states.
        flat = (count * states, size)
        satisfied = (slack >= -SLACK_TOL).reshape(flat).tolist()
        lhs, rhs, slack, pick = (x.reshape(flat).tolist() for x in (lhs, rhs, slack, pick))
        certs, repeat = [], itertools.repeat
        for i, (_, _, source, _) in enumerate(layout.bounds):
            if type(source[0]) is not tuple:
                certs += [[cert] * size for cert in self._certs(source)]
                continue
            # A branch bound: each row reports its branch's certificate.
            picks = pick[i * states:(i + 1) * states]
            if source[0][0] == "front":
                certs += [[x if won else y for won, x, y in zip(row, row_a, row_b)]
                          for row, row_a, row_b in zip(picks, *map(self._certs, source))]
            else:  # both branches' certificates are J's, the same at every alpha
                certs += [[x if won else y for won in row]
                          for row, x, y in zip(picks, *map(self._certs, source))]
        # Every (bound, state) row's columns, built as BoundColumns builds
        # itself, without its Python-level __new__: one tuple of the fields,
        # in order, from one zip over all the rows.
        ids = [theorem_id for _, theorem_id, _, _ in layout.bounds for _ in range(states)]
        built = list(map(tuple.__new__, repeat(BoundColumns), zip(
            ids, repeat(alphas), lhs, rhs, slack, satisfied, certs, repeat(True))))
        for i, (index, theorem_id, _, check) in enumerate(layout.bounds):
            out[index] = columns = built[i * states:(i + 1) * states]
            if check is not None:
                for s, off in enumerate(self._not_applicable(check)):
                    if off:
                        columns[s] = _inapplicable(theorem_id, alphas, columns[s].lhs)
        return out

    def _table(self, layout: _Layout) -> np.ndarray:
        """The (rows x states x alpha) table: every raised row's bases
        raised to alpha or to p by one ``np.float_power`` call, then the
        searched fronts off their columns, then the rows of several group
        terms: J weighted by h, jin by p, and a caller's front sum."""
        raised, fronts = len(layout.of_alpha), layout.fronts
        table = np.zeros((raised + len(fronts) + len(layout.terms), len(self.evaluators),
                          len(self.grid)))
        bases = np.array([*itertools.chain.from_iterable(map(self._bases, layout.bases))],
                         dtype=float)[:, :, None]
        np.float_power(bases, np.where(layout.of_alpha, self.alpha, self.p)[:, None, :],
                       out=table[:raised], where=bases > 0.0)
        if fronts:
            self._read_fronts(fronts)
            table[raised:raised + len(fronts)] = [self._fronts[focus][1] for focus in fronts]
        for i, ((kind, _), terms) in enumerate(layout.terms.items(), raised + len(fronts)):
            table[i] = (_front_of_rows(table[terms], self.h) if kind == "front" else
                        _geometric_sum(table[terms], self.h if kind == "J" else self.p))
        return table

    # -- the inputs of each row, gathered once per chunk ---------------------

    def _bases(self, source: tuple) -> Iterable[Sequence[float]]:
        """Each state's base in each raised row that ``source`` reads: its
        own row, or one row per group term of a J, jin or caller's front sum.
        A caller's grouping, of a lone call's one state, gives its C^2 sums
        or its certificate's values, one term per group; otherwise J's one
        term is each state's merged Ca^2 total, and jin's are its
        certificate's values (zeros where jin does not apply)."""
        kind, evs = source[0], self.evaluators
        if kind == "cut":
            return [[ev._cut(source[1])[source[2]] for ev in evs]]
        given = self.given.get(source[1]) if kind in _TERMED else None
        if given is not None:
            return [(x,) for x in (given[2] if kind == "front" else given[1].squared_values)]
        if kind == "J":
            return [[cert.squared_values[0] for _, cert, _ in self._merged_groups(source[1])]]
        if kind == "jin":
            zeros = (0.0,) * (evs[0].psi.num_qubits - 1)
            return zip(*[zeros if cert is None else cert.squared_values
                         for cert in self._certs(source)])
        if kind == "total":
            return [[c_total for c_total, _ in self._total_sums(source[1])]]
        if kind == "rank":
            return [[r * (r - 1) / 2.0 for r in (ev._cut(source[1])[2] for ev in evs)]]
        return [[1.0 if source == _ONE else 0.0] * len(evs)]

    def _certs(self, source: tuple) -> list:
        """Each state's certificate read off ``source``, once per pass: a
        front column's list per alpha, or the one certificate of J's
        grouping or of jin's order (None where that is not feasible).  A
        caller's grouping is its focus's certificate for all three, the
        same at every alpha of a front row.  The lists are only read, never
        returned."""
        certs = self._certificates.get(source)
        if certs is None:
            kind, focus = source
            given = self.given.get(focus)
            if given is not None:
                certs = [[given[1]] * len(self.grid)] if kind == "front" else [given[1]]
            elif kind == "front":
                certs = self._front_columns(focus)[0]
            elif kind == "J":
                certs = [cert for _, cert, _ in self._merged_groups(focus)]
            else:
                certs = [ev._singleton(focus) for ev in self.evaluators]
            self._certificates[source] = certs
        return certs

    def _not_applicable(self, check: tuple) -> list[bool]:
        """Whether the bound does not apply to each state: jin with no
        feasible singleton order, or cor2_lower where the other foci's cut
        exceeds the center's."""
        if check[0] == "jin":
            return [cert is None for cert in self._certs(check)]
        _, center_cut, others = check
        return [ev._cut(others)[0] > ev._cut(center_cut)[0] + SLACK_TOL
                for ev in self.evaluators]

    def _total_sums(self, focus: int) -> list[tuple[float, float]]:
        """Each state's C^2 and Ca^2 sums over the partners of ``focus``:
        summed from the tables for a lone call's caller grouping, and
        otherwise read off each state's kept merged group."""
        if focus in self.given:
            c_sq, ca_sq = self.evaluators[0].tables(focus)
            return [(_sum_in_order(c_sq.values()), _sum_in_order(ca_sq.values()))]
        return [(c_sums[0], cert.squared_values[0])
                for _, cert, c_sums in self._merged_groups(focus)]

    def _merged_groups(self, focus: int) -> list[Certified]:
        groups = self._merged.get(focus)
        if groups is None:
            groups = self._merged[focus] = [ev._merged_group(focus) for ev in self.evaluators]
        return groups

    def _front_columns(self, focus: int) -> tuple[list[tuple], list[tuple]]:
        """Each state's certificates and front sums of ``focus`` per alpha,
        read once per pass (``_read_fronts``)."""
        if focus not in self._fronts:
            self._read_fronts((focus,))
        return self._fronts[focus]

    def _read_fronts(self, foci: tuple[int, ...]) -> None:
        """Fill the chunk's front columns of ``foci`` with one
        ``_fill_fronts`` call, then unpack each state's ``front_best``
        column of each focus into its certificates and front sums.  The
        table reads every front focus of its layout this way at once, so a
        pass runs one chain DP whatever its front bounds."""
        _fill_fronts(self.evaluators, foci, self.grid)
        for focus in foci:
            certs, fronts = [], []
            for ev in self.evaluators:
                _, cert, front = zip(*ev.front_best(focus, self.grid))
                certs.append(cert)
                fronts.append(front)
            self._fronts[focus] = certs, fronts


def _geometric_sum(terms: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """``sum_i ratio^i terms[i]`` over the first axis of two terms or more,
    added one term at a time in order: J with ratio h, jin with ratio p."""
    weights = np.float_power(ratio, _POWERS[:len(terms)])
    return np.add.accumulate(weights[:, None, :] * terms, axis=0)[-1]


def _front_of_rows(terms: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``h * sum_{i<k} terms[i] + terms[k]`` over the first axis of two terms
    or more: the front sum, h times the sum of all but the last group term,
    added in order, plus the last."""
    return h * np.add.accumulate(terms[:-1], axis=0)[-1] + terms[-1]


def _powers(grouped: Sequence[Sequence[float]], p: np.ndarray) -> np.ndarray:
    """The (groups x states x alpha) array of each state's group values
    ``grouped[state]`` to the power p; a value at or below 0 reads 0."""
    bases = np.array(grouped, dtype=float).T[:, :, None]
    return np.float_power(bases, p, where=bases > 0.0,
                          out=np.zeros(bases.shape[:2] + p.shape))


def _fill_fronts(evaluators: Sequence[StateEvaluator], foci: Sequence[int],
                 grid: AlphaGrid) -> None:
    """Keep on each evaluator that lacks it its front column of each of
    ``foci`` over ``grid`` (``StateEvaluator._fronts``), for ``front_best``
    to read: ``front_best`` calls this for its evaluator and its one focus
    alone, and a chunk pass for its chunk and every front focus of its
    layout.  Each column is a ``(grouping, certificate, front sum)`` triple
    per alpha.  The (state, focus) entries that lack their column are taken
    focus by focus, each focus's states in chunk order.

    * An entry whose pair C are all 0 takes its kept merged group, J's own
      certificate, with front sum 0.0 at every alpha: every grouping reads
      0, and a tie keeps the whole set.
    * Above 8 partners (canonical mode) the merged group is kept unless the
      descending singleton order is feasible and its front sum is strictly
      larger, as a tie keeps the whole set in the search.  The singleton
      certificate is the one jin reads (``_singleton_certificate``); the
      merged total C^2 and the singletons' C^2 values are raised by one
      ``_powers`` call per entry, and the singletons' front sum is
      ``_front_of_rows``.
    * Every other entry is searched by one chain DP over (subsets x entries
      x alpha) arrays (``_front_dp``), whatever its focus: every focus of
      one state size has the same number of partners, so the entries line
      up.  The C^2 and Ca^2 subset sums are formed for all of them at once
      (``_subset_sums``), the leads ``-(C^2 sum)^p`` are raised by one
      ``_powers`` call, and the chains and front sums are read off the
      picks as arrays (``_front_chains``).  Every step acts on each entry
      alone, so each column equals the one that a fill of its focus alone
      forms, bit for bit.  Each entry then certifies each distinct chain
      once, off its Ca^2 subset sums, which equal the grouping's
      ``_grouped_sums`` bit for bit, with the chain's shared ``Grouping``
      over its own focus's partners.
    """
    canonical, searched = [], []
    for focus in foci:
        key = (focus, grid.values)
        for ev in evaluators:
            if key in ev._fronts:
                continue
            if not any(ev.tables(focus)[0].values()):
                grouping, cert, _ = ev._merged_group(focus)
                ev._fronts[key] = [(grouping, cert, 0.0)] * len(grid)
            else:
                (canonical if ev.search == "canonical" else searched).append((ev, focus))
    if not (canonical or searched):
        return
    _, p, h = grid.array
    for ev, focus in canonical:
        c_sq = ev.tables(focus)[0]
        grouping, cert, (total,) = ev._merged_group(focus)
        singles = ev._singleton(focus)
        groups = () if singles is None else singles.grouping.groups
        terms = _powers([[total, *(c_sq[q] for (q,) in groups)]], p)[:, 0]
        column = [(grouping, cert, front) for front in terms[0].tolist()]
        if singles is not None:
            for i, front in enumerate(_front_of_rows(terms[1:], h).tolist()):
                if front > column[i][2]:
                    column[i] = (singles.grouping, singles, front)
        ev._fronts[focus, grid.values] = column
    if not searched:
        return
    tables = [ev.tables(focus) for ev, focus in searched]
    values = np.array([[*c_sq.values(), *ca_sq.values()] for c_sq, ca_sq in tables], dtype=float)
    c, ca = _subset_sums(values.reshape(len(tables), 2, -1).T).transpose(1, 0, 2)
    terms = _powers(c.T, p)
    chains, fronts = _front_chains(_front_dp(-terms, ca, h), terms, h)
    for (ev, focus), (_, ca_sq), ca_sums, rows, row_fronts in zip(
            searched, tables, ca.T.tolist(), chains.tolist(), fronts.tolist()):
        partners, certs, column = tuple(ca_sq), {}, []
        for chain, front in zip(map(tuple, rows), row_fronts):
            cert = certs.get(chain)
            if cert is None:
                cert = certs[chain] = _chain_certificate(
                    partners, tuple(filter(None, chain)), ca_sums)
            column.append((cert.grouping, cert, front))
        ev._fronts[focus, grid.values] = column


def fill_spectra(evaluators: Sequence[StateEvaluator], pairs: Collection[tuple[int, int]],
                 cuts: Collection[tuple[int, ...]]) -> None:
    """Keep on each evaluator the listed pair and cut values it lacks.

    The evaluators hold states of one qubit count; states of several are
    refused with ``ValueError``, and an empty list fills nothing.
    ``pairs`` holds ``(low, high)`` qubit pairs and ``cuts`` sorted qubit
    tuples, each once and of plain ints, as a ``_Layout`` lists them.  The
    amplitudes are stacked once, as an (S, 2, ..., 2) tensor (a view for a
    chunk of one).  One output stack of 4 x 4 matrices holds a row for each
    lacking (state, pair).  The (pair, lacking states) entries are reduced
    in batches of consecutive entries, each batch as large as
    ``_BATCH_BYTES`` of transposed amplitude copies allows, but at least
    one entry: each batch is one ``qcore._reduced_densities`` call, whose
    parts write their transposed copies into two scratch buffers that the
    batches reuse, and whose one conjugate and one stacked matmul write the
    batch's rows of the output.  A two-qubit state is its own pair state,
    copied into its row.  The filled rows are made read-only once and
    wrapped as ``DensityMatrix`` objects (``qcore._gram_densities``), and
    they are solved as one ``_keep_mu_values`` stack, which keeps each
    pair's C and Ca on its ``rho``; each pair keeps their squares, read
    through ``concurrence_two_qubit`` and ``coa_two_qubit``.  The cuts of
    one size are solved with one stacked ``eigvalsh``, and ``_cut_measures``
    gives each its concurrence, negativity and Schmidt rank.  A cut that is
    a pair this call filled for the same state takes that pair's row; every
    other cut is reduced alone with ``reduced_density``.  numpy runs the
    same BLAS or LAPACK routine on each matrix of a stack as on a single
    one, so the values equal, bit for bit, those of a chunk of one:
    ``tables`` and ``_cut`` fill their misses with this as a chunk of one.
    """
    sizes = {ev.psi.num_qubits for ev in evaluators}
    if len(sizes) > 1:
        raise ValueError(f"fill_spectra takes states of one qubit count, got {sorted(sizes)}")
    owners, entries = [], []
    for key in pairs:
        lacking = [i for i, ev in enumerate(evaluators) if key not in ev._pairs]
        if lacking:
            owners += [(evaluators[i], key) for i in lacking]
            entries.append((lacking, key))
    filled = {}
    if owners:
        stack = np.empty((len(owners), 4, 4), complex)
        if sizes == {2}:
            stack[:] = [to_density(ev.psi).matrix for ev, _ in owners]
        else:
            tensor = _amplitude_tensor([ev.psi for ev in evaluators])
            limit = _BATCH_BYTES // tensor[0].nbytes  # states whose copies fit the budget
            batches, rows = [], []
            for lacking, key in entries:
                if not rows or rows[-1] + len(lacking) > limit:  # a new batch
                    batches.append([])
                    rows.append(0)
                batches[-1].append(
                    (tensor if len(lacking) == len(evaluators) else tensor[lacking], key))
                rows[-1] += len(lacking)
            size = max(rows) * tensor[0].size
            scratch = (np.empty(size, complex), np.empty(size, complex))
            first = 0
            for batch, count in zip(batches, rows):
                _reduced_densities(batch, scratch, out=stack[first:first + count])
                first += count
        rhos = _gram_densities(stack)
        _keep_mu_values(rhos, stack)
        filled = dict(zip(owners, rhos))
        for (ev, key), rho in filled.items():
            ev._pairs[key] = (concurrence_two_qubit(rho).value ** 2, coa_two_qubit(rho).value ** 2)
    cut_todo: dict[int, list[tuple[StateEvaluator, tuple[int, ...]]]] = {}
    for ev in evaluators:
        for key in cuts:
            if key not in ev._cuts:
                cut_todo.setdefault(len(key), []).append((ev, key))
    for todo in cut_todo.values():
        spectra = _schmidt_spectra([(filled[ev, key] if (ev, key) in filled else
                                     reduced_density(ev.psi, key)).matrix for ev, key in todo])
        for (ev, key), c, neg, rank in zip(todo, *_cut_measures(spectra)):
            ev._cuts[key] = (c, neg, rank)


def fill_columns(evaluators: Sequence[StateEvaluator], theorem_ids: Iterable[str],
                 grid: AlphaGrid) -> None:
    """Leave on each evaluator the ``BoundColumns`` of the listed bounds at
    their default foci over ``grid``, for ``evaluate`` to take.

    The evaluators hold states of one qubit count, as ``fill_spectra``
    requires, and an empty list does nothing.  The bounds that the size
    admits are laid out once (``_layout``), one ``fill_spectra`` call fills
    every pair and cut that the layout lists, and one ``_ChunkPass`` forms
    every bound's lhs, rhs, slack and verdict as (states x alpha) arrays,
    from the alpha-free values gathered once for the chunk; the front foci
    are searched together by one chain DP for the chunk (``_fill_fronts``),
    which also leaves each focus's ``front_best`` columns.  ``verify`` calls this once
    and ``sweep`` once per chunk; each then asks ``evaluate`` for each
    (state, bound), which takes the kept columns off the evaluator.  The
    values equal, bit for bit, those of a chunk of one, which a lone
    ``evaluate`` computes.
    """
    if not evaluators:
        return
    n = evaluators[0].psi.num_qubits
    bounds = _default_bounds(tuple(theorem_ids), n)
    layout = _layout(bounds, n, ())
    fill_spectra(evaluators, layout.pairs, layout.cuts)
    for (tid, foci), columns in zip(bounds, _ChunkPass(evaluators, grid).columns(
            bounds, grid.values)):
        for ev, cols in zip(evaluators, columns):
            ev._columns[tid] = (foci, grid.values, cols)


def _default_bounds(theorem_ids: tuple[str, ...], num_qubits: int
                    ) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The listed bounds that ``num_qubits`` qubits admit, at their default
    foci, as ``_ChunkPass.columns`` takes them; an unknown id is refused."""
    specs = []
    for theorem_id in theorem_ids:
        spec = BOUNDS.get(theorem_id)
        if spec is None:
            raise ValueError(f"unknown theorem_id {theorem_id!r}")
        specs.append((theorem_id, spec))
    return tuple((tid, spec.foci) for tid, spec in specs
                 if num_qubits >= spec.min_qubits)


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

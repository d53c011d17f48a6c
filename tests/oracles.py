"""Reference formulas of the bounds' weighted sums, kept as test oracles.

Each is written from the paper's statement with one alpha argument, apart
from the scalar kernels ``_j_sum`` and ``_front_sum``, which take
``p = alpha/2`` and a weight, as the library's array rows do.  The tests
compare the kernels against the statements, and every report against the
kernels, bit for bit where the summation order agrees.  Every sum here
adds left to right from 0.0 (``_ordered_sum``, ``_sum_in_order``), as the
library does on every Python version.

``sweep_tally`` is the sweep's aggregation one report at a time, as
``sweep`` did before it read each bound's rows as columns, and
``bound_columns`` is a bound's per-alpha evaluation in Python floats, as
``evaluate`` did before a chunk's bounds were evaluated as arrays.
``front_column`` is one focus's front search per state, one chain DP per
alpha, as ``front_best`` ran it before a chunk's fronts were searched as
one (states x alpha) array DP; ``chain_dp`` is that DP.  ``canonical_column``
is one focus's front column above 8 partners, one alpha at a time, as
``front_best`` formed it before the canonical fronts were raised as arrays.
"""

import math
from typing import Iterable, Sequence

from entbounds.bounds import (_TIE_TOL, BOUNDS, SLACK_TOL, BoundColumns, OrderingCertificate,
                              _dominates, _feasible_certificate, _shared_grouping,
                              _singleton_certificate, _split_table, _sum_in_order,
                              canonical_grouping, h_weight)


def _ordered_sum(values: Iterable[float]) -> float:
    """The values added one at a time, left to right, from 0.0; built-in
    ``sum`` of floats is compensated from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _apow(value: float, alpha: float) -> float:
    """value**alpha with negatives clipped and 0**alpha defined as 0."""
    v = max(0.0, float(value))
    if v == 0.0:
        return 0.0
    return v ** alpha


def grid_weights(grid: Iterable[float]) -> list[tuple[float, float]]:
    """``(p, h)`` = ``(alpha/2, h_weight(alpha))`` of each alpha of ``grid``,
    in order: the weights that a grid's p and h rows hold."""
    return [(alpha / 2.0, h_weight(alpha)) for alpha in grid]


def _geometric_sum(grouped_sq: Sequence[float], alpha: float) -> float:
    """sum_i h^(i-1) * (g_i^2)^(alpha/2) over the groups in order."""
    h = h_weight(alpha)
    return _ordered_sum((h ** i) * _apow(v, alpha / 2.0) for i, v in enumerate(grouped_sq))


def _front_weighted_sum(grouped_sq: Sequence[float], alpha: float) -> float:
    """h * sum_{i<k} (g_i^2)^(alpha/2) + (g_k^2)^(alpha/2)."""
    h = h_weight(alpha)
    terms = [_apow(v, alpha / 2.0) for v in grouped_sq]
    return h * _ordered_sum(terms[:-1]) + terms[-1]


def _jin_sum(grouped_sq: Sequence[float], alpha: float) -> float:
    """sum_i (alpha/2)^(i-1) * (g_i^2)^(alpha/2) over the groups in order."""
    return _ordered_sum(((alpha / 2.0) ** i) * _apow(v, alpha / 2.0)
                        for i, v in enumerate(grouped_sq))


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


def sweep_tally(stats: dict, report) -> None:
    """Add one ``BoundReport`` to its bound's sweep stats: ``rows``,
    ``violations``, ``not_applicable``, ``min_slack`` and ``sum_slack``."""
    stats["rows"] += 1
    if not report.applicable:
        stats["not_applicable"] += 1
        return
    if not report.satisfied:
        stats["violations"] += 1
    stats["min_slack"] = min(stats["min_slack"], report.slack)
    stats["sum_slack"] += report.slack


def bound_columns(ev, theorem_id: str, grid, foci=None, groupings=None):
    """One bound's ``BoundColumns`` on evaluator ``ev`` over ``grid``, one
    alpha at a time in Python floats: ``StateEvaluator.evaluate``'s
    arithmetic as it was before a chunk's bounds were evaluated as
    (states x alpha) arrays.  It reads the same alpha-free values off ``ev``
    (cuts, focus tables, merged groups, front columns, caller groupings) and
    applies ``_j_sum`` and ``_front_sum`` per alpha, adding the foci's terms
    in focus order."""
    spec = BOUNDS[theorem_id]
    foci = ev._foci(theorem_id, spec, foci)
    given = None if groupings is None else ev._given(theorem_id, spec, foci, groupings)
    alphas = grid.values
    kind = spec.rhs
    c_cut, n_cut, rank = ev._cut(foci)
    if kind == "pair_sum":
        c_sq, ca_sq = ev.tables(foci[0])
        lhs, rhs = ((c_cut ** 2, _sum_in_order(ca_sq.values())) if spec.direction == "upper"
                    else (_sum_in_order(c_sq.values()), c_cut ** 2))
        slack = rhs - lhs
        return BoundColumns(theorem_id, (2.0,), [lhs], [rhs], [slack],
                            [slack >= -SLACK_TOL], [None], True)
    cut = n_cut if spec.cut == "N" else c_cut
    lhs = [cut ** a if cut > 0.0 else 0.0 for a in grid.values]
    weights = grid_weights(grid)

    def inapplicable():
        nan = [math.nan] * len(alphas)
        return BoundColumns(theorem_id, alphas, lhs, nan, nan[:], [True] * len(alphas),
                            [None] * len(alphas), False)

    if kind == "jin":
        if given is None:
            cert = _singleton_certificate(ev.tables(foci[0])[1])
            if cert is None:
                return inapplicable()
        else:
            cert = given[0][1]
        rhs = [_j_sum(cert.squared_values, p, p) for p, _ in weights]
        certs = [cert] * len(alphas)
    else:
        js = [cert for _, cert, _ in (given if given is not None else map(ev._merged_group, foci))]
        vals = [j.squared_values for j in js]
        certs = [js[spec.center]] * len(alphas)
        if kind in ("front", "total"):
            if kind == "total":
                fronts = [(_sum_in_order(ev.tables(f)[0].values()),) for f in foci[:2]]
            elif given is not None:
                fronts = [c_sums for _, _, c_sums in given[:2]]
            else:
                fronts = None
                col_a, col_b = ev.front_best(foci[0], grid), ev.front_best(foci[1], grid)
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
            if ev._cut(others)[0] > ev._cut(center_cut)[0] + SLACK_TOL:
                return inapplicable()
            lead = (_sum_in_order(ev.tables(foci[spec.center])[0].values()),)
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


def subset_sums(values: Sequence[float]) -> list[float]:
    """Sum over every bit mask: the sum of the mask without its top bit, plus
    that bit's value, so each mask adds its members in ascending position."""
    sums = [0.0] * (1 << len(values))
    for s in range(1, len(sums)):
        top = s.bit_length() - 1
        sums[s] = sums[s ^ (1 << top)] + values[top]
    return sums


def split_rows(c_sq, ca_sq) -> tuple[list[float], list[float], dict]:
    """``(c, ca, rows)``: the C^2 and Ca^2 subset sums over the sorted
    partners, and the dominance-feasible splits ``(t, s ^ t)`` of each subset
    ``s`` that the full set reaches through such splits and whose C^2 sum is
    above 0, in ``_split_table`` order, the subsets ascending.  A reached
    subset whose C^2 sum is 0 is a leaf with no row; when the full set's
    C^2 sum is 0 there are no rows."""
    partners = tuple(sorted(ca_sq))
    c = subset_sums([float(c_sq[q]) for q in partners])
    ca = subset_sums([ca_sq[q] for q in partners])
    full = len(c) - 1
    reached, rows = {full}, {}
    for s in range(full, 0, -1):
        if s in reached and c[s] != 0.0:
            rows[s] = [(t, s ^ t) for t in _split_table(len(partners))[s]
                       if _dominates(ca[t], ca[s ^ t])]
            reached.update(r for _, r in rows[s])
    return c, ca, dict(reversed(rows.items()))


def chain_dp(splits, lead: Sequence[float], h: float) -> tuple[list[float], list[int]]:
    """``(value, pick)`` of the minimal chain over every subset: its value and
    its leading group.  ``value(s)`` is the smaller of ``lead[s]`` and, over
    ``(t, r)`` in ``splits[s]``, ``h * lead[t] + value(r)``; a subset with no
    row is a leaf.  The whole subset is the first candidate and the splits
    follow in order; a split replaces the running best only when it is
    lower by more than ``_TIE_TOL``."""
    value, pick = list(lead), list(range(len(lead)))
    for s, row in splits.items():
        best, best_t = lead[s], s
        for t, r in row:
            v = h * lead[t] + value[r]
            if v < best - _TIE_TOL:
                best, best_t = v, t
        value[s], pick[s] = best, best_t
    return value, pick


def front_column(c_sq, ca_sq, grid) -> list[tuple]:
    """One focus's ``(grouping, certificate, front sum)`` per alpha of
    ``grid``, searched exhaustively for this state alone: the split rows
    once, then per alpha the chain DP over the negated leads
    ``-(C^2 subset sum)^p``, the walk from the full set down the picks,
    the front sum of the chain's terms (h times the sum of all but the
    last, plus the last; of one group, its term), and each distinct
    chain's certificate read off the Ca^2 subset sums.  A focus whose pair
    C are all 0 takes the merged group, front sum 0.0."""
    partners = tuple(sorted(ca_sq))
    c, ca, rows = split_rows(c_sq, ca_sq)
    full = len(c) - 1
    if not rows:
        merged = _shared_grouping(partners, (full,))
        cert = _feasible_certificate(merged, (_sum_in_order(ca_sq[q] for q in partners),))
        return [(merged, cert, 0.0)] * len(grid)
    column, certs = [], {}
    for p, h in grid_weights(grid):
        lead = [-(v ** p) if v > 0.0 else -0.0 for v in c]
        pick = chain_dp(rows, lead, h)[1]
        s, chain = full, []
        while s:
            chain.append(pick[s])
            s ^= pick[s]
        chain = tuple(chain)
        cert = certs.get(chain)
        if cert is None:
            cert = certs[chain] = _feasible_certificate(_shared_grouping(partners, chain),
                                                        tuple(ca[t] for t in chain))
        terms = [-lead[t] for t in chain]
        front = terms[0] if len(terms) == 1 else h * _sum_in_order(terms[:-1]) + terms[-1]
        column.append((cert.grouping, cert, front))
    return column


def canonical_column(c_sq, ca_sq, grid) -> list[tuple]:
    """One focus's ``(grouping, certificate, front sum)`` per alpha of
    ``grid`` in canonical mode, one alpha at a time in Python floats: the
    front sum (``_front_sum``) of the merged group and of
    ``canonical_grouping``, each grouping's C^2 and Ca^2 values summed in
    order, and the merged group kept unless the canonical grouping's front
    sum is strictly larger."""
    partners = tuple(sorted(ca_sq))
    merged = _shared_grouping(partners, ((1 << len(partners)) - 1,))
    column = []
    for grouping in (merged, canonical_grouping(ca_sq)):
        ca = tuple(_ordered_sum(ca_sq[q] for q in g) for g in grouping.groups)
        c = tuple(_ordered_sum(c_sq[q] for q in g) for g in grouping.groups)
        column.append((grouping, OrderingCertificate(grouping, ca, True), c))
    (merged, merged_cert, merged_c), (canonical, canonical_cert, canonical_c) = column
    out = []
    for p, h in grid_weights(grid):
        front, merged_front = _front_sum(canonical_c, p, h), _front_sum(merged_c, p, h)
        out.append((canonical, canonical_cert, front) if front > merged_front
                   else (merged, merged_cert, merged_front))
    return out

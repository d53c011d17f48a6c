"""Reference formulas of the bounds' weighted sums, kept as test oracles.

Each is written from the paper's statement with one alpha argument, apart
from the kernels in ``entbounds.bounds`` (``_j_sum`` and ``_front_sum``),
which take ``p = alpha/2`` and a weight.  The tests compare the kernels and
every report against these, bit for bit where the summation order agrees.
Every sum here adds left to right from 0.0 (``_ordered_sum``), as the
library does on every Python version.

``sweep_tally`` is the sweep's aggregation one report at a time, as
``sweep`` did before it read each bound's rows as columns, and
``bound_columns`` is a bound's per-alpha evaluation in Python floats, as
``evaluate`` did before a chunk's bounds were evaluated as arrays.
"""

import math
from typing import Iterable, Sequence

from entbounds.bounds import (BOUNDS, SLACK_TOL, BoundColumns, _front_sum, _j_sum,
                              _singleton_certificate, _sum_in_order, h_weight)


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
    weights = grid.weights

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

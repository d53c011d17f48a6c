"""Reference formulas of the bounds' weighted sums, kept as test oracles.

Each is written from the paper's statement with one alpha argument, apart
from the kernels in ``entbounds.bounds`` (``_j_sum`` and ``_front_sum``),
which take ``p = alpha/2`` and a weight.  The tests compare the kernels and
every report against these, bit for bit where the summation order agrees.
Every sum here adds left to right from 0.0 (``_ordered_sum``), as the
library does on every Python version.

``sweep_tally`` is the sweep's aggregation one report at a time, as
``sweep`` did before it read each bound's rows as columns.
"""

from typing import Iterable, Sequence

from entbounds.bounds import h_weight


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

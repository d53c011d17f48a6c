"""Command-line front end.

Subcommands:
  verify        evaluate selected bounds on one state over an alpha grid
  sweep         randomized soundness sweep over seeded Haar states
  figure        emit the fixed reference curves for the bundled examples
  gallery-list  list the named state families

Exit codes: 0 all satisfied (or not applicable), 1 at least one violation,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .bounds import (BOUNDS, AlphaGrid, BoundColumns, StateEvaluator, THEOREM_IDS, fill_columns,
                     h_weight, search_mode)
from .gallery import FAMILIES, StateSpec
from .qcore import MAX_QUBITS, haar_random_states
# Not called here; perfbench/tracer.py's qcore.state_draw layer wraps cli.haar_random_pure.
from .qcore import haar_random_pure  # noqa: F401

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

# The sweep draws one seed per sample up front, so the count is bounded first.
_MAX_SAMPLES = 1_000_000
# States per sweep chunk: drawn by one ``haar_random_states`` call, their pair
# and cut spectra solved as one stack, and each bound's columns tallied by one
# ``_tally`` call.  At 4 qubits larger chunks were no faster than 16, and one
# state per chunk was 15-30% slower; at 12 qubits a chunk's amplitudes take
# 1 MiB.
_SWEEP_CHUNK = 16
_FIGURE_GRID = tuple(round(0.02 * k, 10) for k in range(1, 101))


@functools.lru_cache(maxsize=8)
def _parse_alpha(spec: str) -> AlphaGrid:
    """The grid of an ``--alpha`` spec, built once per spec string and
    process: a grid is immutable, and it keeps its (alpha, p, h) array,
    so every op with the same spec shares it.  A
    spec that is refused raises, so it is never cached."""
    s = spec.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"alpha range must be start:stop:step, got {spec!r}")
        return AlphaGrid.from_range(float(parts[0]), float(parts[1]), float(parts[2]))
    return AlphaGrid(tuple(float(x) for x in s.split(",")))


def _parse_theorems(spec: str, num_qubits: int) -> tuple[str, ...]:
    if spec.strip().lower() == "all":
        chosen = tuple(t for t in THEOREM_IDS if num_qubits >= BOUNDS[t].min_qubits)
        if not chosen:
            raise ValueError(f"no bound applies to {num_qubits} qubit")
        return chosen
    chosen = []
    for raw in spec.split(","):
        tid = raw.strip()
        if tid not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {tid!r}; known: {', '.join(THEOREM_IDS)}")
        if tid in chosen:
            raise ValueError(f"duplicate theorem id {tid!r}")
        if num_qubits < BOUNDS[tid].min_qubits:
            raise ValueError(f"{tid} requires at least {BOUNDS[tid].min_qubits} qubits, "
                             f"state has {num_qubits}")
        chosen.append(tid)
    return tuple(chosen)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# Whether a CSV text holds none of the characters that make csv.writer quote it.
_CSV_PLAIN = frozenset(',"\r\n').isdisjoint
# The one row shape of each table, as its column names.
_REPORT_COLUMNS = ("theorem", "alpha", "lhs", "rhs", "slack", "satisfied", "applicable",
                   "grouping")
_SWEEP_COLUMNS = ("theorem", "rows", "violations", "not_applicable", "min_slack", "mean_slack")


def _float_fields(values: list) -> list[str]:
    """Each value as a CSV field: ``%.12g``, NaN as an empty field.  Each
    distinct value is formatted once, all in one ``%`` call, but a zero in
    place, as 0.0 == -0.0 would share a field.  Plain dicts, not numpy: a
    15-row sweep table pays no numpy call overhead."""
    distinct = dict.fromkeys(values)
    texts = ("%.12g\n" * len(distinct) % tuple(distinct)).replace("nan", "").split("\n")
    fields = dict(zip(distinct, texts))
    return [fields[x] if x else f"{x:.12g}" for x in values]


def _csv_fields(cells, texts: dict) -> list[str]:
    """A column's values as CSV fields; the first value sets the column's
    kind: a float prints as ``%.12g`` (NaN as an empty field), a bool as
    ``true``/``false``, else ``str``, quoted as Python 3.13's ``csv.writer``
    quotes a field with a comma, a quote, CR or LF.  ``texts`` keeps the
    table's field of each distinct text, so each is quoted once."""
    if cells and isinstance(cells[0], float):
        return _float_fields(cells)
    if cells and isinstance(cells[0], bool):
        return ["true" if x else "false" for x in cells]
    cells = list(map(str, cells))
    for t in itertools.filterfalse(texts.__contains__, cells):
        texts[t] = t if _CSV_PLAIN(t) else '"' + t.replace('"', '""') + '"'
    return list(map(texts.__getitem__, cells))


def _table_text(fmt: str, columns: tuple[str, ...], blocks, head: dict | None = None,
                comments: str = "") -> str:
    """``blocks`` of rows as CSV or JSON text.

    A block holds one entry per column, in ``columns`` order: a list or tuple
    holds one value per row of the block, and any other value stands for
    every row of it.  At least one entry of a block is a list or tuple, and
    the table's rows are the blocks' rows, block after block.

    CSV writes ``comments`` (whole ``#`` lines), the header and one line per
    row, each column of a block formatted at once by ``_csv_fields``, and a
    constant once per block.  The float columns of all blocks are formatted
    by one ``_float_fields`` call, so each distinct float, such as each value
    of an alpha grid that every block repeats, is formatted once per table.
    JSON writes ``{**head, "rows": [...]}`` with one object per row,
    indented, and NaN as null.
    """
    if fmt == "json":
        rows = [{c: None if isinstance(x, float) and x != x else x for c, x in zip(columns, row)}
                for block in blocks for row in zip(*(
                    x if isinstance(x, (list, tuple)) else itertools.repeat(x) for x in block))]
        return json.dumps({**(head or {}), "rows": rows}, indent=2) + "\n"
    texts, floats, layouts = {}, [], []
    for block in blocks:
        rows = min(len(x) for x in block if isinstance(x, (list, tuple)))
        layout = []
        for x in block:
            if not isinstance(x, (list, tuple)):
                layout.append(itertools.repeat(_csv_fields((x,), texts)[0], rows))
            elif x and isinstance(x[0], float):  # formatted with all of ``floats`` below
                layout.append(slice(len(floats), len(floats) + len(x)))
                floats += x
            else:
                layout.append(_csv_fields(x, texts))
        layouts.append(layout)
    fields = _float_fields(floats)
    lines = [",".join(_csv_fields(columns, texts))]
    for layout in layouts:
        lines += map(",".join, zip(*(fields[c] if type(c) is slice else c for c in layout)))
    return comments + "\n".join(lines) + "\n"


def _grouping_cells(orderings: list) -> list[str]:
    """The ``grouping`` cells of a bound's rows: each row's certificate's
    grouping, or empty, read once per run of rows that share a certificate
    (no certificate or grouping is falsy, as neither has a length)."""
    cells: list[str] = []
    for _, run in itertools.groupby(orderings, id):
        run = list(run)
        cells += [str(run[0] and run[0].grouping or "")] * len(run)
    return cells


def cmd_verify(state: StateSpec, theorem: str, alphas: AlphaGrid, fmt: str,
               out: str | None) -> int:
    psi = state.build()
    theorems = _parse_theorems(theorem, psi.num_qubits)
    ev = StateEvaluator(psi)
    fill_columns((ev,), theorems, alphas)
    columns = [ev.evaluate(tid, alphas) for tid in theorems]
    # One block per bound: theorem_id ... satisfied, then applicable and grouping.
    blocks = [(*c[:6], c.applicable, _grouping_cells(c.ordering)) for c in columns]
    _write_output(_table_text(fmt, _REPORT_COLUMNS, blocks), out)
    violated = any(c.applicable and not all(c.satisfied) for c in columns)
    return EXIT_VIOLATION if violated else EXIT_OK


def _tally(s: dict, columns: list[BoundColumns]) -> None:
    """Add a chunk's columns of one bound, in state order, to the bound's
    sweep stats ``s``, as the states' columns added one at a time would.

    Not-applicable rows are only counted.  The minimum slack keeps the first
    of equal values (so a -0.0 keeps its sign as it came), and the slack sum
    adds the rows one by one, each state's in grid order, from the running
    total of all earlier states.  The counts, the minimum and the sum are
    kept in locals and written back once per chunk.
    """
    rows = not_applicable = violations = 0
    low, total = s["min_slack"], s["sum_slack"]
    for c in columns:
        rows += len(c.alpha)
        if not c.applicable:
            not_applicable += len(c.alpha)
            continue
        violations += c.satisfied.count(False)
        m = min(c.slack)
        if m < low:
            low = m
        for x in c.slack:
            total += x
    s["rows"] += rows
    s["not_applicable"] += not_applicable
    s["violations"] += violations
    s["min_slack"], s["sum_slack"] = low, total


def cmd_sweep(qubits: int, samples: int, seed: int, theorem: str, alphas: AlphaGrid,
              fmt: str, out: str | None) -> int:
    """The soundness sweep: one seed per sample from ``seed``, and a chunk of
    up to ``_SWEEP_CHUNK`` states at a time.  A chunk is drawn by one
    ``haar_random_states`` call and filled by one ``fill_columns`` call;
    then each bound's columns are read from every state of the chunk with
    ``StateEvaluator.evaluate`` and added by one ``_tally`` call.  Prints
    one row of stats per bound and returns 1 if any row reads violated."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most {_MAX_SAMPLES}, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 1 <= qubits <= MAX_QUBITS:
        raise ValueError(f"qubits must be in [1, {MAX_QUBITS}], got {qubits}")
    theorems = _parse_theorems(theorem, qubits)
    seeds = np.random.SeedSequence(seed).generate_state(samples, np.uint64).tolist()

    stats: dict[str, dict] = {
        tid: {"rows": 0, "violations": 0, "not_applicable": 0,
              "min_slack": math.inf, "sum_slack": 0.0}
        for tid in theorems
    }
    for start in range(0, samples, _SWEEP_CHUNK):
        chunk = [StateEvaluator(psi) for psi in
                 haar_random_states(qubits, seeds[start:start + _SWEEP_CHUNK])]
        fill_columns(chunk, theorems, alphas)
        # Every evaluator of the chunk lives until its last bound is tallied.
        for tid, s in stats.items():
            _tally(s, [ev.evaluate(tid, alphas) for ev in chunk])

    for s in stats.values():
        evaluated = s["rows"] - s["not_applicable"]
        s["min_slack"] = s["min_slack"] if evaluated else math.nan
        s["mean_slack"] = s["sum_slack"] / evaluated if evaluated else math.nan
    block = [list(stats), *([s[c] for s in stats.values()] for c in _SWEEP_COLUMNS[1:])]
    search = search_mode(qubits)
    meta = {"qubits": qubits, "samples": samples, "seed": seed,
            "alpha": list(alphas.values), "theorems": list(theorems),
            "search": search}
    comments = (f"# sweep qubits={qubits} samples={samples} seed={seed} search={search}\n"
                "# alpha=" + ",".join(f"{a:.12g}" for a in alphas) + "\n")
    _write_output(_table_text(fmt, _SWEEP_COLUMNS, [block], {"meta": meta}, comments), out)
    violated = any(s["violations"] for s in stats.values())
    return EXIT_VIOLATION if violated else EXIT_OK


def figure_rows(figure_id: int) -> tuple[tuple[str, ...], list[tuple[float, ...]]]:
    """Reference-curve rows for the bundled example states.

    Figure 1: one-vs-rest concurrence power of the equal-coefficient gsd3
    state against its geometric- and (alpha/2)-weighted assistance bounds.
    Figure 2: bound-gap curves y1/y2 for the wclass4 example; y1 applies the
    geometric weights in descending-value order while its companion
    assistance sum is written in ascending order, so the two fixed
    expressions disagree (the verify path always uses dominance-checked
    orderings instead).
    Figure 3: AB-vs-rest concurrence power of the fig3 state against its two
    upper bounds.
    """
    if figure_id == 1:
        lhs_base = 2.0 * math.sqrt(3.0) / 5.0
        rhs_base = 2.0 * math.sqrt(2.0) / 5.0
        header = ("alpha", "lhs", "thm1", "jin")
        rows = [(a,
                 lhs_base ** a,
                 (2.0 ** (a / 2.0)) * rhs_base ** a,
                 (1.0 + a / 2.0) * rhs_base ** a)
                for a in _FIGURE_GRID]
        return header, rows
    if figure_id == 2:
        c39 = math.sqrt(39.0) / 8.0
        c63 = math.sqrt(63.0) / 8.0
        t1, t2, t3 = 3.0 / 4.0, 3.0 * math.sqrt(2.0) / 8.0, 3.0 / 8.0
        header = ("alpha", "y1", "y2")
        rows = []
        for a in _FIGURE_GRID:
            h = h_weight(a)
            y1 = c39 ** a - c63 ** a + t1 ** a + h * t2 ** a + (h ** 2) * t3 ** a
            y2 = (c39 ** a - c63 ** a + t3 ** a + (a / 2.0) * t2 ** a
                  + ((a / 2.0) ** 2) * t1 ** a)
            rows.append((a, y1, y2))
        return header, rows
    if figure_id == 3:
        lhs_base = 2.0 * math.sqrt(2.0) / 3.0
        tail = 2.0 / 3.0
        header = ("alpha", "lhs", "thm4", "jin11")
        rows = [(a,
                 lhs_base ** a,
                 lhs_base ** a + h_weight(a) * tail ** a,
                 lhs_base ** a + (a / 2.0) * tail ** a)
                for a in _FIGURE_GRID]
        return header, rows
    raise ValueError(f"figure id must be 1, 2 or 3, got {figure_id}")


def cmd_figure(figure_id: int, out: str | None) -> int:
    header, rows = figure_rows(figure_id)
    if figure_id == 2:
        sys.stderr.write(
            "note: y1 applies its weights in descending-value order while its "
            "companion assistance sum uses ascending order; the two fixed "
            "expressions disagree, and 'verify' always uses dominance-checked "
            "orderings instead (see README).\n")
    _write_output(_table_text("csv", header, [list(zip(*rows))]), out)
    return EXIT_OK


def cmd_gallery_list(out: str | None) -> int:
    lines = [f"{name}\tparams={fam.num_params}\t{fam.description}"
             for name, fam in sorted(FAMILIES.items())]
    _write_output("\n".join(lines) + "\n", out)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by ``main``.

    Parsing keeps no state on the parser: each call returns a new namespace.
    """
    parser = argparse.ArgumentParser(
        prog="entbounds",
        description="Multiqubit entanglement measures and weighted "
                    "monogamy/polygamy bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="evaluate bounds on one state")
    p_verify.add_argument("--state", required=True,
                          help="path to a state-spec JSON file, or inline JSON")
    p_verify.add_argument("--theorem", default="all",
                          help="comma-separated theorem ids, or 'all'")
    p_verify.add_argument("--alpha", default="0.05:2.0:0.05",
                          help="exponent grid start:stop:step, list, or value")
    p_verify.add_argument("--out", default=None, help="output path (default stdout)")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sweep = sub.add_parser("sweep", help="randomized soundness sweep")
    p_sweep.add_argument("--qubits", type=int, required=True)
    p_sweep.add_argument("--samples", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=1234)
    p_sweep.add_argument("--theorem", default="all")
    p_sweep.add_argument("--alpha", default="0.25:2.0:0.25")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_fig = sub.add_parser("figure", help="emit reference-curve CSV data")
    p_fig.add_argument("id", type=int, choices=(1, 2, 3))
    p_fig.add_argument("--out", default=None)

    p_list = sub.add_parser("gallery-list", help="list named state families")
    p_list.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        if args.command == "verify":
            return cmd_verify(_state_spec_from_arg(args.state), args.theorem,
                              _parse_alpha(args.alpha), args.format, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.qubits, args.samples, args.seed, args.theorem,
                             _parse_alpha(args.alpha), args.format, args.out)
        if args.command == "figure":
            return cmd_figure(args.id, args.out)
        return cmd_gallery_list(args.out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def _state_spec_from_arg(arg: str) -> StateSpec:
    text = arg.strip()
    try:
        if text.startswith("{"):
            obj = json.loads(text)
        else:
            with open(arg, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("state JSON is nested too deeply") from None
    return StateSpec.from_dict(obj)


if __name__ == "__main__":
    sys.exit(main())

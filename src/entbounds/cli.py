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
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from .bounds import (BOUNDS, AlphaGrid, BoundReport, StateEvaluator, THEOREM_IDS,
                     h_weight, search_mode)
from .gallery import FAMILIES, StateSpec
from .qcore import PureState, haar_random_pure

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

# The sweep draws one seed per sample up front, so the count is bounded first.
_MAX_SAMPLES = 1_000_000
_FIGURE_GRID = tuple(round(0.02 * k, 10) for k in range(1, 101))


def _fmt_num(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return f"{x:.12g}"


def _parse_alpha(spec: str) -> AlphaGrid:
    s = spec.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"alpha range must be start:stop:step, got {spec!r}")
        return AlphaGrid.from_range(float(parts[0]), float(parts[1]), float(parts[2]))
    if "," in s:
        return AlphaGrid(tuple(float(x) for x in s.split(",")))
    return AlphaGrid((float(s),))


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
            raise ValueError(
                f"unknown theorem id {tid!r}; known: {', '.join(THEOREM_IDS)}")
        if tid in chosen:
            raise ValueError(f"duplicate theorem id {tid!r}")
        if num_qubits < BOUNDS[tid].min_qubits:
            raise ValueError(
                f"{tid} requires at least {BOUNDS[tid].min_qubits} qubits, "
                f"state has {num_qubits}")
        chosen.append(tid)
    if not chosen:
        raise ValueError("no theorems selected")
    return tuple(chosen)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _report_row(r: BoundReport) -> dict:
    grouping = ""
    if r.ordering is not None and r.ordering.grouping is not None:
        grouping = str(r.ordering.grouping)
    return {
        "theorem": r.theorem_id,
        "alpha": r.alpha,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "slack": r.slack,
        "satisfied": r.satisfied,
        "applicable": r.applicable,
        "grouping": grouping,
    }


def _json_text(head: dict, rows: list[dict]) -> str:
    """``head`` and then ``rows`` as indented JSON, NaN written as null."""
    rows = [{k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
            for row in rows]
    return json.dumps({**head, "rows": rows}, indent=2) + "\n"


def _render_reports(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_text({}, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem", "alpha", "lhs", "rhs", "slack",
                     "satisfied", "applicable", "grouping"])
    for row in rows:
        writer.writerow([
            row["theorem"], _fmt_num(row["alpha"]), _fmt_num(row["lhs"]),
            _fmt_num(row["rhs"]), _fmt_num(row["slack"]),
            str(row["satisfied"]).lower(), str(row["applicable"]).lower(),
            row["grouping"],
        ])
    return buf.getvalue()


def _reports(psi: PureState, theorems: tuple[str, ...], alphas: AlphaGrid):
    """Each bound's reports on ``psi``: one at alpha = 2 for a fixed-alpha
    bound, else one per grid value."""
    ev = StateEvaluator(psi)
    for tid in theorems:
        for alpha in (2.0,) if BOUNDS[tid].fixed_alpha else alphas.values:
            yield ev.evaluate(tid, alpha)


def cmd_verify(state: StateSpec, theorem: str, alphas: AlphaGrid, fmt: str,
               out: str | None) -> int:
    psi = state.build()
    theorems = _parse_theorems(theorem, psi.num_qubits)
    rows = [_report_row(r) for r in _reports(psi, theorems, alphas)]
    _write_output(_render_reports(rows, fmt), out)
    violated = any(row["applicable"] and not row["satisfied"] for row in rows)
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_sweep(qubits: int, samples: int, seed: int, theorem: str, alphas: AlphaGrid,
              fmt: str, out: str | None) -> int:
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most {_MAX_SAMPLES}, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    theorems = _parse_theorems(theorem, qubits)
    seeds = np.random.SeedSequence(seed).generate_state(samples, np.uint64)

    stats: dict[str, dict] = {
        tid: {"rows": 0, "violations": 0, "not_applicable": 0,
              "min_slack": math.inf, "sum_slack": 0.0}
        for tid in theorems
    }
    for state_seed in seeds:
        for r in _reports(haar_random_pure(qubits, int(state_seed)), theorems, alphas):
            s = stats[r.theorem_id]
            s["rows"] += 1
            if not r.applicable:
                s["not_applicable"] += 1
                continue
            if not r.satisfied:
                s["violations"] += 1
            s["min_slack"] = min(s["min_slack"], r.slack)
            s["sum_slack"] += r.slack

    rows = []
    for tid in theorems:
        s = stats[tid]
        evaluated = s["rows"] - s["not_applicable"]
        rows.append({
            "theorem": tid,
            "rows": s["rows"],
            "violations": s["violations"],
            "not_applicable": s["not_applicable"],
            "min_slack": s["min_slack"] if evaluated else float("nan"),
            "mean_slack": s["sum_slack"] / evaluated if evaluated else float("nan"),
        })

    search = search_mode(qubits)
    meta = {"qubits": qubits, "samples": samples, "seed": seed,
            "alpha": list(alphas.values), "theorems": list(theorems),
            "search": search}
    if fmt == "json":
        text = _json_text({"meta": meta}, rows)
    else:
        buf = io.StringIO()
        buf.write(f"# sweep qubits={qubits} samples={samples} "
                  f"seed={seed} search={search}\n")
        buf.write("# alpha=" + ",".join(_fmt_num(a) for a in alphas) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theorem", "rows", "violations", "not_applicable",
                         "min_slack", "mean_slack"])
        for row in rows:
            writer.writerow([row["theorem"], row["rows"], row["violations"],
                             row["not_applicable"], _fmt_num(row["min_slack"]),
                             _fmt_num(row["mean_slack"])])
        text = buf.getvalue()
    _write_output(text, out)
    total_violations = sum(r["violations"] for r in rows)
    return EXIT_VIOLATION if total_violations else EXIT_OK


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_num(x) for x in row])
    _write_output(buf.getvalue(), out)
    return EXIT_OK


def cmd_gallery_list(out: str | None) -> int:
    lines = []
    for name in sorted(FAMILIES):
        fam = FAMILIES[name]
        lines.append(f"{name}\tparams={fam.num_params}\t{fam.description}")
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
    if text.startswith("{"):
        obj = json.loads(text)
    else:
        with open(arg, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    return StateSpec.from_dict(obj)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands: expand, verify, table, remark-check, bfile-export,
bfile-compare.  Identical invocations produce byte-identical output;
`verify` exits nonzero iff any coefficient mismatch exists.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import families, seqcompare
from .families import Family, VerificationReport
from .partitions import DEFAULT_ENUMERATION_CAP
# perfbench's tracer requires the pochhammer and geometric bindings here
from .qproducts import evaluate, geometric, pochhammer  # noqa: F401

MAX_ORDER = 20_000  # the largest order any subcommand accepts
DEFAULT_ORDER = 200  # verify, bfile-export and bfile-compare without an order

ODD_DISTINCT_TABLE_NOTE = (
    "note: for the odd-distinct family, a published tabulation lists the "
    "value 2 at n=10 beside the single partition 4+3+1, which is a "
    "partition of 8, not 10; the counts above come from direct enumeration "
    "(odd-distinct: n=8 -> 1, n=10 -> 0)."
)


def _json_text(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- expand ---------------------------------------------------------------


def cmd_expand(args: argparse.Namespace) -> tuple[str, int]:
    try:
        family = Family.from_token(args.expression)
    except ValueError:
        series = evaluate(args.expression, args.order)
    else:
        series = families.genfun_series(family, args.order)
    rows = enumerate(series.coeffs)  # each format branch reads it once
    if args.format == "text":
        text = "".join(f"{n} {value}\n" for n, value in rows)
    elif args.format == "csv":
        text = "n,value\n" + "".join(f"{n},{value}\n" for n, value in rows)
    else:
        # _json_text's layout, written directly: json's C encoder is off under
        # indent, and its Python one is several times slower on this shape
        name = json.dumps(args.expression.strip())
        pairs = ",\n".join(f"    [\n      {n},\n      {value}\n    ]" for n, value in rows)
        text = (
            f'{{\n  "name": {name},\n  "order": {args.order},\n'
            f'  "coefficients": [\n{pairs}\n  ]\n}}\n'
        )
    return text, 0


# -- verify ---------------------------------------------------------------


def _report_line(report: VerificationReport) -> str:
    head, total = f"{report.family.value}: order {report.order}:", report.order + 1
    if report.all_equal:
        return f"{head} all {total} coefficients agree"
    mismatches = report.mismatches
    first = mismatches[0]
    return (
        f"{head} {len(mismatches)} of {total} coefficients disagree, "
        f"first at n={first.n} (genfun {first.genfun}, direct {first.direct})"
    )


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    every = Family.normalise(args.family) == "all"
    selected = list(Family) if every else [Family.from_token(args.family)]
    reports = [families.verify(family, args.order) for family in selected]
    disagreeing = sum(not r.all_equal for r in reports)
    if args.format == "text":
        lines = [_report_line(r) for r in reports]
        if disagreeing:
            lines.append(f"RESULT: {disagreeing} of {len(reports)} families disagree")
        elif len(reports) > 1:
            lines.append("RESULT: all families agree")
        else:
            lines.append("RESULT: family agrees")
        text = "".join(line + "\n" for line in lines)
    elif len(reports) == 1:
        text = _json_text(reports[0].to_json_dict())
    else:
        text = _json_text(
            {"reports": [r.to_json_dict() for r in reports], "all_equal": not disagreeing}
        )
    return text, 1 if disagreeing else 0


# -- table ----------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> tuple[str, int]:
    header = (
        f"partitions of n = {args.n} with a unique largest part equal "
        "to the sum of the rest"
    )
    rows = [("family", "count", "oeis", "partitions")]
    for family in Family:
        witnesses = families.list_partitions(family, args.n)
        shown = ", ".join("+".join(map(str, p)) for p in witnesses) or "(none)"
        oeis = families.OEIS_CROSS_REFERENCE[family]
        rows.append((family.value, str(len(witnesses)), oeis, shown))
    # the column titles are a row too, so each column is as wide as its widest cell
    name_w, count_w, oeis_w = (max(len(row[i]) for row in rows) for i in range(3))
    lines = [header, ""]
    for name, value, oeis, shown in rows:
        lines.append(f"{name:<{name_w}}  {value:>{count_w}}  {oeis:<{oeis_w}}  {shown}")
    lines += ["", ODD_DISTINCT_TABLE_NOTE]
    return "".join(line + "\n" for line in lines), 0


# -- remark-check ---------------------------------------------------------


def _comparison_text(comparison: seqcompare.SequenceComparison, details) -> str:
    """The comparison's name, then per hypothesis its header and ``details(hyp)``."""
    lines = [comparison.name]
    for hyp in comparison.hypotheses:
        lines.append(f"  {hyp.label}: {hyp.description}")
        lines.append(
            f"  verdict: {hyp.verdict} "
            f"({hyp.covered} of {hyp.total_terms} terms covered)"
        )
        lines.extend(details(hyp))
        lines.append("")
    return "".join(line + "\n" for line in lines)


def _term_table(hyp: seqcompare.HypothesisResult) -> list[str]:
    # cmd_remark_check refuses orders below FULL_COVERAGE_ORDER, so every term has a row
    return ["  term  n    reference  computed  match"] + [
        f"  {r.position:<4}  {r.n:<3}  {r.reference:<9}  "
        f"{r.computed:<8}  {'yes' if r.match else 'NO'}"
        for r in hyp.records
    ]


def _first_divergence(hyp: seqcompare.HypothesisResult) -> list[str]:
    first = next((r for r in hyp.records if not r.match), None)
    if first is None:
        return []
    return [
        f"  first divergence: term {first.position} at n={first.n} "
        f"(reference {first.reference}, computed {first.computed})"
    ]


def cmd_remark_check(args: argparse.Namespace) -> tuple[str, int]:
    if args.order < seqcompare.FULL_COVERAGE_ORDER:
        raise ValueError(
            f"order {args.order} leaves published terms uncovered; every term "
            f"is covered from order {seqcompare.FULL_COVERAGE_ORDER} on"
        )
    comparisons = seqcompare.remark_comparisons(args.order)
    if args.format == "json":
        text = _json_text(
            {
                "order": args.order,
                "comparisons": [c.to_json_dict() for c in comparisons],
            }
        )
    else:
        text = "".join(_comparison_text(c, _term_table) for c in comparisons)
    return text, 0


# -- b-files --------------------------------------------------------------


def cmd_bfile_export(args: argparse.Namespace) -> tuple[str, int]:
    family = Family.from_token(args.family)
    coefficients = families.direct_counts_upto(family, args.order)
    offset, values = 0, coefficients  # mode "all"
    if args.mode == "even":
        values = coefficients[::2]
    elif args.mode == "nonzero":
        offset, values = 1, tuple(c for c in coefficients if c != 0)
        if not values:
            raise ValueError(
                f"no nonzero coefficients for {family.value} at order {args.order}"
            )
    return seqcompare.render_bfile(seqcompare.BFile(offset=offset, values=values)), 0


def cmd_bfile_compare(args: argparse.Namespace) -> tuple[str, int]:
    family = Family.from_token(args.family)
    bfile = seqcompare.read_bfile(args.path)
    coefficients = families.direct_counts_upto(family, args.order)
    name = f"{Path(args.path).name} vs {family.value} (order {args.order})"
    comparison = seqcompare.compare_bfile(name, bfile, coefficients)
    if args.format == "json":
        text = _json_text(comparison.to_json_dict())
    else:
        text = _comparison_text(comparison, _first_divergence)
    return text, 0


# -- wiring ---------------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    if formats:
        sub.add_argument(
            "--format", choices=formats, default=formats[0], help="output format"
        )
    sub.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echopart",
        description=(
            "Count partitions whose unique largest part equals the sum of the "
            "remaining parts, by generating functions and by direct enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family_tokens = ", ".join(f.value for f in Family)
    order_help = f"truncation order, at most {MAX_ORDER}"

    p = sub.add_parser(
        "expand",
        help="print the coefficients of a family or q-expression",
    )
    p.add_argument(
        "expression",
        help=f"family ({family_tokens}) or expression like 1/(q^2;q^2) - 1/(1-q^2); "
        "put -- before one that starts with -, as in: expand -- '-(q;q)' 3",
    )
    p.add_argument("order", type=int, help=order_help)
    _add_common_flags(p, ("text", "csv", "json"))
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser(
        "verify",
        help="compare generating-function coefficients against direct counts",
    )
    p.add_argument(
        "family", nargs="?", default="all", help=f"{family_tokens}, or 'all'"
    )
    p.add_argument("order", nargs="?", type=int, default=DEFAULT_ORDER, help=order_help)
    _add_common_flags(p, ("text", "json"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "table",
        help="counts and witness partitions for all six families at one n",
    )
    p.add_argument("n", type=int, help=f"even total, at most {DEFAULT_ENUMERATION_CAP}")
    _add_common_flags(p, ())
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "remark-check",
        help="compare the two published 25-term sequences under each "
        "alignment hypothesis",
    )
    p.add_argument(
        "order",
        nargs="?",
        type=int,
        default=120,
        help=f"{order_help}; too low to cover every published term is an error",
    )
    _add_common_flags(p, ("text", "json"))
    p.set_defaults(func=cmd_remark_check)

    p = sub.add_parser("bfile-export", help="write a family's sequence as a b-file")
    p.add_argument("family", help=family_tokens)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER, help=order_help)
    p.add_argument(
        "--mode",
        choices=("even", "all", "nonzero"),
        default="even",
        help="even: index i holds the coefficient at n=2i; all: index n; "
        "nonzero: nonzero coefficients reindexed from 1",
    )
    _add_common_flags(p, ())
    p.set_defaults(func=cmd_bfile_export)

    p = sub.add_parser(
        "bfile-compare",
        help="compare a local b-file against a family's computed sequence",
    )
    p.add_argument("path", help="local b-file path")
    p.add_argument("family", help=family_tokens)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER, help=order_help)
    _add_common_flags(p, ("text", "json"))
    p.set_defaults(func=cmd_bfile_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        order = getattr(args, "order", 0)
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        if order > MAX_ORDER:
            raise ValueError(f"order must be at most {MAX_ORDER}, got {order}")
        text, code = args.func(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text, encoding="utf-8", newline="")
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

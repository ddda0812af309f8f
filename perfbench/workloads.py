"""The three workloads: how each builds its jobs and checks their outputs.

A workload object is made from the freshly imported package, the run's
seeded random generator and a scratch directory.  ``jobs(order)`` gives one
pass; ``check(summary, order, oracle)`` returns an error message or None.
A job is one call into the package's public surface.  ``Job.run`` is the
timed part; ``Job.summarise`` runs after the clock stops and keeps only the
little that the correctness check needs, so checks never share the timed
region and the oracle's memory never shows in the peak RSS.

Every pass of a workload uses order ``base + 2 * pass_index``, so no two
passes ask the package the same question and a cache can only help within
a pass, as it would within one user's session.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ORACLE_MAX_N = 40  # verify-all and bfile-roundtrip: genfun/direct terms n <= 40
EXPAND_CHECK_N = 60  # expand-expr: coefficients n <= 60


@dataclass
class Job:
    key: str  # the same job in every pass, for per-job medians
    run: Callable[[], object]
    summarise: Callable[[object], dict]
    coeffs: int  # coefficients this job produces and the check covers


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class VerifyAll:
    """families.verify for all six families, in seeded order."""

    order = 4000
    pass_s = 4.5  # nominal seconds per pass on a 2-core VM; sets the pass count
    absent = frozenset({"seqcompare", "cli"})

    def __init__(self, pkg, rng: random.Random, tmp: Path) -> None:
        self.pkg, self.rng = pkg, rng

    def describe(self) -> dict:
        return {"order": self.order, "families": len(self.pkg.Family)}

    def jobs(self, order: int) -> list[Job]:
        families = list(self.pkg.Family)
        self.rng.shuffle(families)
        return [
            Job(f.value, lambda f=f: self.pkg.families.verify(f, order), self._summarise, order + 1)
            for f in families
        ]

    @staticmethod
    def _summarise(report) -> dict:
        return {
            "job": report.family.value,
            "all_equal": report.all_equal,
            "records": len(report.records),
            "low": [r.genfun for r in report.records[: ORACLE_MAX_N + 1]],
        }

    def check(self, summary: dict, order: int, oracle) -> str | None:
        if not summary["all_equal"]:
            return "closed form and direct counts disagree"
        if summary["records"] != order + 1:
            return f"{summary['records']} records, expected {order + 1}"
        expected = [oracle.family_count(summary["job"], n) for n in range(len(summary["low"]))]
        if summary["low"] != expected:
            return "closed-form coefficients differ from the brute-force oracle"
        return None


_VERDICT = re.compile(r"verdict: (.+) \((\d+) of (\d+) terms covered\)")


class BfileRoundtrip:
    """Per family: `echopart bfile-export` to a file, then `bfile-compare` on it."""

    order = 6000
    pass_s = 4.0
    absent = frozenset({"series", "qproducts", "families.genfun_series", "families.verify"})

    def __init__(self, pkg, rng: random.Random, tmp: Path) -> None:
        self.pkg, self.rng, self.tmp = pkg, rng, tmp

    def describe(self) -> dict:
        return {"order": self.order, "families": len(self.pkg.Family), "mode": "even"}

    def jobs(self, order: int) -> list[Job]:
        tokens = [f.value for f in self.pkg.Family]
        self.rng.shuffle(tokens)
        jobs = []
        for token in tokens:
            path = self.tmp / f"{token}.b"
            export = ["bfile-export", token, "--order", str(order), "--output", str(path)]
            compare = ["bfile-compare", str(path), token, "--order", str(order)]
            jobs.append(
                Job(
                    f"export:{token}",
                    lambda a=export: call_cli(self.pkg.cli, a),
                    lambda r, t=token, p=path: self._summarise_export(r, t, p),
                    0,
                )
            )
            jobs.append(
                Job(
                    f"compare:{token}",
                    lambda a=compare: call_cli(self.pkg.cli, a),
                    lambda r, t=token: self._summarise_compare(r, t),
                    order // 2 + 1,  # H1 pairs every b-file term with a coefficient
                )
            )
        return jobs

    @staticmethod
    def _summarise_export(result, token: str, path: Path) -> dict:
        code, _, err = result
        text = path.read_text(encoding="utf-8") if code == 0 else ""
        pairs = [line.split(" ") for line in text.splitlines()]
        return {
            "job": f"export:{token}",
            "family": token,
            "code": code,
            "error": err.strip(),
            "bytes": len(text.encode()),
            "indices": [int(i) for i, _ in pairs] == list(range(len(pairs))),
            "terms": len(pairs),
            "low": [int(v) for _, v in pairs[: ORACLE_MAX_N // 2 + 1]],
        }

    @staticmethod
    def _summarise_compare(result, token: str) -> dict:
        code, out, err = result
        m = _VERDICT.search(out)  # the first verdict printed is H1's
        return {
            "job": f"compare:{token}",
            "code": code,
            "error": err.strip(),
            "bytes": len(out.encode()),
            "verdict": m.groups() if m else None,
        }

    def check(self, summary: dict, order: int, oracle) -> str | None:
        if summary["code"] != 0:
            return f"exit {summary['code']}: {summary['error']}"
        terms = order // 2 + 1
        if "verdict" in summary:
            if summary["verdict"] != ("full match", str(terms), str(terms)):
                return f"H1 verdict {summary['verdict']}, expected full match on {terms} terms"
            return None
        if summary["terms"] != terms or not summary["indices"]:
            return f"b-file has {summary['terms']} terms, expected indices 0..{terms - 1}"
        expected = [oracle.family_count(summary["family"], 2 * i) for i in range(len(summary["low"]))]
        if summary["low"] != expected:
            return "exported terms differ from the brute-force oracle"
        return None


def _q(e: int) -> str:
    return "q" if e == 1 else f"q^{e}"


def make_expressions(rng: random.Random) -> list[dict]:
    """30 single-term q-expressions; the seed picks offsets, signs and formats.

    For each step s in 1..6 the shapes are fixed, so every seed asks for
    about the same work:
      1/(q^s;q^s)              inverted, ultra-sparse input (Euler's product)
      1/(-q^a,-q^b;q^s)        inverted, dense input
      (-q^a;q^s)               dense product
      (+-q^a,+-q^b,+-q^c;q^s)  three parameters, seeded mixed signs
    Offsets are coprime to s, so the dense shapes really are dense.  Six
    geometric combs q^k/(1-q^d) complete the list; formats are text, csv and
    json, ten each.
    """
    out = []
    for s in range(1, 7):
        coprime = [a for a in range(1, 2 * s + 2) if math.gcd(a, s) == 1]
        shapes = [
            ([(1, s, s)], True),
            ([(-1, a, s) for a in rng.sample(coprime, 2)], True),
            ([(-1, rng.choice(coprime), s)], False),
            ([(rng.choice((1, -1)), a, s) for a in rng.sample(coprime, 3)], False),
        ]
        for factors, inverted in shapes:
            terms = ",".join(("-" if sign < 0 else "") + _q(off) for sign, off, _ in factors)
            text = ("1/" if inverted else "") + f"({terms};{_q(s)})"
            out.append({"text": text, "factors": factors, "inverted": inverted})
    for _ in range(6):
        k, d = rng.randint(1, 12), rng.randint(1, 12)
        out.append({"text": f"{_q(k)}/(1-{_q(d)})", "comb": (k, d)})
    formats = ["text", "csv", "json"] * (len(out) // 3)
    rng.shuffle(formats)
    for expr, fmt in zip(out, formats):
        expr["format"] = fmt
    return out


def _rows(text: str, fmt: str) -> list[tuple[int, int]]:
    if fmt == "json":
        return [(n, v) for n, v in json.loads(text)["coefficients"]]
    lines = text.splitlines()
    if fmt == "csv":
        if lines[:1] != ["n,value"]:
            raise ValueError("missing csv header")
        lines = [line.replace(",", " ") for line in lines[1:]]
    return [tuple(map(int, line.split(" "))) for line in lines]


class ExpandExpr:
    """`echopart expand` on seeded q-expressions, in text, csv and json."""

    order = 2000
    pass_s = 6.5
    absent = frozenset({"partitions", "families", "seqcompare"})
    optional = frozenset({"series.add", "series.sub"})  # single terms need no sums

    def __init__(self, pkg, rng: random.Random, tmp: Path) -> None:
        self.pkg, self.rng = pkg, rng
        self.expressions = make_expressions(rng)
        self._references: dict[int, list[int]] = {}

    def describe(self) -> dict:
        text = "\n".join(f"{e['text']} {e['format']}" for e in self.expressions)
        return {
            "order": self.order,
            "expressions": len(self.expressions),
            "expressions_digest": hashlib.sha256(text.encode()).hexdigest(),
        }

    def jobs(self, order: int) -> list[Job]:
        jobs = []
        for i, expr in enumerate(self.expressions):
            argv = ["expand", expr["text"], str(order), "--format", expr["format"]]
            jobs.append(
                Job(
                    f"expr{i}",
                    lambda a=argv: call_cli(self.pkg.cli, a),
                    lambda r, i=i: self._summarise(r, i),
                    order + 1,
                )
            )
        self.rng.shuffle(jobs)
        return jobs

    def _summarise(self, result, i: int) -> dict:
        code, out, err = result
        summary = {
            "job": self.expressions[i]["text"],
            "expr": i,
            "code": code,
            "error": err.strip(),
            "bytes": len(out.encode()),
            "digest": hashlib.sha256(out.encode()).hexdigest(),
        }
        try:
            rows = _rows(out, self.expressions[i]["format"])
        except (ValueError, KeyError, TypeError) as exc:
            summary["parse_error"] = repr(exc)
            return summary
        summary["indices"] = [n for n, _ in rows] == list(range(len(rows)))
        summary["rows"] = len(rows)
        summary["low"] = [v for _, v in rows[: EXPAND_CHECK_N + 1]]
        return summary

    def reference(self, i: int, oracle) -> list[int]:
        """Coefficients n <= 60 from the oracle's product, or the comb's definition."""
        if i not in self._references:
            expr = self.expressions[i]
            if "comb" in expr:
                k, d = expr["comb"]
                ref = [1 if n >= k and (n - k) % d == 0 else 0 for n in range(EXPAND_CHECK_N + 1)]
            else:
                ref = oracle.bruteforce.product_coeffs(
                    expr["factors"], EXPAND_CHECK_N, inverted=expr["inverted"]
                )
            self._references[i] = ref
        return self._references[i]

    def check(self, summary: dict, order: int, oracle) -> str | None:
        if summary["code"] != 0:
            return f"exit {summary['code']}: {summary['error']}"
        if "parse_error" in summary:
            return f"unreadable output: {summary['parse_error']}"
        if summary["rows"] != order + 1 or not summary["indices"]:
            return f"{summary['rows']} rows, expected n = 0..{order}"
        if summary["low"] != self.reference(summary["expr"], oracle)[: len(summary["low"])]:
            return "coefficients differ from the independent expansion"
        return None


WORKLOADS = {
    "verify-all": VerifyAll,
    "bfile-roundtrip": BfileRoundtrip,
    "expand-expr": ExpandExpr,
}

"""Spans and operation counts recorded from outside the package.

The tracer replaces each public function named in ``TRACED`` with a wrapper
that records one span per call: name, start, end, parent span and job.
Functions imported by value into other modules (``families.pochhammer``,
``cli.geometric``, ``seqcompare.direct_counts_upto``, ...) are separate
bindings of the same object, so every binding in every loaded ``echopart``
module is replaced, not only the defining one.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.

Operation counts are *computed* from the arguments and results of the
wrapped calls, not timed; they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (module, attribute path) of the function to wrap
TRACED = {
    "series.invert": ("echopart.series", "TruncatedSeries.invert"),
    "series.add": ("echopart.series", "TruncatedSeries.__add__"),
    "series.sub": ("echopart.series", "TruncatedSeries.__sub__"),
    "qproducts.pochhammer": ("echopart.qproducts", "pochhammer"),
    "qproducts.geometric": ("echopart.qproducts", "geometric"),
    "partitions.count_upto": ("echopart.partitions", "count_upto"),
    "families.genfun_series": ("echopart.families", "genfun_series"),
    "families.direct_counts_upto": ("echopart.families", "direct_counts_upto"),
    "families.verify": ("echopart.families", "verify"),
    "seqcompare.parse_bfile": ("echopart.seqcompare", "parse_bfile"),
    "seqcompare.compare_bfile": ("echopart.seqcompare", "compare_bfile"),
    "seqcompare.render_bfile": ("echopart.seqcompare", "render_bfile"),
    "cli.main": ("echopart.cli", "main"),
}

# bindings imported by value that a patch of the defining module would miss
REQUIRED_BINDINGS = (
    "echopart.families.pochhammer",
    "echopart.families.geometric",
    "echopart.cli.pochhammer",
    "echopart.cli.geometric",
    "echopart.seqcompare.direct_counts_upto",
)

JOB_SPAN = "job"


def _max_bits(series) -> int:
    coeffs = series.coeffs
    return max(max(coeffs), -min(coeffs)).bit_length()


class Tracer:
    """Wraps the traced functions and collects spans and counts in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self._stack: list[int] = []
        self.job = -1
        self.patched: list[str] = []
        self.max_coeff_bits = 0
        self.invert_nonzero = 0
        self.invert_terms = 0
        self.pochhammer_args: list[tuple] = []
        self.count_upto_args: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, perf_counter(), None, parent, self.job))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, job = self.spans[index]
        self.spans[index] = (name, start, end, parent, job)

    def run_job(self, job_id: int, fn):
        """Call ``fn`` inside a root span of its own; returns its result."""
        self.job = job_id
        index = self._open(JOB_SPAN)
        try:
            return fn()
        finally:
            self._close(index)

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function in loaded modules."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "echopart" or name.startswith("echopart.")
        }
        for name, (module_name, path) in TRACED.items():
            owner = modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrapper(name, original)
            if cls_path:
                # a method: every binding resolves through the class, and an
                # alias such as __radd__ = __add__ is the same function object
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)
                        self.patched.append(f"{module_name}.{'.'.join(cls_path)}.{key}")
                continue
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self.patched.append(f"{mod_name}.{key}")
        missing = [b for b in REQUIRED_BINDINGS if b not in self.patched]
        if missing:
            raise RuntimeError(f"bindings left unwrapped: {missing}")

    # -- computed counts, gathered at the layer boundaries ---------------

    def _observe_series_invert(self, args, result) -> None:
        coeffs = args[0].coeffs
        self.invert_terms += len(coeffs) - 1
        self.invert_nonzero += len(coeffs) - 1 - coeffs[1:].count(0)
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(result))

    def _observe_series_add(self, args, result) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(result))

    _observe_series_sub = _observe_series_add

    def _observe_qproducts_pochhammer(self, args, result) -> None:
        spec, order = args
        self.pochhammer_args.append((spec.factors, order))
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(result))

    def _observe_partitions_count_upto(self, args, result) -> None:
        self.count_upto_args.append(args)

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time and call count per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[index]
            calls[name] += 1
        return self_s, calls

    def job_time(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == JOB_SPAN)

    def binomials(self) -> int:
        """Binomial factors (1 -+ q^e) with e <= order over all pochhammer calls."""
        return sum(
            len(range(offset, order + 1, step))
            for factors, order in self.pochhammer_args
            for _, offset, step in factors
        )

    def cells(self) -> int:
        """DP cell updates over all count_upto calls."""
        total = 0
        for limit, constraint in self.count_upto_args:
            top = limit if constraint.max_part is None else min(limit, constraint.max_part)
            total += sum(
                limit - part + 1
                for part in range(constraint.min_part, top + 1)
                if constraint.allows(part)
            )
        return total

    def repeat_share(self) -> float:
        """Share of count_upto calls whose (limit, constraint) came earlier."""
        if not self.count_upto_args:
            return 0.0
        distinct = len(set(self.count_upto_args))
        return (len(self.count_upto_args) - distinct) / len(self.count_upto_args)

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "job": job, "name": name, "start": start, "end": end, "parent": parent}
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]

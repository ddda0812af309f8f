"""echopart benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

The run is one process, one thread and one closed-loop client: each job
starts when the previous one has finished.  It drives the package only
through its public functions and ``echopart.cli.main``.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment and the workload's parameters.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run measures untraced passes, then as many traced passes, and reports
the per-layer metrics (see ``tracing.py``).  Every job's output is checked
after its clock stops; the command exits 1 if any check fails and 2 if the
package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 21
MIN_PASSES = 3
TAIL_BEYOND = 10  # job_tail_s: the highest order statistic with 10 samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "coeffs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs": "count",
    "peak_rss_mb": "MB",
}

# computed from arguments and results, not timed; they repeat exactly
COMPUTED_UNITS = {
    "qproducts.pochhammer.binomials": "count",
    "partitions.count_upto.cells": "count",
    "partitions.count_upto.repeat_share": "ratio",
    "series.invert.useful_ratio": "ratio",
    "series.max_coeff_bits": "bits",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.TRACED:
        units[self_time_metric(name)] = "s"
        units[f"{name}.calls"] = "count"
    units["cli.output_bytes"] = "bytes"
    units.update(COMPUTED_UNITS)
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["failed_ratio"] = "ratio"
    return units


def self_time_metric(name: str) -> str:
    # verify's own time is the coefficient-by-coefficient comparison
    return "families.verify.compare_s" if name == "families.verify" else f"{name}.self_s"


class Oracle:
    """Family counts from the package-free brute-force module, memoised."""

    def __init__(self, bruteforce) -> None:
        self.bruteforce = bruteforce
        self._counts: dict[tuple[str, int], int] = {}

    def family_count(self, token: str, n: int) -> int:
        if (token, n) not in self._counts:
            self._counts[token, n] = self.bruteforce.reference_family_count(token, n)
        return self._counts[token, n]


# -- set-up -----------------------------------------------------------------


def load_package(repeats: int) -> tuple[SimpleNamespace, list[float]]:
    """Import echopart afresh and build the CLI parser, ``repeats`` times.

    Returns the last import's modules and the time of each set-up.
    """
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "echopart" or m.startswith("echopart.")]:
            del sys.modules[name]
        start = perf_counter()
        importlib.import_module("echopart")
        cli = importlib.import_module("echopart.cli")
        cli.build_parser()
        times.append(perf_counter() - start)
    families = sys.modules["echopart.families"]
    return SimpleNamespace(cli=cli, families=families, Family=families.Family), times


def load_bruteforce():
    spec = importlib.util.spec_from_file_location(
        "perfbench_bruteforce", ROOT / "tests" / "bruteforce.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_sha() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


# -- measuring --------------------------------------------------------------


class Passes:
    """Timings and check summaries of consecutive passes."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.pass_coeffs: list[int] = []
        self.summaries: list[tuple[int, dict]] = []

    def wall_s(self) -> float:
        """Time for one pass of every job: the sum of each job's median."""
        return sum(statistics.median(times) for times in self.samples.values())


def run_passes(workload, first_pass: int, count: int, tracer=None) -> Passes:
    measured = Passes()
    for index in range(first_pass, first_pass + count):
        order = workload.order + 2 * index
        coeffs = 0
        for job in workload.jobs(order):
            start = perf_counter()
            try:
                if tracer is None:
                    result = job.run()
                else:
                    result = tracer.run_job(len(measured.summaries), job.run)
            except Exception as exc:  # a crashing job is a failed job
                result = exc
            measured.samples.setdefault(job.key, []).append(perf_counter() - start)
            if isinstance(result, Exception):
                summary = {"job": job.key, "exception": repr(result)}
            else:
                try:
                    summary = job.summarise(result)
                except Exception as exc:  # unreadable output is a failed job
                    summary = {"job": job.key, "exception": repr(exc)}
            measured.summaries.append((order, summary))
            coeffs += job.coeffs
        measured.pass_coeffs.append(coeffs)
    return measured


def check(workload, summaries: list[tuple[int, dict]], oracle: Oracle) -> list[str]:
    failures = []
    for order, summary in summaries:
        error = summary.get("exception") or workload.check(summary, order, oracle)
        if error is not None:
            failures.append(f"order {order}: {summary['job']}: {error}")
    return failures


def end_to_end(measured: Passes, setup_s: float, peak_rss_mb: float) -> dict:
    times = sorted(t for ts in measured.samples.values() for t in ts)
    wall = measured.wall_s()
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "coeffs_per_s": statistics.median(measured.pass_coeffs) / wall,
        "job_p50_s": statistics.median(times),
        "job_tail_s": times[-TAIL_BEYOND - 1],
        "jobs": len(times),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: tracing.Tracer, traced: Passes, untraced: Passes, passes: int) -> dict:
    """Per-pass self times, calls and computed counts of the traced passes."""
    self_s, calls = tracer.self_times()
    metrics = {}
    for name in tracing.TRACED:
        metrics[self_time_metric(name)] = self_s.get(name, 0.0) / passes
        metrics[f"{name}.calls"] = calls[name] / passes
    metrics["cli.output_bytes"] = sum(s.get("bytes", 0) for _, s in traced.summaries) / passes
    metrics["qproducts.pochhammer.binomials"] = tracer.binomials() / passes
    metrics["partitions.count_upto.cells"] = tracer.cells() / passes
    metrics["partitions.count_upto.repeat_share"] = tracer.repeat_share()
    metrics["series.invert.useful_ratio"] = (
        tracer.invert_nonzero / tracer.invert_terms if tracer.invert_terms else 0.0
    )
    metrics["series.max_coeff_bits"] = tracer.max_coeff_bits
    metrics["trace.overhead_s"] = traced.wall_s() - untraced.wall_s()
    metrics["trace.unattributed_s"] = self_s.get(tracing.JOB_SPAN, 0.0) / passes
    return metrics


def self_check(workload, tracer: tracing.Tracer) -> list[str]:
    """Expected layers recorded spans, absent ones none, and spans cover the jobs."""
    self_s, calls = tracer.self_times()
    optional = getattr(workload, "optional", frozenset())
    problems = []
    for name in tracing.TRACED:
        absent = name in workload.absent or name.split(".")[0] in workload.absent
        if absent and calls[name]:
            problems.append(f"{name}: {calls[name]} spans where none are expected")
        elif not absent and name not in optional and not calls[name]:
            problems.append(f"{name}: no spans where some are expected")
    job_time = tracer.job_time()
    if self_s[tracing.JOB_SPAN] > 0.02 * job_time:
        problems.append(f"spans cover only {1 - self_s[tracing.JOB_SPAN] / job_time:.1%} of job time")
    return problems


# -- entry point ------------------------------------------------------------


def run(name: str, seed: int, seconds: int, trace: bool, scale: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, metadata).

    ``scale`` overrides the workload's ``order`` and ``pass_s`` (the self-test
    runs at tiny orders).
    """
    # half the set-ups before the passes and half after, so that set-up is
    # sampled across the run like the jobs are
    pkg, setup_times = load_package(SETUP_REPEATS - SETUP_REPEATS // 2)
    oracle = Oracle(load_bruteforce())

    tmp = OUT / f"tmp-{name}-{seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](pkg, random.Random(seed), tmp)
    for key, value in (scale or {}).items():
        setattr(workload, key, value)
    passes = max(MIN_PASSES, round(seconds / workload.pass_s))
    tracer = None
    try:
        if not trace:
            measured = run_passes(workload, 0, passes)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            summaries = measured.summaries
        else:
            passes = max(2, math.ceil(passes / 2))
            untraced = run_passes(workload, 0, passes)
            tracer = tracing.Tracer()
            tracer.install()
            traced = run_passes(workload, passes, passes, tracer)
            summaries = untraced.summaries + traced.summaries
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_times += load_package(SETUP_REPEATS // 2)[1]

    failures = check(workload, summaries, oracle)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "params": workload.describe(),
        "passes": passes,
        "jobs_per_pass": len(summaries) // (2 * passes if trace else passes),
        "setup_repeats": SETUP_REPEATS,
        "client": "closed loop, 1 client, 1 thread",
        "failures": failures[:20],
    }
    digests = [s["digest"] for _, s in summaries if "digest" in s]
    if digests:
        meta["outputs_digest"] = hashlib.sha256("".join(digests).encode()).hexdigest()

    if not trace:
        values = end_to_end(measured, statistics.median(setup_times), peak_rss_mb)
        meta["job_tail_percentile"] = 100.0 * (1 - TAIL_BEYOND / values["jobs"])
        units = END_TO_END_UNITS
        problems = []
    else:
        values = per_layer(tracer, traced, untraced, passes)
        values["failed_ratio"] = len(failures) / len(summaries)
        problems = self_check(workload, tracer)
        meta["self_check"] = problems or "passed"
        meta["computed_metrics"] = list(COMPUTED_UNITS)
        meta["patched_bindings"] = tracer.patched
        # untraced_wall_s ~= layer_self_s + trace.unattributed_s - trace.overhead_s
        meta["untraced_wall_s"] = untraced.wall_s()
        meta["traced_wall_s"] = traced.wall_s()
        meta["layer_self_s"] = sum(
            values[self_time_metric(name)] for name in tracing.TRACED
        )
        units = per_layer_units()
    result = {
        "correct": not failures and not problems,
        "attempted": len(summaries),
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    samples = {"untraced": untraced.samples, "traced": traced.samples} if trace else measured.samples
    write_outputs(name, seed, trace, {"meta": meta, "result": result, "samples": samples}, tracer)
    return result, meta


def write_outputs(name: str, seed: int, trace: bool, record: dict, tracer) -> None:
    """The run's metadata, result and raw job times; spans for a traced run."""
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="echopart benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "echopart", ROOT / "tests" / "bruteforce.py"):
        if not needed.exists():
            print(f"perfbench: not an echopart checkout, {needed} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

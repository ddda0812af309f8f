"""Quick self-test of the benchmark harness at tiny orders (a few seconds).

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json it runs the harness untraced and
traced, and asserts that:
  * every job passed its correctness check and the traced self-check passed;
  * every metric named in BENCHMARK.json is emitted with its unit, and no
    other metric is;
  * the same seed gives the same inputs and outputs, another seed other inputs;
  * each workload's check rejects a corrupted output.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run

TINY = {"order": 120, "pass_s": 0.25}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def check_metrics(result: dict, spec: list[dict], label: str) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in spec}
    expect(emitted == wanted, f"{label}: metrics {emitted} differ from BENCHMARK.json {wanted}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{label}: {name} is not a number")


def check_gate(name: str, pkg) -> None:
    """Clean outputs of one pass pass the check; a corrupted one fails it."""
    oracle = run.Oracle(run.load_bruteforce())
    tmp = run.OUT / "tmp-selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = run.WORKLOADS[name](pkg, random.Random(1), tmp)
        order = TINY["order"]
        summaries = [job.summarise(job.run()) for job in workload.jobs(order)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for summary in summaries:
        expect(workload.check(summary, order, oracle) is None, f"{name}: clean output rejected")
    for summary in summaries:
        if "verdict" in summary:
            summary["verdict"] = ("partial match (first divergence at term 3)",) + summary["verdict"][1:]
        else:
            summary["low"][2] += 1
        expect(workload.check(summary, order, oracle) is not None, f"{name}: corrupted output accepted")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.ROOT / "src"))
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            label = f"{name} trace={int(trace)}"
            result, meta = run.run(name, 1, 1, trace, scale=TINY)
            expect(result["correct"], f"{label}: {meta['failures'] or meta.get('self_check')}")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: job counts")
            check_metrics(result, metrics, label)
        again, meta_again = run.run(name, 1, 1, False, scale=TINY)
        expect(meta_again.get("outputs_digest") == meta.get("outputs_digest"), f"{name}: outputs vary")
        expect(meta_again["params"] == meta["params"], f"{name}: inputs vary")
        if "expressions_digest" in meta["params"]:
            _, other = run.run(name, 2, 1, False, scale=TINY)
            expect(other["params"] != meta["params"], f"{name}: seed does not change the inputs")
        pkg, _ = run.load_package(1)
        check_gate(name, pkg)
        print(f"selftest: {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

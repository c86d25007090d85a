"""Steadiness check: two interleaved sets of runs of every workload.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py

Runs set A and set B alternately (A1 B1 A2 B2 ...), :data:`RUNS_PER_SET`
runs each of every workload for ``run_seconds`` from ``BENCHMARK.json``,
each run with its own seed (from :data:`FIRST_SEED` up), and reports for
every end-to-end metric of every workload each set's median and quartiles
plus the spread of all runs together.  A metric *agrees* when the spread
(quartile distance over median, all runs) is within its bound from
``BENCHMARK.json`` and the two sets' medians differ by no more than that
bound, in either direction.  The failed share of operations must be
identical in both sets.  Exit status 1 when anything disagrees or a run
is incorrect.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUNS_PER_SET = 5
FIRST_SEED = 101


def load_definition() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(definition: Dict[str, Any], workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    command = list(definition["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if command[0] == "python3":
        command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarize(definition: Dict[str, Any], results: Dict[str, List[List[Dict[str, Any]]]]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {}
    ok = True
    for workload, (set_a, set_b) in results.items():
        rows = []
        for metric in definition["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in set_a]
            b = [r["metrics"][name]["value"] for r in set_b]
            qa, qb, q_all = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (q_all[2] - q_all[0]) / q_all[1]
            change = (qb[1] - qa[1]) / qa[1]
            agrees = abs(change) <= bound and spread <= bound
            ok = ok and agrees
            rows.append({
                "metric": name, "unit": metric["unit"], "bound": bound,
                "set_a": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
                "set_b": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
                "spread_all": spread, "b_change": change, "agrees": agrees,
            })
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in (set_a, set_b)]
        correct = all(r["correct"] for r in set_a + set_b)
        ok = ok and correct and shares[0] == shares[1]
        summary[workload] = {"metrics": rows, "failed_shares": shares, "all_correct": correct}
    summary["agree"] = ok
    return summary


def render(summary: Dict[str, Any]) -> str:
    lines = []
    for workload, block in summary.items():
        if workload == "agree":
            continue
        lines.append(f"{workload}: all correct={block['all_correct']} failed shares A/B={block['failed_shares']}")
        lines.append(f"  {'metric':<18} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
                     f"{'spread':>7} {'B - A':>8} {'bound':>6} agree")
        for row in block["metrics"]:
            a, b = row["set_a"], row["set_b"]
            lines.append(
                f"  {row['metric']:<18} {a['median']:<11.5g}[{a['q1']:.5g}, {a['q3']:.5g}]".ljust(55)
                + f" {b['median']:<11.5g}[{b['q1']:.5g}, {b['q3']:.5g}]".ljust(35)
                + f" {row['spread_all']:>7.2%} {row['b_change']:>8.2%} {row['bound']:>6.2f} {row['agrees']}"
            )
    lines.append(f"overall agree: {summary['agree']}")
    return "\n".join(lines)


def main() -> int:
    definition = load_definition()
    seconds = definition["run_seconds"]
    workloads = [w["name"] for w in definition["workloads"]]
    results: Dict[str, List[List[Dict[str, Any]]]] = {w: [[], []] for w in workloads}
    seed = FIRST_SEED
    for index in range(RUNS_PER_SET):
        for which in (0, 1):
            for workload in workloads:
                result = run_once(definition, workload, seed, seconds)
                results[workload][which].append(result)
                print(f"run {index + 1}/{RUNS_PER_SET} set {'AB'[which]} {workload} seed {seed}: "
                      + json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                      flush=True)
                seed += 1
    summary = summarize(definition, results)
    print(render(summary))
    return 0 if summary["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())

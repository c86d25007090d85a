"""Self-test: every correctness check fails on a corrupted answer.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs each workload once at a small size, in-process, and confirms it
passes its checks and reports its attempted and failed operation counts.
Then it feeds every check in ``checks.py`` a real answer and a tampered one
(a moved Vmin, a falling FVM count, an energy above nominal, ...) and
confirms the check accepts the first and rejects the second, and that a
tampered answer inside a whole workload run turns ``correct`` false.  A
request the server refuses must show up in the failed count.  Exit status 1
if any expectation does not hold.
"""

from __future__ import annotations

import copy
import json
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

import checks
import inputs
import workloads
from client import run_round
from common import BenchError, Outcome, ServeProcess, Workdir, require_program

FAILURES: List[str] = []


def expect(condition: bool, label: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}", flush=True)
    if not condition:
        FAILURES.append(label)


def passes_then_fails(label: str, check: Callable[..., List[str]], good: tuple, bad: tuple) -> None:
    expect(check(*good) == [], f"{label}: passes on the real answer")
    expect(check(*bad) != [], f"{label}: fails on the tampered answer")


@contextmanager
def small_inputs() -> Iterator[None]:
    """Shrink the fleets and the population for a seconds-scale run."""
    saved = {name: getattr(inputs, name) for name in (
        "CHARACTERIZE_DIES_PER_PLATFORM", "SERVE_DIES_PER_PLATFORM",
        "SIMULATE_DIES_PER_PLATFORM", "SCALE_DIES")}
    inputs.CHARACTERIZE_DIES_PER_PLATFORM = 2
    inputs.SERVE_DIES_PER_PLATFORM = 2
    inputs.SIMULATE_DIES_PER_PLATFORM = 4
    inputs.SCALE_DIES = 20_000
    saved_samples = workloads.FLEET_SETUP_SAMPLES
    workloads.FLEET_SETUP_SAMPLES = 1
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(inputs, name, value)
        workloads.FLEET_SETUP_SAMPLES = saved_samples


@contextmanager
def replaced(owner: Any, name: str, value: Any) -> Iterator[None]:
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def run_small(name: str, seed: int) -> Outcome:
    with Workdir(f"selftest-{name}") as work:
        outcome, metrics = workloads.run_workload(name, seed, 0.0, work)
    print(f"     {name}: correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed} metrics={sorted(metrics)}")
    for problem in outcome.problems:
        print(f"     problem: {problem}")
    return outcome


def characterize_checks(seed: int) -> None:
    outcome = run_small("characterize", seed)
    expect(outcome.correct and outcome.attempted > 0 and outcome.failed == 0,
           "characterize: small run is correct and counts its operations")

    spec = inputs.characterize_spec(seed)
    with Workdir("selftest-store") as work:
        spec_path = inputs.write_spec(work, spec)
        workloads.run_cli_json(inputs.campaign_run_args(spec_path, work))
        units = workloads.store_units(spec["name"], work)
    stock = workloads.stock_serials()
    anchor = ("VC707", stock["VC707"], inputs.REFERENCE_TEMPERATURE_C)
    die = next(key for key in sorted(units) if key[1] != stock[key[0]])
    hot = (die[0], die[1], max(inputs.CHAMBER_TEMPERATURES_C))

    def tampered(key: Any, rail: str, field: str, delta: float) -> checks.UnitRails:
        copied = copy.deepcopy(units)
        copied[key][rail][field] = round(copied[key][rail][field] + delta, 4)
        return copied

    passes_then_fails("rail order", checks.rail_order, (units,),
                      (tampered(die, "VCCINT", "vcrash_v", 0.2),))
    passes_then_fails("ITD order", checks.itd_order, (units,),
                      (tampered(hot, "VCCBRAM", "vmin_v", 0.05),))
    passes_then_fails("Fig. 1 anchors", checks.fig1_anchors, (units, stock),
                      (tampered(anchor, "VCCBRAM", "vmin_v", -0.01), stock))
    walk = {(die, rail): workloads.linear_walk(*die, rail, units[die][rail]["vnom_v"])
            for rail in checks.RAILS}
    passes_then_fails("linear walk", checks.linear_walk_agrees, (units, walk),
                      (tampered(die, "VCCBRAM", "vmin_v", -0.01), walk))

    original = workloads.store_units

    def tampered_store(name: str, root: Any) -> checks.UnitRails:
        found = original(name, root)
        key = next(k for k in sorted(found) if k[1] == stock[k[0]])
        found[key]["VCCBRAM"]["vmin_v"] = round(found[key]["VCCBRAM"]["vmin_v"] - 0.01, 4)
        return found

    with replaced(workloads, "store_units", tampered_store):
        outcome = run_small("characterize", seed)
    expect(not outcome.correct, "characterize: a tampered stored Vmin makes the run incorrect")


def serve_checks(seed: int) -> None:
    outcome = run_small("serve", seed)
    expect(outcome.correct and outcome.attempted > 0 and outcome.failed == 0,
           "serve: small run is correct and counts its operations")

    spec = inputs.serve_spec(seed)
    with Workdir("selftest-serve") as work:
        spec_path = inputs.write_spec(work, spec)
        workloads.run_cli_json(inputs.campaign_run_args(spec_path, work))
        store = workloads.served_store(spec, work)
        dies = sorted(store)
        cycle, analyst_order, plan = workloads.serve_plan(seed, dies)
        plan = plan + ["/v1/fvm?platform=VC707&serial=NO-SUCH-DIE"]
        server = ServeProcess(workloads.serve_args(spec, work), work / "serve.log")
        try:
            traffic = run_round(server.host, server.port, cycle, plan)
        finally:
            server.stop()
    expect(traffic.n_failed == 1 and traffic.n_requests > len(plan),
           f"serve: a refused request is counted as failed ({traffic.n_failed} of {traffic.n_requests})")

    guardbands, safe = workloads.served_lookups(traffic)
    die = dies[0]
    bad_guardbands = copy.deepcopy(guardbands)
    bad_guardbands[die]["vmin_v"] = round(bad_guardbands[die]["vmin_v"] - 0.01, 4)
    passes_then_fails("served guardbands", checks.served_guardbands, (guardbands, store),
                      (bad_guardbands, store))
    bad_safe = copy.deepcopy(safe)
    hottest, coolest = max(safe[die]), min(safe[die])
    bad_safe[die][hottest]["safe_vmin_v"] = bad_safe[die][coolest]["safe_vmin_v"] + 0.01
    passes_then_fails("safe-vmin", checks.safe_vmin, (safe, store), (bad_safe, store))

    reference, totals = workloads.reference_fvm(*analyst_order[0])
    served = json.loads(traffic.analyst[0][2])
    bad_served = copy.deepcopy(served)
    bad_served["statistics"]["max_percent"] += 0.001
    passes_then_fails("served FVM vs unbatched rebuild", checks.fvm_matches,
                      ("fvm", served, reference), ("fvm", bad_served, reference))
    bad_totals = list(totals)
    bad_totals[-1] = (bad_totals[-1][0], bad_totals[-2][1] - 1)
    passes_then_fails("FVM count monotone", checks.fvm_monotone, ("fvm", totals), ("fvm", bad_totals))
    passes_then_fails("warm repeats are free", checks.warm_is_free, (66, 66, 66), (66, 67, 67))

    original = workloads.reference_fvm

    def tampered_reference(platform: str, serial: str) -> Any:
        answer, found = original(platform, serial)
        answer["n_brams"] += 1
        return answer, found

    with replaced(workloads, "reference_fvm", tampered_reference):
        outcome = run_small("serve", seed)
    expect(not outcome.correct, "serve: a tampered FVM rebuild makes the run incorrect")


def simulate_checks(seed: int) -> None:
    original = workloads.run_cli_json
    documents: Dict[str, Any] = {}

    def recording_cli(args: Any) -> Any:
        elapsed, document = original(args)
        documents[" ".join(args[:2])] = document
        return elapsed, document

    with replaced(workloads, "run_cli_json", recording_cli):
        outcome = run_small("simulate", seed)
    expect(outcome.correct and outcome.attempted > 0 and outcome.failed == 0,
           "simulate: small run is correct and counts its operations")

    scale, governed = documents["runtime scale"], documents["runtime run"]
    bad = copy.deepcopy(scale)
    bad["policies"]["reactive"]["energy_j"] = bad["baselines"]["nominal_energy_j"] * 1.01
    passes_then_fails("policy energies", checks.policy_energies, ("scale", scale), ("scale", bad))
    bad = copy.deepcopy(scale)
    bad["policies"]["predictive"]["served"] -= 1
    passes_then_fails("every request served", checks.policy_energies, ("scale", scale), ("scale", bad))
    bad = copy.deepcopy(scale)
    bad["fleet"]["drifted_dies"] *= 2
    passes_then_fails("subpopulation shares", checks.subpopulation_shares, (scale["fleet"],), (bad["fleet"],))
    bad = copy.deepcopy(governed)
    bad["policies"]["predictive"]["faulty_inferences"] = 1
    passes_then_fails("predictive fault-free", checks.predictive_fault_free, (governed,), (bad,))
    passes_then_fails("same seed, same document", checks.repeats_identically,
                      ("scale", [scale, copy.deepcopy(scale)]), ("scale", [scale, bad]))

    def tampered_cli(args: Any) -> Any:
        elapsed, document = original(args)
        if list(args[:2]) == ["runtime", "run"]:
            document["policies"]["predictive"]["faulty_inferences"] += 1
        return elapsed, document

    with replaced(workloads, "run_cli_json", tampered_cli):
        outcome = run_small("simulate", seed)
    expect(not outcome.correct, "simulate: a tampered governor run makes the run incorrect")


def main() -> int:
    try:
        require_program()
        seed = 5
        with small_inputs():
            characterize_checks(seed)
            serve_checks(seed)
            simulate_checks(seed)
    except BenchError as exc:
        print(f"perfbench selftest: {exc}", file=sys.stderr)
        return 2
    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES else "all expectations hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

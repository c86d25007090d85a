"""The three untraced workloads, each driving ``repro-undervolt`` commands.

Every command runs in a fresh process with tracing off and is timed from
process start to exit.  A run repeats whole rounds of the same commands
until ``--seconds`` have passed, then checks the outputs and reports the
end-to-end metrics (see README.md for what each one means per workload).
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple
from urllib.parse import parse_qs, urlsplit

import checks
import inputs
from client import TrafficRound, run_round_in_fresh_process
from common import (
    BenchError,
    Outcome,
    ServeProcess,
    children_peak_rss_mb,
    import_program,
    median,
    note,
    percentile,
    run_cli,
    run_cli_json,
)

Metrics = Dict[str, Tuple[float, str]]

#: ``--version`` starts per characterize run (setup samples).
VERSION_SAMPLES = 5
#: Fresh characterizations of the served / compiled fleet per run.
FLEET_SETUP_SAMPLES = 3
#: Dies the characterize check re-walks linearly.
WALKED_DIES = 2
#: Width of the bins the serve lookup rate is counted in.
RATE_BIN_S = 0.1


def _elapsed_since(started: float) -> float:
    return time.perf_counter() - started


def store_units(name: str, root: Path) -> checks.UnitRails:
    """Every unit's per-rail thresholds, read back through the store API."""
    import_program()
    from repro.campaign import open_store

    units: checks.UnitRails = {}
    for result in open_store(name, root).results(with_arrays=False):
        unit = result.unit
        units[(unit.platform, unit.serial, float(unit.temperature_c))] = {
            rail: {key: float(values[key]) for key in ("vnom_v", "vmin_v", "vcrash_v")}
            for rail, values in result.summary["rails"].items()
        }
    return units


def stock_serials() -> Dict[str, str]:
    import_program()
    from repro.fpga.platform import get_platform

    return {platform: get_platform(platform).serial_number for platform in inputs.PLATFORMS}


def linear_walk(platform: str, serial: str, temperature: float, rail: str,
                vnom: float) -> Tuple[float, float]:
    """Walk one rail down the 10 mV grid with single-point probes until it crashes."""
    import_program()
    from repro.exec import PROBE, EvalRequest, SimulatedBackend
    from repro.fpga import FpgaChip

    chip = FpgaChip.build(platform, serial=serial)
    chip.set_temperature(temperature)
    backend = SimulatedBackend(chip=chip)
    backend.host.initialize_brams("FFFF")
    points = []
    step = 0
    while True:
        voltage = round(vnom - 0.01 * step, 4)
        if voltage <= 0.3:
            break
        point = backend.evaluate(EvalRequest(
            kind=PROBE, rail=rail, voltage_v=voltage, temperature_c=chip.board_temperature_c,
            pattern="FFFF", n_runs=inputs.RUNS_PER_STEP,
        ))
        faults = statistics.median(point.counts) if point.counts else 0
        points.append((voltage, point.operational, faults))
        if not point.operational:
            break
        step += 1
    return checks.walk_thresholds(points)


# ----------------------------------------------------------------------
# characterize
# ----------------------------------------------------------------------
def characterize(seed: int, seconds: float, work: Path, outcome: Outcome) -> Metrics:
    spec = inputs.characterize_spec(seed)
    spec_path = inputs.write_spec(work, spec)

    setup = []
    for _ in range(VERSION_SAMPLES):
        elapsed, stdout = run_cli(["--version"])
        outcome.attempted += 1
        outcome.check(stdout.startswith("repro-undervolt "), f"--version printed {stdout!r}")
        setup.append(elapsed)

    runs: List[Dict[str, Any]] = []
    reports: List[Dict[str, Any]] = []
    run_s: List[float] = []
    report_s: List[float] = []
    started = time.perf_counter()
    while not runs or _elapsed_since(started) < seconds:
        root = work / f"round{len(runs)}"
        elapsed_run, run_doc = run_cli_json(inputs.campaign_run_args(spec_path, root))
        elapsed_report, report_doc = run_cli_json(
            ["campaign", "report", "--spec", str(spec_path), "--root", str(root)]
        )
        outcome.attempted += run_doc["n_executed"] + 1
        runs.append(run_doc)
        reports.append(report_doc)
        run_s.append(elapsed_run)
        report_s.append(elapsed_report)
        if len(runs) > 1:
            shutil.rmtree(root)

    n_units = runs[0]["n_units"]
    for run_doc, report_doc in zip(runs, reports):
        outcome.check(run_doc["n_executed"] == n_units, f"executed {run_doc['n_executed']} of {n_units} units")
        outcome.check(report_doc["n_completed"] == n_units, "report is missing units")
        outcome.check(report_doc["evaluations"] == run_doc["evaluations"],
                      "report evaluations differ from the run's")
        outcome.check(run_doc["evaluations"] == runs[0]["evaluations"],
                      "probe counts differ between rounds with the same inputs")
    outcome.report(checks.repeats_identically("campaign report", reports))

    units = store_units(spec["name"], work / "round0")
    outcome.check(len(units) == n_units, f"store holds {len(units)} of {n_units} units")
    outcome.report(checks.rail_order(units) + checks.itd_order(units)
                   + checks.fig1_anchors(units, stock_serials()))
    walks = {}
    for platform, serial in inputs.sampled_dies(seed, spec, WALKED_DIES):
        for temperature in inputs.CHAMBER_TEMPERATURES_C:
            unit = (platform, serial, temperature)
            for rail in checks.RAILS:
                vnom = units.get(unit, {}).get(rail, {}).get("vnom_v", 1.0)
                walks[(unit, rail)] = linear_walk(platform, serial, temperature, rail, vnom)
    outcome.report(checks.linear_walk_agrees(units, walks))

    probes_per_unit = runs[0]["evaluations"]["n_evaluations"] / n_units
    units_per_s = median([n_units / (a + b) for a, b in zip(run_s, report_s)])
    run_ms_per_unit = median([1000.0 * elapsed / n_units for elapsed in run_s])
    note("detail", {
        "workload": "characterize", "rounds": len(runs), "units_per_round": n_units,
        "campaign_units_per_s": units_per_s, "campaign_run_ms_per_unit": run_ms_per_unit,
        "probes_per_unit": probes_per_unit, "campaign_run_s": run_s, "campaign_report_s": report_s,
    })
    return {
        "setup_s": (median(setup), "s"),
        "throughput_per_s": (units_per_s, "1/s"),
        "latency_p50_ms": (run_ms_per_unit, "ms"),
        "evals_per_op": (probes_per_unit, "count"),
    }


# ----------------------------------------------------------------------
# shared fleet set-up (serve, simulate)
# ----------------------------------------------------------------------
def characterize_fleet(spec: Dict[str, Any], work: Path, outcome: Outcome) -> Tuple[Path, float, float]:
    """Characterize a fleet several times into fresh roots; keep the first store.

    Returns (store root, median seconds, probes per unit).
    """
    spec_path = inputs.write_spec(work, spec)
    times, probes = [], []
    for index in range(FLEET_SETUP_SAMPLES):
        root = work / f"fleet{index}"
        elapsed, doc = run_cli_json(inputs.campaign_run_args(spec_path, root))
        outcome.attempted += doc["n_executed"]
        outcome.check(doc["n_executed"] == doc["n_units"], "fleet characterization left units pending")
        times.append(elapsed)
        probes.append(doc["evaluations"]["n_evaluations"] / doc["n_units"])
        if index:
            shutil.rmtree(root)
    outcome.check(len(set(probes)) == 1, f"fleet probe counts differ between identical runs: {probes}")
    return work / "fleet0", median(times), probes[0]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def served_lookups(traffic: TrafficRound) -> Tuple[Dict[Tuple[str, str], Dict[str, Any]],
                                                   Dict[Tuple[str, str], Dict[float, Dict[str, Any]]]]:
    """The round's lookup answers: guardbands by die, safe-vmin by die and temperature."""
    guardbands: Dict[Tuple[str, str], Dict[str, Any]] = {}
    safe: Dict[Tuple[str, str], Dict[float, Dict[str, Any]]] = {}
    for target, body in traffic.lookup_bodies.items():
        parts = urlsplit(target)
        query = {key: values[0] for key, values in parse_qs(parts.query).items()}
        die = (query["platform"], query["serial"])
        if parts.path == "/v1/guardband":
            guardbands[die] = json.loads(body)
        else:
            safe.setdefault(die, {})[float(query["temperature_c"])] = json.loads(body)
    return guardbands, safe


def reference_fvm(platform: str, serial: str) -> Tuple[Dict[str, Any], List[Tuple[float, int]]]:
    """The die's FVM from per-request, unbatched backend evaluations.

    Returns (the ``/v1/fvm`` answer it implies, total faults per voltage).
    """
    import_program()
    import numpy as np
    from repro.core.calibration import get_calibration
    from repro.core.fvm import FaultVariationMap
    from repro.exec import FVM, EvalRequest, SimulatedBackend
    from repro.fpga import FpgaChip

    chip = FpgaChip.build(platform, serial=serial)
    backend = SimulatedBackend(chip=chip)
    calibration = get_calibration(platform)
    voltages = []
    step = 0
    while True:
        voltage = round(calibration.vmin_bram_v - 0.01 * step, 4)
        if voltage < calibration.vcrash_bram_v - 1e-9:
            break
        voltages.append(voltage)
        step += 1
    rows = [
        backend.evaluate(EvalRequest(kind=FVM, rail="VCCBRAM", voltage_v=voltage,
                                     temperature_c=inputs.REFERENCE_TEMPERATURE_C,
                                     pattern=0xFFFF, n_runs=0)).per_bram_counts
        for voltage in voltages
    ]
    matrix = np.array(rows, dtype=np.int64)
    fvm = FaultVariationMap.from_matrix(
        platform=chip.name, floorplan=chip.floorplan, voltages_v=voltages, counts=matrix,
        bram_bits=chip.spec.bram_rows * chip.spec.bram_cols,
    )
    answer = {"platform": platform, "serial": serial, "n_brams": fvm.n_brams,
              "statistics": fvm.statistics()}
    totals = [(voltage, int(row.sum())) for voltage, row in zip(voltages, matrix)]
    return json.loads(json.dumps(answer)), totals


def check_round(traffic: TrafficRound, cycle: List[str], n_dies: int,
                 store: Dict[Tuple[str, str], Dict[str, float]], outcome: Outcome) -> int:
    """Check one round's answers; return backend evaluations after the cold pass."""
    outcome.check(traffic.lookup_mismatches == 0,
                  f"{traffic.lookup_mismatches} repeated lookups changed their answer")
    targets = {target for target in cycle if target != "/metrics"}
    outcome.check(set(traffic.lookup_bodies) == targets,
                  f"governor covered {len(traffic.lookup_bodies)} of {len(targets)} lookups")
    guardbands, safe = served_lookups(traffic)
    outcome.report(checks.served_guardbands(guardbands, store) + checks.safe_vmin(safe, store))

    answers = [body for _target, _status, body, _s in traffic.analyst]
    cold, warm, pairs = answers[:n_dies], answers[n_dies + 1:2 * n_dies + 1], answers[2 * n_dies + 1:-1]
    outcome.check(warm == cold, "warm FVM answers differ from cold ones")
    for body in pairs:
        pair = json.loads(body)
        outcome.check("rate_ratio" in pair and "count_correlation" in pair,
                      f"similarity answer lacks its fields: {pair}")
    after_cold = json.loads(answers[n_dies])["backend"]["counters"]["n_backend_evaluations"]
    after_warm = json.loads(answers[-1])["backend"]["counters"]["n_backend_evaluations"]
    final = json.loads(traffic.final_stats)["backend"]["counters"]["n_backend_evaluations"]
    outcome.report(checks.warm_is_free(after_cold, after_warm, final))
    return after_cold


def served_store(spec: Dict[str, Any], root: Path) -> Dict[Tuple[str, str], Dict[str, float]]:
    """The served fleet's VCCBRAM summaries, keyed by die."""
    return {(p, s): rails["VCCBRAM"] for (p, s, _t), rails in store_units(spec["name"], root).items()}


def serve_plan(seed: int, dies: List[Tuple[str, str]]) -> Tuple[List[str], List[Tuple[str, str]], List[str]]:
    """(governor cycle, analyst die order, analyst plan).

    The analyst plan: every die's FVM cold, ``/stats``, every FVM again
    warm, the consecutive same-platform similarity pairs, then ``/stats``.
    """
    cycle, analyst_order = inputs.request_mix(seed, dies)
    fvm_targets = [f"/v1/fvm?platform={p}&serial={s}" for p, s in analyst_order]
    pairs = [f"/v1/fvm-similarity?platform={p}&serial_a={a}&serial_b={b}"
             for p, a, b in inputs.similarity_pairs(analyst_order)]
    analyst_plan = fvm_targets + ["/stats"] + fvm_targets + pairs + ["/stats"]
    return cycle, analyst_order, analyst_plan


def serve_args(spec: Dict[str, Any], root: Path) -> List[str]:
    return ["--store", spec["name"], "--root", str(root), "--engine-workers", inputs.ENGINE_WORKERS]


def serve_round(spec: Dict[str, Any], root: Path, work: Path, cycle: List[str],
                analyst_plan: List[str], outcome: Outcome) -> Tuple[float, TrafficRound]:
    """Start ``serve``, drive one traffic round, stop it; (ready seconds, traffic)."""
    server = ServeProcess(serve_args(spec, root), work / "serve.log")
    try:
        traffic = run_round_in_fresh_process(server.host, server.port, cycle, analyst_plan, work)
    finally:
        status = server.stop()
    outcome.check(status == 0, f"serve exited {status} on SIGTERM")
    outcome.attempted += traffic.n_requests
    outcome.failed += traffic.n_failed
    return server.ready_s, traffic


def serve(seed: int, seconds: float, work: Path, outcome: Outcome) -> Metrics:
    spec = inputs.serve_spec(seed)
    root, characterize_s, _probes = characterize_fleet(spec, work, outcome)
    store = served_store(spec, root)
    dies = sorted(store)
    cycle, analyst_order, analyst_plan = serve_plan(seed, dies)

    ready_s: List[float] = []
    rounds: List[TrafficRound] = []
    evals_after_cold: List[int] = []
    started = time.perf_counter()
    while not rounds or _elapsed_since(started) < seconds:
        ready, traffic = serve_round(spec, root, work, cycle, analyst_plan, outcome)
        ready_s.append(ready)
        rounds.append(traffic)
        evals_after_cold.append(check_round(traffic, cycle, len(dies), store, outcome))
    outcome.check(len(set(evals_after_cold)) == 1,
                  f"cold FVM backend evaluations differ between rounds: {evals_after_cold}")

    sampled = analyst_order[seed % len(analyst_order)]
    reference, totals = reference_fvm(*sampled)
    served = json.loads(rounds[0].analyst[analyst_order.index(sampled)][2])
    outcome.report(checks.fvm_matches(f"{sampled}", served, reference)
                   + checks.fvm_monotone(f"{sampled}", totals))

    n = len(dies)
    busy = [lookups_between(t, 0.0, t.analyst_done_s[-1]) for t in rounds]
    cold = [lookups_between(t, 0.0, t.analyst_done_s[n - 1]) for t in rounds]
    idle = [lookups_between(t, t.analyst_done_s[-1], t.lookup_done_s[-1]) for t in rounds]
    figures = {}
    for phase, measured in (("", busy), ("cold_", cold), ("idle_", idle)):
        latencies = [s for _rates, phase_latencies in measured for s in phase_latencies]
        rates = [rate for phase_rates, _ in measured for rate in phase_rates]
        if phase and not rates:
            continue  # a phase shorter than one rate bin in every round
        figures[f"{phase}lookup_rps"] = median(rates)
        figures[f"{phase}lookups"] = len(latencies)
        figures[f"{phase}lookup_p50_ms"] = 1000.0 * percentile(latencies, 50)
        figures[f"{phase}lookup_p99_ms"] = 1000.0 * percentile(latencies, 99)
    maps_per_s = median([n / t.analyst_done_s[n - 1] for t in rounds])
    note("detail", {
        "workload": "serve", "rounds": len(rounds), "dies": n, **figures,
        "fvm_maps_per_s": maps_per_s, "characterize_s": characterize_s,
        "serve_ready_s": ready_s, "backend_evals_per_map": evals_after_cold[0] / n,
    })
    return {
        "setup_s": (characterize_s + median(ready_s), "s"),
        "throughput_per_s": (maps_per_s, "1/s"),
        "latency_p50_ms": (figures["lookup_p50_ms"], "ms"),
        "evals_per_op": (evals_after_cold[0] / n, "count"),
    }


def lookups_between(traffic: TrafficRound, start_s: float, end_s: float) -> Tuple[List[float], List[float]]:
    """Lookups completed in [start, end]: (per-bin rates, their latencies).

    The rates are lookups per second in each whole :data:`RATE_BIN_S` bin of
    the interval, so a run's median rate is the sustained rate, not one
    average that a single stall can move.
    """
    latencies = []
    counts = [0] * int((end_s - start_s) / RATE_BIN_S)
    for done, latency in zip(traffic.lookup_done_s, traffic.lookup_latencies_s):
        if start_s <= done <= end_s:
            latencies.append(latency)
            index = int((done - start_s) / RATE_BIN_S)
            if index < len(counts):
                counts[index] += 1
    return [count / RATE_BIN_S for count in counts], latencies


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def simulate(seed: int, seconds: float, work: Path, outcome: Outcome) -> Metrics:
    spec = inputs.simulate_spec(seed)
    root, characterize_s, probes_per_unit = characterize_fleet(spec, work, outcome)
    scale_docs: List[Dict[str, Any]] = []
    run_docs: List[Dict[str, Any]] = []
    scale_s: List[float] = []
    run_s: List[float] = []
    started = time.perf_counter()
    while len(scale_docs) < 2 or _elapsed_since(started) < seconds:
        elapsed, doc = run_cli_json(inputs.scale_args(seed))
        scale_s.append(elapsed)
        scale_docs.append(doc)
        elapsed, doc = run_cli_json(inputs.governor_run_args(spec["name"], root, seed))
        run_s.append(elapsed)
        run_docs.append(doc)
        outcome.attempted += len(scale_docs[-1]["policies"]) + len(doc["policies"])

    outcome.report(checks.policy_energies("runtime scale", scale_docs[0])
                   + checks.subpopulation_shares(scale_docs[0]["fleet"])
                   + checks.policy_energies("runtime run", run_docs[0])
                   + checks.predictive_fault_free(run_docs[0])
                   + checks.repeats_identically("runtime scale", scale_docs)
                   + checks.repeats_identically("runtime run", run_docs))
    outcome.check(run_docs[0]["fleet"]["n_chips"] == len(inputs.PLATFORMS) * inputs.SIMULATE_DIES_PER_PLATFORM,
                  "runtime run did not compile the whole characterized fleet")

    trace = scale_docs[0]["trace"]
    device_s = scale_docs[0]["fleet"]["n_dies"] * trace["n_steps"] * trace["step_seconds"]
    rates = [device_s / elapsed for elapsed in scale_s]
    note("detail", {
        "workload": "simulate", "rounds": len(scale_docs), "scale_dies": scale_docs[0]["fleet"]["n_dies"],
        "sim_device_s_per_s": median(rates), "governor_run_s": median(run_s),
        "runtime_scale_s": scale_s, "runtime_run_s": run_s, "characterize_s": characterize_s,
    })
    return {
        "setup_s": (characterize_s, "s"),
        "throughput_per_s": (median(rates), "1/s"),
        "latency_p50_ms": (1000.0 * median(run_s), "ms"),
        "evals_per_op": (probes_per_unit, "count"),
    }


WORKLOADS = {"characterize": characterize, "serve": serve, "simulate": simulate}


def run_workload(name: str, seed: int, seconds: float, work: Path) -> Tuple[Outcome, Metrics]:
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    outcome = Outcome()
    metrics = WORKLOADS[name](seed, seconds, work, outcome)
    metrics["peak_rss_mb"] = (children_peak_rss_mb(), "MB")
    return outcome, metrics

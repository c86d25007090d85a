"""The traced pass: the same inputs, fed in-process through each layer.

Nothing inside ``src/`` is instrumented.  The benchmark wraps the public
functions at each layer boundary from here (class attributes and module
attributes, restored afterwards), times each call and reads the program's
own counters (``EngineCounters``, ``SearchReport``, ``/stats``).  Campaign
workers are forked from this process with the wrappers in place and write
their per-process totals to a file after every unit they save.

Every traced run reports every per-layer metric, whatever ``--workload``
names: it runs the characterize, serve and simulate passes in turn on the
inputs that seed gives.  ``trace.overhead_ratio`` is the traced campaign's
wall time over the same campaign untraced, run in the same process.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import checks
import inputs
import workloads
from common import Outcome, import_program, median, percentile, program_env, run_cli_json

Metrics = Dict[str, Tuple[float, str]]

IMPORT_SAMPLES = 5
REPORT_SAMPLES = 3
BUNDLE_SAMPLES = 3
#: Untraced/traced campaign pairs behind the campaign-path metrics.
CAMPAIGN_PAIRS = 2


class Recorder:
    """Per-process call totals (seconds and counts) keyed by layer name."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._depth = threading.local()

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    @contextmanager
    def outermost(self) -> Iterator[bool]:
        """True when this call is not nested inside another wrapped engine call."""
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        try:
            yield depth == 0
        finally:
            self._depth.value = depth

    def flush(self, path: Path) -> None:
        path.write_text(json.dumps({"totals": self.totals, "samples": self.samples}))


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _timed(recorder: Recorder, name: str, function: Callable, sample: bool = False) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            recorder.add(name, elapsed)
            if sample:
                recorder.sample(name, elapsed)
    return wrapper


@contextmanager
def campaign_wrappers(recorder: Recorder, flush_dir: Path) -> Iterator[None]:
    """Wrap the campaign-path layer boundaries for one traced campaign."""
    from repro.campaign import runner
    from repro.campaign.store import CampaignStore
    from repro.campaign.store_v2 import CampaignStoreV2
    from repro.exec.engine import ExecutionEngine
    from repro.harness.sweep import UndervoltingExperiment

    patches = Patches()

    def engine_call(function: Callable) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            with recorder.outermost() as outer:
                if not outer:
                    return function(self, *args, **kwargs)
                c = self.counters
                before = (c.n_requests, c.n_cache_hits, c.n_backend_evaluations, c.n_backend_calls)
                started = time.perf_counter()
                try:
                    return function(self, *args, **kwargs)
                finally:
                    recorder.add("exec.engine_s", time.perf_counter() - started)
                    after = (c.n_requests, c.n_cache_hits, c.n_backend_evaluations, c.n_backend_calls)
                    for key, b, a in zip(("requests", "cache_hits", "backend_evaluations",
                                          "backend_calls"), before, after):
                        recorder.add(f"exec.{key}", a - b)
        return wrapper

    discover = UndervoltingExperiment.discover_guardband_adaptive

    def traced_discover(self: Any, rail: str = "VCCBRAM", *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        result = discover(self, rail, *args, **kwargs)
        recorder.add("harness.discover_s", time.perf_counter() - started)
        report = self.last_search_report
        recorder.add(f"search.evaluations.{rail}", report.n_evaluations)
        recorder.add("search.evaluations", report.n_evaluations)
        recorder.add("search.cache_hits", report.n_cache_hits)
        recorder.add("search.exhaustive_equivalent", report.n_exhaustive_equivalent)
        return result

    def saving(function: Callable, flush: bool) -> Callable:
        timed = _timed(recorder, "campaign.store_save_s", function)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = timed(*args, **kwargs)
            if flush:
                recorder.flush(flush_dir / f"{os.getpid()}.json")
            return result
        return wrapper

    patches.replace(ExecutionEngine, "evaluate", engine_call(ExecutionEngine.evaluate))
    patches.replace(ExecutionEngine, "evaluate_many", engine_call(ExecutionEngine.evaluate_many))
    patches.replace(UndervoltingExperiment, "discover_guardband_adaptive", traced_discover)
    patches.replace(runner, "execute_unit", _timed(recorder, "campaign.unit_s", runner.execute_unit))
    for store_class in (CampaignStore, CampaignStoreV2):
        for name, flush in (("save_eval_cache", False), ("save", True)):
            if name in store_class.__dict__:
                patches.replace(store_class, name, saving(store_class.__dict__[name], flush))
    try:
        yield
    finally:
        patches.restore()


def _merge(paths: List[Path]) -> Tuple[Dict[str, float], List[float]]:
    """Sum the per-process totals; also return each process's busy seconds."""
    totals: Dict[str, float] = defaultdict(float)
    busy = []
    for path in paths:
        document = json.loads(path.read_text())
        for name, value in document["totals"].items():
            totals[name] += value
        busy.append(document["totals"].get("campaign.unit_s", 0.0)
                    + document["totals"].get("campaign.store_save_s", 0.0))
    return totals, busy


# ----------------------------------------------------------------------
# characterize pass
# ----------------------------------------------------------------------
def _campaign(spec: Any, root: Path) -> Tuple[float, Any]:
    from repro.campaign import run_campaign

    started = time.perf_counter()
    report = run_campaign(spec, root=root, max_workers=int(inputs.CAMPAIGN_JOBS), scheduler="process")
    return time.perf_counter() - started, report


def characterize_pass(seed: int, work: Path, outcome: Outcome) -> Metrics:
    """The characterize campaign in-process: one warm-up, then untraced and
    traced runs in balanced order, each into a fresh root."""
    from repro.campaign import CampaignSpec, build_report, open_store

    spec = CampaignSpec.from_json(json.dumps(inputs.characterize_spec(seed)))
    _campaign(spec, work / "warmup")
    untraced_s, traced_s, overhead_s = [], [], []
    totals: Dict[str, float] = defaultdict(float)
    n_units = 0
    for index in range(2 * CAMPAIGN_PAIRS):
        if index % 4 in (0, 3):  # U T T U U T ...: each side runs first equally often
            wall, _ = _campaign(spec, work / f"untraced{index}")
            untraced_s.append(wall)
            continue
        recorder = Recorder()
        flush_dir = work / f"campaign-trace{index}"
        flush_dir.mkdir()
        with campaign_wrappers(recorder, flush_dir):
            wall, run_report = _campaign(spec, work / f"traced{index}")
        traced_s.append(wall)
        run_totals, busy = _merge(sorted(flush_dir.glob("*.json")))
        overhead_s.append(wall - max(busy))
        for name, value in run_totals.items():
            totals[name] += value
        n_units += len(run_report.executed)
        outcome.check(len(run_report.executed) == spec.n_units, "traced campaign left units pending")
        outcome.check(run_totals.get("search.evaluations") == run_report.evaluations["n_evaluations"],
                      "traced search reports do not add up to the campaign's evaluations block")
    outcome.attempted += (1 + 2 * CAMPAIGN_PAIRS) * spec.n_units
    traced_units = workloads.store_units(spec.name, work / "traced1")
    outcome.check(traced_units == workloads.store_units(spec.name, work / "untraced0"),
                  "traced campaign results differ from untraced ones")

    report_s = []
    for _ in range(REPORT_SAMPLES):
        started = time.perf_counter()
        build_report(open_store(spec.name, work / "traced1"), spec)
        report_s.append(time.perf_counter() - started)
        outcome.attempted += 1

    requests = totals["exec.requests"]
    return {
        "exec.requests_per_unit": (requests / n_units, "count"),
        "search.cache_hit_ratio": (
            totals["search.cache_hits"] / (totals["search.cache_hits"] + totals["search.evaluations"]),
            "ratio"),
        "exec.backend_crossings_per_unit": (totals["exec.backend_calls"] / n_units, "count"),
        "exec.engine_ms_per_unit": (1000.0 * totals["exec.engine_s"] / n_units, "ms"),
        "search.evals_per_rail.VCCBRAM": (totals["search.evaluations.VCCBRAM"] / n_units, "count"),
        "search.evals_per_rail.VCCINT": (totals["search.evaluations.VCCINT"] / n_units, "count"),
        "search.saved_fraction": (
            1.0 - totals["search.evaluations"] / totals["search.exhaustive_equivalent"], "ratio"),
        "harness.discover_ms_per_unit": (1000.0 * totals["harness.discover_s"] / n_units, "ms"),
        "campaign.unit_ms": (1000.0 * totals["campaign.unit_s"] / n_units, "ms"),
        "campaign.store_save_ms": (1000.0 * totals["campaign.store_save_s"] / n_units, "ms"),
        "campaign.overhead_s": (median(overhead_s), "s"),
        "campaign.report_s": (median(report_s), "s"),
        "trace.overhead_ratio": (median(traced_s) / median(untraced_s), "ratio"),
    }


def die_pass(seed: int, outcome: Outcome) -> Metrics:
    """Chip build, fault-field build and the batched FVM kernel on fresh dies."""
    from repro.core.batch import cached_fault_field, clear_fault_field_cache
    from repro.core.calibration import get_calibration
    from repro.exec import FVM, EvalRequest, SimulatedBackend
    from repro.fpga import FpgaChip
    from repro.fpga.platform import fleet_serials

    build_ms, field_ms = [], []
    kernel_points, kernel_s = 0, 0.0
    for group in inputs.characterize_spec(seed)["chips"]:
        calibration = get_calibration(group["platform"])
        for serial in fleet_serials(group["platform"], group["n_chips"], group["serial_base"]):
            clear_fault_field_cache()
            started = time.perf_counter()
            chip = FpgaChip.build(group["platform"], serial=serial)
            built = time.perf_counter()
            field = cached_fault_field(chip)
            field.batch.table  # the flat cell table is built lazily, on first use
            field.batch.sorted_observable_thresholds(0xFFFF)
            build_ms.append(1000.0 * (built - started))
            field_ms.append(1000.0 * (time.perf_counter() - built))
            backend = SimulatedBackend(chip=chip, fault_field=field)
            requests = []
            voltage = calibration.vmin_bram_v
            while voltage >= calibration.vcrash_bram_v - 1e-9:
                requests.append(EvalRequest(kind=FVM, rail="VCCBRAM", voltage_v=voltage,
                                            temperature_c=inputs.REFERENCE_TEMPERATURE_C,
                                            pattern=0xFFFF, n_runs=0))
                voltage = round(voltage - 0.01, 4)
            started = time.perf_counter()
            points = backend.evaluate_batch(requests)
            kernel_s += time.perf_counter() - started
            kernel_points += len(points)
            outcome.attempted += 1
            outcome.check(len(points) == len(requests), f"{serial}: batch answered {len(points)} points")
    clear_fault_field_cache()
    return {
        "fpga.chip_build_ms": (median(build_ms), "ms"),
        "core.field_build_ms": (median(field_ms), "ms"),
        "core.kernel_points_per_s": (kernel_points / kernel_s, "1/s"),
    }


def import_pass(outcome: Outcome) -> Metrics:
    probe = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", probe], env=program_env(),
                              capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.strip()))
        outcome.attempted += 1
    return {"cli.import_s": (median(samples), "s")}


# ----------------------------------------------------------------------
# serve pass
# ----------------------------------------------------------------------
def serve_pass(seed: int, work: Path, outcome: Outcome) -> Metrics:
    from repro.campaign import open_store
    from repro.runtime.characterization import GovernorBundle
    from repro.service import FleetService

    spec = inputs.serve_spec(seed)
    root = work / "serve-fleet"
    _elapsed, doc = run_cli_json(inputs.campaign_run_args(inputs.write_spec(work, spec), root))
    outcome.attempted += doc["n_executed"]
    load_s = []
    for _ in range(BUNDLE_SAMPLES):
        started = time.perf_counter()
        bundle = GovernorBundle.from_campaign(open_store(spec["name"], root))
        load_s.append(time.perf_counter() - started)

    store = workloads.served_store(spec, root)
    dies = sorted(store)
    cycle, analyst_order, analyst_plan = workloads.serve_plan(seed, dies)

    service = FleetService(bundle, engine_workers=int(inputs.ENGINE_WORKERS))
    cold_ms, warm_ms, crossings = [], [], 0

    async def fetch_all(into: List[float]) -> None:
        nonlocal crossings
        for die in analyst_order:
            calls = service.counters.n_backend_calls
            started = time.perf_counter()
            fvm = await service.fvm_for(*die)
            into.append(1000.0 * (time.perf_counter() - started))
            crossings += service.counters.n_backend_calls - calls
            totals = [(float(v), int(row.sum())) for v, row in zip(fvm.voltages_v, fvm.counts_matrix())]
            outcome.report(checks.fvm_monotone(f"{die}", totals))
            outcome.attempted += 1

    try:
        asyncio.run(fetch_all(cold_ms))
        evaluations = service.counters.n_backend_evaluations
        cold_crossings = crossings
        asyncio.run(fetch_all(warm_ms))
        outcome.check(service.counters.n_backend_evaluations == evaluations,
                      "warm in-process FVM fetches reached the backend")
    finally:
        service.close()
    del service
    gc.collect()

    _ready, traffic = workloads.serve_round(spec, root, work, cycle, analyst_plan, outcome)
    workloads.check_round(traffic, cycle, len(dies), store, outcome)
    endpoints = json.loads(traffic.final_stats)["service"]["endpoints"]
    lookups = [endpoints[name] for name in ("/v1/guardband", "/v1/safe-vmin")]
    server_p50 = (sum(e["p50_ms"] * e["n_requests"] for e in lookups)
                  / sum(e["n_requests"] for e in lookups))
    client_p50 = 1000.0 * percentile(traffic.lookup_latencies_s, 50)
    return {
        "runtime.bundle_load_s": (median(load_s), "s"),
        "service.fvm_cold_ms": (median(cold_ms), "ms"),
        "service.fvm_warm_ms": (median(warm_ms), "ms"),
        "service.backend_evals_per_map": (evaluations / len(dies), "count"),
        "exec.backend_crossings_per_map": (cold_crossings / len(dies), "count"),
        "service.lookup_server_p50_ms": (server_p50, "ms"),
        "service.http_overhead_ms": (client_p50 - server_p50, "ms"),
        "obs.metrics_scrape_ms": (1000.0 * median(traffic.scrape_latencies_s), "ms"),
    }


# ----------------------------------------------------------------------
# simulate pass
# ----------------------------------------------------------------------
def simulate_pass(seed: int, work: Path, outcome: Outcome) -> Metrics:
    from dataclasses import replace

    import numpy as np
    from repro.analysis.runtime import summarize_telemetry
    from repro.campaign import open_store
    from repro.nn import SCALED_TOPOLOGY, QuantizedNetwork, TrainingConfig, synthetic_mnist, train_network
    from repro.runtime import FleetSimulator, GovernorBundle, build_trace
    from repro.runtime import simulator as simulator_module
    from repro.runtime.fleetscale import (
        SyntheticFleet,
        SyntheticFleetSpec,
        guardband_floor_energy_j,
        nominal_energy_j,
        simulate_policies,
    )
    from repro.runtime.governor import POLICY_NAMES

    metrics: Metrics = {}
    trace = build_trace("sparse-diurnal", n_steps=720, seed=inputs.trace_seed(seed))
    trace = replace(trace, requests=np.rint(trace.requests * (inputs.SCALE_DIES / 16.0)).astype(np.int64))
    started = time.perf_counter()
    fleet = SyntheticFleet.draw(SyntheticFleetSpec(
        n_dies=inputs.SCALE_DIES, platform="VC707", seed=inputs.fleet_seed(seed)))
    metrics["runtime.fleet_draw_s"] = (time.perf_counter() - started, "s")
    policies = {}
    for policy in POLICY_NAMES:
        started = time.perf_counter()
        result = simulate_policies(fleet, trace, [policy], capacity_rps=150.0, core="event",
                                   scheduler="serial", jobs=1)[policy]
        metrics[f"runtime.scale_s.{policy}"] = (time.perf_counter() - started, "s")
        policies[policy] = result.totals()
        outcome.attempted += 1
    scale_doc = {"baselines": {"nominal_energy_j": nominal_energy_j(fleet, trace),
                               "guardband_floor_energy_j": guardband_floor_energy_j(fleet, trace)},
                 "policies": policies}
    outcome.report(checks.policy_energies("in-process scale", scale_doc))
    del fleet, result
    gc.collect()

    started = time.perf_counter()
    dataset = synthetic_mnist(n_train=500, n_test=200)
    trained = train_network(dataset, topology=SCALED_TOPOLOGY, config=TrainingConfig(seed=3))
    network = QuantizedNetwork.from_network(trained.network)
    metrics["nn.train_s"] = (time.perf_counter() - started, "s")

    spec = inputs.simulate_spec(seed)
    root = work / "simulate-fleet"
    _elapsed, doc = run_cli_json(inputs.campaign_run_args(inputs.write_spec(work, spec), root))
    outcome.attempted += doc["n_executed"]
    bundle = GovernorBundle.from_campaign(open_store(spec["name"], root))
    recorder = Recorder()
    patches = Patches()
    patches.replace(simulator_module, "compile_accelerator",
                    _timed(recorder, "compile", simulator_module.compile_accelerator, sample=True))
    try:
        simulator = FleetSimulator(bundle, network, build_trace("diurnal", n_steps=400,
                                                                seed=inputs.trace_seed(seed)))
    finally:
        patches.restore()
    started = time.perf_counter()
    logs = simulator.run_policies(list(POLICY_NAMES))
    metrics["runtime.event_sim_s"] = (time.perf_counter() - started, "s")
    metrics["runtime.compile_ms_per_die"] = (1000.0 * median(recorder.samples["compile"]), "ms")
    outcome.attempted += len(logs)
    faulty = summarize_telemetry(logs["predictive"]).faulty_inferences
    outcome.check(faulty == 0, f"in-process predictive served {faulty} faulty inferences")
    return metrics


def run_traced(seed: int, work: Path) -> Tuple[Outcome, Metrics]:
    """Every per-layer metric from one traced pass over all three input sets."""
    import_program()
    outcome = Outcome()
    metrics: Metrics = {}
    metrics.update(import_pass(outcome))
    metrics.update(characterize_pass(seed, work, outcome))
    metrics.update(die_pass(seed, outcome))
    metrics.update(serve_pass(seed, work, outcome))
    metrics.update(simulate_pass(seed, work, outcome))
    return outcome, metrics

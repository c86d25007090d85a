"""Workload inputs, all derived from the benchmark's ``--seed``.

The program receives only what these functions generate: campaign spec
files, CLI arguments and the request mix.  The same seed always gives the
same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import import_program

#: The four Table I platforms.
PLATFORMS = ("VC707", "ZC702", "KC705-A", "KC705-B")

#: Fig. 1 of the paper: (Vmin, Vcrash) per rail of each studied board, in
#: volts.  The stock board of each platform must land exactly here.
FIG1_ANCHORS: Dict[str, Dict[str, Tuple[float, float]]] = {
    "VC707": {"VCCBRAM": (0.61, 0.54), "VCCINT": (0.65, 0.58)},
    "ZC702": {"VCCBRAM": (0.61, 0.53), "VCCINT": (0.67, 0.60)},
    "KC705-A": {"VCCBRAM": (0.60, 0.53), "VCCINT": (0.66, 0.59)},
    "KC705-B": {"VCCBRAM": (0.62, 0.55), "VCCINT": (0.66, 0.59)},
}

#: Chamber temperatures of the characterize campaign (Fig. 8 range).
CHAMBER_TEMPERATURES_C = (50.0, 80.0)
#: Temperature the served and compiled fleets are characterized at.
REFERENCE_TEMPERATURE_C = 50.0

#: Dies per platform in each fleet (the stock board is one of them).
CHARACTERIZE_DIES_PER_PLATFORM = 6
SERVE_DIES_PER_PLATFORM = 2
SIMULATE_DIES_PER_PLATFORM = 4

#: Probe runs per guardband step (the fleet16 preset's value).
RUNS_PER_STEP = 5
#: Campaign worker count, pinned so the warm-start plan (and the probe
#: count) does not depend on the host's core count.
CAMPAIGN_JOBS = "2"

#: ``runtime scale`` population and the shares the synthetic draw specifies.
SCALE_DIES = 50_000
DRIFTED_SHARE = 0.015
#: Dies whose worst observable cell sits below the true crash boundary:
#: the crash-first subpopulation (6 %) plus the drifted one (1.5 %).
CRASH_FIRST_SHARE = 0.075

#: The ``runtime run`` trace (its CLI defaults, passed explicitly): the
#: simulate workload serves it, and the serve workload's governor replays
#: the board temperatures it visits.
GOVERNOR_TRACE = "diurnal"
GOVERNOR_STEPS = 400
#: ``/metrics`` scrape interval in trace steps: 15 s of trace time at the
#: trace's 1 s step, the interval of Prometheus's example configuration.
METRICS_SCRAPE_STEPS = 15
ENGINE_WORKERS = "2"


def serial_base(seed: int, workload: str) -> str:
    return f"PB{seed}{workload[:2].upper()}"


def fleet_spec(name: str, seed: int, workload: str, dies_per_platform: int,
               temperatures: Tuple[float, ...]) -> Dict[str, Any]:
    """A guardband campaign over every platform; the stock board anchors each group."""
    return {
        "name": name,
        "chips": [
            {
                "platform": platform,
                "n_chips": dies_per_platform,
                "serial_base": serial_base(seed, workload),
                "include_stock": True,
            }
            for platform in PLATFORMS
        ],
        "sweep": "guardband",
        "temperatures_c": list(temperatures),
        "patterns": ["FFFF"],
        "runs_per_step": RUNS_PER_STEP,
    }


def write_spec(directory: Path, spec: Dict[str, Any]) -> Path:
    path = directory / f"{spec['name']}.json"
    path.write_text(json.dumps(spec, indent=1) + "\n")
    return path


def characterize_spec(seed: int) -> Dict[str, Any]:
    return fleet_spec("pb-characterize", seed, "characterize",
                      CHARACTERIZE_DIES_PER_PLATFORM, CHAMBER_TEMPERATURES_C)


def serve_spec(seed: int) -> Dict[str, Any]:
    return fleet_spec("pb-serve", seed, "serve", SERVE_DIES_PER_PLATFORM,
                      (REFERENCE_TEMPERATURE_C,))


def simulate_spec(seed: int) -> Dict[str, Any]:
    return fleet_spec("pb-simulate", seed, "simulate", SIMULATE_DIES_PER_PLATFORM,
                      (REFERENCE_TEMPERATURE_C,))


def campaign_run_args(spec_path: Path, root: Path) -> List[str]:
    return ["campaign", "run", "--spec", str(spec_path), "--root", str(root),
            "--jobs", CAMPAIGN_JOBS]


def sampled_dies(seed: int, spec: Dict[str, Any], count: int) -> List[Tuple[str, str]]:
    """Non-stock dies the characterize check re-walks linearly."""
    from_platform = random.Random(seed * 7919 + 1)
    dies = []
    for group in from_platform.sample(spec["chips"], count):
        index = from_platform.randrange(1, group["n_chips"])
        dies.append((group["platform"], f"{group['serial_base']}-{group['platform']}-{index:04d}"))
    return dies


def fleet_seed(seed: int) -> int:
    """The synthetic population's ``--fleet-seed``."""
    return 1000 + seed


def trace_seed(seed: int) -> int:
    """The workload trace's ``--seed`` (``runtime scale`` and ``runtime run``)."""
    return 1 + seed % 997


def scale_args(seed: int) -> List[str]:
    return ["runtime", "scale", "--dies", str(SCALE_DIES), "--fleet-seed", str(fleet_seed(seed)),
            "--seed", str(trace_seed(seed)), "--policy", "all"]


def governor_run_args(name: str, root: Path, seed: int) -> List[str]:
    return ["runtime", "run", "--campaign", name, "--root", str(root), "--policy", "all",
            "--trace", GOVERNOR_TRACE, "--steps", str(GOVERNOR_STEPS), "--seed", str(trace_seed(seed))]


def governor_temperatures(seed: int) -> List[float]:
    """Board temperature at each control step of the ``runtime run`` trace."""
    import_program()
    from repro.runtime import build_trace, chamber_temperature_path

    trace = build_trace(GOVERNOR_TRACE, n_steps=GOVERNOR_STEPS, seed=trace_seed(seed))
    return [float(t) for t in chamber_temperature_path(trace)]


def request_mix(seed: int, dies: List[Tuple[str, str]]) -> Tuple[List[str], List[Tuple[str, str]]]:
    """The governor's lookup cycle and the analyst's die order.

    The cycle is one governor run of :func:`governor_run_args`' trace over
    the served dies: one ``/v1/guardband`` per die when it starts, then per
    control step one ``/v1/safe-vmin`` per die at that step's board
    temperature, with a ``/metrics`` scrape every
    :data:`METRICS_SCRAPE_STEPS` steps.  Dies are visited in a seeded order.
    The analyst fetches maps in its own seeded order and compares
    consecutive same-platform dies.
    """
    rng = random.Random(seed * 104729 + 3)
    governor_order = list(dies)
    rng.shuffle(governor_order)
    cycle = [f"/v1/guardband?platform={p}&serial={s}" for p, s in governor_order]
    for step, temperature in enumerate(governor_temperatures(seed)):
        cycle.extend(f"/v1/safe-vmin?platform={p}&serial={s}&temperature_c={temperature!r}"
                     for p, s in governor_order)
        if step % METRICS_SCRAPE_STEPS == METRICS_SCRAPE_STEPS - 1:
            cycle.append("/metrics")
    analyst_order = list(dies)
    rng.shuffle(analyst_order)
    return cycle, analyst_order


def similarity_pairs(analyst_order: List[Tuple[str, str]]) -> List[Tuple[str, str, str]]:
    last: Dict[str, str] = {}
    pairs = []
    for platform, serial in analyst_order:
        if platform in last:
            pairs.append((platform, last[platform], serial))
        last[platform] = serial
    return pairs

"""Population-scale governor simulation over synthetic die fleets.

The identity-grade event core (:mod:`repro.runtime.event_core`) simulates
*real* dies — compiled placements, per-bitcell thresholds, per-step supply
ripple — which is exactly right for a 16-chip fleet and exactly wrong for
the ROADMAP's 1M-device question: place-and-route per die alone makes the
population unreachable.  This module runs the same closed-loop governor
comparison on a **synthetic fleet**: per-die ``Vmin``/``Vcrash``/threshold
facts drawn from the platform calibration (the same population shape the
campaign stores measure), held as struct-of-arrays, and driven through a
discrete-event engine whose work scales with *events* (heat-chamber
transient crossings, crash/reboot cycles, reactive control activity) while
every per-die quantity inside a window is one vectorized expression.

Population model (the fidelity line, deliberately above the bitcell level):

* one fault threshold per die (``max_threshold_v``, the die's worst
  weight-observable cell): a die serves faulty inferences at step ``s``
  iff ``setpoint + itd_shift(T_s) < max_threshold_v``;
* supply ripple enters through the characterization's six-sigma margin
  (the per-step ripple draw is below the fidelity line at 100k+ dies);
* load balancing is mean-field: each step serves
  ``min(requests, operational x capacity)`` fleet-wide and attributes the
  faulty share ``served x fault_active // operational`` — the per-die
  remainder microstructure the identity core tracks exactly;
* rail power is the platform power model evaluated on the millivolt
  setpoint grid (one table lookup per segment);
* a die commanded below its **true** crash voltage reboot-thrashes —
  ``R+1``-step crash cycles at nominal — until the next evaluation whose
  target clears it.

Both engines in this module — the event core and the per-die-per-step
``stepped`` reference loop — implement this model *bit-identically* (same
float expressions in the same order, same integer formulas), so the
stepped loop is the oracle for the event engine's correctness and the
honest baseline for its throughput, at any fleet size.  Sharding splits
the die axis over :class:`repro.exec.WorkScheduler`; per-die arrays are
merged by die range and reduced once, so summaries and digests are
independent of worker count and completion order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.core.calibration import get_calibration
from repro.core.power import bram_power_model
from repro.core.temperature import REFERENCE_TEMPERATURE_C

from .event_core import chamber_temperature_path, transient_steps
from .governor import (
    POLICY_NAMES,
    GovernorError,
    PredictiveItdPolicy,
    ReactiveBackoffPolicy,
    RESOLUTION_V,
    StaticUndervoltPolicy,
)
from .simulator import SimulationError, validate_core
from .workload import WorkloadTrace

#: Nominal rail voltage of every studied platform (fleet-wide at scale).
NOMINAL_V = 1.0

#: Millivolt-grid size of the power lookup table (rail limits 0.40-1.10 V).
_GRID_MIN_MV = 400
_GRID_MAX_MV = 1100


class FleetScaleError(SimulationError):
    """Raised for inconsistent population-scale simulation requests."""


# ----------------------------------------------------------------------
# Synthetic fleets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyntheticFleetSpec:
    """Parameters of a calibrated synthetic die population."""

    n_dies: int
    platform: str = "ZC702"
    seed: int = 2026
    #: Fleet-wide BRAM utilization the power model sees.
    utilization: float = 0.35

    def __post_init__(self) -> None:
        if self.n_dies < 1:
            raise FleetScaleError("n_dies must be at least 1")
        if not 0.0 <= self.utilization <= 1.0:
            raise FleetScaleError("utilization must be in [0, 1]")


@dataclass
class SyntheticFleet:
    """A die population as struct-of-arrays (shape ``(n_dies,)`` each).

    ``vmin_v``/``vcrash_v`` are the *characterized* facts a governor bundle
    would carry (what the policies see); ``true_vcrash_v`` is the silicon's
    actual crash boundary (what the environment enforces) and
    ``max_threshold_v`` the worst weight-observable cell threshold — drawn
    from the platform calibration with the same population spread the
    campaign stores measure (vmin on the 10 mV characterization grid, a
    50-70 mV crash gap, thresholds just below vmin).
    """

    spec: SyntheticFleetSpec
    vmin_v: np.ndarray
    vcrash_v: np.ndarray
    true_vcrash_v: np.ndarray
    max_threshold_v: np.ndarray
    itd_v_per_degc: float
    ripple_margin_v: float
    reference_c: float = REFERENCE_TEMPERATURE_C

    @property
    def n_dies(self) -> int:
        return int(self.vmin_v.size)

    @classmethod
    def draw(cls, spec: SyntheticFleetSpec) -> "SyntheticFleet":
        """Draw a deterministic population from the platform calibration."""
        calibration = get_calibration(spec.platform)
        rng = np.random.default_rng(spec.seed)
        n = spec.n_dies
        vmin = np.round(0.59 + 0.04 * rng.random(n), 2)
        vcrash = np.round(vmin - 0.05 - 0.02 * rng.random(n), 3)
        true_vcrash = np.round(vcrash + 0.030 * rng.random(n), 6)
        max_threshold = vmin - 0.001 - 0.008 * rng.random(n)
        # Two small honest subpopulations keep the crash machinery live at
        # scale.  "Crash-first" dies (~6%) hide their worst observable cell
        # below the true crash boundary, so a probing controller reboots
        # instead of faulting; "drifted" dies (~1.5%) have aged until the
        # true crash boundary sits above the *characterized* Vmin, so every
        # undervolting policy reboot-thrashes on them (predictive only in
        # hot windows, where the ITD compensation dips below the drift).
        kind = rng.random(n)
        drifted = kind < 0.015
        crash_first = (kind >= 0.015) & (kind < 0.075)
        true_vcrash = np.where(
            drifted, np.round(vmin + 0.002 + 0.008 * rng.random(n), 6), true_vcrash
        )
        max_threshold = np.where(
            crash_first | drifted,
            true_vcrash - 0.004 - 0.006 * rng.random(n),
            max_threshold,
        )
        return cls(
            spec=spec,
            vmin_v=vmin,
            vcrash_v=vcrash,
            true_vcrash_v=true_vcrash,
            max_threshold_v=max_threshold,
            itd_v_per_degc=calibration.itd_v_per_degc,
            ripple_margin_v=6.0 * calibration.ripple_sigma_v,
        )

    def slice(self, start: int, stop: int) -> "SyntheticFleet":
        """The contiguous die range ``[start, stop)`` as its own fleet."""
        return SyntheticFleet(
            spec=self.spec,
            vmin_v=self.vmin_v[start:stop],
            vcrash_v=self.vcrash_v[start:stop],
            true_vcrash_v=self.true_vcrash_v[start:stop],
            max_threshold_v=self.max_threshold_v[start:stop],
            itd_v_per_degc=self.itd_v_per_degc,
            ripple_margin_v=self.ripple_margin_v,
            reference_c=self.reference_c,
        )


# ----------------------------------------------------------------------
# Vectorized policy arithmetic (same constants as repro.runtime.governor)
# ----------------------------------------------------------------------
def _ceil_level(volts: np.ndarray) -> np.ndarray:
    """Integer millivolt level a voltage quantizes *up* to."""
    return np.ceil(volts / RESOLUTION_V - 1e-9).astype(np.int64)


def _grid_volts(levels: np.ndarray) -> np.ndarray:
    """Setpoint voltages of integer millivolt levels (the quantizer's floats)."""
    return np.round(levels * RESOLUTION_V, 6)


def _ceil_to_resolution_vec(volts: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`repro.runtime.governor.ceil_to_resolution`."""
    return _grid_volts(_ceil_level(volts))


def _clamp_vec(fleet: SyntheticFleet, volts: np.ndarray) -> np.ndarray:
    """Vectorized twin of :meth:`GovernorPolicy.clamp`."""
    floor = fleet.vcrash_v + 0.020
    return np.minimum(NOMINAL_V, np.maximum(floor, volts))


def _static_targets(
    fleet: SyntheticFleet, policy: str, temperature_c: float
) -> np.ndarray:
    """Per-die targets of the three stateless policies at one temperature."""
    if policy == "static-nominal":
        return np.full(fleet.n_dies, NOMINAL_V)
    if policy == "static-undervolt":
        margin = StaticUndervoltPolicy().margin_v
        return _clamp_vec(fleet, _ceil_to_resolution_vec(fleet.vmin_v + margin))
    if policy == "predictive":
        extra = PredictiveItdPolicy().extra_margin_v
        floor = fleet.vmin_v - fleet.itd_v_per_degc * (
            temperature_c - fleet.reference_c
        )
        return _clamp_vec(
            fleet, _ceil_to_resolution_vec(floor + fleet.ripple_margin_v + extra)
        )
    raise GovernorError(f"policy {policy!r} has no stateless target form")


def _power_table(fleet: SyntheticFleet) -> np.ndarray:
    """Rail power on the millivolt setpoint grid (index = mV - grid min)."""
    model = bram_power_model(get_calibration(fleet.spec.platform))
    grid = np.arange(_GRID_MIN_MV, _GRID_MAX_MV + 1) / 1000.0
    return model.power_array(grid, utilization=fleet.spec.utilization)


def _power_index(volts: np.ndarray) -> np.ndarray:
    """Millivolt table index of setpoint voltages (grid-snapped)."""
    return (
        np.round(np.asarray(volts) * 1000.0).astype(np.int64) - _GRID_MIN_MV
    )


@dataclass(frozen=True)
class _ReactiveSteps:
    """The reactive controller's constants, shared by both engines.

    ``backoff_v``/``probe_v`` are the policy's float steps (what the stepped
    loop adds to its float target); ``backoff_mv``/``probe_mv`` are the same
    steps on the regulator's millivolt grid (what the event engine adds to
    its integer level).  The two agree only because both steps are whole
    multiples of :data:`RESOLUTION_V`, so :func:`_reactive_steps` refuses any
    policy where they are not.
    """

    backoff_v: float
    probe_v: float
    hold_steps: int
    backoff_mv: int
    probe_mv: int


def _reactive_steps(policy: ReactiveBackoffPolicy) -> _ReactiveSteps:
    """Derive the shared controller constants from a reactive policy."""
    steps = {}
    for name in ("backoff_v", "probe_v"):
        volts = getattr(policy, name)
        ratio = volts / RESOLUTION_V
        if abs(ratio - round(ratio)) > 1e-10:
            raise FleetScaleError(
                f"reactive {name}={volts!r} is not a whole multiple of the "
                f"{RESOLUTION_V} V regulator resolution"
            )
        steps[name] = int(round(ratio))
    return _ReactiveSteps(
        backoff_v=policy.backoff_v,
        probe_v=policy.probe_v,
        hold_steps=int(policy.hold_steps),
        backoff_mv=steps["backoff_v"],
        probe_mv=steps["probe_v"],
    )


#: The population engines simulate the default reactive controller.
_REACTIVE = _reactive_steps(ReactiveBackoffPolicy())


@dataclass
class ShardTimeline:
    """Phase-1 output for one contiguous die range under one policy."""

    die_start: int
    die_stop: int
    #: Per-die totals over the whole trace.
    energy_j: np.ndarray
    crashed_steps: np.ndarray
    fault_steps: np.ndarray
    actuations: np.ndarray
    #: Per-step counts over this shard's dies.
    operational: np.ndarray
    fault_active: np.ndarray


def _simulate_scale_shard(
    fleet: SyntheticFleet,
    die_start: int,
    trace: WorkloadTrace,
    policy: str,
    crash_recovery_steps: int,
    core: str,
    temps: np.ndarray,
    windows: np.ndarray,
) -> ShardTimeline:
    """Run one die range through the population model (either core)."""
    if core == "event":
        if policy == "reactive":
            return _reactive_shard(
                fleet, die_start, trace, crash_recovery_steps, temps
            )
        return _static_event_shard(
            fleet, die_start, trace, policy, crash_recovery_steps, temps, windows
        )
    return _stepped_shard(
        fleet, die_start, trace, policy, crash_recovery_steps, temps, windows
    )


def _static_event_shard(
    fleet: SyntheticFleet,
    die_start: int,
    trace: WorkloadTrace,
    policy: str,
    recovery_steps: int,
    temps: np.ndarray,
    windows: np.ndarray,
) -> ShardTimeline:
    """Event engine for the stateless policies: one pass per T-window.

    Every per-die quantity inside a window is a closed form; the per-step
    operational/fault-active counts come from difference arrays, so the
    work per window is O(n_dies) regardless of window length.
    """
    n = fleet.n_dies
    n_steps = trace.n_steps
    cycle = recovery_steps + 1
    table = _power_table(fleet)
    dt = trace.step_seconds

    energy = np.zeros(n)
    crashed_steps = np.zeros(n, dtype=np.int64)
    fault_steps = np.zeros(n, dtype=np.int64)
    actuations = np.zeros(n, dtype=np.int64)
    op_diff = np.zeros(n_steps + 1, dtype=np.int64)
    fault_diff = np.zeros(n_steps + 1, dtype=np.int64)

    setpoint = np.full(n, NOMINAL_V)
    recover_at = np.zeros(n, dtype=np.int64)
    p_nominal = float(table[_power_index(np.array([NOMINAL_V]))[0]])

    for start, stop in zip(windows[:-1], windows[1:]):
        start, stop = int(start), int(stop)
        target = _static_targets(fleet, policy, float(temps[start]))
        avail = np.maximum(recover_at, start)
        waiting = np.minimum(avail, stop) - start  # recovery steps in window
        thrash = (avail < stop) & (target < fleet.true_vcrash_v - 1e-9)
        up = (avail < stop) & ~thrash

        # Dies still rebooting at the window start, then thrashing/up.
        crashed_in_window = waiting + np.where(
            thrash, stop - np.minimum(avail, stop), 0
        )
        crashed_steps += crashed_in_window

        # Reboot thrash: one evaluation (and one actuation, nominal ->
        # target) per R+1-step crash cycle from the die's first live step.
        n_evals = np.where(
            thrash, -(-(stop - np.minimum(avail, stop)) // cycle), 0
        )
        actuations += n_evals
        last_eval = np.minimum(avail, stop) + np.maximum(n_evals - 1, 0) * cycle
        recover_at = np.where(thrash, last_eval + cycle, recover_at)
        setpoint = np.where(thrash, NOMINAL_V, setpoint)

        # Up dies: actuate once if the target moved, then hold the window.
        actuations += (up & (np.abs(target - setpoint) > 1e-9)).astype(np.int64)
        setpoint = np.where(up, target, setpoint)

        # Fault activity is constant inside a T-window (one threshold
        # comparison per die, the scale twin of the searchsorted window).
        shift = fleet.itd_v_per_degc * (float(temps[start]) - fleet.reference_c)
        faulting = up & (setpoint + shift < fleet.max_threshold_v)
        up_steps = np.where(up, stop - np.maximum(avail, start), 0)
        fault_steps += np.where(faulting, up_steps, 0)

        # Per-step shard counts via difference arrays.
        up_from = np.maximum(avail, start)[up]
        np.add.at(op_diff, up_from, 1)
        op_diff[stop] -= up_from.size
        fault_from = np.maximum(avail, start)[faulting]
        np.add.at(fault_diff, fault_from, 1)
        fault_diff[stop] -= fault_from.size

        # Energy: a nominal-voltage segment (recovery + thrash) and a
        # held-setpoint segment per die, accumulated in time order.
        nominal_steps = crashed_in_window
        energy += nominal_steps * p_nominal * dt
        energy += up_steps * table[_power_index(setpoint)] * dt

    return ShardTimeline(
        die_start=die_start,
        die_stop=die_start + n,
        energy_j=energy,
        crashed_steps=crashed_steps,
        fault_steps=fault_steps,
        actuations=actuations,
        operational=np.cumsum(op_diff[:-1]),
        fault_active=np.cumsum(fault_diff[:-1]),
    )


def _reactive_shard(
    fleet: SyntheticFleet,
    die_start: int,
    trace: WorkloadTrace,
    recovery_steps: int,
    temps: np.ndarray,
) -> ShardTimeline:
    """Event engine for the reactive policy: each die wakes at its next event.

    Every float target the per-step controller carries is
    ``min(1, max(floor, round(k * 1 mV)))`` for an integer ``k``, and the
    clamp floor ``vcrash + 0.020`` may sit off the millivolt grid.  So the
    engine keeps each die's target as an integer *level*: ``k`` for a grid
    point, and ``kF - 1`` for the floor itself, where ``kF`` is the first
    grid point above the floor.  Grid levels move by whole-millivolt steps.
    The floor level moves to successors computed once per die from the
    floor's float.  A die's state can change only at:

    * its recovery step (the controller restarts from ``Vmin``);
    * the step after a fault (back off);
    * its creep step (the clean counter reaches the hold);
    * a temperature-window edge (the fault test's ITD shift moves);
    * the step after it lands on an off-grid floor (the next clean step
      rounds the floor up to ``kF``).

    Each step therefore touches only the dies that have an event, and a
    window edge runs one fault comparison over the live dies.  On every
    other step a die just counts clean steps.  Energy keeps one per-die
    power term, changed only at events and added whole once per step: the
    per-step loop's float summation order.  The actuation, crash and fault
    tests compare the same floats as :func:`_stepped_shard`, so the two
    engines agree bit for bit.
    """
    hold = _REACTIVE.hold_steps
    n = fleet.n_dies
    n_steps = trace.n_steps
    table = _power_table(fleet)
    dt = trace.step_seconds
    shift_path = fleet.itd_v_per_degc * (temps - fleet.reference_c)
    threshold = fleet.max_threshold_v
    crash_below = fleet.true_vcrash_v - 1e-9
    top_level = int(round(NOMINAL_V / RESOLUTION_V))

    # The clamp floor on the level axis: a level at or below floor_level
    # means "target = floor_v".  Above NOMINAL_V the clamp pins every
    # target to nominal, which the same arithmetic yields from a floor of
    # exactly NOMINAL_V.
    floor_v = np.minimum(NOMINAL_V, fleet.vcrash_v + 0.020)
    floor_level = np.floor(floor_v / RESOLUTION_V).astype(np.int64) - 3
    for _ in range(4):
        floor_level += _grid_volts(floor_level + 1) <= floor_v

    def successors(volts: np.ndarray) -> np.ndarray:
        # Unclamped next level from an off-grid float target, per update
        # kind: 0 clean, 1 back off, 2 creep.
        return np.stack(
            [
                _ceil_level(volts),
                _ceil_level(volts + _REACTIVE.backoff_v),
                _ceil_level(volts - _REACTIVE.probe_v),
            ]
        )

    from_floor = successors(floor_v)
    from_vmin = successors(fleet.vmin_v)  # a restarted controller
    settles = from_floor[0] > floor_level
    grid_delta = np.array(
        [0, _REACTIVE.backoff_mv, -_REACTIVE.probe_mv], dtype=np.int64
    )

    energy = np.zeros(n)
    crashed_steps = np.zeros(n, dtype=np.int64)
    fault_steps = np.zeros(n, dtype=np.int64)
    actuations = np.zeros(n, dtype=np.int64)
    op_diff = np.zeros(n_steps + 1, dtype=np.int64)
    fault_active_counts = np.zeros(n_steps, dtype=np.int64)

    level = np.full(n, top_level, dtype=np.int64)
    # The clean counter as the step it last read zero: step - clean_from.
    clean_from = np.zeros(n, dtype=np.int64)
    setpoint = np.full(n, NOMINAL_V)
    recover_at = np.zeros(n, dtype=np.int64)
    faults_prev = np.zeros(n, dtype=bool)
    next_wake = np.zeros(n, dtype=np.int64)
    term = table[_power_index(setpoint)] * dt
    edge = np.zeros(n_steps, dtype=bool)
    edge[1:] = shift_path[1:] != shift_path[:-1]

    soonest = 0
    for step in range(n_steps):
        if step < soonest and not edge[step]:
            energy += term
            continue
        shift = shift_path[step]
        wake = next_wake == step
        if edge[step]:
            # Only the fault test can change for a live die without an
            # event of its own; a new fault wakes it next step to back off.
            hit = np.flatnonzero(
                ~wake & (recover_at <= step) & (setpoint + shift < threshold)
            )
            fault_steps[hit] += 1
            fault_active_counts[step] += hit.size
            faults_prev[hit] = True
            next_wake[hit] = step + 1
        idx = np.flatnonzero(wake)
        if idx.size:
            # Controller update: restart, back off, creep or count.
            fresh = recover_at[idx] == step
            backing = faults_prev[idx] & ~fresh
            held = np.where(backing, 0, step - clean_from[idx])
            held[fresh] = 1
            creeping = ~backing & (held >= hold)
            held[creeping] = 0
            kind = backing + 2 * creeping
            floor_at = floor_level[idx]
            old = level[idx]
            raw = np.where(
                old <= floor_at, from_floor[kind, idx], old + grid_delta[kind]
            )
            raw[fresh] = from_vmin[kind[fresh], idx[fresh]]
            new = np.minimum(top_level, np.maximum(floor_at, raw))
            on_floor = new == floor_at
            target = np.where(on_floor, floor_v[idx], _grid_volts(new))

            # Actuate, then the crash and fault tests on the held setpoint.
            volts = setpoint[idx]
            moved = np.abs(target - volts) > 1e-9
            actuations[idx] += moved
            volts = np.where(moved, target, volts)
            crash = volts < crash_below[idx]
            faulting = ~crash & (volts + shift < threshold[idx])
            volts[crash] = NOMINAL_V

            wake_at = np.where(
                faulting | (on_floor & settles[idx]), step + 1,
                step + hold - held,
            )
            down = idx[crash]
            if down.size:
                back_up = step + recovery_steps + 1
                recover_at[down] = back_up
                crashed_steps[down] += min(recovery_steps + 1, n_steps - step)
                op_diff[step] -= down.size
                op_diff[min(back_up, n_steps)] += down.size
                wake_at[crash] = back_up
            fault_steps[idx] += faulting
            fault_active_counts[step] += int(np.count_nonzero(faulting))

            faults_prev[idx] = faulting
            next_wake[idx] = wake_at
            level[idx] = new
            clean_from[idx] = step - held
            setpoint[idx] = volts
            term[idx] = table[_power_index(volts)] * dt
        soonest = int(next_wake.min())
        energy += term

    return ShardTimeline(
        die_start=die_start,
        die_stop=die_start + n,
        energy_j=energy,
        crashed_steps=crashed_steps,
        fault_steps=fault_steps,
        actuations=actuations,
        operational=n + np.cumsum(op_diff[:-1]),
        fault_active=fault_active_counts,
    )


def _stepped_shard(
    fleet: SyntheticFleet,
    die_start: int,
    trace: WorkloadTrace,
    policy: str,
    recovery_steps: int,
    temps: np.ndarray,
    windows: np.ndarray,
) -> ShardTimeline:
    """The per-die-per-step reference loop (the oracle and the baseline).

    Plain Python over every ``(die, step)`` pair — the same cost shape as
    the pre-event-core simulator — implementing the identical population
    model: evaluations at T-window boundaries (every step for reactive),
    ``R+1``-step crash cycles, segment-accumulated energy.  Bit-identical
    to the event engine by construction; slower by the activity ratio.
    """
    backoff, probe, hold = (
        _REACTIVE.backoff_v, _REACTIVE.probe_v, _REACTIVE.hold_steps
    )
    n = fleet.n_dies
    n_steps = trace.n_steps
    table = _power_table(fleet)
    dt = trace.step_seconds
    boundary = np.zeros(n_steps, dtype=bool)
    boundary[windows[:-1]] = True
    reactive = policy == "reactive"
    idx_nominal = int(_power_index(np.array([NOMINAL_V]))[0])
    p_nominal = float(table[idx_nominal])

    energy = np.zeros(n)
    crashed_steps = np.zeros(n, dtype=np.int64)
    fault_steps = np.zeros(n, dtype=np.int64)
    actuations = np.zeros(n, dtype=np.int64)
    operational = np.zeros(n_steps, dtype=np.int64)
    fault_active_counts = np.zeros(n_steps, dtype=np.int64)

    floor_margin = 0.020
    for die in range(n):
        vmin = float(fleet.vmin_v[die])
        floor = float(fleet.vcrash_v[die]) + floor_margin
        true_vcrash = float(fleet.true_vcrash_v[die])
        threshold = float(fleet.max_threshold_v[die])
        target = vmin
        clean = 0.0
        setpoint = NOMINAL_V
        recover_at = 0
        faults_prev = False
        seg_power = p_nominal
        seg_steps = 0
        die_energy = 0.0

        for step in range(n_steps):
            if recover_at > step:
                crashed_steps[die] += 1
                if reactive or seg_power != p_nominal or boundary[step]:
                    die_energy += seg_steps * seg_power * dt
                    seg_power, seg_steps = p_nominal, 0
                seg_steps += 1
                continue
            came_up = recover_at == step and step > 0
            evaluate = reactive or boundary[step] or recover_at == step
            if evaluate:
                if reactive:
                    if faults_prev:
                        target = target + backoff
                        clean = 0.0
                    else:
                        clean += 1.0
                        if clean >= hold:
                            target = target - probe
                            clean = 0.0
                    quantized = _ceil_to_resolution_vec(np.array([target]))[0]
                    target = min(NOMINAL_V, max(floor, float(quantized)))
                else:
                    scalar = _static_targets(
                        fleet.slice(die, die + 1), policy, float(temps[step])
                    )
                    target = float(scalar[0])
                if abs(target - setpoint) > 1e-9:
                    actuations[die] += 1
                    setpoint = target
                if setpoint < true_vcrash - 1e-9:
                    recover_at = step + recovery_steps + 1
                    setpoint = NOMINAL_V
                    target = vmin
                    clean = 0.0
                    faults_prev = False
                    crashed_steps[die] += 1
                    if reactive or seg_power != p_nominal or boundary[step]:
                        die_energy += seg_steps * seg_power * dt
                        seg_power, seg_steps = p_nominal, 0
                    seg_steps += 1
                    continue
            shift = fleet.itd_v_per_degc * (float(temps[step]) - fleet.reference_c)
            faulting = setpoint + shift < threshold
            faults_prev = faulting
            if faulting:
                fault_steps[die] += 1
                fault_active_counts[step] += 1
            operational[step] += 1
            power = float(table[int(round(setpoint * 1000.0)) - _GRID_MIN_MV])
            # Flush on every boundary the event engine treats as a segment
            # edge — per step for reactive, on T-windows, power moves and
            # crash->live transitions otherwise — so the per-die float sum
            # accumulates in exactly the event engine's term order.
            if reactive or power != seg_power or boundary[step] or came_up:
                die_energy += seg_steps * seg_power * dt
                seg_power, seg_steps = power, 0
            seg_steps += 1
        die_energy += seg_steps * seg_power * dt
        energy[die] = die_energy

    return ShardTimeline(
        die_start=die_start,
        die_stop=die_start + n,
        energy_j=energy,
        crashed_steps=crashed_steps,
        fault_steps=fault_steps,
        actuations=actuations,
        operational=operational,
        fault_active=fault_active_counts,
    )


# ----------------------------------------------------------------------
# Results, merging, digests
# ----------------------------------------------------------------------
@dataclass
class FleetScaleResult:
    """One policy's population-scale run: per-die arrays plus fleet totals."""

    policy: str
    fleet_spec: SyntheticFleetSpec
    trace: Dict[str, Any]
    capacity_per_step: int
    core: str
    energy_j: np.ndarray
    crashed_steps: np.ndarray
    fault_steps: np.ndarray
    actuations: np.ndarray
    operational: np.ndarray
    fault_active: np.ndarray
    served: np.ndarray = field(init=False)
    faulty: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        requests = np.asarray(self.trace_requests, dtype=np.int64)
        capacity = np.int64(self.capacity_per_step)
        self.served = np.minimum(requests, self.operational * capacity)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.faulty = np.where(
                self.operational > 0,
                self.served * self.fault_active // np.maximum(self.operational, 1),
                0,
            )

    #: Filled by :func:`simulate_fleet` (the trace's request axis).
    trace_requests: Sequence[int] = ()

    @property
    def n_dies(self) -> int:
        return int(self.energy_j.size)

    def totals(self) -> Dict[str, Any]:
        """Fleet-level aggregates (the population-scale energy/SLO story)."""
        requests = int(np.sum(np.asarray(self.trace_requests, dtype=np.int64)))
        served = int(self.served.sum())
        return {
            "n_dies": self.n_dies,
            "requests": requests,
            "served": served,
            "slo_violations": requests - served,
            "faulty_inferences": int(self.faulty.sum()),
            "crash_steps": int(self.crashed_steps.sum()),
            "fault_active_die_steps": int(self.fault_steps.sum()),
            "n_actuations": int(self.actuations.sum()),
            "energy_j": round(float(np.sum(self.energy_j)), 9),
        }

    def digest(self) -> str:
        """SHA-256 witness over totals and every per-die/per-step array.

        Arrays are rounded to 9 decimals (floats) and hashed from their
        canonical byte layout, so two runs agree on the digest iff they
        agree bit-for-bit after the telemetry-standard rounding —
        independent of how many shards produced them.
        """
        hasher = hashlib.sha256()
        hasher.update(
            json.dumps(self.totals(), sort_keys=True, separators=(",", ":")).encode()
        )
        for array in (
            np.round(self.energy_j, 9),
            self.crashed_steps,
            self.fault_steps,
            self.actuations,
            self.operational,
            self.fault_active,
            self.served,
            self.faulty,
        ):
            hasher.update(np.ascontiguousarray(array).tobytes())
        return hasher.hexdigest()

    def to_summary(self) -> Dict[str, Any]:
        """JSON summary document (what ``runtime scale --json`` emits)."""
        duration_s = float(self.trace.get("n_steps", 0)) * float(
            self.trace.get("step_seconds", 0.0)
        )
        return {
            "policy": self.policy,
            "core": self.core,
            "totals": self.totals(),
            "device_seconds": self.n_dies * duration_s,
            "digest": self.digest(),
        }


def merge_shards(
    shards: Sequence[ShardTimeline],
    policy: str,
    fleet: SyntheticFleet,
    trace: WorkloadTrace,
    capacity_per_step: int,
    core: str,
) -> FleetScaleResult:
    """Merge shard timelines in die order, independent of submission order.

    Per-die arrays concatenate by ``die_start`` (so one reduction over the
    merged axis is identical for 1 worker or N); per-step counts add
    exactly (integers).  The audit fix this encodes: nothing downstream of
    the merge may depend on the order workers completed.
    """
    ordered = sorted(shards, key=lambda shard: shard.die_start)
    expected = 0
    for shard in ordered:
        if shard.die_start != expected:
            raise FleetScaleError("shard timelines do not tile the die axis")
        expected = shard.die_stop
    if expected != fleet.n_dies:
        raise FleetScaleError("shard timelines do not cover the fleet")
    operational = np.zeros(trace.n_steps, dtype=np.int64)
    fault_active = np.zeros(trace.n_steps, dtype=np.int64)
    for shard in ordered:
        operational += shard.operational
        fault_active += shard.fault_active
    return FleetScaleResult(
        policy=policy,
        fleet_spec=fleet.spec,
        trace=trace.to_dict(),
        capacity_per_step=capacity_per_step,
        core=core,
        energy_j=np.concatenate([shard.energy_j for shard in ordered]),
        crashed_steps=np.concatenate([shard.crashed_steps for shard in ordered]),
        fault_steps=np.concatenate([shard.fault_steps for shard in ordered]),
        actuations=np.concatenate([shard.actuations for shard in ordered]),
        operational=operational,
        fault_active=fault_active,
        trace_requests=trace.requests,
    )


def simulate_fleet(
    fleet: SyntheticFleet,
    trace: WorkloadTrace,
    policy: str,
    capacity_rps: float = 150.0,
    crash_recovery_steps: int = 3,
    core: str = "event",
    scheduler: str = "serial",
    jobs: int = 1,
) -> FleetScaleResult:
    """Run one policy over a synthetic population (either core, sharded).

    The die axis shards over :class:`repro.exec.WorkScheduler`
    (``scheduler``/``jobs``); results merge by die range, so the digest is
    identical for any worker count.
    """
    from repro.exec import WorkScheduler, chunked

    if policy not in POLICY_NAMES:
        raise GovernorError(
            f"unknown policy {policy!r}; available: {', '.join(POLICY_NAMES)}"
        )
    core = validate_core(core)
    if capacity_rps <= 0:
        raise FleetScaleError("capacity_rps must be positive")
    if crash_recovery_steps < 1:
        raise FleetScaleError("crash_recovery_steps must be at least 1")
    capacity_per_step = int(round(capacity_rps * trace.step_seconds))

    temps = chamber_temperature_path(trace)
    changes = transient_steps(temps)
    windows = np.concatenate(
        ([0], changes, [trace.n_steps])
    ).astype(np.int64)
    windows = np.unique(windows)

    work = WorkScheduler(scheduler=scheduler, jobs=jobs)
    if work.is_serial:
        shards = [
            _simulate_scale_shard(
                fleet, 0, trace, policy, crash_recovery_steps, core, temps, windows
            )
        ]
    else:
        ranges = chunked(list(range(fleet.n_dies)), work.jobs)
        tasks = [
            (
                fleet.slice(r[0], r[-1] + 1),
                r[0],
                r[-1] + 1,
                trace,
                policy,
                crash_recovery_steps,
                core,
                temps,
                windows,
            )
            for r in ranges
            if r
        ]
        shards = work.map_tasks(_shard_entry, tasks)
    return merge_shards(shards, policy, fleet, trace, capacity_per_step, core)


def _shard_entry(
    fleet_slice: SyntheticFleet,
    die_start: int,
    die_stop: int,
    trace: WorkloadTrace,
    policy: str,
    crash_recovery_steps: int,
    core: str,
    temps: np.ndarray,
    windows: np.ndarray,
) -> ShardTimeline:
    """Process-pool entry point (module-level for picklability)."""
    return _simulate_scale_shard(
        fleet_slice, die_start, trace, policy, crash_recovery_steps, core,
        temps, windows,
    )


def simulate_policies(
    fleet: SyntheticFleet,
    trace: WorkloadTrace,
    policies: Optional[Sequence[str]] = None,
    capacity_rps: float = 150.0,
    crash_recovery_steps: int = 3,
    core: str = "event",
    scheduler: str = "serial",
    jobs: int = 1,
) -> Dict[str, FleetScaleResult]:
    """The population-scale governor comparison (all four policies)."""
    names = list(POLICY_NAMES) if policies is None else list(policies)
    return {
        name: simulate_fleet(
            fleet,
            trace,
            name,
            capacity_rps=capacity_rps,
            crash_recovery_steps=crash_recovery_steps,
            core=core,
            scheduler=scheduler,
            jobs=jobs,
        )
        for name in names
    }


def nominal_energy_j(fleet: SyntheticFleet, trace: WorkloadTrace) -> float:
    """Fleet energy if every rail parked at nominal (the guardband anchor)."""
    table = _power_table(fleet)
    power = table[_power_index(np.full(fleet.n_dies, NOMINAL_V))]
    return float(np.sum(power * trace.n_steps * trace.step_seconds))


def guardband_floor_energy_j(fleet: SyntheticFleet, trace: WorkloadTrace) -> float:
    """Fleet energy if every rail parked at its characterized Vmin."""
    table = _power_table(fleet)
    power = table[_power_index(fleet.vmin_v)]
    return float(np.sum(power * trace.n_steps * trace.step_seconds))


__all__ = [
    "FleetScaleError",
    "FleetScaleResult",
    "ShardTimeline",
    "SyntheticFleet",
    "SyntheticFleetSpec",
    "guardband_floor_energy_j",
    "merge_shards",
    "nominal_energy_j",
    "simulate_fleet",
    "simulate_policies",
]

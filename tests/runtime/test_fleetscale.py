"""Tests for the population-scale synthetic-fleet simulation engine.

The engine's contract mirrors the identity core one level up: the
vectorized event engine must be bit-identical to its per-die-per-step
reference loop for every policy (digests over per-die and per-step
arrays), sharding over worker processes must not change a digest, and the
calibrated population draw must be deterministic and contain the drifted
and crash-first subpopulations that keep the crash machinery honest.
"""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.runtime import fleetscale
from repro.runtime.event_core import chamber_temperature_path
from repro.runtime.fleetscale import (
    FleetScaleError,
    SyntheticFleet,
    SyntheticFleetSpec,
    guardband_floor_energy_j,
    merge_shards,
    nominal_energy_j,
    simulate_fleet,
    simulate_policies,
)
from repro.runtime.governor import (
    GovernorError,
    POLICY_NAMES,
    ReactiveBackoffPolicy,
)
from repro.runtime.workload import sparse_diurnal_trace


@pytest.fixture(scope="module")
def fleet():
    return SyntheticFleet.draw(SyntheticFleetSpec(n_dies=150, seed=11))


@pytest.fixture(scope="module")
def trace():
    return sparse_diurnal_trace(n_steps=180, epoch_steps=30, seed=5)


# ----------------------------------------------------------------------
# Population draw
# ----------------------------------------------------------------------
def test_draw_is_deterministic_and_calibrated(fleet):
    again = SyntheticFleet.draw(SyntheticFleetSpec(n_dies=150, seed=11))
    for name in ("vmin_v", "vcrash_v", "true_vcrash_v", "max_threshold_v"):
        assert np.array_equal(getattr(fleet, name), getattr(again, name))
    # Characterized facts keep the bundle invariant Vcrash < Vmin < Vnom.
    assert np.all(fleet.vcrash_v < fleet.vmin_v)
    assert np.all(fleet.vmin_v < 1.0)
    assert fleet.itd_v_per_degc > 0
    assert fleet.ripple_margin_v > 0


def test_draw_contains_crash_subpopulations(fleet):
    drifted = np.sum(fleet.true_vcrash_v > fleet.vmin_v)
    crash_first = np.sum(fleet.max_threshold_v < fleet.true_vcrash_v)
    assert drifted >= 1
    assert crash_first > drifted  # drifted dies are crash-first too
    # The healthy majority still faults before it crashes.
    assert crash_first < 0.2 * fleet.n_dies


def test_spec_validation():
    with pytest.raises(FleetScaleError):
        SyntheticFleetSpec(n_dies=0)
    with pytest.raises(FleetScaleError):
        SyntheticFleetSpec(n_dies=4, utilization=1.5)


# ----------------------------------------------------------------------
# Event engine vs stepped reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_event_engine_matches_stepped_reference(fleet, trace, policy):
    event = simulate_fleet(fleet, trace, policy, core="event")
    stepped = simulate_fleet(fleet, trace, policy, core="stepped")
    assert event.digest() == stepped.digest()
    assert event.totals() == stepped.totals()


def test_identity_holds_across_seeds_and_platforms(trace):
    for platform, seed in (("ZC702", 1), ("VC707", 9)):
        fleet = SyntheticFleet.draw(
            SyntheticFleetSpec(n_dies=80, platform=platform, seed=seed)
        )
        for policy in ("static-undervolt", "reactive"):
            event = simulate_fleet(fleet, trace, policy, core="event")
            stepped = simulate_fleet(fleet, trace, policy, core="stepped")
            assert event.digest() == stepped.digest()


def test_crash_machinery_is_live(fleet, trace):
    result = simulate_fleet(fleet, trace, "static-undervolt")
    totals = result.totals()
    assert totals["crash_steps"] > 0
    assert totals["n_actuations"] > 0
    # Drifted dies thrash every step of the trace.
    drifted = fleet.true_vcrash_v > fleet.vmin_v
    assert np.all(result.crashed_steps[drifted] == trace.n_steps)


def test_energy_anchors(fleet, trace):
    nominal = nominal_energy_j(fleet, trace)
    floor = guardband_floor_energy_j(fleet, trace)
    assert floor < nominal
    results = simulate_policies(fleet, trace)
    static_nominal = results["static-nominal"].totals()["energy_j"]
    assert static_nominal == pytest.approx(nominal, rel=1e-9)
    for name, result in results.items():
        assert result.totals()["energy_j"] <= nominal * (1 + 1e-9), name


# ----------------------------------------------------------------------
# Reactive event engine vs the stepped oracle on hand-built dies
# ----------------------------------------------------------------------
def _fleet_of(vmin, vcrash, true_vcrash, threshold, platform="ZC702"):
    """A fleet from explicit per-die facts (calibration from the platform)."""
    spec = SyntheticFleetSpec(n_dies=len(vmin), platform=platform)
    calibrated = SyntheticFleet.draw(SyntheticFleetSpec(n_dies=1, platform=platform))
    return SyntheticFleet(
        spec=spec,
        vmin_v=np.array(vmin, dtype=float),
        vcrash_v=np.array(vcrash, dtype=float),
        true_vcrash_v=np.array(true_vcrash, dtype=float),
        max_threshold_v=np.array(threshold, dtype=float),
        itd_v_per_degc=calibrated.itd_v_per_degc,
        ripple_margin_v=calibrated.ripple_margin_v,
    )


def _assert_reactive_identity(fleet, trace, recovery_steps):
    """Event and stepped engines agree on every array; returns the oracle."""
    event = simulate_fleet(
        fleet, trace, "reactive", crash_recovery_steps=recovery_steps
    )
    stepped = simulate_fleet(
        fleet, trace, "reactive", crash_recovery_steps=recovery_steps,
        core="stepped",
    )
    assert np.array_equal(event.operational, stepped.operational)
    assert np.array_equal(event.fault_active, stepped.fault_active)
    for name in ("energy_j", "crashed_steps", "fault_steps", "actuations"):
        assert np.array_equal(getattr(event, name), getattr(stepped, name)), name
    assert event.digest() == stepped.digest()
    return stepped


@st.composite
def _small_fleets(draw):
    """1-8 dies mixing healthy, crash-first and drifted facts.

    Crash voltages carry 3-5 decimals, so the clamp floor
    ``vcrash + 0.020`` lands on and off the millivolt grid.
    """
    decimals = draw(st.sampled_from([3, 4, 5]))
    columns = ([], [], [], [])
    for _ in range(draw(st.integers(1, 8))):
        vmin = draw(st.integers(580, 640)) / 1000.0
        vcrash = round(vmin - draw(st.integers(15_000, 70_000)) / 1e6, decimals)
        kind = draw(st.sampled_from(["healthy", "crash-first", "drifted"]))
        if kind == "drifted":
            true_vcrash = vmin + draw(st.integers(0, 10_000)) / 1e6
        else:
            true_vcrash = vcrash + draw(st.integers(0, 30_000)) / 1e6
        if kind == "healthy":
            threshold = vmin + draw(st.integers(-12_000, 4_000)) / 1e6
        else:
            threshold = true_vcrash - draw(st.integers(4_000, 10_000)) / 1e6
        for column, value in zip(columns, (vmin, vcrash, true_vcrash, threshold)):
            column.append(value)
    return _fleet_of(*columns)


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fleet=_small_fleets(),
    n_steps=st.integers(1, 160),
    epoch_steps=st.integers(1, 40),
    period_steps=st.integers(2, 240),
    seed=st.integers(0, 50),
    recovery_steps=st.integers(1, 7),
)
def test_reactive_engine_matches_stepped_on_small_fleets(
    fleet, n_steps, epoch_steps, period_steps, seed, recovery_steps
):
    trace = sparse_diurnal_trace(
        n_steps=n_steps, epoch_steps=epoch_steps, period_steps=period_steps,
        seed=seed,
    )
    _assert_reactive_identity(fleet, trace, recovery_steps)


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fleet=_small_fleets(),
    backoff_mv=st.integers(1, 12),
    probe_mv=st.integers(1, 3),
    hold_steps=st.integers(1, 6),
    seed=st.integers(0, 50),
    recovery_steps=st.integers(1, 7),
)
def test_reactive_engine_matches_stepped_for_other_controllers(
    fleet, backoff_mv, probe_mv, hold_steps, seed, recovery_steps
):
    # Short holds make every die creep, fault and hit its floor often.
    controller = fleetscale._reactive_steps(ReactiveBackoffPolicy(
        backoff_v=backoff_mv / 1000, probe_v=probe_mv / 1000,
        hold_steps=hold_steps,
    ))
    trace = sparse_diurnal_trace(
        n_steps=90, epoch_steps=7, period_steps=60, seed=seed
    )
    with mock.patch.object(fleetscale, "_REACTIVE", controller):
        _assert_reactive_identity(fleet, trace, recovery_steps)


@pytest.fixture(scope="module")
def scenario_trace():
    # Window edges at steps 30, 60 and 90; the chamber warms throughout.
    return sparse_diurnal_trace(n_steps=100, epoch_steps=30, seed=5)


def _scenario_fleet(trace):
    """Four dies, each built to exercise one corner of the event engine.

    0. crash-first: every first creep (steps 24, 54, 84) crashes it, so with
       a 5-step recovery it comes back up on each window edge;
    1. faults exactly once, on the creep at the trace's last step;
    2. off-grid floor (0.5973 V): the creep at step 74 lands on the floor,
       the next clean step rounds it up to 0.598 V, step 99 lands again;
    3. drifted: reboot-thrashes from step 0 to the end.
    """
    calibrated = SyntheticFleet.draw(SyntheticFleetSpec(n_dies=1))
    last_c = float(chamber_temperature_path(trace)[-1])
    shift = calibrated.itd_v_per_degc * (last_c - calibrated.reference_c)
    return _fleet_of(
        vmin=[0.600, 0.600, 0.600, 0.600],
        vcrash=[0.540, 0.540, 0.5773, 0.540],
        true_vcrash=[0.5995, 0.540, 0.550, 0.605],
        threshold=[0.500, 0.5961 + shift, 0.500, 0.600],
    )


@pytest.mark.parametrize("recovery_steps", range(1, 8))
def test_reactive_engine_scenarios(scenario_trace, recovery_steps):
    fleet = _scenario_fleet(scenario_trace)
    oracle = _assert_reactive_identity(fleet, scenario_trace, recovery_steps)
    # The scenarios hold in the oracle itself, so the identity covers them.
    assert oracle.crashed_steps[3] == scenario_trace.n_steps
    assert oracle.fault_steps[1] == 1 and oracle.fault_active[-1] == 1
    assert oracle.actuations[2] == 6  # 0, 24, 49, 74 (floor), 75, 99
    if recovery_steps == 5:
        assert oracle.crashed_steps[0] == 3 * 6  # 24-29, 54-59, 84-89
        assert np.array_equal(
            oracle.operational[[29, 30, 59, 60, 89, 90]], [2, 3, 2, 3, 2, 3]
        )


def test_reactive_engine_one_die_one_step(scenario_trace):
    fleet = _scenario_fleet(scenario_trace)
    trace = sparse_diurnal_trace(n_steps=1)
    for die in range(fleet.n_dies):
        oracle = _assert_reactive_identity(fleet.slice(die, die + 1), trace, 3)
        assert oracle.operational.size == 1


def test_reactive_steps_must_sit_on_the_regulator_grid():
    steps = fleetscale._reactive_steps(ReactiveBackoffPolicy())
    assert (steps.backoff_mv, steps.probe_mv, steps.hold_steps) == (10, 1, 25)
    with pytest.raises(FleetScaleError, match="backoff_v"):
        fleetscale._reactive_steps(ReactiveBackoffPolicy(backoff_v=0.0105))
    with pytest.raises(FleetScaleError, match="probe_v"):
        fleetscale._reactive_steps(ReactiveBackoffPolicy(probe_v=0.0015))


# ----------------------------------------------------------------------
# Sharding and merge invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler,jobs", [("thread", 4), ("process", 3)])
def test_sharded_digest_identical(fleet, trace, scheduler, jobs):
    for policy in ("static-undervolt", "reactive"):
        serial = simulate_fleet(fleet, trace, policy)
        sharded = simulate_fleet(
            fleet, trace, policy, scheduler=scheduler, jobs=jobs
        )
        assert sharded.digest() == serial.digest()


def test_merge_shards_is_order_independent(fleet, trace):
    from repro.runtime.fleetscale import _simulate_scale_shard
    from repro.runtime.event_core import chamber_temperature_path, transient_steps

    temps = chamber_temperature_path(trace)
    windows = np.unique(np.concatenate(
        ([0], transient_steps(temps), [trace.n_steps])
    )).astype(np.int64)
    bounds = [(0, 50), (50, 110), (110, 150)]
    shards = [
        _simulate_scale_shard(
            fleet.slice(start, stop), start, trace, "reactive", 3,
            "event", temps, windows,
        )
        for start, stop in bounds
    ]
    forward = merge_shards(shards, "reactive", fleet, trace, 18_000, "event")
    backward = merge_shards(
        list(reversed(shards)), "reactive", fleet, trace, 18_000, "event"
    )
    assert backward.digest() == forward.digest()
    with pytest.raises(FleetScaleError):
        merge_shards(shards[:-1], "reactive", fleet, trace, 18_000, "event")
    with pytest.raises(FleetScaleError):
        merge_shards(
            [shards[0], shards[0], shards[2]],
            "reactive", fleet, trace, 18_000, "event",
        )


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
def test_simulate_fleet_validation(fleet, trace):
    with pytest.raises(GovernorError):
        simulate_fleet(fleet, trace, "ghost-policy")
    with pytest.raises(FleetScaleError):
        simulate_fleet(fleet, trace, "reactive", capacity_rps=0.0)
    with pytest.raises(FleetScaleError):
        simulate_fleet(fleet, trace, "reactive", crash_recovery_steps=0)


@pytest.mark.slow
def test_identity_at_fleet_scale(trace):
    fleet = SyntheticFleet.draw(SyntheticFleetSpec(n_dies=10_000, seed=3))
    for policy in ("static-undervolt", "predictive"):
        event = simulate_fleet(fleet, trace, policy, core="event")
        stepped = simulate_fleet(fleet, trace, policy, core="stepped")
        assert event.digest() == stepped.digest()

"""Correctness checks, each computed apart from the code path it checks.

Every function takes plain data (parsed command output, store summaries,
answers the benchmark computed itself) and returns a list of problems; an
empty list means the check passed.  ``selftest.py`` feeds each one a
corrupted answer to show it fails.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from inputs import CRASH_FIRST_SHARE, DRIFTED_SHARE, FIG1_ANCHORS, REFERENCE_TEMPERATURE_C

RAILS = ("VCCBRAM", "VCCINT")
#: Relative tolerance for energies the program sums in floating point.
ENERGY_RTOL = 1e-9

#: unit key -> rail -> {"vnom_v", "vmin_v", "vcrash_v"}
Unit = Tuple[str, str, float]
UnitRails = Dict[Unit, Dict[str, Dict[str, float]]]


# ----------------------------------------------------------------------
# characterize
# ----------------------------------------------------------------------
def rail_order(units: UnitRails) -> List[str]:
    """Vcrash < Vmin < Vnom on both rails of every unit."""
    problems = []
    for key, rails in sorted(units.items()):
        for rail in RAILS:
            values = rails.get(rail)
            if values is None:
                problems.append(f"{key} has no {rail} result")
            elif not values["vcrash_v"] < values["vmin_v"] < values["vnom_v"]:
                problems.append(f"{key} {rail}: not Vcrash < Vmin < Vnom ({values})")
    return problems


def itd_order(units: UnitRails) -> List[str]:
    """Vmin at a hotter temperature is never above Vmin at a cooler one (Fig. 8)."""
    by_die: Dict[Tuple[str, str, str], List[Tuple[float, float]]] = defaultdict(list)
    for (platform, serial, temperature), rails in units.items():
        for rail in RAILS:
            by_die[(platform, serial, rail)].append((temperature, rails[rail]["vmin_v"]))
    problems = []
    for die, series in sorted(by_die.items()):
        series.sort()
        for (cool_t, cool_v), (hot_t, hot_v) in zip(series, series[1:]):
            if hot_v > cool_v:
                problems.append(f"{die}: Vmin rises from {cool_v} at {cool_t} C to {hot_v} at {hot_t} C")
    return problems


def fig1_anchors(units: UnitRails, stock_serials: Mapping[str, str]) -> List[str]:
    """Each platform's stock board at the reference temperature matches Fig. 1."""
    problems = []
    for platform, rails in FIG1_ANCHORS.items():
        key = (platform, stock_serials[platform], REFERENCE_TEMPERATURE_C)
        if key not in units:
            problems.append(f"anchor board {key} was not characterized")
            continue
        for rail, (vmin, vcrash) in rails.items():
            got = units[key][rail]
            if (got["vmin_v"], got["vcrash_v"]) != (vmin, vcrash):
                problems.append(
                    f"{platform} {rail}: Vmin/Vcrash {got['vmin_v']}/{got['vcrash_v']}, "
                    f"Fig. 1 has {vmin}/{vcrash}"
                )
    return problems


def linear_walk_agrees(units: UnitRails, walks: Mapping[Tuple[Unit, str], Tuple[float, float]]) -> List[str]:
    """Certified bisection lands exactly on the linear walk's grid answers."""
    problems = []
    for (unit, rail), (vmin, vcrash) in sorted(walks.items()):
        got = units.get(unit, {}).get(rail)
        if got is None:
            problems.append(f"{unit} {rail}: missing from the store")
        elif (got["vmin_v"], got["vcrash_v"]) != (vmin, vcrash):
            problems.append(
                f"{unit} {rail}: campaign {got['vmin_v']}/{got['vcrash_v']}, "
                f"linear walk {vmin}/{vcrash}"
            )
    return problems


def walk_thresholds(points: Sequence[Tuple[float, bool, float]]) -> Tuple[float, float]:
    """(Vmin, Vcrash) from a downward walk of (voltage, operational, median faults).

    Vmin is the lowest operational voltage with zero faults, Vcrash the
    lowest operational voltage (Fig. 1).
    """
    operational = [(v, faults) for v, ok, faults in points if ok]
    fault_free = [v for v, faults in operational if faults == 0]
    if not fault_free:
        raise ValueError("walk never saw a fault-free operating point")
    return min(fault_free), min(v for v, _ in operational)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def served_guardbands(served: Mapping[Tuple[str, str], Dict[str, Any]],
                      store: Mapping[Tuple[str, str], Dict[str, float]]) -> List[str]:
    """Served guardbands equal the store's VCCBRAM unit summaries."""
    problems = []
    if set(served) != set(store):
        problems.append(f"served dies {len(served)} != stored dies {len(store)}")
    for die in sorted(set(served) & set(store)):
        doc, unit = served[die], store[die]
        for key in ("vnom_v", "vmin_v", "vcrash_v"):
            if doc.get(key) != unit[key]:
                problems.append(f"{die} {key}: served {doc.get(key)}, stored {unit[key]}")
        expected = (unit["vnom_v"] - unit["vmin_v"]) / unit["vnom_v"]
        if not math.isclose(doc.get("guardband_fraction", -1.0), expected, rel_tol=1e-12):
            problems.append(f"{die} guardband_fraction {doc.get('guardband_fraction')} != {expected}")
    return problems


def safe_vmin(served: Mapping[Tuple[str, str], Mapping[float, Dict[str, Any]]],
              store: Mapping[Tuple[str, str], Dict[str, float]]) -> List[str]:
    """safe-vmin >= Vmin up to the characterization temperature, non-rising with T."""
    problems = []
    for die, by_temperature in sorted(served.items()):
        vmin = store[die]["vmin_v"]
        previous = None
        for temperature in sorted(by_temperature):
            value = by_temperature[temperature]["safe_vmin_v"]
            if temperature <= REFERENCE_TEMPERATURE_C and value < vmin:
                problems.append(f"{die}: safe-vmin {value} below Vmin {vmin} at {temperature} C")
            if previous is not None and value > previous:
                problems.append(f"{die}: safe-vmin rises to {value} at {temperature} C")
            previous = value
    return problems


def fvm_monotone(label: str, totals: Sequence[Tuple[float, int]]) -> List[str]:
    """An FVM's total fault count never falls as voltage drops."""
    ordered = sorted(totals, reverse=True)
    for (high_v, high_n), (low_v, low_n) in zip(ordered, ordered[1:]):
        if low_n < high_n:
            return [f"{label}: {low_n} faults at {low_v} V < {high_n} at {high_v} V"]
    return []


def fvm_matches(label: str, served: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """The served FVM statistics equal the benchmark's unbatched rebuild."""
    if served != reference:
        return [f"{label}: served FVM {served} != unbatched rebuild {reference}"]
    return []


def warm_is_free(after_cold: int, after_warm: int, final: int) -> List[str]:
    """Warm FVM repeats and similarity queries cost zero backend evaluations."""
    if not after_cold == after_warm == final:
        return [f"backend evaluations grew after the cold pass: {after_cold} -> {after_warm} -> {final}"]
    return []


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def policy_energies(label: str, document: Dict[str, Any]) -> List[str]:
    """static-nominal = nominal; every policy in [floor, nominal] and serving every request."""
    problems = []
    nominal = document["baselines"]["nominal_energy_j"]
    floor = document["baselines"]["guardband_floor_energy_j"]
    for name, row in document["policies"].items():
        energy = row["energy_j"]
        low, high = floor * (1 - ENERGY_RTOL), nominal * (1 + ENERGY_RTOL)
        if not low <= energy <= high:
            problems.append(f"{label} {name}: energy {energy} outside [{floor}, {nominal}]")
        if row["served"] != row["requests"]:
            problems.append(f"{label} {name}: served {row['served']} of {row['requests']} requests")
    static = document["policies"].get("static-nominal")
    if static is None or not math.isclose(static["energy_j"], nominal, rel_tol=ENERGY_RTOL):
        problems.append(f"{label}: static-nominal energy != nominal baseline {nominal}")
    return problems


def predictive_fault_free(document: Dict[str, Any]) -> List[str]:
    faulty = document["policies"]["predictive"]["faulty_inferences"]
    return [] if faulty == 0 else [f"predictive served {faulty} faulty inferences"]


def subpopulation_shares(fleet: Dict[str, Any]) -> List[str]:
    """Drifted and crash-first dies near their specified shares (5 sigma)."""
    problems = []
    n = fleet["n_dies"]
    for key, share in (("drifted_dies", DRIFTED_SHARE), ("crash_first_dies", CRASH_FIRST_SHARE)):
        sigma = math.sqrt(share * (1 - share) / n)
        observed = fleet[key] / n
        if abs(observed - share) > 5 * sigma:
            problems.append(f"{key}: share {observed:.5f}, specified {share} (5 sigma {5 * sigma:.5f})")
    return problems


def repeats_identically(label: str, documents: Sequence[Dict[str, Any]]) -> List[str]:
    """Same inputs, same ``--json`` document once ``timing`` is removed."""
    stripped = [{k: v for k, v in doc.items() if k != "timing"} for doc in documents]
    if any(doc != stripped[0] for doc in stripped[1:]):
        return [f"{label}: --json differs between runs with the same seed"]
    return []

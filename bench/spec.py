"""Workload sizes, seed-drawn inputs and output checks of the capa benchmark.

Standard library only: the orchestrator (run.py) imports this module without
loading numpy or capa, and the worker processes import it next to capa.
"""
from __future__ import annotations

import json
import math
import random
import time

WORKLOADS = ("steer", "crosscheck", "lattice", "cli")
LIBRARY_WORKLOADS = ("steer", "crosscheck", "lattice")

FREQUENCY = 2.4e9
DISTANCE = 50.0

# Full sizes follow the benchmark definition; smoke sizes run every code
# path of a workload in well under a second and serve the self-tests.
SIZES = {
    "steer": {
        "full": {"side": 1.0, "order": 40, "phi_count": 90, "pattern_order": 40,
                 "theta_step": 4.0, "phi_step": 2.0},
        "smoke": {"side": 0.25, "order": 8, "phi_count": 6, "pattern_order": 8,
                  "theta_step": 30.0, "phi_step": 15.0},
    },
    "crosscheck": {
        "full": {"side": 0.5, "orders": (20, 30)},
        "smoke": {"side": 0.25, "orders": (6, 8)},
    },
    "lattice": {
        # pitches and element side in wavelengths
        "full": {"side": 0.5, "pitches": (1.0, 0.5, 0.25, 0.125), "element": 0.1},
        "smoke": {"side": 0.25, "pitches": (1.0, 0.5), "element": 0.1},
    },
}

# the three criterion-04 directions, (theta, phi) in degrees
FIXED_CROSSCHECK_DIRECTIONS = ((0.0, 0.0), (0.0, 60.0), (90.0, 30.0))
SEEDED_CROSSCHECK_COUNT = 3
SEEDED_PHI_MAX = 60.0
PATTERN_PHI_MAX = 80.0
# ka-versus-CG pair measured once per run where the workload has no solver
# pair of its own: the criterion-04 front-fire direction at order 20
PROBE = {"full": {"side": 0.5, "order": 20}, "smoke": {"side": 0.25, "order": 10}}

# Every subcommand at its own defaults, except that spda-spacing leaves out
# its default 0.0625 wl pitch: that pitch is below the default 0.1 wl
# element, so the plain command exits 2 after doing all the work of the
# other pitches.  The run reports that refusal separately (DEFAULTS_PROBE).
CLI_COMMANDS = {
    "full": (
        ("kernel",), ("nulls",), ("wavenumber",), ("gain",), ("convergence",),
        ("directivity",), ("beampattern",),
        ("spda-spacing", "--spacings", "1,0.5,0.25,0.125"),
        ("spda-aperture",),
    ),
    "smoke": (
        ("kernel", "--samples", "50"), ("nulls",), ("wavenumber", "--samples", "50"),
        ("gain", "--set", "quadrature.M=6"),
        ("convergence", "--orders", "4,6", "--set", "quadrature.M=6"),
        ("directivity", "--set", "directivity.step_deg=30", "--set", "quadrature.M=6"),
        ("beampattern", "--set", "quadrature.M=6",
         "--set", "beampattern.phi_step_deg=30", "--set", "beampattern.theta_step_deg=90"),
        ("spda-spacing", "--spacings", "1,0.5", "--set", "aperture.L_x=0.25",
         "--set", "aperture.L_y=0.25", "--set", "quadrature.M=6"),
        ("spda-aperture", "--sides", "0.25,0.3", "--set", "quadrature.M=6"),
    ),
}
DEFAULTS_PROBE = ("spda-spacing",)

# relative slack on "gain below its uncoupled bound" for rounding
BOUND_SLACK = 1e-12

# physical constants of the default configuration, restated so that the
# uncoupled bounds do not depend on the code under test
_C0 = 299_792_458.0
_Z0 = 120.0 * math.pi
_MU0 = 4.0e-7 * math.pi
_COPPER = 5.8e7


def draw_directions(seed: int, count: int, phi_max: float) -> list[tuple[float, float]]:
    """Seed-drawn steering directions (theta, phi) in degrees.

    theta is uniform on [0, 360) and phi uniform on [0, phi_max].  A
    continuous azimuth almost never lands on a principal plane, so the CG
    iteration count, and with it the work, hardly depends on the seed.
    """
    rng = random.Random(seed)
    return [(360.0 * rng.random(), phi_max * rng.random()) for _ in range(count)]


def seeded_inputs(workload: str, seed: int) -> dict:
    """The inputs a seed selects for a workload; only steering directions vary."""
    if workload == "steer":
        return {"pattern_direction": draw_directions(seed, 1, PATTERN_PHI_MAX)[0]}
    if workload == "crosscheck":
        return {"directions": list(FIXED_CROSSCHECK_DIRECTIONS)
                + draw_directions(seed, SEEDED_CROSSCHECK_COUNT, SEEDED_PHI_MAX)}
    if workload == "lattice":
        return {"direction": draw_directions(seed, 1, SEEDED_PHI_MAX)[0]}
    return {}


def uncoupled_bound(area: float, theta_deg: float, phi_deg: float) -> float:
    """Gain 2 * area * |channel amplitude|^2 / Zs of the coupling-blind matched
    filter; no coupled gain on a surface of that area can exceed it."""
    k0 = 2.0 * math.pi * FREQUENCY / _C0
    zs = math.sqrt(math.pi * FREQUENCY * _MU0 / _COPPER)
    pol = 1.0 - (math.sin(math.radians(theta_deg)) * math.sin(math.radians(phi_deg))) ** 2
    amplitude = k0 * _Z0 * pol / (4.0 * math.pi * DISTANCE)
    return 2.0 * area * amplitude ** 2 / zs


def check_gain(gain, bound) -> str | None:
    """Reason a coupled gain is wrong, or None when it is finite, positive and
    not above its uncoupled bound."""
    if not (isinstance(gain, (int, float)) and math.isfinite(gain)):
        return f"non-finite gain {gain!r}"
    if not (isinstance(bound, (int, float)) and math.isfinite(bound) and bound > 0.0):
        return f"non-finite or non-positive bound {bound!r}"
    if gain <= 0.0:
        return f"non-positive gain {gain!r}"
    if gain > bound * (1.0 + BOUND_SLACK):
        return f"gain {gain!r} above its uncoupled bound {bound!r}"
    return None


def check_pattern(values, peak) -> str | None:
    """Reason a peak-normalized beampattern is wrong, or None."""
    if not (math.isfinite(peak) and peak > 0.0):
        return f"non-finite or non-positive pattern peak {peak!r}"
    top = -math.inf
    for v in values:
        if not math.isfinite(v):
            return "non-finite pattern value"
        if v < 0.0 or v > 1.0 + BOUND_SLACK:
            return f"pattern value {v!r} outside [0, 1]"
        top = max(top, v)
    if abs(top - 1.0) > 1e-12:
        return f"pattern peak normalizes to {top!r}, not 1"
    return None


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check_cli_output(command: str, text: str) -> str | None:
    """Reason a subcommand's output file is wrong, or None.

    CSV outputs must have a header and at least one row, every numeric cell
    finite, and every gain column or series positive.  The JSON output of
    ``gain`` must hold finite, positive gains not above the uncoupled bound.
    """
    if command == "gain":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"gain output is not JSON: {exc}"
        cfg = doc.get("config", {})
        # the benchmark never overrides frequency, material or distance
        bound = uncoupled_bound(cfg.get("aperture.L_x", 0.0) * cfg.get("aperture.L_y", 0.0),
                                cfg.get("receiver.theta_deg", 0.0),
                                cfg.get("receiver.phi_deg", 0.0))
        for key, value in doc.items():
            if key.startswith("gain_"):
                reason = check_gain(value, bound)
                if reason:
                    return f"{key}: {reason}"
            elif isinstance(value, float) and not math.isfinite(value):
                return f"non-finite {key}"
        return None
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if len(lines) < 2:
        return "output has no data rows"
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            return f"row has {len(cells)} cells, header {len(header)}"
        gain_row = cells[0].startswith("gain")
        for name, cell in zip(header, cells):
            value = _number(cell)
            if value is None:
                continue
            if not math.isfinite(value):
                return f"non-finite {name} in {line!r}"
            if (name.startswith("gain") or (gain_row and name == "value")) and value <= 0.0:
                return f"non-positive {name} in {line!r}"
    return None


def error_record(stderr: str) -> dict | None:
    """The JSON error record a failed subcommand printed last on stderr."""
    for line in reversed(stderr.strip().splitlines()):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "code" in record:
            return record
    return None



def passes_within(budget: float, one_pass, before=None) -> list:
    """(start, *result) of one_pass() runs until another round would end more
    than half a round past the budget, at least one; ``before`` runs ahead of
    each pass.  Runs so end, on average, at the budget."""
    results = []
    start = time.perf_counter()
    while True:
        if before:
            before()
        t0 = time.perf_counter()
        results.append((t0, *one_pass()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) / 2 > budget:
            return results

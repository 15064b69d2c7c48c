"""Command-line experiment driver.

Configuration is a flat ``key=value`` map.  Precedence, lowest to
highest: built-in defaults, ``--config`` JSON file, repeated ``--set``
overrides, dedicated subcommand flags.  Every output embeds the
effective configuration and the library version, so identical
configuration and seed reproduce byte-identical files.

Exit codes: 0 on success, 2 for configuration or domain errors, 3 for
numeric failures.  Errors print a JSON record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import __version__
from .analysis import (beampattern, directivity_plane, steered_gain_profile,
                       uncoupled_beamformer)
from .cg_solver import beamform_cg
from .errors import ConfigError, DomainError, NumericError
from .kernel_approx import beamform_ka, build_expansion
from .physics import (COPPER_CONDUCTIVITY, MU0, Aperture, Direction,
                      PhysicalConfig, far_field_channel, kernel_nulls,
                      radiation_kernel, wavenumber_kernel)
from .spda import aperture_sweep, spacing_sweep

_DEFAULTS: dict[str, object] = {
    "frequency": 2.4e9,
    "material.mu_s": MU0,
    "material.sigma_s": COPPER_CONDUCTIVITY,
    "material.surface_resistance": None,
    "aperture.L_x": 0.5,
    "aperture.L_y": 0.5,
    "receiver.R0": 50.0,
    "receiver.theta_deg": 0.0,
    "receiver.phi_deg": 0.0,
    "quadrature.M": 20,
    "quadrature.inner_rule": "chebyshev",
    "cg.tol": 1e-8,
    "cg.max_iter": 10000,
    "cg.init": "zero",
    "power.P_t": 1.0,
    "kernel.polarized": True,
    "kernel.line": "x",
    "kernel.rmax_wl": 2.5,
    "kernel.samples": 1000,
    "nulls.count": 3,
    "wavenumber.line": "x",
    "wavenumber.samples": 400,
    "gain.method": "both",
    "convergence.orders": [10, 15, 20, 25, 30],
    "directivity.plane": "both",
    "directivity.step_deg": 1.0,
    "beampattern.phi_step_deg": 2.0,
    "beampattern.theta_step_deg": 4.0,
    "spda.spacing_wl": 0.5,
    "spda.element_wl": 0.1,
    "spda.order": 6,
    "spda.mode": "exact",
    "spda.spacings_wl": [1.0, 0.5, 0.25, 0.125, 0.0625],
    "spda.sides_m": [0.25, 0.35, 0.45, 0.55, 0.65, 0.75],
}

# key -> (kind, constraint) drives coercion and the error message
_SCHEMA: dict[str, tuple[str, object]] = {
    "frequency": ("pos_float", None),
    "material.mu_s": ("pos_float", None),
    "material.sigma_s": ("pos_float", None),
    "material.surface_resistance": ("opt_pos_float", None),
    "aperture.L_x": ("pos_float", None),
    "aperture.L_y": ("pos_float", None),
    "receiver.R0": ("pos_float", None),
    "receiver.theta_deg": ("float", None),
    "receiver.phi_deg": ("float", None),
    "quadrature.M": ("pos_int", 512),
    "quadrature.inner_rule": ("choice", ("legendre", "chebyshev")),
    "cg.tol": ("pos_float", None),
    "cg.max_iter": ("pos_int", None),
    "cg.init": ("choice", ("zero", "random")),
    "power.P_t": ("pos_float", None),
    "kernel.polarized": ("bool", None),
    "kernel.line": ("choice", ("x", "y")),
    "kernel.rmax_wl": ("pos_float", None),
    "kernel.samples": ("pos_int", None),
    "nulls.count": ("pos_int", None),
    "wavenumber.line": ("choice", ("x", "y")),
    "wavenumber.samples": ("pos_int", None),
    "gain.method": ("choice", ("ka", "cg", "both")),
    "convergence.orders": ("pos_int_list", 512),
    "directivity.plane": ("choice", ("E", "H", "both")),
    "directivity.step_deg": ("pos_float", None),
    "beampattern.phi_step_deg": ("pos_float", None),
    "beampattern.theta_step_deg": ("pos_float", None),
    "spda.spacing_wl": ("pos_float", None),
    "spda.element_wl": ("pos_float", None),
    "spda.order": ("pos_int", None),
    "spda.mode": ("choice", ("exact", "point")),
    "spda.spacings_wl": ("pos_float_list", None),
    "spda.sides_m": ("pos_float_list", None),
}


def _coerce(key: str, value: object) -> object:
    if key not in _SCHEMA:
        raise ConfigError(f"unknown configuration key '{key}'", module="cli")
    kind, constraint = _SCHEMA[key]
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false", module="cli")
        return value
    if kind == "choice":
        if value not in constraint:
            allowed = ", ".join(constraint)
            raise ConfigError(f"{key} must be one of: {allowed}", module="cli")
        return value
    if kind == "opt_pos_float":
        if value is None:
            return None
        kind = "pos_float"
    if kind in ("float", "pos_float"):
        value = _finite_float(value)
        if value is None:
            raise ConfigError(f"{key} must be a finite number", module="cli")
        if kind == "pos_float" and not value > 0.0:
            raise ConfigError(f"{key} must be positive", module="cli")
        return value
    if kind == "pos_int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer", module="cli")
        if value < 1 or (constraint is not None and value > constraint):
            hi = f" and at most {constraint}" if constraint is not None else ""
            raise ConfigError(f"{key} must be at least 1{hi}", module="cli")
        return value
    if kind.endswith("_list"):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a non-empty list", module="cli")
        inner = kind[: -len("_list")]
        return [_coerce_scalar(key, inner, constraint, item) for item in value]
    raise AssertionError(kind)


def _finite_float(value) -> float | None:
    """value as a finite float, or None if it is not a finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if np.isfinite(value) else None


def _coerce_scalar(key: str, kind: str, constraint, item):
    if kind == "pos_float":
        item = _finite_float(item)
        if item is None or not item > 0:
            raise ConfigError(f"{key} entries must be finite positive numbers", module="cli")
        return item
    if isinstance(item, bool) or not isinstance(item, int) or item < 1 \
            or (constraint is not None and item > constraint):
        raise ConfigError(f"{key} entries must be integers in range", module="cli")
    return item


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated flat configuration plus the derived model objects."""

    values: Mapping[str, object]
    physical: PhysicalConfig
    aperture: Aperture
    direction: Direction

    @property
    def distance(self) -> float:
        return self.values["receiver.R0"]

    @property
    def order(self) -> int:
        return self.values["quadrature.M"]

    @property
    def power(self) -> float:
        return self.values["power.P_t"]

    @property
    def inner_rule(self) -> str:
        return self.values["quadrature.inner_rule"]


def load_config(path: str | None = None, overrides: tuple[str, ...] = ()) -> ExperimentConfig:
    """Merge defaults, a JSON file, and key=value overrides, then validate."""
    values = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}", module="cli")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}", module="cli")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object", module="cli")
        for key, value in data.items():
            values[key] = _coerce(key, value)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got '{item}'", module="cli")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        values[key] = _coerce(key, value)
    physical = PhysicalConfig(
        frequency=values["frequency"],
        mu_s=values["material.mu_s"],
        sigma_s=values["material.sigma_s"],
        surface_resistance=values["material.surface_resistance"],
    )
    aperture = Aperture(values["aperture.L_x"], values["aperture.L_y"])
    direction = Direction(np.deg2rad(values["receiver.theta_deg"]),
                          np.deg2rad(values["receiver.phi_deg"]))
    return ExperimentConfig(values=values, physical=physical,
                            aperture=aperture, direction=direction)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.17g}"
    return str(value)


def _echo_lines(values: Mapping[str, object]) -> list[str]:
    lines = [f"# capa {__version__}"]
    for key in sorted(values):
        lines.append(f"# config {key}={json.dumps(values[key])}")
    return lines


def _write_csv(stream, values, header, rows) -> None:
    for line in _echo_lines(values):
        stream.write(line + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(cell) for cell in row) + "\n")


def _write_json(stream, values, payload) -> None:
    doc = {"version": __version__, "config": dict(values)}
    doc.update(payload)
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _channel(config: ExperimentConfig):
    return far_field_channel(config.physical, config.direction,
                             config.distance, config.aperture)


def _run_kernel(config: ExperimentConfig):
    v = config.values
    wavelength = config.physical.wavelength
    n = v["kernel.samples"]
    step = v["kernel.rmax_wl"] * wavelength / n
    r = step * np.arange(1, n + 1)
    disp = np.zeros((n, 3))
    disp[:, 0 if v["kernel.line"] == "x" else 1] = r
    vals = radiation_kernel(disp, config.physical.wavenumber,
                            impedance=config.physical.impedance,
                            polarized=v["kernel.polarized"])
    rows = [(ri / wavelength, ri, ci) for ri, ci in zip(r, vals)]
    return ("separation_wl", "separation_m", "kernel"), rows, None


def _run_nulls(config: ExperimentConfig):
    v = config.values
    rows = []
    for axis, u in (("x", 0.0), ("y", 1.0)):
        eps = kernel_nulls(u, count=v["nulls.count"],
                           polarized=v["kernel.polarized"])
        for index, value in enumerate(eps, start=1):
            rows.append((axis, index, value, value / (2.0 * np.pi)))
    return ("axis", "index", "eps", "spacing_wl"), rows, None


def _run_wavenumber(config: ExperimentConfig):
    v = config.values
    k0 = config.physical.wavenumber
    n = v["wavenumber.samples"]
    # midpoint samples stay strictly inside the propagating disk
    edges = np.linspace(-k0, k0, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    kappa = np.zeros((n, 2))
    kappa[:, 0 if v["wavenumber.line"] == "x" else 1] = mids
    vals = wavenumber_kernel(kappa, k0, impedance=config.physical.impedance)
    rows = [(ki / k0, ci) for ki, ci in zip(mids, vals)]
    return ("kappa_over_k0", "spectrum"), rows, None


def _run_gain(config: ExperimentConfig, seed):
    v = config.values
    channel = _channel(config)
    method = v["gain.method"]
    payload: dict[str, object] = {"method": method}
    if method in ("ka", "both"):
        expansion = build_expansion(config.physical, config.order,
                                    inner_rule=config.inner_rule)
        bf = beamform_ka(config.physical, channel, expansion, config.aperture,
                         power=config.power)
        payload["gain_ka"] = bf.gain
        payload["uncoupled_bound"] = bf.uncoupled_bound
    if method in ("cg", "both"):
        sol = beamform_cg(config.physical, channel, config.aperture,
                          config.order, power=config.power, tol=v["cg.tol"],
                          max_iter=v["cg.max_iter"], init=v["cg.init"],
                          seed=seed)
        payload["gain_cg"] = sol.gain
        payload["cg_iterations"] = sol.state.iterations
        payload["cg_residual"] = sol.state.residual_norms[-1]
    if method == "both":
        payload["rel_diff"] = abs(payload["gain_ka"] - payload["gain_cg"]) \
            / abs(payload["gain_cg"])
    header = tuple(sorted(k for k in payload if k != "method"))
    rows = [tuple(payload[k] for k in header)]
    return header, rows, payload


def _run_convergence(config: ExperimentConfig, seed):
    v = config.values
    channel = _channel(config)

    def solve_cg(order):
        return beamform_cg(config.physical, channel, config.aperture, order,
                           power=config.power, tol=v["cg.tol"],
                           max_iter=v["cg.max_iter"], init=v["cg.init"],
                           seed=seed)

    rows = []
    # the history is of config.order; a sweep over that order already solved it
    history = None
    for order in v["convergence.orders"]:
        expansion = build_expansion(config.physical, order,
                                    inner_rule=config.inner_rule)
        ka = beamform_ka(config.physical, channel, expansion, config.aperture,
                         power=config.power).gain
        sol = solve_cg(order)
        if order == config.order:
            history = sol
        rows.append(("gain_ka", order, ka))
        rows.append(("gain_cg", order, sol.gain))
    if history is None:
        history = solve_cg(config.order)
    for iteration, residual in enumerate(history.state.residual_norms, start=1):
        rows.append(("cg_residual", iteration, residual))
    for iteration, value in enumerate(history.state.functional_values, start=1):
        rows.append(("cg_functional", iteration, value))
    return ("series", "index", "value"), rows, None


def _run_directivity(config: ExperimentConfig):
    v = config.values
    planes = ("E", "H") if v["directivity.plane"] == "both" \
        else (v["directivity.plane"],)
    # stop short of grazing, where the per-area limit degenerates
    angles = np.arange(0.0, 90.0, v["directivity.step_deg"])
    phi = np.deg2rad(angles)
    rows = []
    for plane in planes:
        profile = directivity_plane(config.physical, plane, phi)
        for a, value in zip(angles, profile.values):
            rows.append(("infinite_per_area", plane, a, value))
        gains = steered_gain_profile(config.physical, config.aperture, plane,
                                     phi, config.distance, order=config.order,
                                     power=config.power)
        for a, value in zip(angles, gains):
            rows.append(("steered_gain", plane, a, value))
    return ("series", "plane", "angle_deg", "value"), rows, None


def _run_beampattern(config: ExperimentConfig):
    v = config.values
    channel = _channel(config)
    expansion = build_expansion(config.physical, config.order,
                                inner_rule=config.inner_rule)
    coupled = beamform_ka(config.physical, channel, expansion, config.aperture,
                          power=config.power)
    blind = uncoupled_beamformer(config.physical, channel, config.aperture,
                                 power=config.power)
    phi_deg = np.arange(0.0, 90.0 + 1e-9, v["beampattern.phi_step_deg"])
    theta_deg = np.arange(0.0, 360.0, v["beampattern.theta_step_deg"])
    tg, pg = np.meshgrid(theta_deg, phi_deg, indexing="ij")
    theta = np.deg2rad(tg.ravel())
    phi = np.deg2rad(pg.ravel())
    rows = []
    for name, w in (("coupled", coupled), ("uncoupled", blind)):
        pattern = beampattern(w, config.physical, config.aperture, theta, phi,
                              order=config.order)
        absolute = pattern.values * pattern.peak
        for td, pd, norm, raw in zip(tg.ravel(), pg.ravel(),
                                     pattern.values, absolute):
            rows.append((name, td, pd, norm, raw))
    return ("pattern", "theta_deg", "phi_deg", "normalized", "absolute"), rows, None


def _run_spda_spacing(config: ExperimentConfig):
    v = config.values
    wavelength = config.physical.wavelength
    channel = _channel(config)
    element = v["spda.element_wl"] * wavelength
    spacings = [s * wavelength for s in v["spda.spacings_wl"]]
    table = spacing_sweep(config.physical, config.aperture, channel, spacings,
                          power=config.power, element_x=element,
                          element_y=element, mode=v["spda.mode"],
                          reference_order=config.order)
    rows = [(row.spacing / wavelength, row.spacing, row.n_elements,
             row.gain_coupled, row.gain_uncoupled, row.gain_reference)
            for row in table]
    return ("spacing_wl", "spacing_m", "n_elements", "gain_coupled",
            "gain_uncoupled", "gain_reference"), rows, None


def _run_spda_aperture(config: ExperimentConfig):
    v = config.values
    wavelength = config.physical.wavelength
    channel = _channel(config)
    element = v["spda.element_wl"] * wavelength
    spacing = v["spda.spacing_wl"] * wavelength
    apertures = [Aperture(side, side) for side in v["spda.sides_m"]]
    table = aperture_sweep(config.physical, spacing, channel, apertures,
                           power=config.power, element_x=element,
                           element_y=element, mode=v["spda.mode"],
                           reference_order=config.order)
    rows = [(side, row.area, row.n_elements, row.gain_discrete,
             row.gain_reference)
            for side, row in zip(v["spda.sides_m"], table)]
    return ("side_m", "area_m2", "n_elements", "gain_discrete",
            "gain_reference"), rows, None


def _wavelengths(text: str) -> float:
    for suffix in ("wl", "λ"):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
            break
    return float(text)


def _number_list(text: str, cast) -> list:
    return [cast(part) for part in text.split(",") if part]


_FLAG_KEYS = {
    "kernel": {"line": "kernel.line", "rmax": "kernel.rmax_wl",
               "samples": "kernel.samples"},
    "nulls": {"count": "nulls.count"},
    "wavenumber": {"line": "wavenumber.line", "samples": "wavenumber.samples"},
    "gain": {"method": "gain.method"},
    "convergence": {"orders": "convergence.orders"},
    "directivity": {"plane": "directivity.plane"},
    "spda-spacing": {"spacings": "spda.spacings_wl"},
    "spda-aperture": {"sides": "spda.sides_m"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capa",
        description="Continuous-aperture coupling and beamforming experiments.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON file of key=value settings")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override one setting")
    common.add_argument("--out", metavar="PATH",
                        help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"),
                        help="output format (gain defaults to json, rest csv)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized solver starts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", parents=[common],
                       help="spatial coupling kernel along an axis")
    p.add_argument("--line", choices=("x", "y"))
    p.add_argument("--rmax", type=_wavelengths, metavar="R[wl]",
                   help="maximum separation in wavelengths")
    p.add_argument("--samples", type=int)

    p = sub.add_parser("nulls", parents=[common],
                       help="kernel zero crossings per axis")
    p.add_argument("--count", type=int)

    p = sub.add_parser("wavenumber", parents=[common],
                       help="wavenumber spectrum along an axis")
    p.add_argument("--line", choices=("x", "y"))
    p.add_argument("--samples", type=int)

    p = sub.add_parser("gain", parents=[common],
                       help="single-direction array gain")
    p.add_argument("--method", choices=("ka", "cg", "both"))

    p = sub.add_parser("convergence", parents=[common],
                       help="gain versus quadrature order plus solver history")
    p.add_argument("--orders", type=lambda t: _number_list(t, int),
                   metavar="M1,M2,...")

    p = sub.add_parser("directivity", parents=[common],
                       help="principal-plane gain profiles")
    p.add_argument("--plane", choices=("E", "H", "both"))

    sub.add_parser("beampattern", parents=[common],
                   help="coupled and coupling-blind radiation patterns")

    p = sub.add_parser("spda-spacing", parents=[common],
                       help="discrete-array gain versus element pitch")
    p.add_argument("--spacings", type=lambda t: _number_list(t, _wavelengths),
                   metavar="S1,S2,...[wl]")

    p = sub.add_parser("spda-aperture", parents=[common],
                       help="discrete-array gain versus aperture side")
    p.add_argument("--sides", type=lambda t: _number_list(t, float),
                   metavar="L1,L2,...")
    return parser


def run(command: str, config: ExperimentConfig, seed=None):
    """Dispatch one experiment; returns (header, rows, json payload)."""
    if command == "kernel":
        return _run_kernel(config)
    if command == "nulls":
        return _run_nulls(config)
    if command == "wavenumber":
        return _run_wavenumber(config)
    if command == "gain":
        return _run_gain(config, seed)
    if command == "convergence":
        return _run_convergence(config, seed)
    if command == "directivity":
        return _run_directivity(config)
    if command == "beampattern":
        return _run_beampattern(config)
    if command == "spda-spacing":
        return _run_spda_spacing(config)
    if command == "spda-aperture":
        return _run_spda_aperture(config)
    raise ConfigError(f"unknown command '{command}'", module="cli")


def _emit(args, config: ExperimentConfig, header, rows, payload) -> None:
    fmt = args.format or ("json" if args.command == "gain" else "csv")
    if payload is None:
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out \
        else sys.stdout
    try:
        if fmt == "csv":
            _write_csv(out, config.values, header, rows)
        else:
            _write_json(out, config.values, payload)
    finally:
        if args.out:
            out.close()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = list(args.set)
        config = load_config(args.config, tuple(overrides))
        values = dict(config.values)
        for flag, key in _FLAG_KEYS.get(args.command, {}).items():
            flagged = getattr(args, flag, None)
            if flagged is not None:
                values[key] = _coerce(key, flagged)
        config = ExperimentConfig(values=values, physical=config.physical,
                                  aperture=config.aperture,
                                  direction=config.direction)
        header, rows, payload = run(args.command, config, seed=args.seed)
        _emit(args, config, header, rows, payload)
    except NumericError as exc:
        record = {"code": 3, "module": getattr(exc, "module", "cli") or "cli",
                  "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 3
    except (DomainError, ValueError) as exc:
        record = {"code": 2, "module": getattr(exc, "module", "cli") or "cli",
                  "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

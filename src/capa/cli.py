"""Command-line experiment driver.

Configuration is a flat ``key=value`` map.  Precedence, lowest to
highest: built-in defaults, ``--config`` JSON file, repeated ``--set``
overrides, dedicated subcommand flags; ``_KEYS`` lists every key.
Angles are in degrees, ``receiver.phi_deg`` in [-90, 90].  The default
``spda.spacings_wl`` (1, 1/2, 1/4, 1/8) stays at or above the default
0.1-wavelength element.  Every output embeds the effective configuration
and the library version, so identical configuration and seed reproduce
byte-identical files.

Exit codes: 0 on success, 2 for configuration or domain errors
(``DomainError``, ``ConfigError`` and an unwritable ``--out`` included), 3 for
numeric failures (``NumericError``, ``MemoryError`` and any other ``ValueError``,
such as ``numpy.linalg.LinAlgError``).  Each warning raised during the run
prints a JSON record (``warning``, its category, and ``message``) to stderr,
and an error then prints its own JSON record after them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import __version__
from .analysis import (beampattern, directivity_factor, steered_gain_profile,
                       uncoupled_beamformer)
from .cg_solver import beamform_cg
from .errors import ConfigError, DomainError, NumericError
from .kernel_approx import beamform_ka, build_expansion
from .physics import (COPPER_CONDUCTIVITY, MU0, Aperture, Direction,
                      PhysicalConfig, far_field_channel, kernel_nulls,
                      radiation_kernel, wavenumber_kernel)
from .spda import lattice_gains


class _Key(NamedTuple):
    """One configuration key: its default, kind and constraint, and flag.

    kind is bool, choice, float, pos_float or pos_int, where an ``opt_``
    prefix admits None and a ``_list`` suffix a non-empty list.  constraint
    is the choices, or an inclusive (lo, hi) range; flag is (subcommand, option).
    """

    default: object
    kind: str
    constraint: tuple | None = None
    flag: tuple[str, str] | None = None


# spda.mode's choices and each one's element hat-rule order (None derives it)
_ELEMENT_ORDER = {"exact": None, "point": 1}

_KEYS: dict[str, _Key] = {
    "frequency": _Key(2.4e9, "pos_float"),
    "material.mu_s": _Key(MU0, "pos_float"),
    "material.sigma_s": _Key(COPPER_CONDUCTIVITY, "pos_float"),
    "material.surface_resistance": _Key(None, "opt_pos_float"),
    "aperture.L_x": _Key(0.5, "pos_float"),
    "aperture.L_y": _Key(0.5, "pos_float"),
    "receiver.R0": _Key(50.0, "pos_float"),
    "receiver.theta_deg": _Key(0.0, "float"),
    "receiver.phi_deg": _Key(0.0, "float", (-90.0, 90.0)),
    "quadrature.M": _Key(20, "pos_int", (1, 512)),
    "quadrature.inner_rule": _Key("chebyshev", "choice", ("legendre", "chebyshev")),
    "cg.tol": _Key(1e-8, "pos_float"),
    "cg.max_iter": _Key(10000, "pos_int"),
    "cg.init": _Key("zero", "choice", ("zero", "random")),
    "power.P_t": _Key(1.0, "pos_float"),
    "kernel.polarized": _Key(True, "bool"),
    "kernel.line": _Key("x", "choice", ("x", "y"), ("kernel", "--line")),
    # eps = 2 pi r / lambda: radiation_kernel refuses eps from the cube root of
    # the largest float on, about 9e101 wavelengths, far below where eps^2 overflows
    "kernel.rmax_wl": _Key(2.5, "pos_float", (0.0, 1e100), ("kernel", "--rmax")),
    "kernel.samples": _Key(1000, "pos_int", None, ("kernel", "--samples")),
    # kernel_nulls bisects each null in about 1 ms, on a bracket grid of 200 per null
    "nulls.count": _Key(3, "pos_int", (1, 1000), ("nulls", "--count")),
    "wavenumber.line": _Key("x", "choice", ("x", "y"), ("wavenumber", "--line")),
    "wavenumber.samples": _Key(400, "pos_int", None, ("wavenumber", "--samples")),
    "gain.method": _Key("both", "choice", ("ka", "cg", "both"), ("gain", "--method")),
    "convergence.orders": _Key([10, 15, 20, 25, 30], "pos_int_list", (1, 512),
                               ("convergence", "--orders")),
    "directivity.plane": _Key("both", "choice", ("E", "H", "both"),
                              ("directivity", "--plane")),
    "directivity.step_deg": _Key(1.0, "pos_float"),
    "beampattern.phi_step_deg": _Key(2.0, "pos_float"),
    "beampattern.theta_step_deg": _Key(4.0, "pos_float"),
    "spda.spacing_wl": _Key(0.5, "pos_float"),
    "spda.element_wl": _Key(0.1, "pos_float"),
    "spda.mode": _Key("exact", "choice", tuple(_ELEMENT_ORDER)),
    "spda.spacings_wl": _Key([1.0, 0.5, 0.25, 0.125], "pos_float_list", None,
                             ("spda-spacing", "--spacings")),
    "spda.sides_m": _Key([0.25, 0.35, 0.45, 0.55, 0.65, 0.75], "pos_float_list", None,
                         ("spda-aperture", "--sides")),
}


def _coerce(key: str, value: object, kind: str | None = None) -> object:
    """value checked against key's kind (or the given entry kind) and constraint."""
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key '{key}'", module="cli")
    row = _KEYS[key]
    kind = kind or row.kind
    if kind.endswith("_list"):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a non-empty list", module="cli")
        return [_coerce(key, item, kind[: -len("_list")]) for item in value]
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false", module="cli")
        return value
    if kind == "choice":
        if value not in row.constraint:
            allowed = ", ".join(row.constraint)
            raise ConfigError(f"{key} must be one of: {allowed}", module="cli")
        return value
    if kind.startswith("opt_"):
        if value is None:
            return None
        kind = kind[len("opt_"):]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        value = math.nan  # fails the integer or the finite check below
    if kind == "pos_int":
        if not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer", module="cli")
    else:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number", module="cli")
    if kind.startswith("pos_") and not value > 0:
        raise ConfigError(f"{key} must be positive", module="cli")
    if row.constraint is not None:
        lo, hi = row.constraint
        if not lo <= value <= hi:
            raise ConfigError(f"{key} must lie in [{lo}, {hi}]", module="cli")
    return value


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


def load_config(path: str | None = None, overrides: tuple[str, ...] = (),
                flags: Mapping[str, object] | None = None) -> ExperimentConfig:
    """Merge defaults, a JSON file, key=value overrides and flag values, then validate."""
    values = {key: row.default for key, row in _KEYS.items()}
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
    for key, value in (flags or {}).items():
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


def _channel(config: ExperimentConfig, aperture: Aperture | None = None):
    """The configured channel, its far-field boundary checked for aperture or,
    by default, the configured aperture."""
    return far_field_channel(config.physical, config.direction, config.distance,
                             config.aperture if aperture is None else aperture)


def _expansion(config: ExperimentConfig, order: int | None = None):
    """The closed form's expansion: the configured disk rule at quadrature.M or order."""
    return build_expansion(config.physical, config.order if order is None else order,
                           inner_rule=config.inner_rule)


def _solve_cg(config: ExperimentConfig, channel, order: int, seed):
    v = config.values
    return beamform_cg(config.physical, channel, config.aperture, order,
                       power=config.power, tol=v["cg.tol"], max_iter=v["cg.max_iter"],
                       init=v["cg.init"], seed=seed)


def _run_kernel(config: ExperimentConfig, seed):
    v = config.values
    wavelength = config.physical.wavelength
    n = v["kernel.samples"]
    step = v["kernel.rmax_wl"] * wavelength / n
    r = step * np.arange(1, n + 1)
    disp = np.zeros((n, 3))
    disp[:, 0 if v["kernel.line"] == "x" else 1] = r
    vals = radiation_kernel(disp, config.physical.wavenumber,
                            polarized=v["kernel.polarized"])
    rows = [(ri / wavelength, ri, ci) for ri, ci in zip(r, vals)]
    return ("separation_wl", "separation_m", "kernel"), rows, None


def _run_nulls(config: ExperimentConfig, seed):
    v = config.values
    rows = []
    for axis, u in (("x", 0.0), ("y", 1.0)):
        eps = kernel_nulls(u, count=v["nulls.count"],
                           polarized=v["kernel.polarized"])
        for index, value in enumerate(eps, start=1):
            rows.append((axis, index, value, value / (2.0 * np.pi)))
    return ("axis", "index", "eps", "spacing_wl"), rows, None


def _run_wavenumber(config: ExperimentConfig, seed):
    v = config.values
    k0 = config.physical.wavenumber
    n = v["wavenumber.samples"]
    # midpoint samples stay strictly inside the propagating disk
    edges = np.linspace(-k0, k0, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    kappa = np.zeros((n, 2))
    kappa[:, 0 if v["wavenumber.line"] == "x" else 1] = mids
    vals = wavenumber_kernel(kappa, k0)
    rows = [(ki / k0, ci) for ki, ci in zip(mids, vals)]
    return ("kappa_over_k0", "spectrum"), rows, None


def _run_gain(config: ExperimentConfig, seed):
    channel = _channel(config)
    method = config.values["gain.method"]
    payload: dict[str, object] = {"method": method}
    if method in ("ka", "both"):
        bf = beamform_ka(config.physical, channel, _expansion(config), config.aperture,
                         power=config.power)
        payload["gain_ka"] = bf.gain
        payload["uncoupled_bound"] = bf.uncoupled_bound
    if method in ("cg", "both"):
        sol = _solve_cg(config, channel, config.order, seed)
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
    channel = _channel(config)
    rows = []
    # the history is of config.order; a sweep over that order already solved it
    history = None
    for order in config.values["convergence.orders"]:
        ka = beamform_ka(config.physical, channel, _expansion(config, order),
                         config.aperture, power=config.power).gain
        sol = _solve_cg(config, channel, order, seed)
        if order == config.order:
            history = sol
        rows.append(("gain_ka", order, ka))
        rows.append(("gain_cg", order, sol.gain))
    if history is None:
        history = _solve_cg(config, channel, config.order, seed)
    for iteration, residual in enumerate(history.state.residual_norms, start=1):
        rows.append(("cg_residual", iteration, residual))
    for iteration, value in enumerate(history.state.functional_values, start=1):
        rows.append(("cg_functional", iteration, value))
    return ("series", "index", "value"), rows, None


def _run_directivity(config: ExperimentConfig, seed):
    v = config.values
    planes = ("E", "H") if v["directivity.plane"] == "both" \
        else (v["directivity.plane"],)
    # the E plane scans the polarization axis (azimuth pi/2), the H plane the other
    theta = np.array([np.pi / 2 if plane == "E" else 0.0 for plane in planes])[:, None]
    # stop short of grazing, where the per-area limit degenerates
    angles = np.arange(0.0, 90.0, v["directivity.step_deg"])
    phi = np.deg2rad(angles)
    limit = directivity_factor(config.physical, theta, phi)
    gains = steered_gain_profile(config.physical, _expansion(config), config.aperture,
                                 theta, phi, config.distance)
    rows = []
    for plane, limit_row, gain_row in zip(planes, limit, gains):
        rows.extend(("infinite_per_area", plane, a, value)
                    for a, value in zip(angles, limit_row))
        rows.extend(("steered_gain", plane, a, value) for a, value in zip(angles, gain_row))
    return ("series", "plane", "angle_deg", "value"), rows, None


def _run_beampattern(config: ExperimentConfig, seed):
    v = config.values
    channel = _channel(config)
    coupled = beamform_ka(config.physical, channel, _expansion(config),
                          config.aperture, power=config.power)
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


def _run_spda_spacing(config: ExperimentConfig, seed):
    v = config.values
    wavelength = config.physical.wavelength
    channel = _channel(config)
    element = v["spda.element_wl"] * wavelength
    order = _ELEMENT_ORDER[v["spda.mode"]]
    reference = beamform_ka(config.physical, channel, _expansion(config), config.aperture).gain
    rows = []
    for spacing in (s * wavelength for s in v["spda.spacings_wl"]):
        gains = lattice_gains(config.physical, channel, config.aperture, spacing,
                              element, element, order)
        # spacing_m / wavelength, which can differ from the configured value in the last bit
        rows.append((spacing / wavelength, spacing, *gains, reference))
    return ("spacing_wl", "spacing_m", "n_elements", "gain_coupled",
            "gain_uncoupled", "gain_reference"), rows, None


def _run_spda_aperture(config: ExperimentConfig, seed):
    v = config.values
    wavelength = config.physical.wavelength
    element = v["spda.element_wl"] * wavelength
    spacing = v["spda.spacing_wl"] * wavelength
    order = _ELEMENT_ORDER[v["spda.mode"]]
    # the largest swept side has the farthest far-field boundary
    largest = max(v["spda.sides_m"])
    channel = _channel(config, Aperture(largest, largest))
    expansion = _expansion(config)
    rows = []
    for side in v["spda.sides_m"]:
        aperture = Aperture(side, side)
        reference = beamform_ka(config.physical, channel, expansion, aperture).gain
        n, coupled, _ = lattice_gains(config.physical, channel, aperture, spacing,
                                      element, element, order)
        rows.append((side, aperture.area, n, coupled, reference))
    return ("side_m", "area_m2", "n_elements", "gain_discrete",
            "gain_reference"), rows, None


def _wavelengths(text: str) -> float:
    for suffix in ("wl", "λ"):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
            break
    return float(text)


def _flag_type(key: str, kind: str):
    """A number (in wavelengths, wl/λ suffix allowed, for ``_wl`` keys) or a comma list."""
    scalar = _wavelengths if key.endswith("_wl") else int if "int" in kind else float
    if kind.endswith("_list"):
        return lambda text: [scalar(part) for part in text.split(",") if part]
    return scalar


# subcommand -> (runner, help); every runner takes (config, seed) and returns
# (header, rows, json payload or None)
_COMMANDS = {
    "kernel": (_run_kernel, "spatial coupling kernel along an axis"),
    "nulls": (_run_nulls, "kernel zero crossings per axis"),
    "wavenumber": (_run_wavenumber, "wavenumber spectrum along an axis"),
    "gain": (_run_gain, "single-direction array gain"),
    "convergence": (_run_convergence, "gain versus quadrature order plus solver history"),
    "directivity": (_run_directivity, "principal-plane gain profiles"),
    "beampattern": (_run_beampattern, "coupled and coupling-blind radiation patterns"),
    "spda-spacing": (_run_spda_spacing, "discrete-array gain versus element pitch"),
    "spda-aperture": (_run_spda_aperture, "discrete-array gain versus aperture side"),
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
    subparsers = {name: sub.add_parser(name, parents=[common], help=text)
                  for name, (_, text) in _COMMANDS.items()}
    for key, row in _KEYS.items():
        if row.flag is None:
            continue
        if row.kind == "choice":
            kwargs = {"choices": row.constraint}
        else:
            metavar = ("V1,V2,..." if row.kind.endswith("_list") else "V") \
                + ("[wl]" if key.endswith("_wl") else "")
            kwargs = {"type": _flag_type(key, row.kind), "metavar": metavar}
        command, option = row.flag
        subparsers[command].add_argument(option, dest=key, help=f"sets {key}", **kwargs)
    return parser


def run(command: str, config: ExperimentConfig, seed=None):
    """Dispatch one experiment; returns (header, rows, json payload)."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}'", module="cli")
    return _COMMANDS[command][0](config, seed)


def _emit(args, config: ExperimentConfig, header, rows, payload) -> None:
    fmt = args.format or ("json" if args.command == "gain" else "csv")
    if payload is None:
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
    try:
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}", module="cli")
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
    # a flag's dest is the key it sets; flags left out read None
    flags = {key: value for key, value in vars(args).items()
             if key in _KEYS and value is not None}
    code, record = 0, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            config = load_config(args.config, tuple(args.set), flags)
            header, rows, payload = run(args.command, config, seed=args.seed)
            _emit(args, config, header, rows, payload)
        except (DomainError, NumericError, ValueError, MemoryError) as exc:
            # a MemoryError, or a ValueError that is not a DomainError (LinAlgError), is numeric
            code = 2 if isinstance(exc, DomainError) else 3
            record = {"code": code, "module": getattr(exc, "module", "cli") or "cli",
                      "message": str(exc)}
        finally:
            for item in caught:
                print(json.dumps({"warning": item.category.__name__,
                                  "message": str(item.message)}), file=sys.stderr)
    if record is not None:
        print(json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One pass of each library workload, composed from capa's public functions.

Every call goes through a module attribute (``ka.beamform_ka``, not a name
bound at import), so a traced pass sees the wrappers tracing.Tracer installs.
A pass returns one record per operation; checking the records happens after
the pass, outside its timing.
"""
from __future__ import annotations

import numpy as np
from capa import analysis, cg_solver, kernel_approx as ka, physics, quadrature, spda

import spec


class Workload:
    """A library workload at one size with its seed-drawn inputs."""

    def __init__(self, name: str, seed: int, size: str = "full"):
        self.name = name
        self.size = spec.SIZES[name][size]
        self.smoke = spec.SIZES[name]["smoke"]
        self.inputs = spec.seeded_inputs(name, seed)
        self.cfg = physics.PhysicalConfig(frequency=spec.FREQUENCY)
        self._pass = {"steer": _steer, "crosscheck": _crosscheck, "lattice": _lattice}[name]

    def run_pass(self, size: dict | None = None) -> list[dict]:
        return self._pass(self.cfg, size or self.size, self.inputs)

    def op_count(self) -> int:
        """Operations in one pass; a pass that raises fails all of them."""
        if self.name == "steer":
            return 2 * self.size["phi_count"] + 1
        if self.name == "crosscheck":
            return len(self.size["orders"]) * len(self.inputs["directions"])
        return len(self.size["pitches"]) + 1

    def warm_up(self) -> None:
        """Untimed set-up work: the pass at its smoke size, which loads every
        code path, and the quadrature rules of the full-size orders."""
        self.run_pass(self.smoke)
        for key in ("order", "orders", "pattern_order"):
            for order in np.atleast_1d(self.size.get(key, ())):
                quadrature.legendre_rule(int(order))


def probe_rel_diff(cfg, size: dict) -> float:
    """Relative gap between the closed-form and CG gains of one fixed pair,
    the criterion-04 front-fire direction."""
    aperture = physics.Aperture(size["side"], size["side"])
    channel = physics.far_field_channel(cfg, _direction(0.0, 0.0), spec.DISTANCE)
    gain_ka = ka.beamform_ka(cfg, channel, ka.build_expansion(cfg, size["order"]), aperture).gain
    gain_cg = cg_solver.beamform_cg(cfg, channel, aperture, size["order"]).gain
    return abs(gain_ka - gain_cg) / gain_cg


def crosscheck_ka_gains(cfg, size: dict, inputs: dict) -> list[list]:
    """Closed-form gains of every crosscheck (order, direction) pair."""
    aperture = physics.Aperture(size["side"], size["side"])
    gains = []
    for order in size["orders"]:
        expansion = ka.build_expansion(cfg, order)
        inverse = ka.inverse_operator(expansion, ka.gram_matrix(expansion, aperture),
                                      cfg.surface_resistance)
        for index, (theta, phi) in enumerate(inputs["directions"]):
            channel = physics.far_field_channel(cfg, _direction(theta, phi), spec.DISTANCE)
            bf = ka.beamform_ka(cfg, channel, expansion, aperture, inverse=inverse)
            gains.append([order, index, bf.gain])
    return gains


def failure(record: dict) -> str | None:
    """Reason an operation failed, or None when its outputs pass every check."""
    if "error" in record:
        return record["error"]
    for gain, (area, theta, phi) in record["gains"]:
        reason = spec.check_gain(float(gain), spec.uncoupled_bound(area, theta, phi))
        if reason:
            return reason
    for values, peak in record.get("patterns", ()):
        reason = spec.check_pattern(np.ravel(values).tolist(), float(peak))
        if reason:
            return reason
    if record.get("converged") is False:
        return "conjugate gradients did not converge"
    return None


def _direction(theta_deg: float, phi_deg: float) -> physics.Direction:
    return physics.Direction(np.deg2rad(theta_deg), np.deg2rad(phi_deg))


def _failed(op: str, exc: Exception) -> dict:
    return {"op": op, "error": f"{type(exc).__name__}: {exc}"}


def _steer(cfg, size, inputs) -> list[dict]:
    aperture = physics.Aperture(size["side"], size["side"])
    expansion = ka.build_expansion(cfg, size["order"])
    gram = ka.gram_matrix(expansion, aperture)
    inverse = ka.inverse_operator(expansion, gram, cfg.surface_resistance)
    records = []
    for plane, theta in (("E", 90.0), ("H", 0.0)):
        for phi in np.linspace(0.0, 89.0, size["phi_count"]):
            op = f"{plane} phi={phi:g}"
            try:
                channel = physics.far_field_channel(cfg, _direction(theta, phi), spec.DISTANCE)
                bf = ka.beamform_ka(cfg, channel, expansion, aperture, inverse=inverse)
            except Exception as exc:  # an operation failure, recorded and counted
                records.append(_failed(op, exc))
                continue
            records.append({"op": op, "gains": [(bf.gain, (aperture.area, theta, phi))]})

    theta, phi = inputs["pattern_direction"]
    op = f"pattern theta={theta:.3f} phi={phi:.3f}"
    t_deg, p_deg = np.meshgrid(np.arange(0.0, 360.0, size["theta_step"]),
                               np.arange(0.0, 90.0 + 1e-9, size["phi_step"]), indexing="ij")
    t_grid, p_grid = np.deg2rad(t_deg.ravel()), np.deg2rad(p_deg.ravel())
    try:
        channel = physics.far_field_channel(cfg, _direction(theta, phi), spec.DISTANCE)
        coupled = ka.beamform_ka(cfg, channel, expansion, aperture, inverse=inverse)
        blind = analysis.uncoupled_beamformer(cfg, channel, aperture)
        patterns = [analysis.beampattern(w, cfg, aperture, t_grid, p_grid,
                                         order=size["pattern_order"])
                    for w in (coupled, blind)]
    except Exception as exc:  # an operation failure, recorded and counted
        records.append(_failed(op, exc))
    else:
        records.append({"op": op, "gains": [(coupled.gain, (aperture.area, theta, phi))],
                        "patterns": [(p.values, p.peak) for p in patterns]})
    return records


def _crosscheck(cfg, size, inputs) -> list[dict]:
    aperture = physics.Aperture(size["side"], size["side"])
    records = []
    for order in size["orders"]:
        expansion = ka.build_expansion(cfg, order)
        inverse = ka.inverse_operator(expansion, ka.gram_matrix(expansion, aperture),
                                      cfg.surface_resistance)
        for index, (theta, phi) in enumerate(inputs["directions"]):
            op = f"M={order} theta={theta:.3f} phi={phi:.3f}"
            bound = (aperture.area, theta, phi)
            try:
                channel = physics.far_field_channel(cfg, _direction(theta, phi), spec.DISTANCE)
                gain_ka = ka.beamform_ka(cfg, channel, expansion, aperture, inverse=inverse).gain
                sol = cg_solver.beamform_cg(cfg, channel, aperture, order)
            except Exception as exc:  # an operation failure, recorded and counted
                records.append(_failed(op, exc))
                continue
            records.append({"op": op, "gains": [(gain_ka, bound), (sol.gain, bound)],
                            "pair": (order, index, gain_ka, sol.gain),
                            "converged": sol.state.converged})
    return records


def _lattice(cfg, size, inputs) -> list[dict]:
    aperture = physics.Aperture(size["side"], size["side"])
    wl = cfg.wavelength
    element = size["element"] * wl
    theta, phi = inputs["direction"]
    channel = physics.far_field_channel(cfg, _direction(theta, phi), spec.DISTANCE)
    records = []

    def solve(op, model, mode, coupled):
        try:
            coupling = spda.coupling_matrix(model, cfg, mode=mode)
            h = spda.discrete_channel(model, channel)
            drives = (coupling, coupling.diagonal_only()) if coupled \
                else (coupling.diagonal_only(),)
            gains = [spda.optimal_discrete_beamformer(h, c).gain for c in drives]
        except Exception as exc:  # an operation failure, recorded and counted
            records.append(_failed(op, exc))
            return
        covered = model.n_elements * model.element_area
        records.append({"op": op, "gains": [(g, (covered, theta, phi)) for g in gains]})

    for pitch in size["pitches"]:
        model = spda.element_layout(aperture, pitch * wl, element, element)
        solve(f"exact pitch={pitch:g}wl N={model.n_elements}", model, "exact", True)
    # coupling-blind drive of tiles that partition the aperture, as in criterion 08
    pitch = size["pitches"][-1]
    tiles = spda.element_layout(aperture, pitch * wl, pitch * wl, pitch * wl)
    solve(f"point tiles pitch={pitch:g}wl N={tiles.n_elements}", tiles, "point", False)
    return records

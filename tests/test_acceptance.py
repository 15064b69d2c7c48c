"""End-to-end acceptance gate.

Every test prints one ``criterion NN: PASS/FAIL (...)`` line with its key
numbers and enforces both the numeric target and the runtime budget.  The
uncoupled-bound criterion is defined last so it can audit every gain the
other criteria computed.
"""

import time

import numpy as np
import pytest
from conftest import CRITERION_LINES

from capa import (
    Aperture,
    Direction,
    PhysicalConfig,
    Z0,
    aperture_grid,
    beamform_cg,
    beamform_ka,
    build_expansion,
    far_field_channel,
    radiation_kernel,
    wavenumber_kernel,
)
from capa.analysis import (
    beampattern,
    directivity_factor,
    half_power_width,
    steered_gain_profile,
    uncoupled_beamformer,
)
from capa.cg_solver import apply_operator, discretize_operator, solve_fredholm, synthesize_beamformer
from capa.cli import main
from capa.quadrature import legendre_rule
from capa.spda import (
    coupling_matrix,
    discrete_channel,
    element_layout,
    lattice_gains,
    optimal_discrete_beamformer,
)

# (label, coupled gain, uncoupled bound) collected by the criteria below and
# audited by the bound criterion at the end of the file
BOUNDS: list[tuple[str, float, float]] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, line


def _csv_rows(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def test_criterion_01_kernel_null_positions(capsys):
    t0 = time.monotonic()
    code = main(["nulls"])
    out = capsys.readouterr().out
    rows = _csv_rows(out)
    eps = {(r[0], int(r[1])): float(r[2]) for r in rows}
    expected = {("x", 1): 2.74, ("x", 2): 6.12, ("x", 3): 9.32,
                ("y", 1): 4.50, ("y", 2): 7.73, ("y", 3): 10.90}
    devs = {key: abs(eps[key] - val) for key, val in expected.items()}
    worst = max(devs.values())
    elapsed = time.monotonic() - t0
    ok = code == 0 and worst <= 0.01 and elapsed < 1.0
    _report(1, ok, f"max null deviation {worst:.4f} (tol 0.01), {elapsed:.2f}s")


def test_criterion_02_isotropic_nulls_at_multiples_of_pi(capsys):
    t0 = time.monotonic()
    code = main(["nulls", "--set", "kernel.polarized=false", "--count", "4"])
    out = capsys.readouterr().out
    rows = _csv_rows(out)
    worst = 0.0
    for r in rows:
        index, eps = int(r[1]), float(r[2])
        worst = max(worst, abs(eps - index * np.pi))
    elapsed = time.monotonic() - t0
    ok = code == 0 and worst <= 1e-6 and elapsed < 1.0
    _report(2, ok, f"max |eps - i*pi| {worst:.2e} (tol 1e-6), {elapsed:.2f}s")


def test_criterion_03_kernel_reconstruction_quality():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=7.8e9)
    wl = cfg.wavelength
    axis = np.linspace(-2.0 * wl, 2.0 * wl, 61)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    true = radiation_kernel(pts, cfg.wavenumber)
    peak = np.max(np.abs(true))

    def rel_err(order):
        approx = build_expansion(cfg, order).reconstruct(pts)
        return np.max(np.abs(approx - true)) / peak

    err30 = rel_err(30)
    err10 = rel_err(10)
    elapsed = time.monotonic() - t0
    ok = err30 < 0.02 and err10 > err30 and elapsed < 10.0
    _report(3, ok, f"max error {100 * err30:.2f}% at order 30 (tol 2%), "
                   f"{100 * err10:.2f}% at order 10, {elapsed:.1f}s")


def test_criterion_04_solver_cross_validation():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    aperture = Aperture(0.5, 0.5)
    directions = [(0.0, 0.0), (0.0, 60.0), (90.0, 30.0)]
    # A Gauss product rule with M nodes per axis resolves exp(j kappa . s) over
    # an aperture of side L only for M >~ k L, about 25 here; the closed form
    # therefore runs at resolved orders, while CG at order 20 is already within
    # 1e-5 of order 40.  Each solver is compared at its first order and checked
    # for drift to its second.
    ka_orders, cg_orders = (30, 40), (20, 30)
    theta, phi = np.deg2rad(np.array(directions).T)
    gains = {}
    for ka_order, cg_order in zip(ka_orders, cg_orders):
        profile = steered_gain_profile(cfg, build_expansion(cfg, ka_order), aperture,
                                       theta, phi, 50.0)
        for (th, ph), t, p, ka_gain in zip(directions, theta, phi, profile):
            channel = far_field_channel(cfg, Direction(t, p), 50.0)
            cg = beamform_cg(cfg, channel, aperture, cg_order)
            gains[("ka", ka_order, th, ph)] = ka_gain
            gains[("cg", cg_order, th, ph)] = cg.gain
            if ka_order == ka_orders[0]:
                bound = 2.0 * aperture.area * abs(channel.amplitude) ** 2 \
                    / cfg.surface_resistance
                BOUNDS.append((f"solver ka ({th:g},{ph:g})", ka_gain, bound))
                BOUNDS.append((f"solver cg ({th:g},{ph:g})", cg.gain, bound))
    (ka_lo, ka_hi), (cg_lo, cg_hi) = ka_orders, cg_orders
    details = [f"ka M={ka_lo}/{ka_hi}, cg M={cg_lo}/{cg_hi}"]
    ok = True
    for th, ph in directions:
        cross = abs(gains[("ka", ka_lo, th, ph)] - gains[("cg", cg_lo, th, ph)]) \
            / gains[("cg", cg_lo, th, ph)]
        drift_ka = abs(gains[("ka", ka_hi, th, ph)] - gains[("ka", ka_lo, th, ph)]) \
            / gains[("ka", ka_hi, th, ph)]
        drift_cg = abs(gains[("cg", cg_hi, th, ph)] - gains[("cg", cg_lo, th, ph)]) \
            / gains[("cg", cg_hi, th, ph)]
        ok = ok and cross < 1e-4 and drift_ka < 1e-3 and drift_cg < 1e-3
        details.append(f"({th:g},{ph:g}): cross {cross:.1e}, "
                       f"drift ka {drift_ka:.1e} cg {drift_cg:.1e}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(4, ok, "; ".join(details) + f"; tol 1e-4/1e-3, {elapsed:.1f}s")


def test_criterion_05_power_constraint_equality():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    aperture = Aperture(0.5, 0.5)
    channel = far_field_channel(cfg, Direction(0.0, 0.0), 50.0)

    grid = aperture_grid(aperture, 20)
    op = discretize_operator(cfg, grid)
    state = solve_fredholm(op, np.conj(channel(grid.points)))
    sol = synthesize_beamformer(op, channel, state)
    vals = sol.scale * sol.grid_values
    cg_power = 0.5 * np.real(np.vdot(vals, grid.weights * apply_operator(op, vals)))
    cg_err = abs(cg_power - 1.0)

    bf = beamform_ka(cfg, channel, build_expansion(cfg, 20), aperture)
    fine = aperture_grid(aperture, 30)
    w = bf(fine.points)
    diffs = fine.points[:, None, :] - fine.points[None, :, :]
    kern = radiation_kernel(diffs, cfg.wavenumber)
    radiated = 0.5 * np.real(np.vdot(w, fine.weights * (kern @ (fine.weights * w))))
    dissipated = 0.5 * cfg.surface_resistance * np.real(
        np.vdot(w, fine.weights * w))
    ka_err = abs(radiated + dissipated - 1.0)

    elapsed = time.monotonic() - t0
    ok = cg_err < 1e-6 and ka_err < 0.01 and elapsed < 30.0
    _report(5, ok, f"cg power error {cg_err:.1e} (tol 1e-6), "
                   f"ka power vs true kernel {ka_err:.1e} (tol 1e-2), {elapsed:.1f}s")


def test_criterion_07_infinite_aperture_limit():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    k0 = cfg.wavenumber
    zs = cfg.surface_resistance
    distance = 50.0

    # identity between the spectral and closed angular forms of the limit
    th = np.deg2rad(np.arange(181.0))[:, None]
    ph = np.deg2rad(np.arange(91.0))[None, :]
    th_b, ph_b = np.broadcast_arrays(th, ph)
    grazing = np.abs(np.cos(ph_b)) < 1e-9
    pol = 1.0 - (np.sin(th_b) * np.sin(ph_b)) ** 2
    amp2 = (k0 * Z0 * pol / (4.0 * np.pi * distance)) ** 2
    kappa = np.stack([np.where(grazing, 0.0, k0 * np.cos(th_b) * np.sin(ph_b)),
                      np.where(grazing, 0.0, k0 * np.sin(th_b) * np.sin(ph_b))], axis=-1)
    spectral = np.where(grazing, 0.0,
                        8.0 * np.pi ** 2 * amp2 / (zs + wavenumber_kernel(kappa, k0)))
    closed = np.where(grazing, 0.0,
                      (k0 / distance) ** 2 * directivity_factor(cfg, th_b, ph_b))
    scale = np.maximum(np.maximum(np.abs(spectral), np.abs(closed)), 1.0)
    identity_err = float(np.max(np.abs(spectral - closed) / scale))

    # per-area front-fire gain trend against the closed limit value
    wl = cfg.wavelength
    limit = (k0 / distance) ** 2 * Z0 ** 2 / (2.0 * zs + Z0)
    channel = far_field_channel(cfg, Direction(0.0, 0.0), distance)
    expansion = build_expansion(cfg, 20)
    per_area = []
    for side in (wl, 2.0 * wl, 4.0 * wl):
        ap = Aperture(side, side)
        bf = beamform_ka(cfg, channel, expansion, ap)
        per_area.append(4.0 * np.pi ** 2 * bf.gain / ap.area)
        BOUNDS.append((f"limit trend side {side / wl:g}wl", bf.gain, bf.uncoupled_bound))
    monotone = per_area[0] > per_area[1] > per_area[2] > limit
    # leading finite-size correction is O(1/side), so eliminate it from the
    # last two sides; the largest aperture alone is still far from the limit
    extrapolated = 2.0 * per_area[2] - per_area[1]
    extrap_gap = abs(extrapolated - limit) / limit
    direct_gap = abs(per_area[2] - limit) / limit

    elapsed = time.monotonic() - t0
    ok = identity_err < 1e-12 and monotone and extrap_gap < 0.15 and elapsed < 120.0
    _report(7, ok, f"identity {identity_err:.1e} (tol 1e-12), per-area trend "
                   f"{per_area[0]:.1f}/{per_area[1]:.1f}/{per_area[2]:.1f} -> limit {limit:.1f}, "
                   f"extrapolated gap {100 * extrap_gap:.1f}% (tol 15%), "
                   f"direct 16wl^2 gap {100 * direct_gap:.1f}%, {elapsed:.1f}s")


def test_criterion_08_discrete_array_convergence_and_blind_growth():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    wl = cfg.wavelength
    aperture = Aperture(0.25, 0.25)
    channel = far_field_channel(cfg, Direction(0.0, 0.0), 50.0)
    reference = beamform_ka(cfg, channel, build_expansion(cfg, 20), aperture).gain

    side = 0.1 * wl
    gaps = []
    for spacing in (wl, wl / 2, wl / 4, wl / 8):
        model = element_layout(aperture, spacing, side, side)
        coupling = coupling_matrix(model, cfg, mode="exact")
        h = discrete_channel(model, channel)
        bf = optimal_discrete_beamformer(h, coupling)
        gaps.append(abs(bf.gain - reference) / reference)
        BOUNDS.append((f"discrete coupled {wl / spacing:g} per wl", bf.gain,
                       2.0 * float(np.sum(np.abs(h) ** 2)) / cfg.surface_resistance))
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))

    # coupling-blind drive on aperture-partitioning tiles keeps growing as the
    # partition refines instead of saturating at the continuous value
    blind = []
    for spacing in (wl / 8, wl / 16):
        tiles = element_layout(aperture, spacing, spacing, spacing)
        coupling = coupling_matrix(tiles, cfg, mode="point").diagonal_only()
        h = discrete_channel(tiles, channel)
        blind.append(optimal_discrete_beamformer(h, coupling).gain)
    growth = blind[1] > blind[0]

    elapsed = time.monotonic() - t0
    ok = shrinking and gaps[-1] < 0.10 and growth and elapsed < 120.0
    _report(8, ok, "coupled gaps " + "/".join(f"{100 * g:.1f}%" for g in gaps)
                   + f" (final tol 10%), blind {blind[0]:.2f} -> {blind[1]:.2f} at finer pitch, "
                   f"{elapsed:.1f}s")


def test_criterion_09_gain_linearity_and_plateaus():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    wl = cfg.wavelength
    channel = far_field_channel(cfg, Direction(0.0, 0.0), 50.0)
    expansion = build_expansion(cfg, 20)

    areas = np.linspace(0.05, 0.5, 10)
    gains = []
    for area in areas:
        ap = Aperture(float(np.sqrt(area)), float(np.sqrt(area)))
        bf = beamform_ka(cfg, channel, expansion, ap)
        gains.append(bf.gain)
        BOUNDS.append((f"area {area:.2f} m^2", bf.gain, bf.uncoupled_bound))
    gains = np.asarray(gains)
    slope, intercept = np.polyfit(areas, gains, 1)
    fitted = slope * areas + intercept
    r2 = 1.0 - np.sum((gains - fitted) ** 2) / np.sum((gains - gains.mean()) ** 2)

    sides = (0.30, 0.31, 0.3125, 0.33)
    counts, discrete = zip(*(lattice_gains(cfg, channel, Aperture(s, s), 0.5 * wl,
                                           0.1 * wl, 0.1 * wl)[:2] for s in sides))
    plateau = (counts[0] == counts[1]
               and discrete[1] == pytest.approx(discrete[0], rel=1e-12)
               and counts[2] == counts[3]
               and discrete[3] == pytest.approx(discrete[2], rel=1e-12)
               and discrete[2] > discrete[1])
    for s, gain in zip(sides, discrete):
        ch_bound = 2.0 * s * s * abs(channel.amplitude) ** 2 / cfg.surface_resistance
        BOUNDS.append((f"discrete side {s:g} m", gain, ch_bound))

    elapsed = time.monotonic() - t0
    ok = r2 > 0.99 and plateau and elapsed < 60.0
    _report(9, ok, f"linear fit R^2 {r2:.6f} (tol 0.99), slope {slope:.1f} per m^2, "
                   f"discrete plateaus at N {counts[0]}/{counts[2]}, "
                   f"{elapsed:.1f}s")


def test_criterion_10_principal_plane_shapes():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    small = Aperture(0.5, 0.5)
    angles = np.deg2rad(np.arange(91.0))

    e_pair = steered_gain_profile(cfg, build_expansion(cfg, 20), small, np.pi / 2,
                                  np.deg2rad([0.0, 89.0]), 50.0)
    e_ratio = e_pair[1] / e_pair[0]

    p05 = steered_gain_profile(cfg, build_expansion(cfg, 20), small, 0.0, angles, 50.0)
    tail_min = float(np.min(p05[40:90]))
    local_peak = p05[-1] > tail_min and p05[-1] > p05[-2]
    height_05 = p05[-1] / p05[0]

    big = Aperture(1.0, 1.0)
    p10 = steered_gain_profile(cfg, build_expansion(cfg, 40), big, 0.0, angles, 50.0)
    height_10 = p10[-1] / p10[0]
    check = steered_gain_profile(cfg, build_expansion(cfg, 50), big, 0.0,
                                 np.deg2rad([0.0, 90.0]), 50.0)
    stable = (abs(check[0] - p10[0]) / check[0] < 1e-2
              and abs(check[1] - p10[-1]) / check[1] < 1e-2)

    for idx in (0, 45, 90):
        ch = far_field_channel(cfg, Direction(0.0, angles[idx]), 50.0)
        bound = 2.0 * small.area * abs(ch.amplitude) ** 2 / cfg.surface_resistance
        BOUNDS.append((f"plane profile {idx} deg", float(p05[idx]), bound))

    elapsed = time.monotonic() - t0
    ok = (e_ratio < 0.01 and local_peak and height_10 < height_05
          and stable and elapsed < 120.0)
    _report(10, ok, f"E 89deg/front {e_ratio:.1e} (tol 1e-2), H end-fire peak "
                    f"{height_05:.3f}x front at 0.5 m -> {height_10:.3f}x at 1.0 m "
                    f"(must decrease), {elapsed:.1f}s")


def test_criterion_11_beampattern_narrowing_and_polarization_null():
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    aperture = Aperture(0.5, 0.5)
    expansion = build_expansion(cfg, 20)
    phi_deg = np.linspace(0.0, 90.0, 1801)
    phi = np.deg2rad(phi_deg)

    widths = {}
    for name, steer in (("front", 0.0), ("end", np.pi / 2)):
        channel = far_field_channel(cfg, Direction(0.0, steer), 50.0)
        coupled = beamform_ka(cfg, channel, expansion, aperture)
        blind = uncoupled_beamformer(cfg, channel, aperture)
        for kind, w in (("coupled", coupled), ("uncoupled", blind)):
            pattern = beampattern(w, cfg, aperture, 0.0, phi)
            widths[(name, kind)] = half_power_width(phi_deg, pattern.values)
        BOUNDS.append((f"pattern steer {name}", coupled.gain, coupled.uncoupled_bound))
    narrowing = (widths[("front", "coupled")] <= widths[("front", "uncoupled")] + 1e-9
                 and widths[("end", "coupled")] <= widths[("end", "uncoupled")] + 1e-9)

    grazing = far_field_channel(cfg, Direction(np.pi / 2, np.pi / 2), 50.0)
    null_gain = steered_gain_profile(cfg, build_expansion(cfg, 20), aperture,
                                     np.pi / 2, [np.pi / 2], 50.0)[0]
    polarization_null = grazing.amplitude == 0.0 and null_gain == 0.0

    elapsed = time.monotonic() - t0
    ok = narrowing and polarization_null and elapsed < 120.0
    _report(11, ok, f"widths front {widths[('front', 'coupled')]:.2f}<="
                    f"{widths[('front', 'uncoupled')]:.2f} deg, end "
                    f"{widths[('end', 'coupled')]:.2f}<={widths[('end', 'uncoupled')]:.2f} deg, "
                    f"grazing polarization gain {null_gain:g}, {elapsed:.1f}s")


def test_criterion_12_property_suite(dense_coupling):
    t0 = time.monotonic()
    cfg = PhysicalConfig(frequency=2.4e9)
    zero_lag_target = cfg.wavenumber ** 2 * Z0 / (6.0 * np.pi)

    plain = build_expansion(cfg, 512, inner_rule="legendre")
    pair_err = abs(float(np.sum(plain.coefficients)) - zero_lag_target) / zero_lag_target
    cheb = build_expansion(cfg, 64, inner_rule="chebyshev")
    cheb_err = abs(float(np.sum(cheb.coefficients)) - zero_lag_target) / zero_lag_target

    rng = np.random.default_rng(20240815)
    exact = True
    for order in (3, 10, 40):
        rule = legendre_rule(order)
        coeffs = rng.standard_normal(2 * order)  # degree 2M-1
        vals = np.polyval(coeffs, rule.nodes)
        anti = np.polyint(coeffs)
        want = np.polyval(anti, 1.0) - np.polyval(anti, -1.0)
        got = float(rule.weights @ vals)
        exact = exact and abs(got - want) <= 1e-12 * max(1.0, abs(want))

    wl = cfg.wavelength
    model = element_layout(Aperture(0.2, 0.2), 0.5 * wl, 0.1 * wl, 0.1 * wl)
    psi = dense_coupling(coupling_matrix(model, cfg, mode="exact"))
    np.linalg.cholesky(psi)
    spd = np.array_equal(psi, psi.T) and np.min(np.linalg.eigvalsh(psi)) > 0

    aperture = Aperture(0.5, 0.5)
    channel = far_field_channel(cfg, Direction(0.0, 0.3), 50.0)
    grid = aperture_grid(aperture, 10)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(channel(grid.points))
    state = solve_fredholm(op, rhs, tol=1e-12)
    monotone = bool(np.all(np.diff(state.functional_values)
                           <= 1e-12 * np.max(np.abs(state.functional_values))))
    diffs = grid.points[:, None, :] - grid.points[None, :, :]
    kern = radiation_kernel(diffs, cfg.wavenumber)
    dense = np.linalg.solve(
        kern * grid.weights[None, :] + cfg.surface_resistance * np.eye(grid.points.shape[0]),
        rhs)
    oracle_err = float(np.max(np.abs(state.values - dense)) / np.max(np.abs(dense)))

    elapsed = time.monotonic() - t0
    ok = (pair_err < 1e-3 and cheb_err < 1e-12 and exact and spd and monotone
          and oracle_err < 1e-8 and elapsed < 60.0)
    _report(12, ok, f"zero-lag pair error {pair_err:.1e} (tol 1e-3, nested rule "
                    f"{cheb_err:.1e}), quadrature exact to degree 2M-1: {exact}, "
                    f"coupling matrix SPD: {spd}, functional monotone: {monotone}, "
                    f"dense oracle {oracle_err:.1e} (tol 1e-8), {elapsed:.1f}s")


# defined last: audits every (gain, bound) pair the other criteria recorded
def test_criterion_06_uncoupled_bound_holds_everywhere():
    if not BOUNDS:
        # standalone run: collect a small sweep of coupled gains directly
        cfg = PhysicalConfig(frequency=2.4e9)
        channel = far_field_channel(cfg, Direction(0.0, 0.0), 50.0)
        expansion = build_expansion(cfg, 20)
        for side in (0.25, 0.5, 0.75):
            bf = beamform_ka(cfg, channel, expansion, Aperture(side, side))
            BOUNDS.append((f"fallback side {side:g} m", bf.gain, bf.uncoupled_bound))
    violations = [(label, gain, bound) for label, gain, bound in BOUNDS
                  if not gain < bound]
    margin = min(bound / gain for _, gain, bound in BOUNDS)
    ok = not violations
    _report(6, ok, f"{len(BOUNDS)} coupled gains all below their uncoupled bound, "
                   f"tightest bound/gain ratio {margin:.3f}"
                   + (f"; violations: {violations}" if violations else ""))

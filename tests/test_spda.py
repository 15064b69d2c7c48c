"""Tests for the discrete-array geometry, coupling, and beamforming."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capa import (
    Aperture,
    Direction,
    DomainError,
    NumericError,
    PhysicalConfig,
    aperture_grid,
    beamform_ka,
    build_expansion,
    far_field_channel,
    radiation_kernel,
    spda,
)
from capa.spda import (
    SpdaModel,
    coupling_matrix,
    discrete_channel,
    element_layout,
    lattice_gains,
    optimal_discrete_beamformer,
)


def _two_element_model(cfg, separation_y, element_wl=0.05, order=6):
    side = element_wl * cfg.wavelength
    return SpdaModel(1, 2, separation_y, side, side, order=order)


def test_layout_counts_and_centering(cfg, aperture):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(aperture, d, side, side)
    assert model.n_elements == 64
    assert np.allclose(model.centers.mean(axis=0), 0.0, atol=1e-12)
    assert np.max(np.abs(model.centers[:, 0])) == pytest.approx(3.5 * d)
    assert np.all(model.centers[:, 2] == 0.0)
    # elements as large as the pitch tile the aperture and stay legal
    tiles = element_layout(aperture, d, d, d)
    assert tiles.n_elements == 64
    coupling_matrix(tiles, cfg, mode="point")


def test_layout_rejects_bad_geometry(cfg, aperture):
    d = 0.5 * cfg.wavelength
    with pytest.raises(DomainError):
        element_layout(aperture, -d, 0.1 * d, 0.1 * d)
    with pytest.raises(DomainError):
        element_layout(aperture, d, 1.1 * d, d)
    with pytest.raises(DomainError):
        element_layout(Aperture(0.01, 0.01), d, 0.1 * d, 0.1 * d)
    with pytest.raises(DomainError):
        SpdaModel(0, 1, d, d, d)
    with pytest.raises(DomainError):
        SpdaModel(1, 1, d, -d, d)
    with pytest.raises(DomainError, match="overlap"):
        SpdaModel(1, 2, 0.001 * d, d, d)
    nan = float("nan")
    with pytest.raises(DomainError):
        element_layout(aperture, nan, 0.1 * d, 0.1 * d)
    with pytest.raises(DomainError):
        element_layout(aperture, d, nan, 0.1 * d)
    for pitch in (nan, np.inf, 0.0, -d):
        with pytest.raises(DomainError, match="pitch"):
            SpdaModel(2, 1, pitch, 0.1 * d, 0.1 * d)
    with pytest.raises(DomainError):
        SpdaModel(1, 1, d, nan, d)
    with pytest.raises(DomainError):
        SpdaModel(1, 1, d, d, np.inf)
    side = 0.1 * cfg.wavelength
    below_side = side - 1e-9 * cfg.wavelength
    with pytest.raises(DomainError, match="overlap"):
        SpdaModel(2, 1, below_side, side, side)
    # one element per axis has no neighbour to overlap, and the slack is 1e-12 m
    SpdaModel(1, 2, side, 2.0 * side, side)
    SpdaModel(2, 2, side - 5e-13, side, side)


def test_model_is_a_lattice_with_integer_order(cfg):
    side = 0.1 * cfg.wavelength
    model = SpdaModel(2, 3, 0.1, side, side)
    assert model.n_elements == 6
    assert np.array_equal(model.centers, [[-0.05, -0.1, 0.0], [-0.05, 0.0, 0.0],
                                          [-0.05, 0.1, 0.0], [0.05, -0.1, 0.0],
                                          [0.05, 0.0, 0.0], [0.05, 0.1, 0.0]])
    for order in (2.5, True, 0):
        with pytest.raises(DomainError):
            SpdaModel(1, 1, side, side, side, order=order)
    with pytest.raises(DomainError):
        element_layout(Aperture(0.25, 0.25), 0.5 * cfg.wavelength, side, side, order=2.5)
    for count in (0, -1, 2.0, True, np.nan):
        with pytest.raises(DomainError, match="counts"):
            SpdaModel(count, 1, side, side, side)
        with pytest.raises(DomainError, match="counts"):
            SpdaModel(1, count, side, side, side)
    assert SpdaModel(np.int64(2), 1, side, side, side).n_elements == 2


def test_array_holding_dataclasses_compare_by_identity(cfg):
    # a generated __eq__ would compare the array fields and raise ValueError
    side = 0.1 * cfg.wavelength
    model = SpdaModel(2, 1, 1.0, side, side)
    for make in (lambda: coupling_matrix(model, cfg, mode="point"),
                 lambda: aperture_grid(Aperture(0.5, 0.5), 4)):
        first, second = make(), make()
        assert first == first
        assert first != second
        assert len({first, first, second}) == 2


def test_single_element_gain_formula(cfg, front_channel, dense_coupling):
    side = 0.1 * cfg.wavelength
    model = SpdaModel(1, 1, side, side, side)
    coupling = coupling_matrix(model, cfg)
    h = discrete_channel(model, front_channel)
    bf = optimal_discrete_beamformer(h, coupling)
    want = 2.0 * abs(h[0]) ** 2 / dense_coupling(coupling)[0, 0]
    assert bf.gain == pytest.approx(want, rel=1e-12)
    # uniform unit-energy profile: loss part of the diagonal is the sheet resistance
    assert coupling.self_impedance == cfg.surface_resistance


def test_coupling_matrix_symmetric_positive_definite(cfg, dense_coupling):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.2, 0.2), d, side, side)
    psi = dense_coupling(coupling_matrix(model, cfg))
    assert np.isrealobj(psi)
    assert np.array_equal(psi, psi.T)
    assert np.min(np.linalg.eigvalsh(psi)) > 0.0
    with pytest.raises(DomainError):
        coupling_matrix(model, cfg, mode="centroid")


def test_point_mode_approximates_exact(cfg, dense_coupling):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), d, side, side)
    exact = dense_coupling(coupling_matrix(model, cfg, mode="exact"), radiation_only=True)
    point = dense_coupling(coupling_matrix(model, cfg, mode="point"), radiation_only=True)
    # the one-node rule's diagonal is the point limit A K(0)
    self_point = model.element_area * radiation_kernel(np.zeros(3), cfg.wavenumber)
    assert np.allclose(np.diag(point), self_point, rtol=1e-14, atol=0.0)
    off = ~np.eye(model.n_elements, dtype=bool)
    rel = np.abs(point[off] - exact[off]) / np.max(np.abs(exact[off]))
    assert np.max(rel) < 0.05


def test_point_mode_vanishes_at_kernel_null(cfg, dense_coupling):
    null_sep = 0.71514832656364891 * cfg.wavelength
    model = _two_element_model(cfg, null_sep)
    psi = dense_coupling(coupling_matrix(model, cfg, mode="point"), radiation_only=True)
    assert abs(psi[0, 1]) / psi[0, 0] < 1e-10
    regular = _two_element_model(cfg, 0.5 * cfg.wavelength)
    psi_reg = dense_coupling(coupling_matrix(regular, cfg, mode="point"), radiation_only=True)
    assert abs(psi_reg[0, 1]) / psi_reg[0, 0] > 1e-3


def test_broadside_channel_is_uniform(cfg, front_channel):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), d, side, side)
    h = discrete_channel(model, front_channel)
    want = np.conj(front_channel.amplitude) * np.sqrt(model.element_area)
    assert np.allclose(h, want, rtol=1e-12)
    assert np.ptp(np.abs(h)) < 1e-12 * np.abs(h[0])


@pytest.mark.parametrize("theta, phi", [(0.0, 0.0), (np.pi / 2, np.pi / 6), (0.7, 1.3)])
def test_discrete_channel_matches_element_quadrature(cfg, theta, phi):
    # the closed form against an independent order-12 Gauss rule over each element
    channel = far_field_channel(cfg, Direction(theta, phi), 50.0)
    side_x, side_y = 0.3 * cfg.wavelength, 0.2 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), 0.4 * cfg.wavelength, side_x, side_y)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    px, py = np.meshgrid(0.5 * side_x * nodes, 0.5 * side_y * nodes, indexing="ij")
    local = np.column_stack([px.ravel(), py.ravel(), np.zeros(px.size)])
    w = np.outer(weights, weights).ravel() * (model.element_area / 4.0)
    want = np.conj(channel(model.centers[:, None, :] + local) @ w) / np.sqrt(model.element_area)
    got = discrete_channel(model, channel)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_beamformer_power_and_optimality(cfg, oblique_channel, dense_coupling):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), d, side, side)
    coupling = coupling_matrix(model, cfg, mode="point")
    h = discrete_channel(model, oblique_channel)
    power = 1.7
    bf = optimal_discrete_beamformer(h, coupling, power=power)
    psi = dense_coupling(coupling)
    quad = 0.5 * np.real(np.vdot(bf.weights, psi @ bf.weights))
    assert quad == pytest.approx(power, rel=1e-10)

    def achieved(w):
        return 2.0 * abs(np.vdot(h, w)) ** 2 / np.real(np.vdot(w, psi @ w))

    assert achieved(bf.weights) == pytest.approx(bf.gain, rel=1e-10)
    rng = np.random.default_rng(42)
    for _ in range(10):
        bump = rng.standard_normal(h.size) + 1j * rng.standard_normal(h.size)
        w = bf.weights + 0.01 * np.max(np.abs(bf.weights)) * bump
        assert achieved(w) <= bf.gain * (1.0 + 1e-12)


def test_diagonal_coupling_reduces_to_matched_filter(cfg, oblique_channel, dense_coupling):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), d, side, side)
    coupling = coupling_matrix(model, cfg, mode="point").diagonal_only()
    h = discrete_channel(model, oblique_channel)
    bf = optimal_discrete_beamformer(h, coupling)
    psi = dense_coupling(coupling)
    diag = psi[0, 0]
    assert np.allclose(np.diag(psi), diag)
    want = 2.0 * float(np.sum(np.abs(h) ** 2)) / diag
    assert bf.gain == pytest.approx(want, rel=1e-12)
    matched = h / np.linalg.norm(h)
    direction = bf.weights / np.linalg.norm(bf.weights)
    assert abs(np.vdot(matched, direction)) == pytest.approx(1.0, rel=1e-12)
    lossy = replace(coupling, table=-coupling.table, self_impedance=0.0)
    with pytest.raises(NumericError):
        optimal_discrete_beamformer(h, lossy)


def _dense_drive(h, psi):
    """Gain and drive from np.linalg.cholesky of the gathered dense matrix."""
    lower = np.linalg.cholesky(psi)
    whitened = np.linalg.solve(lower, h)
    inner = np.vdot(whitened, whitened).real
    return 2.0 * inner, np.sqrt(2.0 / inner) * np.linalg.solve(lower.T, whitened)


@pytest.mark.parametrize("sides, pitch_wl, mode, counts", [
    ((0.25, 0.25), 0.5, "exact", (4, 4)),     # even counts
    ((0.31, 0.31), 0.35, "exact", (7, 7)),    # odd counts: padding rows
    ((0.2, 0.45), 0.3, "point", (5, 12)),     # n_x != n_y
    pytest.param((0.09, 0.09), 0.5, "exact", (1, 1), id="1x1"),   # three padding blocks
    pytest.param((0.09, 0.4), 0.5, "exact", (1, 6), id="1x6"),    # two padding blocks
    pytest.param((0.4, 0.09), 0.5, "point", (6, 1), id="6x1"),
])
def test_parity_solve_matches_dense_cholesky(cfg, oblique_channel, dense_coupling, sides,
                                             pitch_wl, mode, counts):
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(*sides), pitch_wl * cfg.wavelength, side, side)
    assert (model.nx, model.ny) == counts
    coupling = coupling_matrix(model, cfg, mode=mode)
    h = discrete_channel(model, oblique_channel)
    bf = optimal_discrete_beamformer(h, coupling)
    gain, weights = _dense_drive(h, dense_coupling(coupling))
    assert bf.gain == pytest.approx(gain, rel=1e-12)
    assert np.max(np.abs(bf.weights - weights)) <= 1e-10 * np.max(np.abs(weights))


def test_mirrored_solves_form_no_dense_matrix(cfg, oblique_channel):
    # 32 x 32 elements: one N x N float array alone would be 8.4 MB; the four
    # blocks, their factors and the mirror sums' temporaries take 5.51 MB at
    # peak, 6.42 MB while the first-quadrant columns were folded
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.5, 0.5), 0.125 * cfg.wavelength, side, side)
    coupling = coupling_matrix(model, cfg, mode="point")
    h = discrete_channel(model, oblique_channel)
    for drive in (coupling, coupling.diagonal_only()):
        tracemalloc.start()
        try:
            optimal_discrete_beamformer(h, drive)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.75e6, drive.diagonal


def _brute_force_pair(model, cfg, offset, order=None):
    """Coupling of two elements offset apart by an independent 4-D tensor
    quadrature over both element surfaces, of the model's order unless given."""
    nodes, weights = np.polynomial.legendre.leggauss(order or model.order)
    sx = 0.5 * model.element_x * nodes
    wx = 0.5 * model.element_x * weights
    sy = 0.5 * model.element_y * nodes
    wy = 0.5 * model.element_y * weights
    px, py = np.meshgrid(sx, sy, indexing="ij")
    pts = np.column_stack([px.ravel(), py.ravel(), np.zeros(px.size)])
    pw = np.outer(wx, wy).ravel() / np.sqrt(model.element_area)
    disp = pts[:, None, :] - pts[None, :, :] + offset
    kern = radiation_kernel(disp, cfg.wavenumber)
    return float(pw @ kern @ pw)


def test_exact_mode_matches_brute_force_pair(cfg, dense_coupling):
    model = _two_element_model(cfg, 0.3 * cfg.wavelength, element_wl=0.08, order=6)
    got = dense_coupling(coupling_matrix(model, cfg, mode="exact"), radiation_only=True)[0, 1]
    want = _brute_force_pair(model, cfg, np.array([0.0, -model.pitch, 0.0]))
    assert got == pytest.approx(want, rel=1e-10)
    refined = replace(model, order=12)
    finer = dense_coupling(coupling_matrix(refined, cfg, mode="exact"), radiation_only=True)[0, 1]
    assert got == pytest.approx(finer, rel=1e-6)


def _lattice_offsets(model):
    """Center offsets (N, N, 3) of every element pair, (i - j) pitch per axis,
    from each element's integer lattice position."""
    n = np.arange(model.n_elements)
    steps = np.column_stack([n // model.ny, n % model.ny, np.zeros_like(n)])
    return (steps[:, None, :] - steps) * model.pitch


@pytest.mark.parametrize("order", [*range(1, 13), 40])
def test_unit_hat_rule_is_gauss_rule_of_hat_weight(order):
    # order nodes integrate x^2k (1 - |x|) over [-1, 1], 2 / ((2k+1)(2k+2)),
    # for every k < order (the odd moments vanish); measured 3.2e-15 up to
    # order 12 and 2.3e-14 at order 40
    nodes, weights = spda._unit_hat_rule(order)
    k = np.arange(order)
    moments = (nodes[:, None] ** (2 * k)).T @ weights
    exact = 2.0 / ((2 * k + 1) * (2 * k + 2))
    assert np.max(np.abs(moments / exact - 1.0)) <= (1e-13 if order > 12 else 1e-14)
    assert np.max(np.abs((nodes[:, None] ** (2 * k + 1)).T @ weights)) <= 1e-16
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert np.all(weights > 0.0) and np.all(np.abs(nodes) < 1.0)
    if order == 1:
        assert nodes.tolist() == [0.0] and weights.tolist() == [1.0]


def _per_pair_hat_sum(model, cfg, offset):
    """Coupling of two elements offset apart by the hat rule of each side
    summed node by node for this one offset."""
    (tx, wx), (ty, wy) = (spda._hat_rule(e, model.order)
                          for e in (model.element_x, model.element_y))
    disp = np.stack(np.broadcast_arrays(tx[:, None], ty, 0.0), axis=-1) + offset
    return float(wx @ radiation_kernel(disp, cfg.wavenumber) @ wy) / model.element_area


_LATTICE_SIDES = st.tuples(st.floats(0.02, 0.2), st.floats(0.02, 0.2)).filter(
    lambda s: abs(s[0] - s[1]) > 1e-3)
_LATTICE_GAPS = st.floats(0.0, 1.5)


def _random_lattice(cfg, order, sides, gap):
    """2 x 3 lattice of unequal element sides, lengths in wavelengths."""
    wl = cfg.wavelength
    ex, ey = sides[0] * wl, sides[1] * wl
    return SpdaModel(2, 3, max(ex, ey) + gap * wl, ex, ey, order=order)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(1, 8), sides=_LATTICE_SIDES, gap=_LATTICE_GAPS)
def test_hat_rule_matches_brute_force_pairs(cfg, dense_coupling, order, sides, gap):
    model = _random_lattice(cfg, order, sides, gap)
    got = dense_coupling(coupling_matrix(model, cfg, mode="exact"), radiation_only=True)
    want = np.array([[_per_pair_hat_sum(model, cfg, offset) for offset in row]
                     for row in _lattice_offsets(model)])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(sides=_LATTICE_SIDES, gap=_LATTICE_GAPS)
def test_default_hat_rule_matches_converged_product_rule(cfg, sides, gap):
    # the derived hat rule (4 to 6 nodes per axis here) against the order-16
    # product rule over both element surfaces, on every table entry, relative
    # to the self term.  They agree to 2.0e-15 on a 10 x 10 x 7 grid of the
    # domain and to 1.8e-15 on three random sets of about 415 lattices each,
    # the smallest elements, whose nodes sit a few 1e-3 apart in k r, included
    model = _random_lattice(cfg, None, sides, gap)
    got = coupling_matrix(model, cfg, mode="exact").table
    want = np.array([[_brute_force_pair(model, cfg, np.array([i, j, 0.0]) * model.pitch,
                                        order=16) for j in range(model.ny)]
                     for i in range(model.nx)])
    assert np.max(np.abs(got - want)) <= 4e-15 * abs(want[0, 0])


@pytest.mark.parametrize("mode, per_offset, sides_wl, side_m, pitch_wl, steps", [
    pytest.param("exact", 6 ** 2, (0.1, 0.1), 0.25, 0.5, 4, id="exact-36"),
    pytest.param("point", 1, (0.1, 0.1), 0.25, 0.5, 4, id="point-1"),
    # 32 elements per axis at lambda/8 on 0.5 m: 32 steps per axis, the
    # largest lattice of capa spda-spacing and the lattice benchmark
    pytest.param("exact", 6 ** 2, (0.1, 0.1), 0.5, 0.125, 32, id="exact-36-32x32"),
    # unequal sides take their own node counts
    pytest.param("exact", 5 * 8, (0.05, 0.25), 0.25, 0.5, 4, id="exact-40-unequal"),
])
def test_coupling_evaluates_kernel_once_per_node_difference(cfg, monkeypatch, mode, per_offset,
                                                            sides_wl, side_m, pitch_wl, steps):
    # an n x n lattice has n distinct steps |i - j| per axis, n^2 table
    # entries; the derived hat rule has 6 node differences per axis on a
    # tenth of a wavelength, 5 on a twentieth and 8 on a quarter, the point
    # rule 1
    entries = []

    def counting(displacement, *args, **kwargs):
        entries.append(np.prod(np.shape(displacement)[:-1], dtype=int))
        return radiation_kernel(displacement, *args, **kwargs)

    monkeypatch.setattr(spda, "radiation_kernel", counting)
    sides = (s * cfg.wavelength for s in sides_wl)
    model = element_layout(Aperture(side_m, side_m), pitch_wl * cfg.wavelength, *sides)
    assert model.n_elements == steps ** 2 and model.order is None
    coupling = coupling_matrix(model, cfg, mode=mode)
    assert coupling.table.shape == (steps, steps)
    assert sum(entries) == steps ** 2 * per_offset


def _split_hat_table(model, cfg, per_half):
    """Step table of the hat integral by an independent split rule: per axis,
    per_half Gauss-Legendre points on each half of [-e, e], weighted by
    e - |t|, summed for every step offset at once."""
    nodes, weights = np.polynomial.legendre.leggauss(per_half)
    axes = []
    for e in (model.element_x, model.element_y):
        t = np.concatenate([lo + 0.5 * e * (nodes + 1.0) for lo in (-e, 0.0)])
        axes.append((t, 0.5 * e * np.tile(weights, 2) * (e - np.abs(t))))
    (tx, wx), (ty, wy) = axes
    steps = np.stack(np.meshgrid(np.arange(model.nx), np.arange(model.ny), 0,
                                 indexing="ij"), axis=-1).reshape(-1, 1, 1, 3)
    disp = np.stack(np.broadcast_arrays(tx[:, None], ty, 0.0), axis=-1) + steps * model.pitch
    vals = radiation_kernel(disp, cfg.wavenumber) @ wy @ wx / model.element_area
    return vals.reshape(model.nx, model.ny)


@pytest.mark.parametrize("side_wl, bound", [
    (0.1, 5e-15), (0.25, 1e-14), (0.5, 1e-11), (1.0, 7e-7), (1.0, 1e-13), (2.0, 1e-13),
])
def test_default_hat_rule_matches_converged_split_rule(cfg, side_wl, bound):
    # 4 x 4 tiles, pitch = side, against 30 points per half, relative to the
    # self term, with 6, 8, 10, 14 and 19 nodes per axis: measured 6.9e-16,
    # 1.5e-15, 2.6e-15, 1.0e-14 and 2.1e-14 (8 nodes: 2.8e-15, 1.5e-15,
    # 4.5e-12, 5.9e-7 and 2.5e-2)
    side = side_wl * cfg.wavelength
    model = SpdaModel(4, 4, side, side, side)
    got = coupling_matrix(model, cfg, mode="exact").table
    want = _split_hat_table(model, cfg, 30)
    assert np.max(np.abs(got - want)) <= bound * abs(want[0, 0])


def test_element_beyond_node_cap_is_domain_error(cfg):
    # 117 wavelengths would need more than legendre_rule's 512 nodes per
    # axis; 116 take 510.  An explicit order is honored at any side
    wl = cfg.wavelength
    assert spda._hat_order(116 * wl, cfg.wavenumber) == 510
    for sides in ((117 * wl, 0.1 * wl), (0.1 * wl, 117 * wl)):
        model = SpdaModel(1, 1, 117 * wl, *sides)
        with pytest.raises(DomainError, match="512"):
            coupling_matrix(model, cfg)
        coupling_matrix(model, cfg, mode="point")
    coupling_matrix(SpdaModel(1, 1, 117 * wl, 117 * wl, 117 * wl, order=2), cfg)


def test_exact_mode_at_order_one_is_point_mode(cfg):
    # the one-node hat rule is the node 0 with weight side^2 per axis, so the
    # pair integral is the element area times the kernel at the center offset,
    # written out here over the lattice steps; mode "point" is that order
    wl = cfg.wavelength
    tiles = element_layout(Aperture(0.25, 0.25), wl / 8, wl / 8, wl / 8)
    for model in (tiles, SpdaModel(3, 4, 0.55 * wl, 0.08 * wl, 0.05 * wl)):
        got = coupling_matrix(replace(model, order=1), cfg).table
        i, j = np.meshgrid(np.arange(model.nx), np.arange(model.ny), indexing="ij")
        steps = np.stack([i, j, np.zeros_like(i)], axis=-1)
        want = model.element_area * radiation_kernel(steps * model.pitch, cfg.wavenumber)
        assert np.max(np.abs(got - want)) <= 1e-15 * abs(want[0, 0])
        assert np.array_equal(coupling_matrix(model, cfg, mode="point").table, got)


def test_exact_coupling_peak_memory(cfg):
    # lambda/8, 32 x 32: the step table and one block of displacements, 36
    # per offset; measured 4.24 MiB at peak (5.11 MiB at 64 per offset)
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.5, 0.5), 0.125 * cfg.wavelength, side, side)
    coupling_matrix(model, cfg)
    tracemalloc.start()
    try:
        coupling_matrix(model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 4.24 * 2 ** 20


@pytest.mark.parametrize("phi, richardson_tol", [
    pytest.param(0.0, 5e-4, id="front-fire"),
    pytest.param(np.pi / 3, 3e-4, id="phi-60"),
])
def test_tiles_converge_to_closed_form_at_second_order(cfg, phi, richardson_tol):
    # tiles that cover 0.25 m (element = pitch = L / n) are a piecewise-constant
    # Galerkin discretization: the gain gap to the closed form falls as
    # pitch^2, so successive differences shrink about 4-fold and Richardson
    # extrapolation lands near the closed form.  Measured: ratios 3.32 (front
    # fire) and 5.55 (phi = 60 deg); extrapolated gaps -4.68e-4 and 2.51e-4
    length = 0.25
    channel = far_field_channel(cfg, Direction(0.0, phi), 50.0)
    order = int(np.ceil(1.2 * cfg.wavenumber * length)) + 8
    assert order == 24
    reference = beamform_ka(cfg, channel, build_expansion(cfg, order),
                            Aperture(length, length)).gain
    gaps = []
    for n in (8, 16, 32):
        tiles = SpdaModel(n, n, length / n, length / n, length / n)
        coupling = coupling_matrix(tiles, cfg, mode="exact")
        gain = optimal_discrete_beamformer(discrete_channel(tiles, channel), coupling).gain
        gaps.append(gain / reference - 1.0)
    g8, g16, g32 = gaps
    assert g8 < g16 < g32 < 0.0
    assert 3.0 <= (g16 - g8) / (g32 - g16) <= 6.0
    assert abs(g32 + (g32 - g16) / 3.0) <= richardson_tol


@pytest.mark.parametrize("mode", ["exact", "point"])
def test_offset_gather_matches_per_pair_on_rectangular_grid(cfg, dense_coupling, mode):
    # 3 x 4 lattice: every pair's table entry against its own integral at the
    # center offset (i - j) pitch
    wl = cfg.wavelength
    side = 0.08 * wl
    model = SpdaModel(3, 4, 0.55 * wl, side, side)
    got = dense_coupling(coupling_matrix(model, cfg, mode=mode), radiation_only=True)
    assert np.array_equal(got, got.T)
    want = np.empty_like(got)
    for i, row in enumerate(_lattice_offsets(model)):
        for j, offset in enumerate(row):
            if mode == "exact":
                want[i, j] = _brute_force_pair(model, cfg, offset, order=8)
            else:
                want[i, j] = model.element_area * radiation_kernel(offset, cfg.wavenumber)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))


def test_point_mode_is_positive_definite(cfg, aperture, dense_coupling):
    # A K(c_i - c_j) samples a positive-definite function, so the radiation
    # part is positive semidefinite and Psi's spectrum stays above Zs
    side = 0.1 * cfg.wavelength
    for pitch_wl in (1.0, 0.5, 0.25, 0.125):
        model = element_layout(aperture, pitch_wl * cfg.wavelength, side, side)
        coupling = coupling_matrix(model, cfg, mode="point")
        smallest = np.linalg.eigvalsh(dense_coupling(coupling))[0]
        assert smallest > 0.5 * coupling.self_impedance, pitch_wl


def test_spacing_sweep_table_shape(cfg, front_channel):
    wl = cfg.wavelength
    side = 0.1 * wl
    rows = [lattice_gains(cfg, front_channel, Aperture(0.125, 0.125), d, side, side)
            for d in (0.5 * wl, 0.25 * wl)]
    assert len(rows) == 2
    assert rows[1][0] > rows[0][0]
    for _, coupled, blind in rows:
        assert coupled > 0.0
        assert blind > 0.0


def test_aperture_sweep_plateau_between_pitch_multiples(cfg, front_channel):
    wl = cfg.wavelength
    d = 0.5 * wl
    side = 0.1 * wl
    expansion = build_expansion(cfg, 20)
    apertures = [Aperture(0.30, 0.30), Aperture(0.31, 0.31)]
    rows = [lattice_gains(cfg, front_channel, ap, d, side, side, order=1) for ap in apertures]
    refs = [beamform_ka(cfg, front_channel, expansion, ap).gain for ap in apertures]
    assert rows[0][0] == rows[1][0] == 16
    assert rows[1][1] == pytest.approx(rows[0][1], rel=1e-12)
    assert refs[1] > refs[0]

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
    build_expansion,
    far_field_channel,
    radiation_kernel,
    spda,
)
from capa.spda import (
    SpdaModel,
    aperture_sweep,
    coupling_matrix,
    discrete_channel,
    element_layout,
    optimal_discrete_beamformer,
    spacing_sweep,
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


def test_single_element_gain_formula(cfg, front_channel):
    side = 0.1 * cfg.wavelength
    model = SpdaModel(1, 1, side, side, side)
    coupling = coupling_matrix(model, cfg)
    h = discrete_channel(model, front_channel)
    bf = optimal_discrete_beamformer(h, coupling)
    want = 2.0 * abs(h[0]) ** 2 / coupling.matrix[0, 0]
    assert bf.gain == pytest.approx(want, rel=1e-12)
    # uniform unit-energy profile: loss part of the diagonal is the sheet resistance
    assert coupling.self_impedance == cfg.surface_resistance


def test_coupling_matrix_symmetric_positive_definite(cfg):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.2, 0.2), d, side, side)
    coupling = coupling_matrix(model, cfg)
    psi = coupling.matrix
    assert np.isrealobj(psi)
    assert np.array_equal(psi, psi.T)
    assert np.min(np.linalg.eigvalsh(psi)) > 0.0
    with pytest.raises(DomainError):
        coupling_matrix(model, cfg, mode="centroid")


def test_point_mode_approximates_exact(cfg):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), d, side, side)
    exact = coupling_matrix(model, cfg, mode="exact").radiation
    point = coupling_matrix(model, cfg, mode="point").radiation
    # the one-node rule's diagonal is the point limit A K(0)
    self_point = model.element_area * radiation_kernel(np.zeros(3), cfg.wavenumber)
    assert np.allclose(np.diag(point), self_point, rtol=1e-14, atol=0.0)
    off = ~np.eye(model.n_elements, dtype=bool)
    rel = np.abs(point[off] - exact[off]) / np.max(np.abs(exact[off]))
    assert np.max(rel) < 0.05


def test_point_mode_vanishes_at_kernel_null(cfg):
    null_sep = 0.71514832656364891 * cfg.wavelength
    model = _two_element_model(cfg, null_sep)
    psi = coupling_matrix(model, cfg, mode="point")
    assert abs(psi.radiation[0, 1]) / psi.radiation[0, 0] < 1e-10
    regular = _two_element_model(cfg, 0.5 * cfg.wavelength)
    psi_reg = coupling_matrix(regular, cfg, mode="point")
    assert abs(psi_reg.radiation[0, 1]) / psi_reg.radiation[0, 0] > 1e-3


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


def test_beamformer_power_and_optimality(cfg, oblique_channel):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), d, side, side)
    coupling = coupling_matrix(model, cfg, mode="point")
    h = discrete_channel(model, oblique_channel)
    power = 1.7
    bf = optimal_discrete_beamformer(h, coupling, power=power)
    psi = coupling.matrix
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


def test_diagonal_coupling_reduces_to_matched_filter(cfg, oblique_channel):
    d = 0.5 * cfg.wavelength
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), d, side, side)
    coupling = coupling_matrix(model, cfg, mode="point").diagonal_only()
    h = discrete_channel(model, oblique_channel)
    bf = optimal_discrete_beamformer(h, coupling)
    diag = coupling.matrix[0, 0]
    assert np.allclose(np.diag(coupling.matrix), diag)
    want = 2.0 * float(np.sum(np.abs(h) ** 2)) / diag
    assert bf.gain == pytest.approx(want, rel=1e-12)
    matched = h / np.linalg.norm(h)
    direction = bf.weights / np.linalg.norm(bf.weights)
    assert abs(np.vdot(matched, direction)) == pytest.approx(1.0, rel=1e-12)
    lossy = replace(coupling, table=-coupling.table, self_impedance=0.0)
    with pytest.raises(NumericError):
        optimal_discrete_beamformer(h, lossy)


def _dense_drive(h, coupling):
    """Gain and drive from np.linalg.cholesky of the gathered dense matrix."""
    lower = np.linalg.cholesky(coupling.matrix)
    whitened = np.linalg.solve(lower, h)
    inner = np.vdot(whitened, whitened).real
    return 2.0 * inner, np.sqrt(2.0 / inner) * np.linalg.solve(lower.T, whitened)


@pytest.mark.parametrize("sides, pitch_wl, mode, counts", [
    ((0.25, 0.25), 0.5, "exact", (4, 4)),     # even counts
    ((0.31, 0.31), 0.35, "exact", (7, 7)),    # odd counts: padding rows
    ((0.2, 0.45), 0.3, "point", (5, 12)),     # n_x != n_y
])
def test_parity_solve_matches_dense_cholesky(cfg, oblique_channel, sides, pitch_wl, mode,
                                             counts):
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(*sides), pitch_wl * cfg.wavelength, side, side)
    assert (model.nx, model.ny) == counts
    coupling = coupling_matrix(model, cfg, mode=mode)
    h = discrete_channel(model, oblique_channel)
    bf = optimal_discrete_beamformer(h, coupling)
    gain, weights = _dense_drive(h, coupling)
    assert bf.gain == pytest.approx(gain, rel=1e-12)
    assert np.max(np.abs(bf.weights - weights)) <= 1e-10 * np.max(np.abs(weights))


def test_mirrored_solves_form_no_dense_matrix(cfg, oblique_channel):
    # 32 x 32 elements: one N x N float array alone would be 8.4 MB
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
        assert peak < 8 * model.n_elements ** 2, drive.diagonal
        assert "radiation" not in vars(drive) and "matrix" not in vars(drive)


def _brute_force_pair(model, cfg, offset):
    """Coupling of two elements offset apart by an independent 4-D tensor
    quadrature over both element surfaces."""
    nodes, weights = np.polynomial.legendre.leggauss(model.order)
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


def test_exact_mode_matches_brute_force_pair(cfg):
    model = _two_element_model(cfg, 0.3 * cfg.wavelength, element_wl=0.08, order=6)
    got = coupling_matrix(model, cfg, mode="exact").radiation[0, 1]
    want = _brute_force_pair(model, cfg, np.array([0.0, -model.pitch, 0.0]))
    assert got == pytest.approx(want, rel=1e-10)
    refined = replace(model, order=12)
    finer = coupling_matrix(refined, cfg, mode="exact").radiation[0, 1]
    assert got == pytest.approx(finer, rel=1e-6)


def _lattice_offsets(model):
    """Center offsets (N, N, 3) of every element pair, (i - j) pitch per axis,
    from each element's integer lattice position."""
    n = np.arange(model.n_elements)
    steps = np.column_stack([n // model.ny, n % model.ny, np.zeros_like(n)])
    return (steps[:, None, :] - steps) * model.pitch


@settings(max_examples=30, deadline=None)
@given(order=st.integers(1, 8),
       sides=st.tuples(st.floats(0.02, 0.2), st.floats(0.02, 0.2)).filter(
           lambda s: abs(s[0] - s[1]) > 1e-3),
       gap=st.floats(0.0, 1.5))
def test_difference_fold_matches_brute_force_pairs(cfg, order, sides, gap):
    # unequal element sides on a 2 x 3 lattice, lengths in wavelengths; odd
    # orders put a node at 0
    wl = cfg.wavelength
    ex, ey = sides[0] * wl, sides[1] * wl
    model = SpdaModel(2, 3, max(ex, ey) + gap * wl, ex, ey, order=order)
    got = coupling_matrix(model, cfg, mode="exact").radiation
    want = np.array([[_brute_force_pair(model, cfg, offset) for offset in row]
                     for row in _lattice_offsets(model)])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode, per_offset, side_m, pitch_wl, steps", [
    pytest.param("exact", 19 ** 2, 0.25, 0.5, 4, id="exact-361"),
    pytest.param("point", 1, 0.25, 0.5, 4, id="point-1"),
    # 32 elements per axis at lambda/8 on 0.5 m: 32 steps per axis, the
    # largest lattice of capa spda-spacing and the lattice benchmark
    pytest.param("exact", 19 ** 2, 0.5, 0.125, 32, id="exact-361-32x32"),
])
def test_coupling_evaluates_kernel_once_per_node_difference(cfg, monkeypatch, mode, per_offset,
                                                            side_m, pitch_wl, steps):
    # an n x n lattice has n distinct steps |i - j| per axis, n^2 table
    # entries; the order-6 rule has 19 distinct node differences per axis,
    # the point rule 1
    entries = []

    def counting(displacement, *args, **kwargs):
        entries.append(np.prod(np.shape(displacement)[:-1], dtype=int))
        return radiation_kernel(displacement, *args, **kwargs)

    monkeypatch.setattr(spda, "radiation_kernel", counting)
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(side_m, side_m), pitch_wl * cfg.wavelength, side, side)
    assert model.n_elements == steps ** 2 and model.order == 6
    coupling = coupling_matrix(model, cfg, mode=mode)
    assert coupling.table.shape == (steps, steps)
    index = np.arange(steps)
    assert np.array_equal(coupling.kx, np.abs(index[:, None] - index))
    assert sum(entries) == steps ** 2 * per_offset


@pytest.mark.parametrize("mode", ["exact", "point"])
def test_offset_gather_matches_per_pair_on_rectangular_grid(cfg, mode):
    # 3 x 4 lattice: every pair's table entry against its own integral at the
    # center offset (i - j) pitch
    wl = cfg.wavelength
    side = 0.08 * wl
    model = SpdaModel(3, 4, 0.55 * wl, side, side)
    got = coupling_matrix(model, cfg, mode=mode).radiation
    assert np.array_equal(got, got.T)
    want = np.empty_like(got)
    for i, row in enumerate(_lattice_offsets(model)):
        for j, offset in enumerate(row):
            if mode == "exact":
                want[i, j] = _brute_force_pair(model, cfg, offset)
            else:
                want[i, j] = model.element_area * radiation_kernel(offset, cfg.wavenumber)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))


def test_point_mode_is_positive_definite(cfg, aperture):
    # A K(c_i - c_j) samples a positive-definite function, so the radiation
    # part is positive semidefinite and Psi's spectrum stays above Zs
    side = 0.1 * cfg.wavelength
    for pitch_wl in (1.0, 0.5, 0.25, 0.125):
        model = element_layout(aperture, pitch_wl * cfg.wavelength, side, side)
        coupling = coupling_matrix(model, cfg, mode="point")
        smallest = np.linalg.eigvalsh(coupling.matrix)[0]
        assert smallest > 0.5 * coupling.self_impedance, pitch_wl


def test_spacing_sweep_table_shape(cfg, front_channel):
    wl = cfg.wavelength
    rows = spacing_sweep(cfg, build_expansion(cfg, 20), Aperture(0.125, 0.125),
                         front_channel, [0.5 * wl, 0.25 * wl], mode="exact")
    assert len(rows) == 2
    refs = {row.gain_reference for row in rows}
    assert len(refs) == 1
    assert rows[1].n_elements > rows[0].n_elements
    for row in rows:
        assert row.gain_coupled > 0.0
        assert row.gain_uncoupled > 0.0


def test_aperture_sweep_plateau_between_pitch_multiples(cfg, front_channel):
    wl = cfg.wavelength
    d = 0.5 * wl
    rows = aperture_sweep(cfg, build_expansion(cfg, 20), d, front_channel,
                          [Aperture(0.30, 0.30), Aperture(0.31, 0.31)], mode="point")
    assert rows[0].n_elements == rows[1].n_elements == 16
    assert rows[1].gain_discrete == pytest.approx(rows[0].gain_discrete, rel=1e-12)
    assert rows[1].gain_reference > rows[0].gain_reference

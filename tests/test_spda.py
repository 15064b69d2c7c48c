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
    half = 0.5 * separation_y
    side = element_wl * cfg.wavelength
    return SpdaModel(x=[0.0], y=[-half, half], element_x=side, element_y=side, order=order)


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
        SpdaModel(x=np.zeros((2, 2)), y=[0.0], element_x=d, element_y=d)
    with pytest.raises(DomainError):
        SpdaModel(x=[0.0], y=[0.0], element_x=-d, element_y=d)
    with pytest.raises(DomainError):
        SpdaModel(x=[0.0], y=[0.0, 0.001 * d], element_x=d, element_y=d)
    nan = float("nan")
    with pytest.raises(DomainError):
        element_layout(aperture, nan, 0.1 * d, 0.1 * d)
    with pytest.raises(DomainError):
        element_layout(aperture, d, nan, 0.1 * d)
    with pytest.raises(DomainError):
        SpdaModel(x=[nan], y=[0.0], element_x=d, element_y=d)
    with pytest.raises(DomainError):
        SpdaModel(x=[0.0], y=[0.0], element_x=nan, element_y=d)
    with pytest.raises(DomainError):
        SpdaModel(x=[0.0], y=[0.0], element_x=d, element_y=np.inf)
    side = 0.1 * cfg.wavelength
    below_side = side - 1e-9 * cfg.wavelength
    for x in ([0.0, 0.0], [0.0, below_side]):
        with pytest.raises(DomainError, match="overlap"):
            SpdaModel(x=x, y=[0.0], element_x=side, element_y=side)


def test_model_is_a_lattice_with_integer_order(cfg):
    side = 0.1 * cfg.wavelength
    model = SpdaModel(x=[0.0, 0.2], y=[-0.1, 0.0, 0.1], element_x=side, element_y=side)
    assert model.n_elements == 6
    assert np.array_equal(model.centers, [[0.0, -0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0],
                                          [0.2, -0.1, 0.0], [0.2, 0.0, 0.0], [0.2, 0.1, 0.0]])
    for order in (2.5, True, 0):
        with pytest.raises(DomainError):
            SpdaModel(x=[0.0], y=[0.0], element_x=side, element_y=side, order=order)
    with pytest.raises(DomainError):
        element_layout(Aperture(0.25, 0.25), 0.5 * cfg.wavelength, side, side, order=2.5)
    with pytest.raises(DomainError):
        SpdaModel(x=[], y=[0.0], element_x=side, element_y=side)
    with pytest.raises(DomainError, match="overlap"):
        SpdaModel(x=[0.2, 0.0], y=[0.0], element_x=side, element_y=side)


def test_array_holding_dataclasses_compare_by_identity(cfg):
    # a generated __eq__ would compare the array fields and raise ValueError
    side = 0.1 * cfg.wavelength
    for make in (lambda: SpdaModel(x=[0.0, 1.0], y=[0.0], element_x=side, element_y=side),
                 lambda: aperture_grid(Aperture(0.5, 0.5), 4)):
        first, second = make(), make()
        assert first == first
        assert first != second
        assert len({first, first, second}) == 2


def test_single_element_gain_formula(cfg, front_channel):
    side = 0.1 * cfg.wavelength
    model = SpdaModel(x=[0.0], y=[0.0], element_x=side, element_y=side)
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


def test_coupling_translation_invariant(cfg, oblique_channel):
    base = _two_element_model(cfg, 0.4 * cfg.wavelength)
    shifted = SpdaModel(x=base.x + 0.07, y=base.y - 0.03,
                        element_x=base.element_x, element_y=base.element_y,
                        order=base.order)
    psi_a = coupling_matrix(base, cfg).matrix
    psi_b = coupling_matrix(shifted, cfg).matrix
    assert np.allclose(psi_a, psi_b, rtol=1e-12)
    gain_a = optimal_discrete_beamformer(discrete_channel(base, oblique_channel), coupling_matrix(base, cfg)).gain
    gain_b = optimal_discrete_beamformer(discrete_channel(shifted, oblique_channel), coupling_matrix(shifted, cfg)).gain
    assert gain_b == pytest.approx(gain_a, rel=1e-12)


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
    assert (model.x.size, model.y.size) == counts
    coupling = coupling_matrix(model, cfg, mode=mode)
    assert coupling.mirrored
    h = discrete_channel(model, oblique_channel)
    bf = optimal_discrete_beamformer(h, coupling)
    gain, weights = _dense_drive(h, coupling)
    assert bf.gain == pytest.approx(gain, rel=1e-12)
    assert np.max(np.abs(bf.weights - weights)) <= 1e-10 * np.max(np.abs(weights))


def test_irregular_lattice_solves_as_one_block(cfg, oblique_channel):
    # unequal x gaps: reversing x moves pairs to other table entries, so the
    # matrix is factored whole
    wl = cfg.wavelength
    side = 0.08 * wl
    model = SpdaModel(x=np.array([0.0, 0.4, 1.1]) * wl, y=(np.arange(4) - 1.5) * 0.55 * wl,
                      element_x=side, element_y=side)
    coupling = coupling_matrix(model, cfg)
    assert not coupling.mirrored
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
    want = _brute_force_pair(model, cfg, model.centers[0] - model.centers[1])
    assert got == pytest.approx(want, rel=1e-10)
    refined = SpdaModel(x=model.x, y=model.y, element_x=model.element_x,
                        element_y=model.element_y, order=12)
    finer = coupling_matrix(refined, cfg, mode="exact").radiation[0, 1]
    assert got == pytest.approx(finer, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(1, 8),
       sides=st.tuples(st.floats(0.02, 0.2), st.floats(0.02, 0.2)).filter(
           lambda s: abs(s[0] - s[1]) > 1e-3),
       x_gap=st.floats(0.0, 1.5), y_gaps=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_difference_fold_matches_brute_force_pairs(cfg, order, sides, x_gap, y_gaps, shift):
    # unequal element sides on an irregular 2 x 3 center grid, lengths in
    # wavelengths; odd orders put a node at 0
    wl = cfg.wavelength
    ex, ey = sides[0] * wl, sides[1] * wl
    xs = shift[0] * wl + np.array([0.0, ex + x_gap * wl])
    ys = shift[1] * wl + np.cumsum([0.0, ey + y_gaps[0] * wl, ey + y_gaps[1] * wl])
    model = SpdaModel(x=xs, y=ys, element_x=ex, element_y=ey, order=order)
    centers = model.centers
    got = coupling_matrix(model, cfg, mode="exact").radiation
    want = np.array([[_brute_force_pair(model, cfg, np.round(ci - cj, 12)) for cj in centers]
                     for ci in centers])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode, per_offset", [("exact", 19 ** 2), ("point", 1)])
def test_coupling_evaluates_kernel_once_per_node_difference(cfg, monkeypatch, mode, per_offset):
    # a 4 x 4 lattice has 4 distinct |offsets| per axis, 16 table entries; the
    # order-6 rule has 19 distinct node differences per axis, the point rule 1
    entries = []

    def counting(displacement, *args, **kwargs):
        entries.append(np.prod(np.shape(displacement)[:-1], dtype=int))
        return radiation_kernel(displacement, *args, **kwargs)

    monkeypatch.setattr(spda, "radiation_kernel", counting)
    side = 0.1 * cfg.wavelength
    model = element_layout(Aperture(0.25, 0.25), 0.5 * cfg.wavelength, side, side)
    assert model.n_elements == 16 and model.order == 6
    coupling_matrix(model, cfg, mode=mode)
    assert sum(entries) == 16 * per_offset


@pytest.mark.parametrize("mode", ["exact", "point"])
def test_offset_gather_matches_per_pair_on_rectangular_grid(cfg, mode):
    # 3 x 4 grid with unequal pitches, x spaced non-uniformly so the table
    # holds offsets no uniform pitch produces
    wl = cfg.wavelength
    xs = np.array([0.0, 0.4, 1.1]) * wl + 0.013
    ys = (np.arange(4) - 1.5) * 0.55 * wl - 0.021
    side = 0.08 * wl
    model = SpdaModel(x=xs, y=ys, element_x=side, element_y=side)
    centers = model.centers
    got = coupling_matrix(model, cfg, mode=mode).radiation
    assert np.array_equal(got, got.T)
    want = np.empty_like(got)
    for i, ci in enumerate(centers):
        for j, cj in enumerate(centers):
            if mode == "exact":
                # the table rounds offsets to 1e-12 m, which alone moves a
                # pair integral by up to about 1e-11 relative
                want[i, j] = _brute_force_pair(model, cfg, np.round(ci - cj, 12))
            else:
                want[i, j] = model.element_area * radiation_kernel(
                    ci - cj, cfg.wavenumber)
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

"""Tests for aperture-level gain, directivity, and pattern analysis."""

import numpy as np
import pytest

from capa import (
    Aperture,
    Direction,
    DomainError,
    NumericError,
    PhysicalConfig,
    Z0,
    aperture_grid,
    beamform_cg,
    beamform_ka,
    build_expansion,
    far_field_channel,
    gram_matrix,
    inverse_operator,
)
from capa.analysis import (
    beampattern,
    coupling_ratio,
    directivity_factor,
    half_power_width,
    infinite_aperture_gain,
    steered_gain_profile,
    uncoupled_beamformer,
)
from capa.physics import wavenumber_kernel

FRONT_DIRECTIVITY_2G4 = 376.9655577720904


def test_front_fire_directivity_value(cfg):
    got = directivity_factor(cfg, 0.0, 0.0)
    assert got == pytest.approx(FRONT_DIRECTIVITY_2G4, rel=1e-12)
    want = Z0 ** 2 / (2.0 * cfg.surface_resistance + Z0)
    assert got == pytest.approx(want, rel=1e-14)


def test_directivity_closed_form_off_axis(cfg):
    th, ph = 0.7, 0.4
    pol = 1.0 - (np.sin(th) * np.sin(ph)) ** 2
    want = Z0 ** 2 * pol ** 2 * np.cos(ph) / (2.0 * cfg.surface_resistance * np.cos(ph) + Z0 * pol)
    assert directivity_factor(cfg, th, ph) == pytest.approx(want, rel=1e-14)
    assert directivity_factor(cfg, np.pi / 2, np.pi / 2) == 0.0
    with pytest.raises(DomainError):
        directivity_factor(cfg, 0.0, 2.0)


def test_unbounded_gain_forms_agree_on_grid(cfg):
    # the closed directivity form the function returns matches the spectral
    # form 8 pi^2 |a|^2 / (Zs + spectrum) at the steering wavevector
    theta = np.linspace(0.0, np.pi, 37)[:, None]
    phi = np.linspace(0.0, np.pi / 2 * 0.999, 19)[None, :]
    vals = infinite_aperture_gain(cfg, theta, phi, 50.0)
    k0 = cfg.wavenumber
    sin_t, sin_p = np.sin(theta), np.sin(phi)
    kappa = np.stack(np.broadcast_arrays(k0 * np.cos(theta) * sin_p, k0 * sin_t * sin_p), axis=-1)
    amp2 = (k0 * Z0 / (4.0 * np.pi * 50.0)) ** 2 * (1.0 - (sin_t * sin_p) ** 2) ** 2
    ref = 8.0 * np.pi ** 2 * amp2 / (cfg.surface_resistance + wavenumber_kernel(kappa, k0))
    assert np.allclose(vals, ref, rtol=1e-10)
    assert np.all(vals >= 0.0)


def test_unbounded_gain_grazing_warns_and_zero(cfg):
    with pytest.warns(UserWarning):
        val = infinite_aperture_gain(cfg, 0.3, np.pi / 2, 50.0)
    assert val == 0.0
    with pytest.raises(DomainError):
        infinite_aperture_gain(cfg, 0.0, 0.0, -1.0)


def test_uncoupled_gain_formula(cfg, aperture, oblique_channel):
    bf = uncoupled_beamformer(cfg, oblique_channel, aperture)
    want = 2.0 * aperture.area * abs(oblique_channel.amplitude) ** 2 / cfg.surface_resistance
    assert bf.gain == pytest.approx(want, rel=1e-14)
    with pytest.raises(DomainError):
        uncoupled_beamformer(cfg, oblique_channel, aperture, power=0.0)


def test_polarization_null_is_domain_error_for_every_beamformer(cfg, aperture):
    # sin(theta) sin(phi) = 1 zeroes the channel: no distribution radiates there
    null = far_field_channel(cfg, Direction(np.pi / 2, np.pi / 2), 50.0)
    assert null.amplitude == 0
    with pytest.raises(DomainError, match="polarization null"):
        uncoupled_beamformer(cfg, null, aperture)
    with pytest.raises(DomainError, match="polarization null"):
        beamform_ka(cfg, null, build_expansion(cfg, 6), aperture)
    with pytest.raises(DomainError, match="polarization null"):
        beamform_cg(cfg, null, aperture, 6)
    # the profile drops null channels before solving
    gains = steered_gain_profile(cfg, build_expansion(cfg, 6), aperture, np.pi / 2,
                                 np.array([0.0, np.pi / 2]), 50.0)
    assert gains[0] > 0.0 and gains[1] == 0.0


def test_beampattern_peaks_at_steering(cfg, aperture):
    steer = np.deg2rad(25.0)
    channel = far_field_channel(cfg, Direction(0.0, steer), 50.0)
    exp = build_expansion(cfg, 20)
    bf = beamform_ka(cfg, channel, exp, aperture)
    phi = np.deg2rad(np.linspace(-80.0, 80.0, 321))
    pat = beampattern(bf, cfg, aperture, 0.0, phi)
    assert pat.values.max() == 1.0
    peak_angle = phi[int(np.argmax(pat.values))]
    assert abs(peak_angle - steer) < np.deg2rad(1.0)
    assert pat.peak > 0.0


def test_beampattern_matches_long_double_transform(cfg, aperture, oblique_channel):
    # the separable per-axis transform against the direct sum over all grid
    # points in 80-bit arithmetic; both sum the same M^2 terms, so they may differ
    # by the summation error, about eps * pol * sum|w_q| (1e-13 leaves margin)
    bf = beamform_ka(cfg, oblique_channel, build_expansion(cfg, 20), aperture)
    theta = np.linspace(0.0, 2.0 * np.pi, 3000)
    phi = np.linspace(0.0, 1.4, 3000)
    pat = beampattern(bf, cfg, aperture, theta, phi, order=40)
    grid = aperture_grid(aperture, 40)
    wq = grid.weights * bf(grid.points)
    kx = cfg.wavenumber * np.cos(theta) * np.sin(phi)
    ky = cfg.wavenumber * np.sin(theta) * np.sin(phi)
    pol = 1.0 - (np.sin(theta) * np.sin(phi)) ** 2
    points = grid.points.astype(np.longdouble)
    ref = np.empty(theta.size)
    for sl in np.array_split(np.arange(theta.size), 10):
        arg = (np.outer(kx[sl].astype(np.longdouble), points[:, 0])
               + np.outer(ky[sl].astype(np.longdouble), points[:, 1]))
        ref[sl] = np.abs(np.exp(-1j * arg) @ wq.astype(np.clongdouble))
    bound = 1e-13 * pol * np.sum(np.abs(wq))
    assert np.all(np.abs(pat.values * pat.peak - pol * ref) <= bound)


def test_beampattern_rejects_zero_field(cfg, aperture):
    phi = np.linspace(-0.5, 0.5, 11)
    with pytest.raises(NumericError):
        beampattern(lambda pts: np.zeros(pts.shape[0]), cfg, aperture, 0.0, phi)


def test_half_power_width_triangle():
    a = np.linspace(-1.0, 1.0, 2001)
    v = 1.0 - np.abs(a)
    want = 2.0 * (1.0 - 1.0 / np.sqrt(2.0))
    assert half_power_width(a, v) == pytest.approx(want, abs=1e-3)


def test_half_power_width_edge_truncated():
    a = np.linspace(0.0, 1.0, 1001)
    want = 1.0 - 1.0 / np.sqrt(2.0)
    assert half_power_width(a, 1.0 - a) == pytest.approx(want, abs=1e-3)
    assert half_power_width(a, a.copy()) == pytest.approx(want, abs=1e-3)
    with pytest.raises(DomainError):
        half_power_width(a[:2], a[:2])


def test_coupling_ratio_reference_points(cfg):
    k0 = cfg.wavenumber
    assert coupling_ratio(cfg, np.zeros(2)) == pytest.approx(1.0, rel=1e-14)
    assert coupling_ratio(cfg, np.array([k0, 0.0])) == 0.0
    zs = cfg.surface_resistance
    outside = coupling_ratio(cfg, np.array([1.5 * k0, 0.0]))
    assert outside == pytest.approx((zs + Z0 / 2.0) / zs, rel=1e-12)
    three = coupling_ratio(cfg, np.array([0.0, 0.0, 0.0]))
    assert three == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        coupling_ratio(cfg, np.zeros(4))


def test_steered_profile_matches_pointwise_solution(cfg, aperture):
    angle = np.deg2rad(40.0)
    exp = build_expansion(cfg, 20)
    prof = steered_gain_profile(cfg, exp, aperture, 0.0, [angle], 50.0)
    channel = far_field_channel(cfg, Direction(0.0, angle), 50.0)
    direct = beamform_ka(cfg, channel, exp, aperture).gain
    assert prof[0] == pytest.approx(direct, rel=1e-12)


def test_steered_profile_grazing_polarization_null(cfg, aperture):
    prof = steered_gain_profile(cfg, build_expansion(cfg, 10), aperture, np.pi / 2,
                                [0.0, np.pi / 2], 50.0)
    assert prof[0] > 0.0
    assert prof[1] == 0.0
    # polarization loss separates the E plane (azimuth pi/2) from the H plane
    assert directivity_factor(cfg, np.pi / 2, -1.2) < directivity_factor(cfg, 0.0, -1.2)


def test_steered_profile_block_matches_per_direction_loop(cfg, aperture):
    # one block product against per-direction matvecs: the ~1e4-fold cancellation
    # in eta - penalty turns their last-digit differences into up to about 2e-10
    phi = np.deg2rad(np.arange(0.0, 90.0, 1.0))
    exp = build_expansion(cfg, 30)
    inverse = inverse_operator(exp, gram_matrix(exp, aperture), cfg.surface_resistance)
    for theta in (np.pi / 2, 0.0):
        prof = steered_gain_profile(cfg, exp, aperture, theta, phi, 50.0)
        loop = [beamform_ka(cfg, far_field_channel(cfg, Direction(theta, p), 50.0), exp,
                            aperture, inverse=inverse).gain for p in phi]
        assert prof == pytest.approx(loop, rel=1e-9)


def test_steered_profile_broadcasts_theta_against_phi(cfg, aperture):
    # a (2, 1) azimuth column against D polar angles gives a (2, D) block whose
    # rows are the single-azimuth profiles
    theta = np.array([[np.pi / 2], [0.3]])
    phi = np.deg2rad(np.arange(0.0, 90.0, 15.0))
    exp = build_expansion(cfg, 20)
    block = steered_gain_profile(cfg, exp, aperture, theta, phi, 50.0)
    assert block.shape == (2, phi.size)
    for row, th in zip(block, theta[:, 0]):
        assert row == pytest.approx(steered_gain_profile(cfg, exp, aperture, th, phi, 50.0),
                                    rel=1e-10)


def test_front_fire_gain_follows_edge_law(cfg):
    # At resolved orders both solvers' front-fire gains follow the two-term law
    # area g_inf / (4 pi^2) (1 + c / L), an edge term in perimeter over area.
    # c = 0.248 m is measured at 2.4 GHz and R0 = 50 m only; how it scales
    # with the wavelength is not derived here.
    g_inf = float(infinite_aperture_gain(cfg, 0.0, 0.0, 50.0))
    channel = far_field_channel(cfg, Direction(0.0, 0.0), 50.0)
    for side in (0.25, 0.5, 0.75):
        order = int(np.ceil(1.2 * cfg.wavenumber * side)) + 2
        ap = Aperture(side, side)
        law = ap.area * g_inf / (4.0 * np.pi ** 2) * (1.0 + 0.248 / side)
        ka = beamform_ka(cfg, channel, build_expansion(cfg, order), ap).gain
        cg = beamform_cg(cfg, channel, ap, order).gain
        assert ka == pytest.approx(law, rel=0.02), (side, order)
        assert cg == pytest.approx(law, rel=0.02), (side, order)

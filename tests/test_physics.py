import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capa import (C0, MU0, Z0, Aperture, Direction, DomainError,
                  PhysicalConfig, exact_channel, far_field_channel,
                  fraunhofer_distance, kernel_nulls, null_condition,
                  radiation_kernel, surface_resistance, wavenumber_kernel)

# values frozen from an independent high-precision evaluation
COPPER_RS_2G4 = 1.2781195929854964e-2
FRONT_AMPLITUDE_2G4 = 30.180168316104215
X_AXIS_NULLS = (2.7437072699727789, 6.1167642644429208, 9.3166156285653745)
Y_AXIS_NULLS = (4.493409457909064, 7.725251836937707, 10.904121659428899)


def test_free_space_constants_consistent():
    assert C0 == 299792458.0
    assert MU0 == pytest.approx(4.0e-7 * np.pi, rel=1e-15)
    assert Z0 == pytest.approx(120.0 * np.pi, rel=1e-12)


def test_wavelength_wavenumber_roundtrip():
    f = 2.4e9
    cfg = PhysicalConfig(frequency=f)
    assert cfg.wavelength == pytest.approx(C0 / f, rel=1e-15)
    assert cfg.wavenumber * cfg.wavelength == pytest.approx(2.0 * np.pi, rel=1e-14)


def test_surface_resistance_copper():
    rs = surface_resistance(2.4e9)
    assert rs == pytest.approx(COPPER_RS_2G4, rel=1e-12)
    assert rs == pytest.approx(np.sqrt(np.pi * 2.4e9 * MU0 / 5.8e7), rel=1e-14)


def test_config_derived_quantities(cfg):
    assert cfg.wavelength == pytest.approx(C0 / 2.4e9, rel=1e-15)
    assert cfg.wavenumber == pytest.approx(2.0 * np.pi / cfg.wavelength, rel=1e-14)
    assert cfg.impedance == Z0
    assert cfg.surface_resistance == pytest.approx(COPPER_RS_2G4, rel=1e-12)


def test_config_accepts_resistance_override():
    c = PhysicalConfig(frequency=2.4e9, surface_resistance=0.5)
    assert c.surface_resistance == 0.5


def test_config_rejects_bad_frequency():
    with pytest.raises(DomainError):
        PhysicalConfig(frequency=0.0)
    with pytest.raises(DomainError):
        PhysicalConfig(frequency=-1.0)


def test_aperture_geometry():
    ap = Aperture(0.5, 0.4)
    assert ap.area == pytest.approx(0.2, rel=1e-15)
    assert ap.diagonal == pytest.approx(np.hypot(0.5, 0.4), rel=1e-15)
    with pytest.raises(DomainError):
        Aperture(0.0, 0.4)


def test_fraunhofer_distance_formula(cfg, aperture):
    d = fraunhofer_distance(aperture, cfg.wavelength)
    assert d == pytest.approx(2.0 * aperture.diagonal ** 2 / cfg.wavelength, rel=1e-14)
    assert 50.0 > d  # the default receiver sits in the far field


def test_direction_vectors(cfg):
    k0 = cfg.wavenumber
    front = Direction(0.0, 0.0)
    assert np.allclose(front.transverse_wavevector(k0), 0.0)
    d = Direction(np.pi / 2, np.pi / 6)
    kt = d.transverse_wavevector(k0)
    assert kt[0] == pytest.approx(0.0, abs=1e-12)
    assert kt[1] == pytest.approx(0.5 * k0, rel=1e-12)
    assert kt[2] == 0.0
    assert np.linalg.norm(d.unit_vector) == pytest.approx(1.0, rel=1e-14)


def test_kernel_small_separation_limit(cfg):
    k0 = cfg.wavenumber
    s = np.array([1e-9 * cfg.wavelength, 0.0, 0.0])
    val = radiation_kernel(s, k0)
    assert val == pytest.approx(k0 ** 2 * Z0 / (6.0 * np.pi), rel=1e-12)
    iso = radiation_kernel(s, k0, polarized=False)
    assert iso == pytest.approx(k0 ** 2 * Z0 / (4.0 * np.pi), rel=1e-12)


def test_kernel_continuous_at_branch_threshold(cfg):
    # Just above the cutoff the closed formula loses digits to cancellation,
    # so the match is loose there and tight where the formula is stable.
    k0 = cfg.wavenumber
    below = radiation_kernel(np.array([0.99e-6 * cfg.wavelength, 0.0, 0.0]), k0)
    above = radiation_kernel(np.array([1.01e-6 * cfg.wavelength, 0.0, 0.0]), k0)
    assert below == pytest.approx(above, rel=1e-5)
    limit = k0 ** 2 * Z0 / (6.0 * np.pi)
    stable = radiation_kernel(np.array([1e-3 * cfg.wavelength, 0.0, 0.0]), k0)
    assert stable == pytest.approx(limit, rel=1e-4)


def test_kernel_axis_values_match_independent_algebra(cfg):
    k0 = cfg.wavenumber
    pref = k0 ** 2 * Z0 / (4.0 * np.pi)
    r = np.linspace(0.05, 2.5, 40) * cfg.wavelength
    eps = k0 * r
    on_x = radiation_kernel(np.stack([r, 0 * r, 0 * r], axis=-1), k0)
    want_x = pref * (np.sin(eps) / eps + np.cos(eps) / eps ** 2
                     - np.sin(eps) / eps ** 3)
    assert np.allclose(on_x, want_x, rtol=1e-12)
    on_y = radiation_kernel(np.stack([0 * r, r, 0 * r], axis=-1), k0)
    want_y = pref * 2.0 * (np.sin(eps) - eps * np.cos(eps)) / eps ** 3
    assert np.allclose(on_y, want_y, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_kernel_even_under_reflection(sx, sy):
    cfg = PhysicalConfig(frequency=2.4e9)
    s = np.array([sx * cfg.wavelength, sy * cfg.wavelength, 0.0])
    a = radiation_kernel(s, cfg.wavenumber)
    b = radiation_kernel(-s, cfg.wavenumber)
    assert a == pytest.approx(b, rel=1e-13, abs=1e-9)


def test_wavenumber_spectrum_center_and_support(cfg):
    k0 = cfg.wavenumber
    assert wavenumber_kernel(np.zeros(2), k0) == pytest.approx(Z0 / 2.0, rel=1e-14)
    assert wavenumber_kernel(np.array([1.5 * k0, 0.0]), k0) == 0.0
    with pytest.raises(DomainError):
        wavenumber_kernel(np.array([k0, 0.0]), k0)
    # a third component is tolerated and ignored
    three = wavenumber_kernel(np.array([0.3 * k0, 0.1 * k0, 0.0]), k0)
    two = wavenumber_kernel(np.array([0.3 * k0, 0.1 * k0]), k0)
    assert three == pytest.approx(two, rel=1e-14)


def test_wavenumber_spectrum_interior_formula(cfg):
    k0 = cfg.wavenumber
    kx, ky = 0.4 * k0, -0.5 * k0
    val = wavenumber_kernel(np.array([kx, ky]), k0)
    want = Z0 * (1.0 - ky ** 2 / k0 ** 2) / (
        2.0 * np.sqrt(1.0 - (kx ** 2 + ky ** 2) / k0 ** 2))
    assert val == pytest.approx(want, rel=1e-14)


def test_polarized_null_locations():
    got_x = kernel_nulls(0.0, count=3)
    got_y = kernel_nulls(1.0, count=3)
    assert np.allclose(got_x, X_AXIS_NULLS, atol=1e-8)
    assert np.allclose(got_y, Y_AXIS_NULLS, atol=1e-8)
    assert np.all(np.diff(got_x) > 0) and np.all(np.diff(got_y) > 0)


def test_null_condition_changes_sign_at_roots():
    for u2, roots in ((0.0, X_AXIS_NULLS), (1.0, Y_AXIS_NULLS)):
        for r in roots:
            lo = null_condition(r - 1e-4, u2)
            hi = null_condition(r + 1e-4, u2)
            assert lo * hi < 0.0


def test_kernel_vanishes_at_null_separations(cfg):
    k0 = cfg.wavenumber
    peak = k0 ** 2 * Z0 / (6.0 * np.pi)
    for r in X_AXIS_NULLS:
        val = radiation_kernel(np.array([r / k0, 0.0, 0.0]), k0)
        assert abs(val) < 1e-8 * peak
    for r in Y_AXIS_NULLS:
        val = radiation_kernel(np.array([0.0, r / k0, 0.0]), k0)
        assert abs(val) < 1e-8 * peak


def test_isotropic_nulls_at_half_wavelength_multiples():
    got = kernel_nulls(0.7, count=4, polarized=False)
    assert np.allclose(got, np.pi * np.arange(1, 5), atol=1e-10)


def test_far_field_channel_amplitude(cfg, aperture):
    ch = far_field_channel(cfg, Direction(0.0, 0.0), 50.0, aperture)
    assert abs(ch.amplitude) == pytest.approx(FRONT_AMPLITUDE_2G4, rel=1e-12)
    k0 = cfg.wavenumber
    want = -1j * k0 * Z0 * np.exp(1j * k0 * 50.0) / (4.0 * np.pi * 50.0)
    assert ch.amplitude == pytest.approx(want, rel=1e-12)


def test_far_field_channel_phase_ramp(cfg):
    d = Direction(np.pi / 2, np.pi / 6)
    ch = far_field_channel(cfg, d, 50.0)
    pts = np.array([[0.0, 0.1, 0.0], [0.05, -0.2, 0.0]])
    vals = ch(pts)
    want = ch.amplitude * np.exp(-1j * pts @ d.transverse_wavevector(cfg.wavenumber))
    assert np.allclose(vals, want, rtol=1e-13)


def test_far_field_warns_inside_boundary(cfg, aperture):
    with pytest.warns(UserWarning):
        far_field_channel(cfg, Direction(0.0, 0.0), 1.0, aperture)


def test_far_field_rejects_bad_distance(cfg):
    with pytest.raises(DomainError):
        far_field_channel(cfg, Direction(0.0, 0.0), 0.0)


def test_exact_channel_approaches_planar_model(cfg):
    pts = np.array([[0.25, 0.25, 0.0], [-0.25, 0.1, 0.0], [0.0, -0.25, 0.0]])

    def deviation(distance):
        ff = far_field_channel(cfg, Direction(0.0, 0.0), distance)
        exact = exact_channel(cfg, np.array([0.0, 0.0, distance]), pts)
        return np.max(np.abs(exact / ff(pts) - 1.0))

    near, far = deviation(200.0), deviation(2000.0)
    assert far < 0.01
    assert far < near / 5.0


def test_exact_channel_rejects_coincident_point(cfg):
    with pytest.raises(DomainError):
        exact_channel(cfg, np.zeros(3), np.zeros(3))

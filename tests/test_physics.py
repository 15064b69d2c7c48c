import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capa import (C0, MU0, Z0, Aperture, Direction, DomainError,
                  PhysicalConfig, SpdaModel, aperture_grid, beampattern, beamform_cg,
                  beamform_ka, build_expansion, coupling_matrix, coupling_ratio,
                  directivity_factor, discrete_channel, discretize_operator,
                  disk_wavenumber_grid, element_layout, exact_channel, far_field_channel,
                  fraunhofer_distance, gram_matrix, half_power_width,
                  infinite_aperture_gain, inverse_operator, kernel_nulls,
                  optimal_discrete_beamformer, radiation_kernel, solve_fredholm,
                  surface_resistance, uncoupled_beamformer, wavenumber_kernel)
from capa import physics
from capa.physics import _KERNEL_BLOCK

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
    assert cfg.surface_resistance == pytest.approx(COPPER_RS_2G4, rel=1e-12)


def test_config_accepts_resistance_override():
    c = PhysicalConfig(frequency=2.4e9, surface_resistance=0.5)
    assert c.surface_resistance == 0.5


@pytest.mark.parametrize("settings", [{"surface_resistance": np.inf},
                                      {"surface_resistance": np.nan},
                                      {"sigma_s": 1e-320}])
def test_config_rejects_non_finite_surface_resistance(settings):
    # a conductivity of 1e-320 S/m derives Zs = inf
    with pytest.raises(DomainError, match="surface resistance must be positive and finite"):
        PhysicalConfig(frequency=2.4e9, **settings)


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


def _kernel_formula(displacement, wavenumber, polarized):
    # the kernel written out plainly, one array per term
    s = np.asarray(displacement, dtype=float)
    r = np.linalg.norm(s, axis=-1)
    eps = wavenumber * r
    small = eps < 2.0 * np.pi * 1e-6
    e = np.where(small, 1.0, eps)
    sin_e, cos_e = np.sin(e), np.cos(e)
    pref = wavenumber ** 2 * Z0 / (4.0 * np.pi)
    if not polarized:
        return np.where(small, pref, pref * sin_e / e)
    u2 = (s[..., 1] / np.where(small, 1.0, r)) ** 2
    first = (e * cos_e - sin_e) / e ** 3
    second = (2.0 * sin_e - 2.0 * e * cos_e - e ** 2 * sin_e) / e ** 3
    out = pref * (sin_e / e + u2 * second + (1.0 - u2) * first)
    return np.where(small, pref * (2.0 / 3.0), out)


@pytest.mark.parametrize("polarized", [True, False])
def test_kernel_bit_identical_to_plain_formula(cfg, polarized):
    # the blocked evaluation applies the formula's operations, operands and
    # order to each block of rows; separations from zero through below and
    # above the small-separation threshold (1e-6 wavelengths) to 30 m, off the
    # plane too
    rng = np.random.default_rng(11)
    scales = rng.choice([0.0, 1e-9, 1e-7, 1.2e-7, 1e-3, 0.05, 1.0, 30.0], size=(20000, 1))
    disp = rng.standard_normal((20000, 3)) * scales
    disp[:5000, 2] = 0.0
    k0 = cfg.wavenumber
    got = radiation_kernel(disp.reshape(100, 200, 3), k0, polarized=polarized)
    assert got.shape == (100, 200)
    assert np.array_equal(got, _kernel_formula(disp, k0, polarized).reshape(100, 200))
    # two full blocks and a tail, every block with separations on both sides
    # of the threshold
    rows = 2 * _KERNEL_BLOCK + 17
    many = rng.standard_normal((rows, 3)) * rng.choice([0.0, 1e-9, 1e-7, 0.05, 1.0], (rows, 1))
    for block in (many[:_KERNEL_BLOCK], many[_KERNEL_BLOCK:2 * _KERNEL_BLOCK], many[-17:]):
        near = np.linalg.norm(block, axis=-1) * k0 < 2.0 * np.pi * 1e-6
        assert near.any() and not near.all()
    got = radiation_kernel(many, k0, polarized=polarized)
    assert np.array_equal(got, _kernel_formula(many, k0, polarized))
    for single in ([0.0, 0.0, 0.0], [1e-9, -2e-9, 0.0], [0.01, 0.02, -0.03]):
        value = radiation_kernel(single, k0, polarized=polarized)
        assert type(value) is float
        assert value == _kernel_formula(single, k0, polarized)


def test_kernel_refuses_non_finite_or_overflowing_separation(cfg):
    # raised before any arithmetic warns: pytest turns warnings into errors
    k0 = cfg.wavenumber
    for bad in ([1e200, 0.0, 0.0], [np.nan, 0.0, 0.0], [[0.1, 0.0, 0.0], [0.0, np.inf, 0.0]]):
        with pytest.raises(DomainError):
            radiation_kernel(bad, k0)
    # the only NaN in the last of three blocks
    late = np.full((2 * _KERNEL_BLOCK + 5, 3), 0.01)
    late[-1, 1] = np.nan
    with pytest.raises(DomainError):
        radiation_kernel(late, k0)
    for k in (np.nan, np.inf):
        with pytest.raises(DomainError):
            radiation_kernel([0.1, 0.0, 0.0], k)
    # (k r)^3 overflows from the cube root of the largest float on
    edge = float(np.cbrt(np.finfo(float).max))
    with pytest.raises(DomainError):
        radiation_kernel([edge, 0.0, 0.0], 1.0)
    assert np.isfinite(radiation_kernel([0.0, np.nextafter(edge, 0.0), 0.0], 1.0))


@pytest.mark.parametrize("polarized", [True, False])
def test_kernel_peak_memory_is_output_plus_blocks(cfg, polarized):
    # 2^20 displacements: the 8 MB output plus at most 4 MB of block
    # temporaries, however many rows the call has
    disp = np.random.default_rng(5).standard_normal((2 ** 20, 3))
    tracemalloc.start()
    try:
        radiation_kernel(disp, cfg.wavenumber, polarized=polarized)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


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


def test_kernel_changes_sign_across_pinned_nulls(cfg):
    k0 = cfg.wavenumber
    for axis, roots in ((np.array([1.0, 0.0, 0.0]), X_AXIS_NULLS),
                        (np.array([0.0, 1.0, 0.0]), Y_AXIS_NULLS)):
        for r in roots:
            lo = radiation_kernel((r - 1e-4) / k0 * axis, k0)
            hi = radiation_kernel((r + 1e-4) / k0 * axis, k0)
            assert lo * hi < 0.0


def test_kernel_polarized_flag_is_keyword_only(cfg):
    # a leftover positional Z0 must not read as polarized=True
    with pytest.raises(TypeError):
        radiation_kernel(np.array([0.01, 0.0, 0.0]), cfg.wavenumber, Z0)


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
    # the amplitude overflows: refused before the far-field boundary warning
    with pytest.raises(DomainError, match="amplitude is not finite"):
        far_field_channel(cfg, Direction(0.0, 0.0), 1e-320, Aperture(0.5, 0.5))


def _discrete_problem(cfg, aperture, channel):
    model = element_layout(aperture, 0.5 * cfg.wavelength, 0.1 * cfg.wavelength,
                           0.1 * cfg.wavelength)
    return discrete_channel(model, channel), coupling_matrix(model, cfg, mode="point")


def _discrete_drive(cfg, aperture, channel, power):
    return optimal_discrete_beamformer(*_discrete_problem(cfg, aperture, channel), power=power)


def _cg_solve(cfg, aperture, channel, tol, max_iter=10_000):
    op = discretize_operator(cfg, aperture_grid(aperture, 4))
    return solve_fredholm(op, np.conj(channel(op.grid.points)), tol=tol, max_iter=max_iter)


def _resolvent(cfg, aperture, channel, surface_resistance):
    expansion = build_expansion(cfg, 4)
    return inverse_operator(expansion, gram_matrix(expansion, aperture), surface_resistance)


# each entry point with a positive scalar input, given value v; a comparison
# written as v <= 0 lets NaN through, and one written as v < inf lets 0 through
_POSITIVE_INPUTS = {
    "beamform_ka power": lambda cfg, ap, ch, v: beamform_ka(cfg, ch, build_expansion(cfg, 4),
                                                            ap, power=v),
    "beamform_cg power": lambda cfg, ap, ch, v: beamform_cg(cfg, ch, ap, 4, power=v),
    "uncoupled_beamformer power": lambda cfg, ap, ch, v: uncoupled_beamformer(cfg, ch, ap,
                                                                              power=v),
    "optimal_discrete_beamformer power": _discrete_drive,
    "solve_fredholm tol": _cg_solve,
    "infinite_aperture_gain distance": lambda cfg, ap, ch, v: infinite_aperture_gain(
        cfg, 0.0, 0.0, v),
    "surface_resistance frequency": lambda cfg, ap, ch, v: surface_resistance(v),
    "disk_wavenumber_grid wavenumber": lambda cfg, ap, ch, v: disk_wavenumber_grid(v, 4),
    "inverse_operator surface_resistance": _resolvent,
    "config frequency": lambda cfg, ap, ch, v: PhysicalConfig(frequency=v),
    "config mu_s": lambda cfg, ap, ch, v: PhysicalConfig(frequency=2.4e9, mu_s=v),
    "config surface_resistance": lambda cfg, ap, ch, v: PhysicalConfig(
        frequency=2.4e9, surface_resistance=v),
    "aperture length_x": lambda cfg, ap, ch, v: Aperture(v, 0.5),
    # v = -1 is the wavenumber -k, which read every separation as zero
    "radiation_kernel wavenumber": lambda cfg, ap, ch, v: radiation_kernel(
        [[0.1, 0.0, 0.0], [0.3, 0.2, 0.0]], v * cfg.wavenumber),
    "wavenumber_kernel wavenumber": lambda cfg, ap, ch, v: wavenumber_kernel(
        [0.0, 0.0], v * cfg.wavenumber),
    "far_field_channel distance": lambda cfg, ap, ch, v: far_field_channel(
        cfg, Direction(0.0, 0.0), v),
    "spda_model pitch": lambda cfg, ap, ch, v: SpdaModel(2, 2, v, 0.01, 0.01),
    "spda_model element_y": lambda cfg, ap, ch, v: SpdaModel(2, 2, 0.1, 0.01, v),
    "element_layout spacing": lambda cfg, ap, ch, v: element_layout(ap, v, 0.01, 0.01),
}
# angles are bounded rather than positive
_ANGLE_INPUTS = {
    "directivity_factor theta": lambda cfg, ap, ch, v: directivity_factor(cfg, v, 0.0),
    "directivity_factor phi": lambda cfg, ap, ch, v: directivity_factor(cfg, 0.0, v),
}
_BAD_SCALARS = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}


def _scalar_cases(inputs, value_ids):
    return [pytest.param(call, _BAD_SCALARS[v], id=f"{name}-{v}")
            for name, call in inputs.items() for v in value_ids]


# warnings are errors: a guard must refuse the value before numpy warns about it
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, value", _scalar_cases(_POSITIVE_INPUTS, _BAD_SCALARS)
                         + _scalar_cases(_ANGLE_INPUTS, ("nan", "inf")))
def test_non_finite_input_is_domain_error(cfg, aperture, front_channel, call, value):
    with pytest.raises(DomainError):
        call(cfg, aperture, front_channel, value)


def test_positive_finite_comparisons_live_in_one_guard():
    # the domain (0, inf) is written once, in physics._require_positive
    package = Path(physics.__file__).parent
    guard = next(node for node in ast.parse((package / "physics.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_require_positive")
    body = range(guard.lineno, guard.end_lineno + 1)
    stray = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if "< np.inf" in line and not (path.name == "physics.py" and n in body)]
    assert stray == []


def _spoiled_drive(cfg, aperture, channel, value):
    h, coupling = _discrete_problem(cfg, aperture, channel)
    h[0] = value
    return optimal_discrete_beamformer(h, coupling)


def _spoiled_cg_solve(cfg, aperture, channel, value):
    op = discretize_operator(cfg, aperture_grid(aperture, 4))
    rhs = np.conj(channel(op.grid.points))
    rhs[3] = value
    return solve_fredholm(op, rhs)


_RECEIVER_POINTS = [[0.25, 0.25, 0.0], [-0.25, 0.1, 0.0]]
# array inputs whose NaN or inf used to reach the output: as a NaN gain or
# pattern, a full-range width, a RuntimeWarning or a NumericError
_NON_FINITE_ARRAYS = {
    "optimal_discrete_beamformer h nan": lambda cfg, ap, ch: _spoiled_drive(cfg, ap, ch, np.nan),
    "optimal_discrete_beamformer h inf": lambda cfg, ap, ch: _spoiled_drive(cfg, ap, ch, np.inf),
    "beampattern theta nan": lambda cfg, ap, ch: beampattern(
        uncoupled_beamformer(cfg, ch, ap), cfg, ap, np.array([0.0, np.nan]), 0.0),
    "exact_channel receiver nan": lambda cfg, ap, ch: exact_channel(
        cfg, [0.0, 0.0, np.nan], _RECEIVER_POINTS),
    "exact_channel receiver inf": lambda cfg, ap, ch: exact_channel(
        cfg, [0.0, 0.0, np.inf], _RECEIVER_POINTS),
    "half_power_width values nan": lambda cfg, ap, ch: half_power_width(
        np.linspace(-1.0, 1.0, 5), np.array([0.1, 0.5, 1.0, np.nan, 0.1])),
    "solve_fredholm rhs nan": lambda cfg, ap, ch: _spoiled_cg_solve(cfg, ap, ch, np.nan),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", list(_NON_FINITE_ARRAYS.values()), ids=list(_NON_FINITE_ARRAYS))
def test_non_finite_array_input_is_domain_error(cfg, aperture, front_channel, call):
    with pytest.raises(DomainError, match="must be finite"):
        call(cfg, aperture, front_channel)


# inputs that a guard written as v <= 0 or v < 1 lets through: a NaN, an
# infinite material parameter, and a count that is not an integer
_NAN_OR_FRACTIONAL_INPUTS = {
    "config frequency nan": (lambda cfg, ap, ch: PhysicalConfig(
        frequency=np.nan, surface_resistance=0.01), "frequency must be positive and finite"),
    "config mu_s nan": (lambda cfg, ap, ch: PhysicalConfig(
        frequency=2.4e9, mu_s=np.nan, surface_resistance=0.01), "material"),
    "config sigma_s inf": (lambda cfg, ap, ch: PhysicalConfig(
        frequency=2.4e9, sigma_s=np.inf, surface_resistance=0.01), "material"),
    "solve_fredholm max_iter nan": (lambda cfg, ap, ch: _cg_solve(cfg, ap, ch, 1e-8, np.nan),
                                    "max_iter"),
    "solve_fredholm max_iter 2.5": (lambda cfg, ap, ch: _cg_solve(cfg, ap, ch, 1e-8, 2.5),
                                    "max_iter"),
    "kernel_nulls count 2.5": (lambda cfg, ap, ch: kernel_nulls(0.0, count=2.5), "count"),
    "kernel_nulls count nan": (lambda cfg, ap, ch: kernel_nulls(0.0, count=np.nan), "count"),
    "wavenumber_kernel kappa nan": (lambda cfg, ap, ch: wavenumber_kernel(
        [np.nan, 0.0], cfg.wavenumber), "NaN"),
    "wavenumber_kernel wavenumber nan": (lambda cfg, ap, ch: wavenumber_kernel(
        [0.0, 0.0], np.nan), "finite"),
    "coupling_ratio kappa nan": (lambda cfg, ap, ch: coupling_ratio(cfg, [np.nan, 0.0]), "NaN"),
}


@pytest.mark.parametrize("call, match", list(_NAN_OR_FRACTIONAL_INPUTS.values()),
                         ids=list(_NAN_OR_FRACTIONAL_INPUTS))
def test_nan_or_fractional_input_is_domain_error(cfg, aperture, front_channel, call, match):
    with pytest.raises(DomainError, match=match):
        call(cfg, aperture, front_channel)


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

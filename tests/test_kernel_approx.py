import numpy as np
import pytest

from capa import (Aperture, Direction, DomainError, NumericError, PhysicalConfig, Z0,
                  far_field_channel, radiation_kernel)
from capa.kernel_approx import (beamform_ka, build_expansion, channel_moments,
                                gram_matrix, inverse_operator)
from capa.quadrature import aperture_grid


def kernel_peak(cfg):
    return cfg.wavenumber ** 2 * Z0 / (6.0 * np.pi)


def test_single_term_expansion_coefficient(cfg):
    exp1 = build_expansion(cfg, 1, inner_rule="legendre")
    assert exp1.term_count == 1
    assert np.allclose(exp1.kappa, 0.0)
    want = cfg.wavenumber ** 2 * Z0 / (2.0 * np.pi ** 2)
    assert exp1.coefficients[0] == pytest.approx(want, rel=1e-12)


def test_coefficients_positive_and_real(cfg):
    for rule in ("legendre", "chebyshev"):
        exp = build_expansion(cfg, 15, inner_rule=rule)
        assert exp.coefficients.shape == (225,)
        assert np.all(exp.coefficients > 0.0)
        assert np.isrealobj(exp.coefficients)


def test_zero_lag_sum_chebyshev_machine_precision(cfg):
    exp = build_expansion(cfg, 64, inner_rule="chebyshev")
    total = np.sum(exp.coefficients)
    assert total == pytest.approx(kernel_peak(cfg), rel=1e-12)


def test_zero_lag_sum_plain_rule_decays(cfg):
    peak = kernel_peak(cfg)
    errs = []
    for order in (128, 256, 512):
        total = np.sum(build_expansion(cfg, order, inner_rule="legendre").coefficients)
        errs.append(abs(total - peak) / peak)
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-3


def test_reconstruction_accuracy_on_axis(cfg):
    wl = cfg.wavelength
    r = np.linspace(-2.0 * wl, 2.0 * wl, 201)
    disp = np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=-1)
    true = radiation_kernel(disp, cfg.wavenumber)
    peak = np.max(np.abs(true))
    plain = build_expansion(cfg, 30, inner_rule="legendre").reconstruct(disp)
    cheb = build_expansion(cfg, 30, inner_rule="chebyshev").reconstruct(disp)
    assert np.max(np.abs(plain - true)) < 0.02 * peak
    assert np.max(np.abs(cheb - true)) < 1e-6 * peak


def test_reconstruction_is_real_and_even(cfg):
    exp = build_expansion(cfg, 10)
    s = np.array([[0.03, -0.05, 0.0], [-0.03, 0.05, 0.0]])
    vals = exp.reconstruct(s)
    assert np.isrealobj(vals)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_gram_matrix_structure(cfg, aperture):
    exp = build_expansion(cfg, 6)
    gram = gram_matrix(exp, aperture)
    assert gram.shape == (36, 36)
    assert np.allclose(gram, gram.conj().T)
    assert np.allclose(np.diag(gram).real, aperture.area)


def test_gram_matrix_matches_quadrature(cfg, aperture):
    exp = build_expansion(cfg, 3)
    gram = gram_matrix(exp, aperture)
    grid = aperture_grid(aperture, 40)
    phases = np.exp(1j * grid.points[:, :2] @ exp.kappa[:, :2].T)  # (K, J)
    for i in (0, 4, 8):
        for l in (1, 5, 7):
            val = grid.integrate(phases[:, l] * phases[:, i].conj())
            assert gram[i, l] == pytest.approx(val, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("order", [20, 30, 40])
def test_gram_matrix_equals_full_pairwise_formula(cfg, aperture, order):
    # the kappa_x table expanded per chord does the same arithmetic per entry
    exp = build_expansion(cfg, order)
    kx, ky = exp.kappa[:, 0], exp.kappa[:, 1]
    sinc = lambda t: np.sinc(t / np.pi)
    qx = sinc((kx[:, None] - kx[None, :]) * (0.5 * aperture.length_x))
    qy = sinc((ky[:, None] - ky[None, :]) * (0.5 * aperture.length_y))
    assert np.array_equal(gram_matrix(exp, aperture), aperture.area * qx * qy)


def resolvent(data):
    """(I + Lambda Q)^-1 = Lambda^1/2 L^-T L^-1 Lambda^-1/2 from the factored data."""
    root = np.sqrt(data.lambda_diag)
    identity = np.eye(root.size)
    inner = data.factor.solve(data.factor.solve(identity), transpose=True).real
    return root[:, None] * inner / root[None, :]


def test_inverse_operator_solves_its_system(cfg, aperture):
    exp = build_expansion(cfg, 10)
    gram = gram_matrix(exp, aperture)
    data = inverse_operator(exp, gram, cfg.surface_resistance)
    system = np.eye(exp.term_count) + data.lambda_diag[:, None] * gram
    residual = system @ resolvent(data) - np.eye(exp.term_count)
    assert np.max(np.abs(residual)) < 1e-9
    # a system that is not positive definite is refused with a condition estimate
    with pytest.raises(NumericError, match="condition estimate"):
        inverse_operator(exp, -gram, cfg.surface_resistance)


def test_inverse_operator_identity_limit(cfg, aperture):
    exp = build_expansion(cfg, 8)
    gram = gram_matrix(exp, aperture)
    data = inverse_operator(exp, gram, 1e9)
    assert np.max(np.abs(resolvent(data) - np.eye(exp.term_count))) < 1e-6


def test_channel_moments_match_quadrature(cfg, aperture, oblique_channel):
    exp = build_expansion(cfg, 4)
    moments = channel_moments(oblique_channel, exp, aperture)
    grid = aperture_grid(aperture, 60)
    ch_vals = oblique_channel(grid.points)
    for l in (0, 3, 9, 15):
        phase = np.exp(-1j * grid.points[:, :2] @ exp.kappa[l, :2])
        want = grid.integrate(ch_vals.conj() * phase)
        assert moments[l] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_beamformer_basic_structure(cfg, aperture, front_channel):
    exp = build_expansion(cfg, 20)
    bf = beamform_ka(cfg, front_channel, exp, aperture, power=2.0)
    assert bf.gain > 0.0
    assert bf.gain < bf.uncoupled_bound
    assert bf.scale > 0.0
    pts = np.array([[0.0, 0.0, 0.0], [0.1, -0.1, 0.0]])
    w = bf(pts)
    assert w.shape == (2,)
    assert np.iscomplexobj(w)


def test_closed_form_matches_dense_solve_of_same_kernel(cfg, aperture,
                                                        front_channel):
    exp = build_expansion(cfg, 6)
    closed = beamform_ka(cfg, front_channel, exp, aperture).gain
    grid = aperture_grid(aperture, 20)
    diffs = grid.points[:, None, :] - grid.points[None, :, :]
    kernel = exp.reconstruct(diffs)
    system = kernel * grid.weights[None, :]
    system[np.diag_indices_from(system)] += cfg.surface_resistance
    rhs = np.conj(front_channel(grid.points))
    solution = np.linalg.solve(system, rhs)
    dense = 2.0 * np.real(np.sum(grid.weights * front_channel(grid.points)
                                 * solution))
    assert closed == pytest.approx(dense, rel=1e-6)


def test_projection_matches_eager_formula(cfg, aperture, oblique_channel):
    exp = build_expansion(cfg, 30)
    bf = beamform_ka(cfg, oblique_channel, exp, aperture)
    data = inverse_operator(exp, gram_matrix(exp, aperture), cfg.surface_resistance)
    root = np.sqrt(data.lambda_diag)
    lower = np.linalg.inv(data.factor.lower)
    x = root * channel_moments(oblique_channel, exp, aperture)
    eager = root * (lower.T @ (lower @ x))
    # relative to the magnitudes the two products sum: L^-1 is ill-conditioned,
    # so any two summation orders differ by about 1e-12 of the result's norm
    scale = root * (np.abs(lower).T @ (np.abs(lower) @ np.abs(x)))
    assert np.all(np.abs(bf.projection - eager) <= 1e-13 * scale)


def test_gain_alone_leaves_projection_uncomputed(cfg, aperture, oblique_channel):
    bf = beamform_ka(cfg, oblique_channel, build_expansion(cfg, 20), aperture)
    assert bf.gain > 0.0
    assert "projection" not in bf.__dict__
    bf(np.zeros(3))
    assert "projection" in bf.__dict__


def test_front_fire_gain_regression(cfg, aperture, front_channel):
    exp = build_expansion(cfg, 20, inner_rule="legendre")
    gain = beamform_ka(cfg, front_channel, exp, aperture).gain
    # exact value of this 400-term system: a Cholesky solve in 80-bit long double
    assert gain == pytest.approx(3.6153478804977635, rel=1e-9)


def test_build_expansion_rejects_bad_inputs(cfg):
    with pytest.raises(DomainError):
        build_expansion(cfg, 0)
    with pytest.raises(DomainError):
        build_expansion(cfg, 10, inner_rule="midpoint")

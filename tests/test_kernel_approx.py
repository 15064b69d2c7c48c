import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from capa import (Aperture, Direction, DomainError, NumericError, PhysicalConfig, Z0,
                  far_field_channel, radiation_kernel)
from capa.analysis import steered_gain_profile
from capa.kernel_approx import (PlaneWaveExpansion, beamform_ka, build_expansion,
                                channel_moments, gram_matrix, inverse_operator)
from capa.quadrature import _fold, _parity_rows, _unfold, aperture_grid


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


def _wave_sum_points(layout, aperture, order, rng):
    if layout == "grid":
        return aperture_grid(aperture, order).points
    half = 0.5 * np.array([aperture.length_x, aperture.length_y, 0.0])
    if layout == "random":
        return rng.uniform(-half, half, (1600, 3))
    if layout == "single":
        return np.array([0.11, -0.07, 0.0])
    pts = aperture_grid(aperture, 8).points
    return pts[:, None, :] - pts[None, :, :]


@pytest.mark.parametrize("inner_rule", ["chebyshev", "legendre"])
@pytest.mark.parametrize("order, sides, layout", [
    (40, (1.0, 1.0), "grid"),
    (20, (0.5, 0.35), "grid"),
    (40, (1.0, 1.0), "random"),
    (20, (0.5, 0.35), "single"),
    (20, (0.5, 0.35), "block"),
])
def test_wave_sum_matches_dense_phase_sum(cfg, inner_rule, order, sides, layout):
    rng = np.random.default_rng(order)
    exp = build_expansion(cfg, order, inner_rule=inner_rule)
    a = rng.standard_normal(exp.term_count) + 1j * rng.standard_normal(exp.term_count)
    s = _wave_sum_points(layout, Aperture(*sides), order, rng)
    got = exp.wave_sum(a, s)
    want = np.exp(1j * (s @ exp.kappa.T)) @ a
    if layout == "single":
        assert type(got) is complex
    else:
        assert got.shape == s.shape[:-1]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(a))


def test_closed_form_on_its_grid_allocates_no_phase_matrix(cfg):
    # a points x terms phase matrix on this grid is 41 MB
    aperture = Aperture(1.0, 1.0)
    channel = far_field_channel(cfg, Direction(0.3, 1.0), 50.0)
    bf = beamform_ka(cfg, channel, build_expansion(cfg, 40), aperture)
    points = aperture_grid(aperture, 40).points
    tracemalloc.start()
    try:
        bf(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def dense_gram(exp, aperture):
    """The full n x n Gram from the pairwise formula, the oracle for gram_matrix's
    blocks: area sinc(dkx L_x / 2) sinc(dky L_y / 2) for every pair of terms."""
    kx, ky = exp.kappa[:, 0], exp.kappa[:, 1]
    sinc = lambda t: np.sinc(t / np.pi)
    qx = sinc((kx[:, None] - kx[None, :]) * (0.5 * aperture.length_x))
    qy = sinc((ky[:, None] - ky[None, :]) * (0.5 * aperture.length_y))
    return aperture.area * qx * qy


def test_gram_matrix_structure(cfg, aperture):
    for order in (6, 7):
        exp = build_expansion(cfg, order)
        blocks = gram_matrix(exp, aperture)
        size = ((order + 1) // 2) ** 2
        assert blocks.shape == (4, size, size)
        assert np.allclose(blocks, blocks.transpose(0, 2, 1), rtol=0.0, atol=1e-15)
        # the basis change is orthonormal: the trace is n times the area
        trace = np.trace(blocks, axis1=1, axis2=2).sum()
        assert trace == pytest.approx(exp.term_count * aperture.area, rel=1e-14)
        assert np.all(np.linalg.eigvalsh(blocks) > -1e-14 * aperture.area)


def test_gram_matrix_matches_quadrature(cfg, aperture, dense_fold):
    exp = build_expansion(cfg, 3)
    grid = aperture_grid(aperture, 40)
    phases = np.exp(1j * grid.points[:, :2] @ exp.kappa[:, :2].T)  # (K, J)
    # entry (i, l) integrates phase_l times conj(phase_i)
    dense = phases.conj().T @ (grid.weights[:, None] * phases)
    assert np.max(np.abs(dense.imag)) < 1e-10
    want, _ = dense_fold(dense.real, (exp.order, exp.order))
    assert np.max(np.abs(gram_matrix(exp, aperture) - want)) < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3, 7, 20, 30, 40])
def test_gram_matrix_equals_full_pairwise_formula(cfg, dense_fold, order):
    # the blocks against the parity fold of the full pairwise Gram, on a
    # non-square aperture; padding is exactly zero
    aperture = Aperture(0.5, 0.35)
    for inner_rule in ("chebyshev", "legendre"):
        exp = build_expansion(cfg, order, inner_rule=inner_rule)
        blocks = gram_matrix(exp, aperture)
        want, _ = dense_fold(dense_gram(exp, aperture), (order, order))
        assert np.max(np.abs(blocks - want)) <= 1e-14 * np.max(np.abs(want)), inner_rule
        padding = ~_parity_rows((order, order))
        assert np.all(blocks[padding] == 0.0)
        assert np.all(blocks.transpose(0, 2, 1)[padding] == 0.0)


def test_gram_blocks_and_resolvent_stay_small(cfg):
    # order 40 on 1 m: the full Gram alone would be 20 MB
    exp = build_expansion(cfg, 40)
    aperture = Aperture(1.0, 1.0)
    tracemalloc.start()
    try:
        inverse_operator(exp, gram_matrix(exp, aperture), cfg.surface_resistance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("inner_rule", ["chebyshev", "legendre"])
def test_expansion_is_reflection_symmetric_bit_for_bit(cfg, inner_rule):
    # the parity split of gram_matrix and inverse_operator rests on these
    for order in range(1, 129):
        exp = build_expansion(cfg, order, inner_rule=inner_rule)
        kappa = exp.kappa.reshape(order, order, 3)
        kx, ky = kappa[..., 0], kappa[..., 1]
        rho = exp.coefficients.reshape(order, order)
        assert np.array_equal(kx[::-1], -kx), order
        assert np.array_equal(ky[:, ::-1], -ky), order
        assert np.array_equal(ky[::-1], ky), order
        assert np.array_equal(rho[::-1], rho), order
        assert np.array_equal(rho[:, ::-1], rho), order


@pytest.mark.parametrize("order", [1, 2, 3, 6, 7, pytest.param((3, 4), id="3x4")])
def test_parity_fold_is_orthonormal(order):
    # the blocks' rows are an orthonormal basis of the terms; padding rows are 0
    shape = order if isinstance(order, tuple) else (order, order)
    n = shape[0] * shape[1]
    basis = _fold(np.eye(n), shape).reshape(-1, n)
    size = ((shape[0] + 1) // 2) * ((shape[1] + 1) // 2)
    live = np.abs(basis).sum(axis=1) > 0.0
    assert basis.shape == (4 * size, n) and live.sum() == n
    assert np.array_equal(live, _parity_rows(shape).ravel())
    assert np.allclose(basis[live] @ basis[live].T, np.eye(n), rtol=0.0, atol=1e-15)
    x = np.random.default_rng(n).standard_normal((n, 2))
    assert np.allclose(_unfold(_fold(x, shape), shape), x, rtol=0.0, atol=1e-15)


def resolvent(data):
    """(I + Lambda Q)^-1 = Lambda^1/2 U^T L^-T L^-1 U Lambda^-1/2 from the
    factored parity blocks, U the change to the parity basis."""
    root = np.sqrt(data.lambda_diag)
    shape = (data.order, data.order)
    blocks = _fold(np.eye(root.size), shape)
    solved = data.factor.solve(data.factor.solve(blocks), transpose=True)
    inner = _unfold(solved, shape).real
    return root[:, None] * inner / root[None, :]


def test_inverse_operator_solves_its_system(cfg, aperture):
    exp = build_expansion(cfg, 10)
    gram = gram_matrix(exp, aperture)
    data = inverse_operator(exp, gram, cfg.surface_resistance)
    system = np.eye(exp.term_count) + data.lambda_diag[:, None] * dense_gram(exp, aperture)
    residual = system @ resolvent(data) - np.eye(exp.term_count)
    assert np.max(np.abs(residual)) < 1e-9
    # a system that is not positive definite is refused with a condition estimate
    with pytest.raises(NumericError, match="condition estimate"):
        inverse_operator(exp, -gram, cfg.surface_resistance)
    # Lambda = rho / Zs overflows, and OpenBLAS would factor the result to NaN
    with pytest.raises(NumericError, match="not finite"):
        inverse_operator(exp, gram, 1e-320)


@pytest.mark.parametrize("order", [9, 10])
def test_inverse_operator_refuses_asymmetric_gram(cfg, aperture, order):
    exp = build_expansion(cfg, order)
    gram = gram_matrix(exp, aperture)
    # blocks cut by one row, and the full Gram, have the wrong shape
    with pytest.raises(DomainError, match="shape"):
        inverse_operator(exp, gram[:, :-1, :-1], cfg.surface_resistance)
    with pytest.raises(DomainError, match="shape"):
        inverse_operator(exp, dense_gram(exp, aperture), cfg.surface_resistance)


def test_inverse_operator_identity_limit(cfg, aperture):
    exp = build_expansion(cfg, 8)
    data = inverse_operator(exp, gram_matrix(exp, aperture), 1e9)
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
    # the parity basis change U as rows (padding rows are zero) and the
    # block-diagonal L^-1
    basis = _fold(np.eye(exp.term_count), (exp.order, exp.order)).reshape(-1, exp.term_count)
    blocks = np.linalg.inv(data.factor.lower)
    lower = np.zeros((basis.shape[0],) * 2)
    for k, block in enumerate(blocks):
        span = slice(k * block.shape[0], (k + 1) * block.shape[0])
        lower[span, span] = block
    x = root * channel_moments(oblique_channel, exp, aperture)
    eager = root * (basis.T @ (lower.T @ (lower @ (basis @ x))))
    # relative to the magnitudes the products sum: L^-1 is ill-conditioned,
    # so any two summation orders differ by about 1e-12 of the result's norm
    u, v = np.abs(basis), np.abs(lower)
    scale = root * (u.T @ (v.T @ (v @ (u @ np.abs(x)))))
    assert np.all(np.abs(bf.projection - eager) <= 1e-13 * scale)


_STEER_THETA = np.deg2rad(np.r_[np.full(90, 90.0), np.zeros(90), 30.0])
_STEER_PHI = np.deg2rad(np.r_[np.tile(np.linspace(0.0, 89.0, 90), 2), 40.0])


@pytest.mark.parametrize("inner_rule", ["chebyshev", "legendre"])
@pytest.mark.parametrize("order, sides", [
    (1, (0.5, 0.35)), (2, (0.5, 0.35)), (3, (0.5, 0.35)), (20, (0.5, 0.35)),
    (33, (1.0, 0.7)), (40, (1.0, 1.0)),
])
def test_parity_blocks_match_dense_full_solve(cfg, inner_rule, order, sides):
    # the steer workload's E- and H-plane directions and one oblique direction,
    # against a Cholesky solve of the whole system I + Lambda^1/2 Q Lambda^1/2
    aperture = Aperture(*sides)
    exp = build_expansion(cfg, order, inner_rule=inner_rule)
    root = np.sqrt(exp.coefficients / cfg.surface_resistance)
    system = np.eye(exp.term_count) + root[:, None] * dense_gram(exp, aperture) * root
    lower = np.linalg.cholesky(system)
    channels = [far_field_channel(cfg, Direction(t, p), 50.0)
                for t, p in zip(_STEER_THETA, _STEER_PHI)]
    moments = np.column_stack([channel_moments(ch, exp, aperture) for ch in channels])
    eta = aperture.area * np.array([abs(ch.amplitude) ** 2 for ch in channels])
    whitened = np.linalg.solve(lower, root[:, None] * moments)
    penalty = np.sum(np.abs(whitened) ** 2, axis=0)
    dense = 2.0 * (eta - penalty) / cfg.surface_resistance
    got = steered_gain_profile(cfg, exp, aperture, _STEER_THETA, _STEER_PHI, 50.0)
    assert np.all(dense > 0.0)
    assert got == pytest.approx(dense, rel=1e-9)
    one = beamform_ka(cfg, channels[-1], exp, aperture).gain
    assert one == pytest.approx(dense[-1], rel=1e-9)


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
    # PhysicalConfig admits no bad wavenumber; a stand-in carries one to build_expansion
    k = cfg.wavenumber
    bad = [(k, 0, "chebyshev"), (k, 10, "midpoint"), (-k, 10, "chebyshev"),
           (0.0, 10, "chebyshev"), (np.nan, 10, "chebyshev")]
    for wavenumber, order, rule in bad:
        with pytest.raises(DomainError) as built:
            build_expansion(SimpleNamespace(wavenumber=wavenumber), order, inner_rule=rule)
        with pytest.raises(DomainError) as direct:
            PlaneWaveExpansion(wavenumber, order, rule)
        assert str(direct.value) == str(built.value)

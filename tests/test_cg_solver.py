"""Tests for the grid-discretized Fredholm solver."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from capa import (
    Aperture,
    ConvergenceError,
    Direction,
    DomainError,
    NumericError,
    PhysicalConfig,
    aperture_grid,
    beamform_cg,
    beamform_ka,
    build_expansion,
    far_field_channel,
    radiation_kernel,
)
from capa.cg_solver import (
    DiscretizedOperator,
    apply_operator,
    discretize_operator,
    solve_fredholm,
    synthesize_beamformer,
)
from capa.quadrature import (_fold, _offset_table, _parity_rows, _table_blocks,
                             legendre_rule)

FRONT_GAIN_CG_ORDER20 = 3.614677454700339


def _dense_system(cfg, grid):
    # independent assembly of the dense collocation system K diag(w) + Zs I
    diffs = grid.points[:, None, :] - grid.points[None, :, :]
    kern = radiation_kernel(diffs, cfg.wavenumber)
    return kern * grid.weights[None, :] + cfg.surface_resistance * np.eye(grid.points.shape[0])


@pytest.mark.parametrize("order", [1, 2, 3, 7, 12, pytest.param((4, 7), id="4x7")])
def test_parity_blocks_equal_dense_fold(cfg, dense_fold, order):
    # the blocks gathered from the offset table must equal the parity fold of
    # the per-pair weighted kernel, and the fold must be block diagonal; a
    # non-square grid, as a discrete lattice may have, gets its blocks from
    # _table_blocks on its own offset table
    if isinstance(order, tuple):
        shape = order
        rules = [legendre_rule(m) for m in shape]
        xs, ys = (0.5 * side * rule.nodes for side, rule in zip((0.3, 0.5), rules))
        points = np.stack(np.broadcast_arrays(xs[:, None], ys, 0.0), axis=-1).reshape(-1, 3)
        weights = np.outer(0.15 * rules[0].weights, 0.25 * rules[1].weights).ravel()
    else:
        shape = (order, order)
        grid = aperture_grid(Aperture(0.3, 0.5), order)
        points, weights = grid.points, grid.weights
    n = shape[0] * shape[1]
    diffs = points[:, None, :] - points[None, :, :]
    root = np.sqrt(weights)
    weighted = root[:, None] * radiation_kernel(diffs, cfg.wavenumber) * root
    want, basis = dense_fold(weighted, shape)
    if isinstance(order, tuple):
        ax, ay = ((m + 1) // 2 for m in shape)
        blocks = _table_blocks(*_offset_table(xs, ys, lambda offsets:
                                              radiation_kernel(offsets, cfg.wavenumber)))
        first = root.reshape(shape)[:ax, :ay].ravel()
        blocks *= first[:, None] * first
    else:
        blocks = discretize_operator(cfg, grid).blocks
    scale = np.max(np.abs(weighted))
    assert np.max(np.abs(blocks - want)) <= 1e-14 * scale
    rows = basis.reshape(-1, n)
    full = rows @ weighted @ rows.T
    size = blocks.shape[1]
    for k in range(4):
        full[k * size:(k + 1) * size, k * size:(k + 1) * size] = 0.0
    assert np.max(np.abs(full)) <= 1e-14 * scale


def test_operator_blocks_peak_memory(cfg):
    # order 40 on 0.5 m: the blocks (5.1 MB) gathered from the offset table
    # a few rows at a time, 8.36 MB at peak; 12.97 MB while the four images
    # were gathered whole, 16.74 MB while the first-quadrant columns were folded
    grid = aperture_grid(Aperture(0.5, 0.5), 40)
    tracemalloc.start()
    try:
        discretize_operator(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.0e6


def test_solution_matches_dense_inverse(cfg, aperture, oblique_channel):
    grid = aperture_grid(aperture, 12)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(oblique_channel(grid.points))
    state = solve_fredholm(op, rhs, tol=1e-12)
    direct = np.linalg.solve(_dense_system(cfg, grid), rhs)
    err = np.max(np.abs(state.values - direct)) / np.max(np.abs(direct))
    assert err < 1e-8


def test_functional_decreases_monotonically(cfg, aperture, front_channel):
    grid = aperture_grid(aperture, 14)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(front_channel(grid.points))
    state = solve_fredholm(op, rhs, tol=1e-10)
    f = state.functional_values
    scale = np.max(np.abs(f))
    assert np.all(np.diff(f) <= 1e-12 * scale)
    assert f[-1] < f[0]


def test_residual_reaches_tolerance(cfg, aperture, front_channel):
    grid = aperture_grid(aperture, 14)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(front_channel(grid.points))
    state = solve_fredholm(op, rhs, tol=1e-9)
    assert state.converged
    assert state.residual_norms[-1] < 1e-9
    assert state.residual_norms[0] == pytest.approx(1.0)
    assert len(state.residual_norms) == state.iterations + 1


def test_normalized_power_identity(cfg, aperture, oblique_channel):
    grid = aperture_grid(aperture, 16)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(oblique_channel(grid.points))
    state = solve_fredholm(op, rhs, tol=1e-10)
    power = 2.5
    sol = synthesize_beamformer(op, oblique_channel, state, power=power)
    vals = sol.scale * sol.state.values
    quad = 0.5 * np.real(np.vdot(vals, grid.weights * apply_operator(op, vals)))
    assert quad == pytest.approx(power, rel=1e-6)


def test_callable_agrees_with_grid_solution(cfg, aperture, front_channel):
    sol = beamform_cg(cfg, front_channel, aperture, order=12, tol=1e-10)
    grid = sol.operator.grid
    on_grid = sol(grid.points)
    expected = sol.scale * sol.state.values
    err = np.max(np.abs(on_grid - expected)) / np.max(np.abs(expected))
    assert err < 1e-5


def test_random_init_reaches_same_gain(cfg, aperture, front_channel):
    ref = beamform_cg(cfg, front_channel, aperture, order=12, tol=1e-10)
    rand = beamform_cg(cfg, front_channel, aperture, order=12, tol=1e-10,
                       init="random", seed=7)
    assert rand.gain == pytest.approx(ref.gain, rel=1e-6)
    again = beamform_cg(cfg, front_channel, aperture, order=12, tol=1e-10,
                        init="random", seed=7)
    assert again.gain == rand.gain


def test_unconverged_error_carries_state(cfg, aperture, front_channel):
    grid = aperture_grid(aperture, 12)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(front_channel(grid.points))
    with pytest.raises(ConvergenceError) as exc:
        solve_fredholm(op, rhs, tol=1e-12, max_iter=5)
    state = exc.value.state
    assert state.iterations == 5
    assert not state.converged
    assert len(state.residual_norms) == 6


def test_rejects_bad_inputs(cfg, aperture, front_channel):
    grid = aperture_grid(aperture, 8)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(front_channel(grid.points))
    with pytest.raises(DomainError):
        solve_fredholm(op, np.zeros(grid.points.shape[0]))
    with pytest.raises(DomainError):
        solve_fredholm(op, rhs, tol=0.0)
    with pytest.raises(DomainError):
        solve_fredholm(op, rhs, max_iter=0)
    with pytest.raises(DomainError):
        solve_fredholm(op, rhs, init="ones")
    state = solve_fredholm(op, rhs)
    with pytest.raises(DomainError):
        synthesize_beamformer(op, front_channel, state, power=-1.0)


def test_front_fire_gain_regression(cfg, aperture, front_channel):
    sol = beamform_cg(cfg, front_channel, aperture, order=20)
    assert sol.gain == pytest.approx(FRONT_GAIN_CG_ORDER20, rel=1e-9)


def test_gain_stable_under_grid_refinement(cfg, aperture):
    channel = far_field_channel(cfg, Direction(np.pi / 2, np.pi / 6), 50.0)
    coarse = beamform_cg(cfg, channel, aperture, order=20).gain
    fine = beamform_cg(cfg, channel, aperture, order=30).gain
    assert abs(coarse - fine) / fine < 1e-3


CRITERION_04_DIRECTIONS = ((0.0, 0.0), (0.0, 60.0), (90.0, 30.0))


def _criterion_04_channels(cfg):
    return [far_field_channel(cfg, Direction(np.deg2rad(th), np.deg2rad(ph)), 50.0)
            for th, ph in CRITERION_04_DIRECTIONS]


def test_apply_operator_matches_dense_product(cfg, aperture, oblique_channel):
    grid = aperture_grid(aperture, 12)
    op = discretize_operator(cfg, grid)
    vals = oblique_channel(grid.points) * (1.0 + 0.3j * grid.points[:, 0])
    want = _dense_system(cfg, grid).astype(complex) @ vals
    got = apply_operator(op, vals)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-13


@pytest.mark.parametrize("order", [10, 15, 20, 25, 30])
def test_gains_match_dense_solve_at_default_tol(cfg, aperture, order):
    # the gain is -4 J of CG's last iterate, second order in its error:
    # measured within 2.8e-14 of the grid optimum at the default tol
    grid = aperture_grid(aperture, order)
    op = discretize_operator(cfg, grid)
    dense = _dense_system(cfg, grid)
    for channel in _criterion_04_channels(cfg):
        h = channel(grid.points)
        sol = synthesize_beamformer(op, channel, solve_fredholm(op, np.conj(h)))
        want = 2.0 * np.real(np.sum(grid.weights * h * np.linalg.solve(dense, np.conj(h))))
        assert abs(sol.gain - want) / want < 1e-13


@pytest.mark.parametrize("order", [20, 30])
def test_preconditioned_iterations_bounded(cfg, aperture, order):
    grid = aperture_grid(aperture, order)
    op = discretize_operator(cfg, grid)
    for channel in _criterion_04_channels(cfg):
        state = solve_fredholm(op, np.conj(channel(grid.points)))
        assert state.converged
        assert state.iterations <= 30
        assert 0 < state.preconditioner_rank <= grid.points.shape[0] // 2


@pytest.mark.parametrize("frequency, order", [(1e7, 12), (1e6, 4), (1e3, 20)])
def test_electrically_small_aperture_solves(aperture, frequency, order):
    # H is tiny next to Zs here, and rounding leaves the sketch core indefinite
    # at the usual shift; the gain must still match the closed form
    cfg = PhysicalConfig(frequency=frequency)
    channel = far_field_channel(cfg, Direction(0.0, 0.0), 50.0)
    cg = beamform_cg(cfg, channel, aperture, order)
    ka = beamform_ka(cfg, channel, build_expansion(cfg, order), aperture)
    assert cg.state.iterations <= 2
    assert cg.gain == pytest.approx(ka.gain, rel=1e-9)


def test_identical_solves_are_bit_identical(cfg, aperture, oblique_channel):
    first = beamform_cg(cfg, oblique_channel, aperture, order=20)
    second = beamform_cg(cfg, oblique_channel, aperture, order=20)
    assert first.gain == second.gain
    assert np.array_equal(first.state.values, second.state.values)


def test_non_finite_input_raises_numeric_error_at_once(cfg, aperture, front_channel):
    grid = aperture_grid(aperture, 8)
    op = discretize_operator(cfg, grid)
    rhs = np.conj(front_channel(grid.points))
    rhs[3] = np.nan
    # a NaN right-hand side is refused before the first iteration
    with pytest.raises(DomainError, match="right-hand side must be finite"):
        solve_fredholm(op, rhs)
    blocks = op.blocks.copy()
    blocks[0, 2, 5] = np.nan
    broken = DiscretizedOperator(config=cfg, grid=grid, blocks=blocks)
    with pytest.raises(NumericError) as exc:
        solve_fredholm(broken, np.conj(front_channel(grid.points)))
    assert not isinstance(exc.value, ConvergenceError)


def test_directions_share_one_operator(cfg, aperture, front_channel, oblique_channel):
    first = beamform_cg(cfg, front_channel, aperture, order=12)
    second = beamform_cg(cfg, oblique_channel, Aperture(0.5, 0.5), order=12)
    assert second.operator is first.operator


def test_shared_operator_matches_fresh_build(cfg, aperture):
    # every direction after the first reuses the operator and preconditioner;
    # the results must equal an operator built for that direction alone
    for channel in _criterion_04_channels(cfg):
        shared = beamform_cg(cfg, channel, aperture, order=20)
        grid = aperture_grid(aperture, 20)
        op = discretize_operator(cfg, grid)
        state = solve_fredholm(op, np.conj(channel(grid.points)))
        fresh = synthesize_beamformer(op, channel, state)
        assert shared.gain == fresh.gain
        assert shared.state.iterations == fresh.state.iterations
        assert np.array_equal(shared.state.residual_norms, fresh.state.residual_norms)
        assert np.array_equal(shared.state.values, fresh.state.values)


def test_operator_memo_holds_one_operator(cfg, aperture, front_channel):
    first = weakref.ref(beamform_cg(cfg, front_channel, aperture, order=12).operator)
    gc.collect()
    assert first() is not None
    beamform_cg(cfg, front_channel, aperture, order=14)
    gc.collect()
    assert first() is None


def test_order_checked_before_operator_reuse(cfg, aperture, front_channel):
    beamform_cg(cfg, front_channel, aperture, order=12)
    for order in (12.0, True):
        with pytest.raises(DomainError):
            beamform_cg(cfg, front_channel, aperture, order=order)


def test_shared_arrays_are_read_only(cfg, aperture, front_channel):
    op = beamform_cg(cfg, front_channel, aperture, order=12).operator
    precond = op.preconditioner
    for array in (op.blocks, op.grid.points, op.grid.weights,
                  precond.basis, precond.shrink):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("side, order", [(0.5, 12), (0.5, 20), (0.3, 7)])
def test_nystrom_preconditioned_spectrum_floor(cfg, side, order):
    # each block's Nystrom approximation lies below the block, so the smallest
    # eigenvalue mu of P^-1/2 (H + Zs I) P^-1/2 is at least Zs in every block:
    # the floor the certified gain bounds divide by
    op = discretize_operator(cfg, aperture_grid(Aperture(side, side), order))
    pre = op.preconditioner
    zs = op.surface_resistance
    for k, real in enumerate(_parity_rows((order, order))):
        n = int(real.sum())
        weighted = op.blocks[k][np.ix_(real, real)] + zs * np.eye(n)
        basis, shrink = pre.basis[k][real], pre.shrink[k]
        # P^-1 = I + U diag(shrink) U^T, so P^-1/2 = I + U diag(sqrt(1 + shrink) - 1) U^T
        half = np.eye(n) + (basis * (np.sqrt(1.0 + shrink) - 1.0)) @ basis.T
        mu = np.linalg.eigvalsh(half @ weighted @ half)[0]
        assert mu >= zs * (1.0 - 1e-10), k


@pytest.mark.parametrize("order", [7, 12, 20])
@pytest.mark.parametrize("init", ["zero", "random"])
def test_gain_bounds_bracket_dense_gain(cfg, aperture, order, init):
    grid = aperture_grid(aperture, order)
    op = discretize_operator(cfg, grid)
    channel = far_field_channel(cfg, Direction(np.pi / 2, np.pi / 6), 50.0)
    h = channel(grid.points)
    state = solve_fredholm(op, np.conj(h), tol=1e-12, init=init, seed=3)
    want = 2.0 * np.real(np.sum(grid.weights * h
                                * np.linalg.solve(_dense_system(cfg, grid), np.conj(h))))
    lower, upper = state.gain_bounds.T
    assert state.gain_bounds.shape == (state.iterations + 1, 2)
    assert np.all(lower <= want * (1.0 + 1e-12))
    assert np.all(upper >= want * (1.0 - 1e-12))
    assert upper[-1] - lower[-1] < 1e-9 * want


@pytest.mark.parametrize("order", [1, 3, 7, 12, 15, 20])
def test_block_gains_match_dense_solve(cfg, aperture, order):
    grid = aperture_grid(aperture, order)
    op = discretize_operator(cfg, grid)
    dense = _dense_system(cfg, grid)
    for channel in _criterion_04_channels(cfg):
        h = channel(grid.points)
        sol = synthesize_beamformer(op, channel, solve_fredholm(op, np.conj(h), tol=1e-12))
        want = 2.0 * np.real(np.sum(grid.weights * h * np.linalg.solve(dense, np.conj(h))))
        assert abs(sol.gain - want) / want < 1e-11


@pytest.mark.parametrize("order", [7, 12])
def test_empty_parity_blocks_stay_frozen(cfg, aperture, front_channel, order):
    # front-fire fills only the even-even block, a right-hand side odd in x
    # only the two blocks odd in x; the empty blocks must trip no check
    grid = aperture_grid(aperture, order)
    op = discretize_operator(cfg, grid)
    x, y = grid.points[:, 0], grid.points[:, 1]
    dense = _dense_system(cfg, grid)
    for rhs, filled in ((np.conj(front_channel(grid.points)), [0]),
                        (x * np.exp(2j * y / aperture.length_y), [2, 3])):
        folded = _fold(rhs, (order, order))
        assert np.all(np.delete(folded, filled, axis=0) == 0.0)
        state = solve_fredholm(op, rhs, tol=1e-12)
        want = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(state.values - want)) < 1e-9 * np.max(np.abs(want))


def test_padding_stays_zero_at_odd_order(cfg, aperture, oblique_channel):
    # padding rows of the smaller blocks hold nothing: not in the blocks, the
    # sketch bases, or the residual the stopping test sums over the blocks
    order = 9
    grid = aperture_grid(aperture, order)
    op = discretize_operator(cfg, grid)
    padding = ~_parity_rows((order, order))
    assert padding.any()
    assert np.all(op.blocks[padding] == 0.0)
    assert np.all(op.blocks.transpose(0, 2, 1)[padding] == 0.0)
    assert np.all(op.preconditioner.basis[padding] == 0.0)
    rhs = np.conj(oblique_channel(grid.points))
    for init in ("zero", "random"):
        state = solve_fredholm(op, rhs, tol=1e-10, init=init, seed=5)
        r = state.residual
        rel = np.sqrt(np.real(np.vdot(r, grid.weights * r))
                      / np.real(np.vdot(rhs, grid.weights * rhs)))
        assert rel == pytest.approx(state.residual_norms[-1], rel=1e-6)
        assert np.max(np.abs(apply_operator(op, state.values) + r - rhs)) \
            < 1e-9 * np.max(np.abs(rhs))


@pytest.mark.parametrize("sides", [(1e-6, 0.5), (0.5, 1e-6)])
def test_thin_strip_matches_closed_form(cfg, front_channel, oblique_channel, sides):
    # across a thin strip the odd blocks are rounding noise of either sign,
    # far below Zs; the operator is still positive definite and must solve
    aperture, expansion = Aperture(*sides), build_expansion(cfg, 20)
    for channel in (front_channel, oblique_channel):
        want = beamform_ka(cfg, channel, expansion, aperture).gain
        assert beamform_cg(cfg, channel, aperture, order=20).gain == pytest.approx(want, rel=1e-6)

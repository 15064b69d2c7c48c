import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capa import Aperture, DomainError, PhysicalConfig, build_expansion, radiation_kernel
from capa.quadrature import (_grid_weights, _mirror_sums, _offset_table, _parity_rows,
                             _table_blocks, aperture_grid, disk_wavenumber_grid, legendre_rule)


@pytest.mark.parametrize("order", [1, 2, 5, 20, 64, 256, 512])
def test_rule_matches_numpy_reference(order):
    rule = legendre_rule(order)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    assert np.allclose(rule.nodes, ref_nodes, atol=1e-13)
    assert np.allclose(rule.weights, ref_weights, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.data())
def test_rule_integrates_polynomials_exactly(order, data):
    degree = data.draw(st.integers(0, 2 * order - 1))
    coeffs = np.array(data.draw(st.lists(
        st.floats(-1.0, 1.0), min_size=degree + 1, max_size=degree + 1)))
    rule = legendre_rule(order)
    got = np.sum(rule.weights * np.polyval(coeffs, rule.nodes))
    anti = np.polyint(coeffs)
    want = np.polyval(anti, 1.0) - np.polyval(anti, -1.0)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_rule_symmetry_and_normalization():
    rule = legendre_rule(33)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-14)
    assert np.all(np.diff(rule.nodes) > 0)


def test_rule_is_cached_and_frozen():
    a, b = legendre_rule(20), legendre_rule(20)
    assert a is b
    assert not a.nodes.flags.writeable
    assert not a.weights.flags.writeable
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0


@pytest.mark.parametrize("order", [0, -3, 513, 2.5, 6.0, True])
def test_rule_rejects_bad_order(order):
    # cached integer rules must not answer for 6.0 or True
    legendre_rule(6)
    legendre_rule(1)
    with pytest.raises(DomainError):
        legendre_rule(order)


def test_grids_reject_non_integer_order():
    cfg = PhysicalConfig(frequency=2.4e9)
    with pytest.raises(DomainError):
        aperture_grid(Aperture(0.5, 0.5), 2.5)
    with pytest.raises(DomainError):
        disk_wavenumber_grid(cfg.wavenumber, 2.5)
    with pytest.raises(DomainError):
        build_expansion(cfg, 2.5)
    assert aperture_grid(Aperture(0.5, 0.5), np.int64(4)).size == 16


def test_aperture_grid_layout_row_major():
    grid = aperture_grid(Aperture(0.5, 0.4), 4)
    assert grid.size == 16
    pts = grid.points.reshape(4, 4, 3)
    # outer index scans x, inner scans y
    for i in range(4):
        assert np.allclose(pts[i, :, 0], pts[i, 0, 0])
    assert np.allclose(pts[:, 0, 1], pts[0, 0, 1])
    assert np.all(grid.points[:, 2] == 0.0)
    assert np.all(np.abs(grid.points[:, 0]) < 0.25)
    assert np.all(np.abs(grid.points[:, 1]) < 0.2)


def test_aperture_grid_integrates_area_and_plane_wave():
    ap = Aperture(0.5, 0.4)
    grid = aperture_grid(ap, 24)
    assert grid.integrate(np.ones(grid.size)) == pytest.approx(ap.area, rel=1e-13)
    kx, ky = 17.0, -9.0
    vals = np.exp(1j * (kx * grid.points[:, 0] + ky * grid.points[:, 1]))

    def sinc(t):
        return np.sinc(t / np.pi)

    want = ap.area * sinc(kx * ap.length_x / 2.0) * sinc(ky * ap.length_y / 2.0)
    assert grid.integrate(vals) == pytest.approx(want, rel=1e-12)


def test_disk_grid_stays_inside_support(cfg):
    k0 = cfg.wavenumber
    for rule in ("legendre", "chebyshev"):
        grid = disk_wavenumber_grid(k0, 12, inner_rule=rule)
        assert grid.term_count == 144
        assert grid.kappa.shape == (144, 3)
        assert np.all(grid.kappa[:, 2] == 0.0)
        radii = np.linalg.norm(grid.kappa[:, :2], axis=1)
        assert np.all(radii < k0)
        assert np.all(grid.weights > 0.0)


def test_disk_grid_area_converges(cfg):
    k0 = cfg.wavenumber
    target = np.pi * k0 ** 2
    errs = []
    for order in (20, 80, 200):
        grid = disk_wavenumber_grid(k0, order)
        errs.append(abs(np.sum(grid.weights) - target) / target)
    assert errs[0] < 1e-3
    assert errs[-1] < 1e-5
    assert errs[0] > errs[1] > errs[2]


def test_disk_grid_rejects_bad_inputs(cfg):
    with pytest.raises(DomainError):
        disk_wavenumber_grid(cfg.wavenumber, 0)
    with pytest.raises(DomainError):
        disk_wavenumber_grid(cfg.wavenumber, 10, inner_rule="simpson")


def test_table_blocks_equal_dense_fold(dense_fold):
    # a (7, 4) integer-step table: an odd axis with a center and padding, and
    # an even one; the blocks against the parity fold of the gathered matrix,
    # with padding rows and columns exactly zero
    shape = (7, 4)
    table = np.random.default_rng(7).standard_normal(shape)
    kx, ky = (np.abs(np.subtract.outer(np.arange(m), np.arange(m))) for m in shape)
    dense = table[kx[:, None, :, None], ky[None, :, None, :]].reshape(28, 28)
    want, _ = dense_fold(dense, shape)
    blocks = _table_blocks(table, kx, ky)
    assert blocks.shape == want.shape == (4, 8, 8)
    assert np.max(np.abs(blocks - want)) <= 1e-14 * np.max(np.abs(table))
    padding = ~_parity_rows(shape)
    assert padding.sum() == 4
    assert np.all(blocks[padding] == 0.0)
    assert np.all(blocks.transpose(0, 2, 1)[padding] == 0.0)


def _per_entry_table_blocks(table, kx, ky):
    """_table_blocks as a per-entry gather: each of the four mirror images
    (N, N) read from the table entry by entry, combined by _mirror_sums and
    scaled by the center weights of its row and column."""
    shape = (len(kx), len(ky))
    ax, ay = ((m + 1) // 2 for m in shape)
    out = np.zeros((2, 2, ax * ay, ax * ay))
    ix, iy = ([k[:a, ::1 - 2 * s][:, :a] for s in (0, 1)] for k, a in ((kx, ax), (ky, ay)))
    _mirror_sums(lambda sx, sy: table[ix[sx][:, None, :, None], iy[sy][None, :, None, :]]
                 .reshape(out.shape[2:]), out)
    scale = 2.0 * _grid_weights(shape, 0.5).ravel()
    out *= np.multiply.outer(scale, scale)
    return out.reshape(4, ax * ay, ax * ay)


def _cg_table(order):
    cfg = PhysicalConfig(frequency=2.4e9)
    nodes = aperture_grid(Aperture(0.3, 0.5), order).points.reshape(order, order, 3)
    return _offset_table(nodes[:, 0, 0], nodes[0, :, 1],
                         lambda offsets: radiation_kernel(offsets, cfg.wavenumber))


def _lattice_table(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    return _offset_table(np.arange(shape[0]), np.arange(shape[1]),
                         lambda offsets: rng.standard_normal(len(offsets)))


@pytest.mark.parametrize("build, size", [
    *(pytest.param(_cg_table, m, id=f"cg-{m}") for m in (1, 2, 3, 7, 12, 25, 40)),
    *(pytest.param(_lattice_table, s, id=f"lattice-{s[0]}x{s[1]}")
      for s in ((1, 1), (3, 4), (2, 7), (32, 32))),
])
def test_table_blocks_match_per_entry_gather(build, size):
    # the axis-by-axis gather forms the same sums in the same order as the
    # per-entry one, so the blocks agree bit for bit
    args = build(size)
    assert np.array_equal(_table_blocks(*args), _per_entry_table_blocks(*args))

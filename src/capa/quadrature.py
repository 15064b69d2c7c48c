"""Gauss-Legendre rules, the product grids built from them, and pair tables.

Two grids are used throughout: a tensor grid over the rectangular aperture
(for surface integrals) and a nested grid over the propagating disk in the
wavenumber plane (for spectral integrals).  Both are symmetric about 0 on each
axis, as is a discrete array's centered uniform lattice (which need not be
square), so the closed form, CG and the discrete-array solve split their
systems into four reflection-parity blocks.  _mirror_sums is the map to
them, signed sums over the four mirror images of a first-quadrant array: of
grid values in _fold and _unfold, and of a symmetric matrix's entries at the
images of its first-quadrant columns in the Gram; _table_blocks forms the
same sums, y images first, a few table rows at a time.  _offset_table
builds CG's kernel table over the node offsets of its grid and the
discrete-array coupling table over the integer steps |i - j| of a lattice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .physics import Aperture, _is_count, _require_wavenumber

_MAX_ORDER = 512


@dataclass(frozen=True, eq=False)
class GaussLegendreRule:
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


# typed, so that 6.0 and True are checked rather than served the rules of 6 and 1
@lru_cache(maxsize=None, typed=True)
def legendre_rule(order: int) -> GaussLegendreRule:
    """Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.

    numpy's leggauss takes the nodes from the eigenvalues of the symmetric
    companion matrix, polishes them by one Newton step and symmetrizes nodes
    and weights about 0.
    """
    if not (_is_count(order) and order <= _MAX_ORDER):
        raise DomainError(f"order must be an integer in [1, {_MAX_ORDER}]", module="quadrature")
    order = int(order)
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return GaussLegendreRule(order=order, nodes=x, weights=w)


@dataclass(frozen=True, eq=False)
class ApertureGrid:
    """Tensor Gauss-Legendre grid over a rectangular aperture.

    points has shape (order**2, 3), row-major in (x node, y node); weights are
    the matching surface quadrature weights (the diagonal of the weight
    operator for grid inner products).
    """

    aperture: Aperture
    order: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.order ** 2

    @property
    def shape(self) -> tuple:
        """(x nodes, y nodes), the grid shape the parity fold takes."""
        return (self.order, self.order)

    def integrate(self, values):
        """Surface integral of samples taken on the grid (last axis)."""
        return np.asarray(values) @ self.weights


def _offset_table(xs: np.ndarray, ys: np.ndarray, values):
    """Table of a function even in each axis offset over the distinct per-axis
    |offsets| of the tensor grid xs by ys, and per axis the (n, n) table index
    of every pair.  values maps K offsets (|dx|, |dy|, 0), shape (K, 3), to K
    values and is called once, on the offsets ascending, so its first row is
    the zero offset.  On integer coordinates 0..n-1 the offsets are the steps
    |i - j| and each pair's index is its step."""
    axes = []
    for coords in (xs, ys):
        distinct, index = np.unique(np.abs(coords[:, None] - coords), return_inverse=True)
        axes.append((distinct, index.reshape(coords.size, coords.size)))
    (dx, kx), (dy, ky) = axes
    offsets = np.zeros((dx.size, dy.size, 3))
    offsets[:, :, 0] = dx[:, None]
    offsets[:, :, 1] = dy
    return values(offsets.reshape(-1, 3)).reshape(dx.size, dy.size), kx, ky


# The reflection-parity basis of an mx x my grid, row-major, symmetric about 0
# on each axis (m-1-c mirrors c).  An axis of m indices splits into its even
# part, (e_c + e_m-1-c)/sqrt 2 for c < m/2 and the center e_c at odd m, and its
# odd part, (e_c - e_m-1-c)/sqrt 2.  Block 2 px + py is odd in x if px and odd
# in y if py, stored on ceil(mx/2) ceil(my/2) rows; an axis with m // 2 odd
# indices leaves padding.
_HALF = np.sqrt(0.5)


@lru_cache
def _grid_weights(shape: tuple, center: float) -> np.ndarray:
    """Product weights over a block's rows: 1/2 for two paired indices (exactly;
    1/sqrt 2 squared rounds up), center / sqrt 2 for one center, center^2 for
    two.  Built once per shape and center, read-only."""
    axes = []
    for m in shape:
        axis = np.full((m + 1) // 2, _HALF)
        axis[m // 2:] = center
        axes.append(axis)
    weights = np.multiply.outer(*axes)
    weights[:shape[0] // 2, :shape[1] // 2] = 0.5
    weights.setflags(write=False)
    return weights


def _parity_rows(shape: tuple) -> np.ndarray:
    """(4, ceil(mx/2) ceil(my/2)) mask of each parity block's real rows; False
    is padding."""
    px, py = ([np.arange((m + 1) // 2) < n for n in ((m + 1) // 2, m // 2)] for m in shape)
    return np.array([np.multiply.outer(x, y).ravel() for x in px for y in py])


def _mirror_sums(pair, out: np.ndarray) -> None:
    """Add to out[px, py] the sum over sx, sy in (0, 1) of (-1)^(px sx + py sy)
    pair(sx, sy), a first-quadrant array read at its image mirrored in x if sx
    and in y if sy.  The images are combined along y, then along x, one sum or
    difference each, so into a zeroed out a center, its own mirror, has an odd
    part of exactly 0: the padding."""
    for sx in (0, 1):
        near, far = pair(sx, 0), pair(sx, 1)
        for py, along_y in enumerate((np.add, np.subtract)):
            part = along_y(near, far)
            out[0, py] += part
            (np.subtract if sx else np.add)(out[1, py], part, out=out[1, py])


def _fold(x: np.ndarray, shape: tuple) -> np.ndarray:
    """Coordinates of grid-indexed x, (n,) or (n, D), in the reflection-parity
    basis of the grid shape (mx, my): (4, N) or (4, N, D), one block per parity
    on N = ceil(mx/2) ceil(my/2) rows, zero on padding.  The basis is
    orthonormal, so norms carry over."""
    (ax, ay), tail = ((m + 1) // 2 for m in shape), x.shape[1:]
    grid = x.reshape(shape + tail)
    out = np.zeros((2, 2, ax, ay) + tail, dtype=x.dtype)
    # a mirror sum doubles a center, which its basis vector e_c takes with weight 1/2
    _mirror_sums(lambda sx, sy: grid[::1 - 2 * sx, ::1 - 2 * sy][:ax, :ay], out)
    out *= _grid_weights(shape, 0.5).reshape((ax, ay) + (1,) * len(tail))
    return out.reshape((4, ax * ay) + tail)


def _unfold(blocks: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of _fold, for parity coordinates that are zero on padding."""
    (ax, ay), tail = ((m + 1) // 2 for m in shape), blocks.shape[2:]
    weights = _grid_weights(shape, 1.0).reshape((ax, ay) + (1,) * len(tail))
    parts = blocks.reshape((2, 2, ax, ay) + tail) * weights
    images = np.zeros_like(parts)
    _mirror_sums(lambda px, py: parts[px, py], images)
    out = np.empty(shape + tail, dtype=blocks.dtype)
    # at odd m the odd part's padding adds nothing, so both images of a center agree
    for sx, sy in np.ndindex(2, 2):
        out[::1 - 2 * sx, ::1 - 2 * sy][:ax, :ay] = images[sx, sy]
    return out.reshape((-1,) + tail)


# entries per gathered image in _table_blocks: a few output rows at a time
_BLOCK_ENTRIES = 2 ** 15


def _table_blocks(table: np.ndarray, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """Parity blocks (4, N, N), zero on padding, of the symmetric grid matrix with
    entry table[kx[i, j], ky[k, l]] between points (i, k) and (j, l) (_offset_table's
    indices), times 1/sqrt 2 per center index of the row and of the column.

    The images are combined axis by axis, as _mirror_sums does: for a few
    first-quadrant x rows i at a time, the table rows kx[i, :] are read at the
    first-quadrant y columns and at their mirrors, summed and differenced along
    y over every x column, then the x columns and their mirrors are summed and
    differenced into the blocks, so no (N, N) image is gathered."""
    shape = (len(kx), len(ky))
    (mx, _), (ax, ay) = shape, ((m + 1) // 2 for m in shape)
    near, far = ky[:ay, :ay], ky[:ay, ::-1][:, :ay]
    scale = 2.0 * _grid_weights(shape, 0.5)
    out = np.empty((2, 2, ax, ay, ax, ay))
    rows = max(1, _BLOCK_ENTRIES // (mx * ay * ay))
    for start in range(0, ax, rows):
        i = slice(start, min(start + rows, ax))
        gathered = table[kx[i]]
        images = gathered[..., near], gathered[..., far]
        # out[px, py, i] indexed (i, j, k, l), as the images are
        block = out[:, :, i].transpose(0, 1, 2, 4, 3, 5)
        for py, along_y in enumerate((np.add, np.subtract)):
            part = along_y(*images)
            same, mirror = part[:, :ax], part[:, ::-1][:, :ax]
            np.add(same, mirror, out=block[0, py])
            np.subtract(same, mirror, out=block[1, py])
        out[:, :, i] *= np.multiply.outer(scale[i], scale)
    return out.reshape(4, ax * ay, ax * ay)


def aperture_grid(aperture: Aperture, order: int) -> ApertureGrid:
    rule = legendre_rule(order)
    xs = 0.5 * aperture.length_x * rule.nodes
    ys = 0.5 * aperture.length_y * rule.nodes
    points = np.column_stack([np.repeat(xs, order),
                              np.tile(ys, order),
                              np.zeros(order * order)])
    weights = (np.outer(rule.weights, rule.weights) * (aperture.area / 4.0)).ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return ApertureGrid(aperture=aperture, order=order, points=points, weights=weights)


@dataclass(frozen=True, eq=False)
class WavenumberDiskGrid:
    """Nested quadrature grid over the propagating disk ||kappa|| < k.

    The outer rule runs over kappa_x, the inner over the chord in kappa_y
    whose half-width shrinks toward the rim.  kappa has shape (order**2, 3)
    with zero third component; weights are the products of outer and inner
    quadrature weights, row-major in (outer node, inner node).
    """

    order: int
    kappa: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def term_count(self) -> int:
        return self.order ** 2


def disk_wavenumber_grid(wavenumber: float, order: int,
                         inner_rule: str = "legendre") -> WavenumberDiskGrid:
    """Quadrature grid for integrals over the propagating disk.

    inner_rule "legendre" integrates the chord with a plain Gauss-Legendre
    rule; "chebyshev" uses a Chebyshev-weighted rule that absorbs the
    inverse-square-root rim singularity of the coupling spectrum.
    """
    _require_wavenumber(wavenumber, module="quadrature")
    if inner_rule not in ("legendre", "chebyshev"):
        raise DomainError("inner_rule must be 'legendre' or 'chebyshev'", module="quadrature")
    rule = legendre_rule(order)
    kx = wavenumber * rule.nodes
    wx = wavenumber * rule.weights
    half_chord = np.sqrt(wavenumber ** 2 - kx ** 2)
    if inner_rule == "legendre":
        t = rule.nodes
        inner_w = rule.weights
    else:
        m = np.arange(1, order + 1)
        t = np.cos(np.pi * (2.0 * m - 1.0) / (2.0 * order))[::-1].copy()
        t = 0.5 * (t - t[::-1])
        inner_w = (np.pi / order) * np.sqrt(1.0 - t * t)
    ky = (half_chord[:, None] * t[None, :]).ravel()
    kappa = np.column_stack([np.repeat(kx, order), ky, np.zeros(order * order)])
    weights = (wx[:, None] * (half_chord[:, None] * inner_w[None, :])).ravel()
    kappa.setflags(write=False)
    weights.setflags(write=False)
    return WavenumberDiskGrid(order=int(order), kappa=kappa, weights=weights)

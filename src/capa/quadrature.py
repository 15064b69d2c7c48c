"""Gauss-Legendre rules, the product grids built from them, and pair tables.

Two grids are used throughout: a tensor grid over the rectangular aperture
(for surface integrals) and a nested grid over the propagating disk in the
wavenumber plane (for spectral integrals).  The CG kernel matrix and the
discrete-array coupling matrix are both gathered from one pair table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .physics import Aperture

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
    if isinstance(order, bool) or not isinstance(order, Integral) or not 1 <= order <= _MAX_ORDER:
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

    def integrate(self, values):
        """Surface integral of samples taken on the grid (last axis)."""
        return np.asarray(values) @ self.weights


def _pair_matrix(xs: np.ndarray, ys: np.ndarray, values, decimals: int | None = None):
    """Matrix of a function of the offset between every pair of points of the
    tensor grid xs by ys, points x-major, for a function even in each axis offset.

    values maps K offsets (|dx|, |dy|, 0), shape (K, 3), to K values.  It is
    called once, on the product of the distinct per-axis |offsets| ascending,
    so its first row is the zero offset of the diagonal.  With decimals the
    offsets are rounded first, so offsets that differ only by rounding share
    an entry; without it every entry is the value its own pair gives.
    """
    axes = []
    for coords in (xs, ys):
        diffs = np.abs(coords[:, None] - coords)
        if decimals is not None:
            diffs = np.round(diffs, decimals)
        distinct, index = np.unique(diffs, return_inverse=True)
        axes.append((distinct, index.reshape(coords.size, coords.size)))
    (dx, kx), (dy, ky) = axes
    offsets = np.zeros((dx.size, dy.size, 3))
    offsets[:, :, 0] = dx[:, None]
    offsets[:, :, 1] = dy
    table = values(offsets.reshape(-1, 3)).reshape(dx.size, dy.size)
    # point (a, b) is x coordinate a and y coordinate b, row-major
    n = xs.size * ys.size
    return table[kx[:, None, :, None], ky[None, :, None, :]].reshape(n, n)


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

    wavenumber: float
    order: int
    inner_rule: str
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
    if wavenumber <= 0:
        raise DomainError("wavenumber must be positive", module="quadrature")
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
    return WavenumberDiskGrid(wavenumber=float(wavenumber), order=int(order),
                              inner_rule=inner_rule, kappa=kappa, weights=weights)

"""Spatially discrete arrays: identical elements on a centered uniform lattice.

An array is nx by ny elements at one pitch, centered on the aperture.  Each
element is a small rectangle carrying the uniform unit-energy current;
mutual coupling between elements integrates the radiation kernel over both
element surfaces.  The element rule is a product of one symmetric Gauss rule
per axis, so that four-fold node sum folds onto the distinct per-axis node
differences: D^2 kernel evaluations per center offset, D = 19 at the default
order 6, instead of one per node pair.  The coupling depends only on the
center offset, (i - j) pitch per axis, and is even in each, so one table over
the integer steps |i - j| holds the block-Toeplitz coupling matrix.  The
optimal drive vector and its gain follow from one symmetric positive-definite
solve.  Reversing either axis keeps every step, so the matrix splits into four
reflection-parity blocks (quadrature._fold; Allgower, Boehmer, Georg &
Miranda, SIAM J. Numer. Anal. 29, 1992), folded from its first-quadrant
columns by quadrature._fold_matrix and factored as one stacked Cholesky, so
no N x N matrix is gathered.  The coupling-blind model is solved elementwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._linalg import cholesky
from .errors import DomainError, NumericError
from .kernel_approx import PlaneWaveExpansion, _sinc, beamform_ka
from .physics import (Aperture, FarFieldChannel, PhysicalConfig, _is_count, _require_finite,
                      _require_positive, radiation_kernel)
from .quadrature import _fold, _fold_matrix, _offset_table, _unfold, legendre_rule

_DEFAULT_ELEMENT_ORDER = 6


@dataclass(frozen=True)
class SpdaModel:
    """Centered uniform lattice of identical rectangular elements in z = 0.

    nx by ny elements sit pitch apart on each axis, centered on the origin,
    x-major; x and y are the ascending center coordinates per axis.  Each is
    an element_x by element_y rectangle carrying the uniform unit-energy
    current 1/sqrt(element area), its coupling integrated by an order x order
    Gauss-Legendre rule.  Neighbouring elements may touch but not overlap.
    """

    nx: int
    ny: int
    pitch: float
    element_x: float
    element_y: float
    order: int = _DEFAULT_ELEMENT_ORDER

    def __post_init__(self):
        if not (_is_count(self.nx) and _is_count(self.ny)):
            raise DomainError("element counts must be integers of at least 1", module="spda")
        _require_positive("lattice pitch", self.pitch, module="spda")
        _require_positive("element side lengths", self.element_x, self.element_y, module="spda")
        legendre_rule(self.order)  # DomainError unless an integer in [1, 512]
        for name, count, side in (("x", self.nx, self.element_x), ("y", self.ny, self.element_y)):
            if count > 1 and self.pitch < side - 1e-12:
                raise DomainError(f"element surfaces overlap: the pitch must be at least "
                                  f"the element side along {name}", module="spda")

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - 0.5 * (self.nx - 1)) * self.pitch

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - 0.5 * (self.ny - 1)) * self.pitch

    @property
    def centers(self) -> np.ndarray:
        """Element centers, shape (N, 3), x-major, in z = 0."""
        nx, ny = self.nx, self.ny
        return np.column_stack([np.repeat(self.x, ny), np.tile(self.y, nx), np.zeros(nx * ny)])

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def element_area(self) -> float:
        return self.element_x * self.element_y


def element_layout(aperture: Aperture, spacing: float, element_x: float,
                   element_y: float, order: int = _DEFAULT_ELEMENT_ORDER) -> SpdaModel:
    """Centered lattice of identical elements filling the aperture at a pitch.

    The element count per axis is the number of whole pitches that fit; the
    lattice is centered so every element lies inside the aperture.
    """
    _require_positive("element spacing", spacing, module="spda")
    if element_x > spacing or element_y > spacing:
        raise DomainError("element does not fit inside the lattice pitch", module="spda")
    # tiny slack so representable lengths like L = n*d count n pitches
    nx = int(np.floor(aperture.length_x / spacing + 1e-9))
    ny = int(np.floor(aperture.length_y / spacing + 1e-9))
    if nx < 1 or ny < 1:
        raise DomainError("aperture is smaller than one lattice pitch", module="spda")
    return SpdaModel(nx, ny, float(spacing), float(element_x), float(element_y), order=order)


def _difference_rule(side: float, order: int):
    """Distinct differences of the order-point Gauss nodes on one element side,
    ascending, with the summed weight products of the node pairs sharing each.

    The nodes are symmetric about 0 to the last bit, so x_a - x_c and
    x_(q-1-c) - x_(q-1-a) are equal floats and gather without rounding.
    """
    rule = legendre_rule(order)
    nodes = 0.5 * side * rule.nodes
    weights = 0.5 * side * rule.weights
    delta, index = np.unique((nodes[:, None] - nodes).ravel(), return_inverse=True)
    return delta, np.bincount(index.ravel(), weights=np.outer(weights, weights).ravel())


def _pair_integrals(offsets: np.ndarray, model: SpdaModel, order: int, cfg: PhysicalConfig):
    """Kernel integrated over two elements whose centers are offsets (K, 3) apart.

    With the uniform current 1/sqrt(area) on both, the integral is
    sum over (dx, dy) of W_x(dx) W_y(dy) K(offset + (dx, dy, 0)) / area.
    """
    (dx, wx), (dy, wy) = (_difference_rule(side, order)
                          for side in (model.element_x, model.element_y))
    delta = np.stack(np.broadcast_arrays(dx[:, None], dy, 0.0), axis=-1).reshape(-1, 3)
    w_xy = np.outer(wx, wy).ravel() / model.element_area
    vals = np.empty(offsets.shape[0])
    # about 2^20 displacements per block: it bounds only the displacement array
    # (radiation_kernel blocks its own temporaries), and the @ w_xy sums round with it
    block = max(1, 2 ** 20 // delta.shape[0])
    for start in range(0, offsets.shape[0], block):
        kern = radiation_kernel(offsets[start:start + block, None, :] + delta, cfg.wavenumber)
        vals[start:start + block] = kern @ w_xy
    return vals


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Mutual-coupling data of a discrete array.

    table (nx, ny) holds the radiated-coupling integral of the elements
    (|i - j|, |k - l|) lattice steps apart, the zero offset first, so each
    pair's table index is its step per axis; the full matrix adds the
    per-element self impedance on the diagonal.  A coupling-blind model
    (diagonal) keeps only the zero-offset entry on the diagonal.  radiation
    and matrix are dense views, gathered on first use; the beamformer does
    not need them.
    """

    table: np.ndarray = field(repr=False)
    self_impedance: float
    diagonal: bool = False

    @property
    def shape(self) -> tuple:
        """(elements along x, elements along y)."""
        return self.table.shape

    @property
    def size(self) -> int:
        return self.table.size

    def columns(self, cx: int, cy: int) -> np.ndarray:
        """Radiation between every element and the elements of the first cx
        x positions and first cy y positions, (N, cx cy), x-major."""
        # element (a, b) has x coordinate a and y coordinate b, row-major
        nx, ny = self.shape
        sx = np.abs(np.arange(nx)[:, None] - np.arange(cx))
        sy = np.abs(np.arange(ny)[:, None] - np.arange(cy))
        return self.table[sx[:, None, :, None], sy[None, :, None, :]].reshape(self.size, cx * cy)

    @cached_property
    def radiation(self) -> np.ndarray:
        """Pairwise radiation, N x N, or its diagonal (N,) for a diagonal model."""
        if self.diagonal:
            return np.full(self.size, self.table[0, 0])
        return self.columns(*self.shape)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = np.diag(self.radiation) if self.diagonal else self.radiation.copy()
        m.flat[::m.shape[0] + 1] += self.self_impedance
        return m

    def diagonal_only(self) -> "CouplingMatrix":
        """Coupling-blind variant: off-diagonal radiation terms dropped."""
        return replace(self, diagonal=True)


def coupling_matrix(model: SpdaModel, cfg: PhysicalConfig,
                    mode: str = "exact") -> CouplingMatrix:
    """Pairwise coupling of all elements.

    Both modes integrate the kernel over both element surfaces; mode only
    picks the element rule.  "exact" uses the model's order x order rule;
    "point" uses the one-node rule at the element center, so every pair,
    the diagonal included, is the element area times the kernel at the
    center offset (A K(0) on the diagonal), a sampled positive-definite
    function.  Either way a pair's value depends only on its per-axis steps
    (|i - j|, |k - l|) and is tabulated once per distinct pair, at the center
    offset of those steps times the pitch; the table is all the result keeps.
    """
    if mode not in ("exact", "point"):
        raise DomainError("mode must be 'exact' or 'point'", module="spda")
    order = model.order if mode == "exact" else 1
    table = _offset_table(np.arange(model.nx), np.arange(model.ny), lambda steps:
                          _pair_integrals(steps * model.pitch, model, order, cfg))[0]
    # the element current carries unit energy, so its loss is Zs exactly
    return CouplingMatrix(table=table, self_impedance=cfg.surface_resistance)


def discrete_channel(model: SpdaModel, channel: FarFieldChannel) -> np.ndarray:
    """Per-element channel coefficients, stored conjugated.

    Entry n is the conjugate of the channel integrated against the element
    current 1/sqrt(area) over element n, so the received field equals the
    conjugate inner product of this vector with the drive vector.  The plane
    wave integrates exactly over the e_x by e_y rectangle, to
    channel(center) sqrt(area) sinc(kappa_x e_x / 2) sinc(kappa_y e_y / 2).
    """
    half_sides = 0.5 * np.array([model.element_x, model.element_y])
    sx, sy = _sinc(channel.wavevector[:2] * half_sides)
    return np.conj(channel(model.centers) * (np.sqrt(model.element_area) * sx * sy))


@dataclass(frozen=True, eq=False)
class DiscreteBeamformer:
    weights: np.ndarray = field(repr=False)
    gain: float
    power: float


def optimal_discrete_beamformer(h: np.ndarray, coupling: CouplingMatrix,
                                power: float = 1.0) -> DiscreteBeamformer:
    """Optimal drive vector under the coupling model, with its array gain.

    The coupling matrix is factored as its four parity blocks, folded from
    its first-quadrant columns, by one stacked Cholesky, and the drive
    follows by two triangular substitutions.  A diagonal coupling (from
    diagonal_only) is solved elementwise.
    """
    _require_positive("transmit power", power, module="spda")
    h = np.asarray(h, dtype=complex)
    if h.shape != (coupling.size,):
        raise DomainError("channel vector length does not match the coupling matrix",
                          module="spda")
    _require_finite("channel vector", h, module="spda")
    if coupling.diagonal:
        diag = coupling.table[0, 0] + coupling.self_impedance
        if not diag > 0.0:
            raise NumericError("coupling matrix is not positive definite", module="spda")
        # psi = D: h^H psi^-1 h = ||D^-1/2 h||^2 and psi^-1 h = D^-1 h
        whitened = h / np.sqrt(diag)
        direction = h / diag
    else:
        # psi = L L^T: h^H psi^-1 h = ||L^-1 h||^2 and psi^-1 h = L^-T (L^-1 h),
        # block by block; the parity basis is orthonormal, so norms carry over
        shape = coupling.shape
        blocks = _fold_matrix(coupling.columns(*((m + 1) // 2 for m in shape)), shape)
        # every block's diagonal, padding included: a padding row is then a Zs row
        diagonal = np.arange(blocks.shape[-1])
        blocks[:, diagonal, diagonal] += coupling.self_impedance
        factor = cholesky(blocks, "coupling matrix is not positive definite", "spda")
        whitened = factor.solve(_fold(h, shape))
        direction = _unfold(factor.solve(whitened, transpose=True), shape)
    inner = float(np.vdot(whitened, whitened).real)
    if inner <= 0.0:
        raise NumericError("whitened channel energy is non-positive", module="spda")
    weights = np.sqrt(2.0 * power / inner) * direction
    return DiscreteBeamformer(weights=weights, gain=2.0 * inner, power=power)


def _lattice_gains(cfg: PhysicalConfig, channel: FarFieldChannel, aperture: Aperture,
                   spacing: float, element_x: float | None, element_y: float | None,
                   mode: str) -> tuple:
    """Element count, coupled gain and coupling-blind gain of element_layout's
    lattice on aperture at spacing; element sides default to a tenth of a
    wavelength.  The coupling-blind drive is solved elementwise."""
    ex = 0.1 * cfg.wavelength if element_x is None else element_x
    ey = 0.1 * cfg.wavelength if element_y is None else element_y
    model = element_layout(aperture, spacing, ex, ey)
    coupling = coupling_matrix(model, cfg, mode=mode)
    h = discrete_channel(model, channel)
    return (model.n_elements, optimal_discrete_beamformer(h, coupling).gain,
            optimal_discrete_beamformer(h, coupling.diagonal_only()).gain)


@dataclass(frozen=True)
class SpacingSweepRow:
    spacing: float
    n_elements: int
    gain_coupled: float
    gain_uncoupled: float
    gain_reference: float


def spacing_sweep(cfg: PhysicalConfig, expansion: PlaneWaveExpansion, aperture: Aperture,
                  channel: FarFieldChannel, spacings, element_x: float | None = None,
                  element_y: float | None = None, mode: str = "exact") -> list[SpacingSweepRow]:
    """Coupled and coupling-blind discrete gains versus lattice pitch.

    Element sides default to a tenth of a wavelength.  Every row carries the
    same reference: the closed-form gain of the continuous surface under
    expansion, for the same aperture and channel.
    """
    reference = beamform_ka(cfg, channel, expansion, aperture).gain
    rows = []
    for d in np.asarray(spacings, dtype=float):
        n, coupled, blind = _lattice_gains(cfg, channel, aperture, float(d), element_x,
                                           element_y, mode)
        rows.append(SpacingSweepRow(spacing=float(d), n_elements=n, gain_coupled=coupled,
                                    gain_uncoupled=blind, gain_reference=reference))
    return rows


@dataclass(frozen=True)
class ApertureSweepRow:
    area: float
    n_elements: int
    gain_discrete: float
    gain_reference: float


def aperture_sweep(cfg: PhysicalConfig, expansion: PlaneWaveExpansion, spacing: float,
                   channel: FarFieldChannel, apertures, element_x: float | None = None,
                   element_y: float | None = None,
                   mode: str = "exact") -> list[ApertureSweepRow]:
    """Coupled discrete gain versus aperture size, with the closed-form gain of
    the continuous surface under expansion as each row's reference.  Element
    sides default to a tenth of a wavelength."""
    rows = []
    for ap in apertures:
        reference = beamform_ka(cfg, channel, expansion, ap).gain
        n, coupled, _ = _lattice_gains(cfg, channel, ap, spacing, element_x, element_y, mode)
        rows.append(ApertureSweepRow(area=ap.area, n_elements=n, gain_discrete=coupled,
                                     gain_reference=reference))
    return rows

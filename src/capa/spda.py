"""Spatially discrete arrays: identical elements on a lattice inside the aperture.

Each element is a small rectangle carrying the uniform unit-energy current;
mutual coupling between elements integrates the radiation kernel over both
element surfaces.  The element rule is a product of one symmetric Gauss rule
per axis, so that four-fold node sum folds onto the distinct per-axis node
differences: D^2 kernel evaluations per center offset, D = 19 at the default
order 6, instead of one per node pair.  On a lattice the coupling depends only
on the center offset and is even in each axis offset, so one table over the
distinct per-axis |offsets|, with each pair's per-axis index into it, holds
the coupling matrix.  The optimal drive vector and its gain follow from one
symmetric positive-definite solve.  On a lattice whose pairs keep their table
entries when either axis is reversed (every element_layout lattice, shifted or
not) the matrix splits into four reflection-parity blocks (quadrature._fold;
Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 29, 1992), folded
from its first-quadrant columns by quadrature._fold_matrix and factored as one
stacked Cholesky, so no N x N matrix is gathered; any other lattice is
factored whole.  The coupling-blind diagonal model is solved elementwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._linalg import cholesky
from .errors import DomainError, NumericError
from .kernel_approx import PlaneWaveExpansion, _sinc, beamform_ka
from .physics import Aperture, FarFieldChannel, PhysicalConfig, radiation_kernel
from .quadrature import _fold, _fold_matrix, _offset_table, _unfold, legendre_rule

_DEFAULT_ELEMENT_ORDER = 6


@dataclass(frozen=True, eq=False)
class SpdaModel:
    """Lattice of identical rectangular elements in the aperture plane z = 0.

    x and y are the ascending center coordinates of each axis; the elements
    sit at every (x, y) pair, x-major.  Each is an element_x by element_y
    rectangle carrying the uniform unit-energy current 1/sqrt(element area),
    its coupling integrated by an order x order Gauss-Legendre rule.  Neighbouring
    elements may touch but not overlap.
    """

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    element_x: float
    element_y: float
    order: int = _DEFAULT_ELEMENT_ORDER

    def __post_init__(self):
        if not (0 < self.element_x < np.inf and 0 < self.element_y < np.inf):
            raise DomainError("element side lengths must be positive and finite", module="spda")
        legendre_rule(self.order)  # DomainError unless an integer in [1, 512]
        for name, side in (("x", self.element_x), ("y", self.element_y)):
            coords = np.array(getattr(self, name), dtype=float)
            if coords.ndim != 1 or coords.size < 1 or not np.isfinite(coords).all():
                raise DomainError(f"{name} must be a finite, non-empty 1-D array",
                                  module="spda")
            if np.any(np.diff(coords) < side - 1e-12):
                raise DomainError(f"element surfaces overlap: {name} must ascend by at "
                                  "least one element side", module="spda")
            coords.setflags(write=False)
            object.__setattr__(self, name, coords)

    @property
    def centers(self) -> np.ndarray:
        """Element centers, shape (N, 3), x-major, in z = 0."""
        nx, ny = self.x.size, self.y.size
        return np.column_stack([np.repeat(self.x, ny), np.tile(self.y, nx), np.zeros(nx * ny)])

    @property
    def n_elements(self) -> int:
        return self.x.size * self.y.size

    @property
    def element_area(self) -> float:
        return self.element_x * self.element_y


def element_layout(aperture: Aperture, spacing: float, element_x: float,
                   element_y: float, order: int = _DEFAULT_ELEMENT_ORDER) -> SpdaModel:
    """Centered lattice of identical elements filling the aperture at a pitch.

    The element count per axis is the number of whole pitches that fit; the
    lattice is centered so every element lies inside the aperture.
    """
    if not 0 < spacing < np.inf:
        raise DomainError("element spacing must be positive and finite", module="spda")
    if element_x > spacing or element_y > spacing:
        raise DomainError("element does not fit inside the lattice pitch", module="spda")
    # tiny slack so representable lengths like L = n*d count n pitches
    nx = int(np.floor(aperture.length_x / spacing + 1e-9))
    ny = int(np.floor(aperture.length_y / spacing + 1e-9))
    if nx < 1 or ny < 1:
        raise DomainError("aperture is smaller than one lattice pitch", module="spda")
    return SpdaModel(x=(np.arange(nx) - 0.5 * (nx - 1)) * spacing,
                     y=(np.arange(ny) - 0.5 * (ny - 1)) * spacing,
                     element_x=float(element_x), element_y=float(element_y), order=order)


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
    block = max(1, 2 ** 20 // delta.shape[0])
    for start in range(0, offsets.shape[0], block):
        kern = radiation_kernel(offsets[start:start + block, None, :] + delta, cfg.wavenumber)
        vals[start:start + block] = kern @ w_xy
    return vals


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Mutual-coupling data of a discrete array.

    table holds the radiated-coupling integral of each distinct per-axis
    (|dx|, |dy|) pair, the zero offset first, and kx (nx, nx) and ky (ny, ny)
    each element pair's table index per axis; the full matrix adds the
    per-element self impedance on the diagonal.  A coupling-blind model
    (diagonal) keeps only the zero-offset entry on the diagonal.  radiation
    and matrix are dense views, gathered on first use; the beamformer does
    not need them.
    """

    table: np.ndarray = field(repr=False)
    kx: np.ndarray = field(repr=False)
    ky: np.ndarray = field(repr=False)
    self_impedance: float
    diagonal: bool = False

    @property
    def shape(self) -> tuple:
        """(elements along x, elements along y)."""
        return (self.kx.shape[0], self.ky.shape[0])

    @property
    def size(self) -> int:
        return self.kx.shape[0] * self.ky.shape[0]

    def columns(self, cx: int, cy: int) -> np.ndarray:
        """Radiation between every element and the elements of the first cx
        x positions and first cy y positions, (N, cx cy), x-major."""
        # element (a, b) has x coordinate a and y coordinate b, row-major
        return self.table[self.kx[:, None, :cx, None],
                          self.ky[None, :, None, :cy]].reshape(self.size, cx * cy)

    @cached_property
    def mirrored(self) -> bool:
        """Whether reversing either axis of the lattice leaves every pair's
        table entry unchanged, so the matrix splits into four parity blocks."""
        return all(np.array_equal(k[::-1, ::-1], k) for k in (self.kx, self.ky))

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
    function.  Either way a pair's value depends only on its (|dx|, |dy|),
    rounded to 1e-12 m, and is tabulated once per distinct pair.
    """
    if mode not in ("exact", "point"):
        raise DomainError("mode must be 'exact' or 'point'", module="spda")
    order = model.order if mode == "exact" else 1
    table, kx, ky = _offset_table(model.x, model.y, lambda offsets:
                                  _pair_integrals(offsets, model, order, cfg), decimals=12)
    # the element current carries unit energy, so its loss is Zs exactly
    return CouplingMatrix(table=table, kx=kx, ky=ky, self_impedance=cfg.surface_resistance)


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

    A mirrored lattice's coupling matrix is factored as its four parity
    blocks, folded from its first-quadrant columns, by one stacked Cholesky;
    any other is factored whole, as a stack of one.  The drive follows by two
    triangular substitutions.  A diagonal coupling (from diagonal_only) is
    solved elementwise.
    """
    if power <= 0:
        raise DomainError("transmit power must be positive", module="spda")
    h = np.asarray(h, dtype=complex)
    if h.shape != (coupling.size,):
        raise DomainError("channel vector length does not match the coupling matrix",
                          module="spda")
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
        if coupling.mirrored:
            blocks = _fold_matrix(coupling.columns(*((m + 1) // 2 for m in shape)), shape)
            # every block's diagonal, padding included: a padding row is then a Zs row
            diagonal = np.arange(blocks.shape[-1])
            blocks[:, diagonal, diagonal] += coupling.self_impedance
            rhs = _fold(h, shape)
        else:
            blocks, rhs = coupling.matrix[None], h[None]
        factor = cholesky(blocks, "coupling matrix is not positive definite", "spda")
        whitened = factor.solve(rhs)
        direction = factor.solve(whitened, transpose=True)
        direction = _unfold(direction, shape) if coupling.mirrored else direction[0]
    inner = float(np.vdot(whitened, whitened).real)
    if inner <= 0.0:
        raise NumericError("whitened channel energy is non-positive", module="spda")
    weights = np.sqrt(2.0 * power / inner) * direction
    return DiscreteBeamformer(weights=weights, gain=2.0 * inner, power=power)


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
    ex = 0.1 * cfg.wavelength if element_x is None else element_x
    ey = 0.1 * cfg.wavelength if element_y is None else element_y
    reference = beamform_ka(cfg, channel, expansion, aperture).gain
    rows = []
    for d in np.asarray(spacings, dtype=float):
        model = element_layout(aperture, float(d), ex, ey)
        coupling = coupling_matrix(model, cfg, mode=mode)
        h = discrete_channel(model, channel)
        coupled = optimal_discrete_beamformer(h, coupling)
        blind = optimal_discrete_beamformer(h, coupling.diagonal_only())
        rows.append(SpacingSweepRow(spacing=float(d), n_elements=model.n_elements,
                                    gain_coupled=coupled.gain, gain_uncoupled=blind.gain,
                                    gain_reference=reference))
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
    the continuous surface under expansion as each row's reference."""
    ex = 0.1 * cfg.wavelength if element_x is None else element_x
    ey = 0.1 * cfg.wavelength if element_y is None else element_y
    rows = []
    for ap in apertures:
        reference = beamform_ka(cfg, channel, expansion, ap).gain
        model = element_layout(ap, spacing, ex, ey)
        coupling = coupling_matrix(model, cfg, mode=mode)
        h = discrete_channel(model, channel)
        coupled = optimal_discrete_beamformer(h, coupling)
        rows.append(ApertureSweepRow(area=ap.area, n_elements=model.n_elements,
                                     gain_discrete=coupled.gain, gain_reference=reference))
    return rows

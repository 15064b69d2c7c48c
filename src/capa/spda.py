"""Spatially discrete arrays: identical elements on a lattice inside the aperture.

Each element is a small rectangle carrying the uniform unit-energy current;
mutual coupling between elements integrates the radiation kernel over both
element surfaces.  On a lattice it depends only on the center offset and is
even in each axis offset, so one table over the distinct per-axis |offsets|
fills the coupling matrix.  The optimal drive vector and its gain follow from
one symmetric positive-definite solve, elementwise for the coupling-blind
diagonal model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import cholesky
from .errors import DomainError, NumericError
from .kernel_approx import PlaneWaveExpansion, beamform_ka
from .physics import Aperture, FarFieldChannel, PhysicalConfig, radiation_kernel
from .quadrature import _pair_matrix, aperture_grid, legendre_rule

_DEFAULT_ELEMENT_ORDER = 6


@dataclass(frozen=True, eq=False)
class SpdaModel:
    """Lattice of identical rectangular elements in the aperture plane z = 0.

    x and y are the ascending center coordinates of each axis; the elements
    sit at every (x, y) pair, x-major.  Each is an element_x by element_y
    rectangle carrying the uniform unit-energy current 1/sqrt(element area),
    integrated by an order x order Gauss-Legendre rule.  Neighbouring
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


def _element_current(model: SpdaModel, order: int):
    """Element quadrature grid of the given order and the uniform unit-energy
    current 1/sqrt(element area)."""
    return (aperture_grid(Aperture(model.element_x, model.element_y), order),
            1.0 / np.sqrt(model.element_area))


def _pair_integrals(offsets: np.ndarray, egrid, wa: np.ndarray, cfg: PhysicalConfig):
    """Kernel integrated over two elements whose centers are offsets (K, 3) apart."""
    pair_disp = egrid.points[:, None, :] - egrid.points[None, :, :]
    vals = np.empty(offsets.shape[0])
    block = max(1, 2 ** 20 // (egrid.points.shape[0] ** 2))
    for start in range(0, offsets.shape[0], block):
        disp = pair_disp[None, :, :, :] + offsets[start:start + block, None, None, :]
        kern = radiation_kernel(disp, cfg.wavenumber, cfg.impedance)
        vals[start:start + block] = np.einsum("i,uij,j->u", wa, kern, wa)
    return vals


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Mutual-impedance data of a discrete array.

    radiation holds the pairwise radiated-coupling integrals, N x N, or for
    a coupling-blind model only their diagonal, shape (N,); the full matrix
    adds the per-element self impedance on the diagonal.
    """

    radiation: np.ndarray = field(repr=False)
    self_impedance: float

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.radiation.ndim == 1:
            return np.diag(self.radiation + self.self_impedance)
        return self.radiation + self.self_impedance * np.eye(self.radiation.shape[0])

    def diagonal_only(self) -> "CouplingMatrix":
        """Coupling-blind variant: off-diagonal radiation terms dropped."""
        return CouplingMatrix(radiation=np.diag(self.radiation).copy(),
                              self_impedance=self.self_impedance)


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
    egrid, amp = _element_current(model, model.order if mode == "exact" else 1)
    wa = egrid.weights * amp
    return CouplingMatrix(
        radiation=_pair_matrix(model.x, model.y,
                               lambda offsets: _pair_integrals(offsets, egrid, wa, cfg),
                               decimals=12),
        self_impedance=cfg.surface_resistance * float(np.sum(egrid.weights * (amp * amp))))


def discrete_channel(model: SpdaModel, channel) -> np.ndarray:
    """Per-element channel coefficients, stored conjugated.

    Entry n is the conjugate of the channel integrated against the element
    current over element n, so the received field equals the conjugate inner
    product of this vector with the drive vector.
    """
    egrid, amp = _element_current(model, model.order)
    pts = model.centers[:, None, :] + egrid.points[None, :, :]
    return np.conj((channel(pts) * amp) @ egrid.weights)


@dataclass(frozen=True, eq=False)
class DiscreteBeamformer:
    weights: np.ndarray = field(repr=False)
    gain: float
    power: float


def optimal_discrete_beamformer(h: np.ndarray, coupling: CouplingMatrix,
                                power: float = 1.0) -> DiscreteBeamformer:
    """Optimal drive vector under the coupling model, with its array gain.

    A dense coupling matrix is factored once by Cholesky and solved by two
    triangular substitutions; a diagonal coupling (from diagonal_only) is
    solved elementwise.
    """
    if power <= 0:
        raise DomainError("transmit power must be positive", module="spda")
    h = np.asarray(h, dtype=complex)
    if h.shape != (coupling.radiation.shape[0],):
        raise DomainError("channel vector length does not match the coupling matrix",
                          module="spda")
    if coupling.radiation.ndim == 1:
        diag = coupling.radiation + coupling.self_impedance
        if not np.all(diag > 0.0):
            raise NumericError("coupling matrix is not positive definite", module="spda")
        # psi = D: h^H psi^-1 h = ||D^-1/2 h||^2 and psi^-1 h = D^-1 h
        whitened = h / np.sqrt(diag)
        direction = h / diag
    else:
        # psi = L L^T: h^H psi^-1 h = ||L^-1 h||^2 and psi^-1 h = L^-T (L^-1 h)
        factor = cholesky(coupling.matrix, "coupling matrix is not positive definite", "spda")
        whitened = factor.solve(h)
        direction = factor.solve(whitened, transpose=True)
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

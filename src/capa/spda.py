"""Spatially discrete arrays: finite elements on a lattice inside the aperture.

Each element is a small rectangle carrying a fixed current profile; mutual
coupling between elements integrates the radiation kernel over both element
surfaces.  The optimal drive vector and its gain follow from one symmetric
positive-definite solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import lower_matvec, lower_triangular_inverse
from .errors import DomainError, NumericError
from .kernel_approx import beamform_ka, build_expansion
from .physics import Aperture, FarFieldChannel, PhysicalConfig, radiation_kernel
from .quadrature import aperture_grid

_DEFAULT_ELEMENT_ORDER = 6


@dataclass(frozen=True)
class SpdaModel:
    """Element geometry of a discrete array.

    centers has shape (N, 3) in the aperture plane; every element is the same
    element_x by element_y rectangle; coupling_matrix needs a full grid of
    centers in z = 0, as element_layout builds.  profile maps local
    coordinates to the complex current distribution; None means the uniform
    unit-energy profile 1/sqrt(element area).
    """

    centers: np.ndarray = field(repr=False)
    element_x: float
    element_y: float
    order: int = _DEFAULT_ELEMENT_ORDER
    profile: object = None

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] < 1 or not np.isfinite(c).all():
            raise DomainError("centers must be finite with shape (N, 3), N >= 1", module="spda")
        if not (0 < self.element_x < np.inf and 0 < self.element_y < np.inf):
            raise DomainError("element side lengths must be positive and finite", module="spda")
        if not self.order >= 1:
            raise DomainError("element quadrature order must be at least 1", module="spda")
        object.__setattr__(self, "centers", c)

    @property
    def n_elements(self) -> int:
        return self.centers.shape[0]

    @property
    def element_area(self) -> float:
        return self.element_x * self.element_y

    def profile_values(self, local_points) -> np.ndarray:
        if self.profile is None:
            return np.full(np.asarray(local_points).shape[:-1],
                           1.0 / np.sqrt(self.element_area), dtype=complex)
        return np.asarray(self.profile(local_points), dtype=complex)


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
    ix = (np.arange(nx) - 0.5 * (nx - 1)) * spacing
    iy = (np.arange(ny) - 0.5 * (ny - 1)) * spacing
    centers = np.column_stack([np.repeat(ix, ny), np.tile(iy, nx), np.zeros(nx * ny)])
    return SpdaModel(centers=centers, element_x=float(element_x),
                     element_y=float(element_y), order=int(order))


def _lattice_offsets(model: SpdaModel):
    """Per axis: distinct center offsets, the offset index of each coordinate
    pair, and each element's coordinate index.  DomainError unless the centers
    form a full grid of disjoint elements in z = 0."""
    if np.any(model.centers[:, 2] != 0.0):
        raise DomainError("element centers must lie in the z = 0 plane", module="spda")
    axes = [np.unique(model.centers[:, k], return_inverse=True) for k in (0, 1)]
    occupied = np.zeros((axes[0][0].size, axes[1][0].size), dtype=bool)
    occupied[axes[0][1], axes[1][1]] = True
    if occupied.size != model.n_elements or not occupied.all():
        raise DomainError("element centers must form a full rectangular grid", module="spda")
    out = []
    for (coords, index), side in zip(axes, (model.element_x, model.element_y)):
        if np.any(np.diff(coords) < side - 1e-12):
            raise DomainError("element surfaces overlap", module="spda")
        offsets, pair = np.unique(np.round(coords[:, None] - coords, 12), return_inverse=True)
        out.append((offsets, pair.reshape(coords.size, -1), index))
    return out


def _pair_integrals(offsets: np.ndarray, egrid, wa: np.ndarray, cfg: PhysicalConfig):
    """Kernel integrated over two elements whose centers are offsets (K, 3) apart."""
    pair_disp = egrid.points[:, None, :] - egrid.points[None, :, :]
    vals = np.empty(offsets.shape[0])
    block = max(1, 2 ** 20 // (egrid.points.shape[0] ** 2))
    for start in range(0, offsets.shape[0], block):
        disp = pair_disp[None, :, :, :] + offsets[start:start + block, None, None, :]
        kern = radiation_kernel(disp, cfg.wavenumber, cfg.impedance)
        vals[start:start + block] = np.real(np.einsum("i,uij,j->u", np.conj(wa), kern, wa))
    return vals


@dataclass(frozen=True)
class CouplingMatrix:
    """Mutual-impedance data of a discrete array.

    radiation holds the pairwise radiated-coupling integrals; the full matrix
    adds the per-element self impedance on the diagonal.
    """

    radiation: np.ndarray = field(repr=False)
    self_impedance: float

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.radiation + self.self_impedance * np.eye(self.radiation.shape[0])

    def diagonal_only(self) -> "CouplingMatrix":
        """Coupling-blind variant: off-diagonal radiation terms dropped."""
        return CouplingMatrix(radiation=np.diag(np.diag(self.radiation)),
                              self_impedance=self.self_impedance)


def coupling_matrix(model: SpdaModel, cfg: PhysicalConfig,
                    mode: str = "exact") -> CouplingMatrix:
    """Pairwise coupling of all elements.

    mode "exact" integrates the kernel over both element surfaces with the
    per-element quadrature; "point" collapses off-diagonal pairs to the
    kernel at the center separation scaled by the element areas (the
    diagonal stays exact).  Centers must form a full n_x by n_y grid in z = 0
    (DomainError otherwise); one table then holds the (2 n_x - 1)(2 n_y - 1)
    x/y offsets of a uniform lattice, and the few that rounding splits.
    """
    if mode not in ("exact", "point"):
        raise DomainError("mode must be 'exact' or 'point'", module="spda")
    (dx, kx, ix), (dy, ky, iy) = _lattice_offsets(model)
    offsets = np.column_stack([np.repeat(dx, dy.size), np.tile(dy, dx.size),
                               np.zeros(dx.size * dy.size)])
    egrid = aperture_grid(Aperture(model.element_x, model.element_y), model.order)
    amp = model.profile_values(egrid.points)
    wa = egrid.weights * amp
    self_impedance = cfg.surface_resistance * float(np.sum(egrid.weights * np.abs(amp) ** 2))

    if mode == "exact":
        table = _pair_integrals(offsets, egrid, wa, cfg)
    else:
        table = model.element_area ** 2 * np.abs(model.profile_values(np.zeros(3))) ** 2 \
            * radiation_kernel(offsets, cfg.wavenumber, cfg.impedance)
        zero = kx[0, 0] * dy.size + ky[0, 0]
        table[zero] = _pair_integrals(offsets[zero:zero + 1], egrid, wa, cfg)[0]
    radiation = table.reshape(dx.size, dy.size)[kx[np.ix_(ix, ix)], ky[np.ix_(iy, iy)]]
    radiation = 0.5 * (radiation + radiation.T)
    return CouplingMatrix(radiation=radiation, self_impedance=self_impedance)


def discrete_channel(model: SpdaModel, channel) -> np.ndarray:
    """Per-element channel coefficients, stored conjugated.

    Entry n is the conjugate of the channel integrated against the element
    profile over element n, so the received field equals the conjugate inner
    product of this vector with the drive vector.
    """
    egrid = aperture_grid(Aperture(model.element_x, model.element_y), model.order)
    amp = model.profile_values(egrid.points)
    pts = model.centers[:, None, :] + egrid.points[None, :, :]
    h_vals = channel(pts)
    integrals = (h_vals * amp) @ egrid.weights
    return np.conj(integrals)


@dataclass(frozen=True)
class DiscreteBeamformer:
    weights: np.ndarray = field(repr=False)
    gain: float
    power: float


def optimal_discrete_beamformer(h: np.ndarray, coupling: CouplingMatrix,
                                power: float = 1.0) -> DiscreteBeamformer:
    """Optimal drive vector under the coupling model, with its array gain."""
    if power <= 0:
        raise DomainError("transmit power must be positive", module="spda")
    h = np.asarray(h, dtype=complex)
    psi = coupling.matrix
    if h.shape != (psi.shape[0],):
        raise DomainError("channel vector length does not match the coupling matrix",
                          module="spda")
    try:
        lower = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise NumericError("coupling matrix is not positive definite", module="spda") from exc
    # psi = L L^T: h^H psi^-1 h = ||L^-1 h||^2 and psi^-1 h = L^-T (L^-1 h)
    factor_inverse = lower_triangular_inverse(lower)
    whitened = lower_matvec(factor_inverse, h)
    inner = float(np.vdot(whitened, whitened).real)
    if inner <= 0.0:
        raise NumericError("whitened channel energy is non-positive", module="spda")
    weights = np.sqrt(2.0 * power / inner) \
        * lower_matvec(factor_inverse, whitened, transpose=True)
    return DiscreteBeamformer(weights=weights, gain=2.0 * inner, power=power)


@dataclass(frozen=True)
class SpacingSweepRow:
    spacing: float
    n_elements: int
    gain_coupled: float
    gain_uncoupled: float
    gain_reference: float


def spacing_sweep(cfg: PhysicalConfig, aperture: Aperture, channel: FarFieldChannel,
                  spacings, power: float = 1.0, element_x: float | None = None,
                  element_y: float | None = None, mode: str = "exact",
                  reference_order: int = 20) -> list[SpacingSweepRow]:
    """Coupled and coupling-blind discrete gains versus lattice pitch.

    Element sides default to a tenth of a wavelength.  The continuous-surface
    closed-form gain for the same aperture and channel is attached to every
    row as the reference.
    """
    ex = 0.1 * cfg.wavelength if element_x is None else element_x
    ey = 0.1 * cfg.wavelength if element_y is None else element_y
    expansion = build_expansion(cfg, reference_order)
    reference = beamform_ka(cfg, channel, expansion, aperture, power=power).gain
    rows = []
    for d in np.asarray(spacings, dtype=float):
        model = element_layout(aperture, float(d), ex, ey)
        coupling = coupling_matrix(model, cfg, mode=mode)
        h = discrete_channel(model, channel)
        coupled = optimal_discrete_beamformer(h, coupling, power=power)
        blind = optimal_discrete_beamformer(h, coupling.diagonal_only(), power=power)
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


def aperture_sweep(cfg: PhysicalConfig, spacing: float, channel: FarFieldChannel,
                   apertures, power: float = 1.0, element_x: float | None = None,
                   element_y: float | None = None, mode: str = "exact",
                   reference_order: int = 20) -> list[ApertureSweepRow]:
    """Coupled discrete gain and continuous reference versus aperture size."""
    ex = 0.1 * cfg.wavelength if element_x is None else element_x
    ey = 0.1 * cfg.wavelength if element_y is None else element_y
    expansion = build_expansion(cfg, reference_order)
    rows = []
    for ap in apertures:
        reference = beamform_ka(cfg, channel, expansion, ap, power=power).gain
        model = element_layout(ap, spacing, ex, ey)
        coupling = coupling_matrix(model, cfg, mode=mode)
        h = discrete_channel(model, channel)
        coupled = optimal_discrete_beamformer(h, coupling, power=power)
        rows.append(ApertureSweepRow(area=ap.area, n_elements=model.n_elements,
                                     gain_discrete=coupled.gain, gain_reference=reference))
    return rows

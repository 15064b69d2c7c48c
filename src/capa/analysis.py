"""Large-aperture limits, steering gain profiles and beampatterns."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .kernel_approx import (PlaneWaveExpansion, _closed_form_gains, channel_moments,
                            gram_matrix, inverse_operator)
from .physics import (Z0, Aperture, Direction, FarFieldChannel, PhysicalConfig,
                      _require_radiating, _steering, far_field_channel, wavenumber_kernel)
from .quadrature import aperture_grid


def directivity_factor(cfg: PhysicalConfig, theta, phi):
    """Angular directivity factor of the optimally driven unbounded surface.

    Closed form in the steering angles; zero at grazing incidence.
    """
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    if np.any(np.abs(ph) > np.pi / 2):
        raise DomainError("polar angle must lie in [-pi/2, pi/2]", module="analysis")
    zs = cfg.surface_resistance
    pol = _steering(cfg.wavenumber, th, ph)[2]
    num = Z0 ** 2 * pol ** 2 * np.cos(ph)
    den = 2.0 * zs * np.cos(ph) + Z0 * pol
    out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return float(out) if out.ndim == 0 else out


def infinite_aperture_gain(cfg: PhysicalConfig, theta, phi, distance: float):
    """Per-area normalized array gain in the unbounded-aperture limit.

    Finite apertures approach this value as 4*pi^2 * gain / area.  It is
    (k0/distance)^2 times the directivity factor, the spectral form
    8 pi^2 |a|^2 / (Zs + spectrum) evaluated in closed form at the steering
    wavevector; grazing steering returns the limit value 0.
    """
    if distance <= 0:
        raise DomainError("receiver distance must be positive", module="analysis")
    limit = (cfg.wavenumber / distance) ** 2 * np.asarray(directivity_factor(cfg, theta, phi))
    # float pi/2 leaves cos at ~6e-17, so grazing needs a small window
    grazing = np.abs(np.cos(np.asarray(phi, dtype=float))) < 1e-9
    if np.any(grazing):
        warnings.warn("grazing steering direction: unbounded-aperture gain "
                      "returned as its limit value 0", stacklevel=2)
    out = np.where(grazing, 0.0, limit)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class UncoupledBeamformer:
    """Matched-filter transmit distribution normalized without coupling.

    Power accounting uses the flat surface resistance per unit area, so the
    gain is 2 * matched_energy / resistance regardless of steering.
    """

    channel: FarFieldChannel
    power: float
    resistance: float
    matched_energy: float
    scale: float

    def __call__(self, points) -> np.ndarray:
        return self.scale * np.conj(self.channel(points))

    @property
    def gain(self) -> float:
        return 2.0 * self.matched_energy / self.resistance


def uncoupled_beamformer(cfg: PhysicalConfig, channel: FarFieldChannel,
                         aperture: Aperture, power: float = 1.0) -> UncoupledBeamformer:
    """Coupling-blind matched filter normalized with the surface resistance."""
    if power <= 0:
        raise DomainError("transmit power must be positive", module="analysis")
    _require_radiating(channel, "analysis")
    eta = aperture.area * abs(channel.amplitude) ** 2
    scale = float(np.sqrt(2.0 * power / (cfg.surface_resistance * eta)))
    return UncoupledBeamformer(channel=channel, power=power,
                               resistance=cfg.surface_resistance,
                               matched_energy=eta, scale=scale)


@dataclass(frozen=True, eq=False)
class Beampattern:
    values: np.ndarray = field(repr=False)
    peak: float


def beampattern(w, cfg: PhysicalConfig, aperture: Aperture, theta, phi,
                order: int = 20) -> Beampattern:
    """Peak-normalized radiated far-field magnitude of a transmit distribution.

    w is a callable over surface points.  For each direction the aperture
    transform of w is weighted by the polarization projection of the field.
    """
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    th, ph = np.broadcast_arrays(th, ph)
    shape = th.shape
    # on the tensor grid exp(-j(kx x_i + ky y_j)) = exp(-j kx x_i) exp(-j ky y_j),
    # so the transform is one (D, M) x (M, M) product against per-axis phases
    grid = aperture_grid(aperture, order)
    samples = (grid.weights * np.asarray(w(grid.points), dtype=complex)).reshape(order, order)
    nodes = grid.points.reshape(order, order, 3)
    kx, ky, pol = _steering(cfg.wavenumber, th.ravel(), ph.ravel())
    ex = np.exp(-1j * np.outer(kx, nodes[:, 0, 0]))
    ey = np.exp(-1j * np.outer(ky, nodes[0, :, 1]))
    values = pol * np.abs(np.sum((ex @ samples) * ey, axis=1))
    peak = float(np.max(values))
    if peak == 0.0:
        raise NumericError("beampattern is identically zero over the requested grid",
                           module="analysis")
    return Beampattern(values=(values / peak).reshape(shape), peak=peak)


def half_power_width(angle: np.ndarray, values: np.ndarray) -> float:
    """Width of the main lobe where a peak-normalized pattern stays above 1/sqrt(2).

    The grid is assumed fine enough to resolve the lobe; crossings are
    located by linear interpolation, and a lobe truncated by the grid edge
    ends there.
    """
    a = np.asarray(angle, dtype=float)
    v = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.shape != v.shape or a.size < 3:
        raise DomainError("angle and values must be matching 1-D arrays", module="analysis")
    level = np.max(v) / np.sqrt(2.0)
    i_pk = int(np.argmax(v))
    left = a[0]
    for i in range(i_pk, 0, -1):
        if v[i - 1] < level:
            frac = (level - v[i - 1]) / (v[i] - v[i - 1])
            left = a[i - 1] + frac * (a[i] - a[i - 1])
            break
    right = a[-1]
    for i in range(i_pk, a.size - 1):
        if v[i + 1] < level:
            frac = (v[i] - level) / (v[i] - v[i + 1])
            right = a[i] + frac * (a[i + 1] - a[i])
            break
    return float(right - left)


def coupling_ratio(cfg: PhysicalConfig, kappa):
    """Coupled-to-uncoupled spectral response ratio, normalized at broadside.

    Falls to zero on the propagating-disk boundary where the coupling
    spectrum diverges.
    """
    k = np.asarray(kappa, dtype=float)
    if k.shape[-1] not in (2, 3):
        raise DomainError("wavevector must have 2 or 3 components", module="analysis")
    k0 = cfg.wavenumber
    zs = cfg.surface_resistance
    n2 = (k[..., 0] ** 2 + k[..., 1] ** 2) / k0 ** 2
    rim = n2 == 1.0
    safe = np.where(rim, np.zeros_like(k[..., 0]), k[..., 0])
    kk = np.stack([safe, np.where(rim, 0.0, k[..., 1])], axis=-1)
    spectrum = wavenumber_kernel(kk, k0)
    ratio = np.where(rim, 0.0, 1.0 / (zs + spectrum))
    broadside = 1.0 / (zs + 0.5 * Z0)
    out = ratio / broadside
    return float(out) if out.ndim == 0 else out


def steered_gain_profile(cfg: PhysicalConfig, expansion: PlaneWaveExpansion,
                         aperture: Aperture, theta, phi, distance: float):
    """Closed-form array gain of the finite aperture over steering directions.

    theta and phi broadcast together, and the gains take their broadcast
    shape.  One factorization serves every direction, and the whitened moments
    of all directions come from one stacked substitution with the Cholesky
    factors of the four reflection-parity blocks.  A distance inside the
    aperture's far-field boundary warns, as far_field_channel does.
    """
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(phi, dtype=float))
    inverse = inverse_operator(expansion, gram_matrix(expansion, aperture),
                               cfg.surface_resistance)
    channels = [far_field_channel(cfg, Direction(float(t), float(p)), distance, aperture)
                for t, p in zip(th.ravel(), ph.ravel())]
    # a polarization null (sin theta sin phi = 1) radiates nothing: gain 0
    live = [i for i, ch in enumerate(channels) if ch.amplitude != 0.0]
    gains = np.zeros(th.size)
    if live:
        moments = np.column_stack([channel_moments(channels[i], expansion, aperture)
                                   for i in live])
        eta = aperture.area * np.array([abs(channels[i].amplitude) ** 2 for i in live])
        gains[live] = _closed_form_gains(inverse, moments, eta, cfg.surface_resistance)[1]
    gains = gains.reshape(th.shape)
    return float(gains) if gains.ndim == 0 else gains

"""Physical constants, coupling kernels, and channel models for a planar aperture.

The transmit surface is the rectangle [-L_x/2, L_x/2] x [-L_y/2, L_y/2] in the
z = 0 plane, carrying a y-polarized surface current.  All quantities are SI.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DomainError, NumericError

C0 = 299_792_458.0            # speed of light [m/s]
Z0 = 120.0 * np.pi            # free-space wave impedance [ohm]
MU0 = 4.0e-7 * np.pi          # vacuum permeability [H/m]
COPPER_CONDUCTIVITY = 5.8e7   # [S/m]

# Below this separation (in wavelengths) the direct kernel formula loses
# precision to cancellation and the analytic zero-separation limit is used.
_SMALL_SEPARATION_WL = 1e-6
# radiation_kernel's polarized terms divide by (k r)^3, which overflows from here
_MAX_EPS = float(np.cbrt(np.finfo(float).max))
# rows per block of radiation_kernel: 2^15 doubles, 256 KB, per temporary
_KERNEL_BLOCK = 2 ** 15


def _square_is_finite(x: float) -> bool:
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.square(x)))


def _is_count(n) -> bool:
    """An integer of at least 1; a bool or a whole float is not one."""
    return isinstance(n, Integral) and not isinstance(n, bool) and n >= 1


def _require_positive(what: str, *values, module: str) -> None:
    """DomainError unless every value lies in (0, inf); NaN fails the comparison too."""
    if not all(0 < v < np.inf for v in values):
        raise DomainError(f"{what} must be positive and finite", module=module)


def _require_finite(what: str, *arrays, module: str) -> None:
    """DomainError unless every entry of every array is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise DomainError(f"{what} must be finite", module=module)


def surface_resistance(frequency: float, mu_s: float = MU0,
                       sigma_s: float = COPPER_CONDUCTIVITY) -> float:
    """Surface resistance of a good conductor, sqrt(pi*f*mu/sigma)."""
    _require_positive("frequency, permeability, and conductivity", frequency, mu_s, sigma_s,
                      module="physics")
    return float(np.sqrt(np.pi * frequency * mu_s / sigma_s))


@dataclass(frozen=True)
class PhysicalConfig:
    """Operating frequency and conductor material of the transmit surface.

    surface_resistance may be given explicitly (e.g. to sweep loss levels);
    when omitted it follows from the good-conductor formula.
    """

    frequency: float
    mu_s: float = MU0
    sigma_s: float = COPPER_CONDUCTIVITY
    surface_resistance: float | None = None

    def __post_init__(self):
        _require_positive("frequency", self.frequency, module="physics")
        _require_positive("material parameters", self.mu_s, self.sigma_s, module="physics")
        if self.surface_resistance is None:
            object.__setattr__(self, "surface_resistance",
                               surface_resistance(self.frequency, self.mu_s, self.sigma_s))
        _require_positive("surface resistance", self.surface_resistance, module="physics")
        if not _square_is_finite(self.wavenumber):
            raise DomainError("frequency is too large: the squared wavenumber overflows",
                              module="physics")

    @property
    def wavelength(self) -> float:
        return C0 / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi * self.frequency / C0


@dataclass(frozen=True)
class Aperture:
    """Rectangular transmit surface, side lengths in meters."""

    length_x: float
    length_y: float

    def __post_init__(self):
        _require_positive("aperture side lengths", self.length_x, self.length_y, module="physics")
        if not _square_is_finite(self.diagonal):
            raise DomainError("aperture is too large: its squared diagonal overflows",
                              module="physics")

    @property
    def area(self) -> float:
        return self.length_x * self.length_y

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.length_x, self.length_y))


def fraunhofer_distance(aperture: Aperture, wavelength: float) -> float:
    """Far-field boundary 2*D^2/lambda for the aperture diagonal D."""
    return 2.0 * aperture.diagonal ** 2 / wavelength


@dataclass(frozen=True)
class Direction:
    """Propagation direction: theta is azimuth in the x-y plane, phi the polar
    angle measured from boresight (the +z axis)."""

    theta: float
    phi: float

    @property
    def unit_vector(self) -> np.ndarray:
        return np.array([np.cos(self.theta) * np.sin(self.phi),
                         np.sin(self.theta) * np.sin(self.phi),
                         np.cos(self.phi)])

    def transverse_wavevector(self, wavenumber: float) -> np.ndarray:
        """In-plane wavevector seen by the aperture, z component zero."""
        kx, ky, _ = _steering(wavenumber, self.theta, self.phi)
        return np.array([kx, ky, 0.0])


def _steering(wavenumber: float, theta, phi):
    """Transverse wavevector components kappa_x, kappa_y and polarization
    factor 1 - sin^2(theta) sin^2(phi) of the steering direction(s) (theta, phi),
    broadcast together."""
    kx = wavenumber * np.cos(theta) * np.sin(phi)
    ky = wavenumber * np.sin(theta) * np.sin(phi)
    pol = 1.0 - (np.sin(theta) * np.sin(phi)) ** 2
    return kx, ky, pol


def _kernel_block(s: np.ndarray, wavenumber: float, polarized: bool) -> np.ndarray:
    """radiation_kernel on the displacement rows s, shape (n, 3)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.sqrt(s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1] + s[:, 2] * s[:, 2])
        eps = wavenumber * r
    # NaN and inf fail the comparison too
    if not np.all(eps < _MAX_EPS):
        raise DomainError("separation k*r must be finite and below "
                          f"{_MAX_EPS:.3g}, where (k*r)^3 overflows", module="physics")
    small = eps < 2.0 * np.pi * _SMALL_SEPARATION_WL
    e = np.where(small, 1.0, eps)
    sin_e, cos_e = np.sin(e), np.cos(e)
    pref = wavenumber ** 2 * Z0 / (4.0 * np.pi)
    if not polarized:
        return np.where(small, pref, pref * sin_e / e)
    u2 = (s[:, 1] / np.where(small, 1.0, r)) ** 2
    # radial-derivative pieces of the sinc propagator
    e_cos, e3 = e * cos_e, e ** 3
    first = (e_cos - sin_e) / e3
    second = (2.0 * sin_e - 2.0 * e_cos - e ** 2 * sin_e) / e3
    out = pref * (sin_e / e + u2 * second + (1.0 - u2) * first)
    return np.where(small, pref * (2.0 / 3.0), out)


def radiation_kernel(displacement, wavenumber: float, *, polarized: bool = True):
    """Real radiation-coupling kernel between two points of the surface, in
    free space (Z0).

    Parameters
    ----------
    displacement : array_like, shape (..., 3)
        Separation vector(s) between surface points.
    polarized : bool, keyword-only
        With the default True the y-polarization term (second y-derivative of
        the sinc propagator) is included.  False drops it, leaving the
        isotropic kernel whose zeros sit at half-wavelength multiples.

    Raises DomainError for a wavenumber that is not positive and finite, for a
    non-finite displacement and for a separation eps = k r at or above the
    cube root of the largest float, about 5.6e102, where eps^3 overflows.
    """
    s = np.asarray(displacement, dtype=float)
    if s.shape[-1] != 3:
        raise DomainError("displacement must have three components", module="physics")
    _require_positive("wavenumber", wavenumber, module="physics")
    shape = s.shape[:-1]
    s = s.reshape(-1, 3)
    # in blocks of rows, so that each temporary of the formula stays cache-sized
    out = np.empty(s.shape[0])
    for start in range(0, s.shape[0], _KERNEL_BLOCK):
        rows = slice(start, start + _KERNEL_BLOCK)
        out[rows] = _kernel_block(s[rows], wavenumber, polarized)
    return float(out[0]) if shape == () else out.reshape(shape)


def wavenumber_kernel(kappa, wavenumber: float):
    """Radiation-coupling spectrum over the transverse wavenumber plane, in
    free space (Z0).

    Zero outside the propagating disk; singular on its boundary, where exact
    evaluation is refused.
    """
    k = np.asarray(kappa, dtype=float)
    if k.shape[-1] not in (2, 3):
        raise DomainError("wavevector must have 2 or 3 components", module="physics")
    _require_positive("wavenumber", wavenumber, module="physics")
    # a NaN falls outside the disk by every comparison below and would read 0
    if np.any(np.isnan(k[..., :2])):
        raise DomainError("wavevector must not be NaN", module="physics")
    kx = k[..., 0]
    ky = k[..., 1]
    n2 = (kx ** 2 + ky ** 2) / wavenumber ** 2
    if np.any(n2 == 1.0):
        raise DomainError("wavenumber kernel is singular on the propagating-disk boundary",
                          module="physics")
    with np.errstate(invalid="ignore"):
        inside = Z0 * (1.0 - ky ** 2 / wavenumber ** 2) / (2.0 * np.sqrt(1.0 - n2))
    result = np.where(n2 < 1.0, inside, 0.0)
    return float(result) if result.ndim == 0 else result


def kernel_nulls(s_y_over_r: float, count: int = 3, polarized: bool = True) -> np.ndarray:
    """First `count` zero crossings of radiation_kernel along a ray.

    The ray is fixed by the ratio s_y/r between the y component of the
    separation and its length.  Returns the roots in eps = k*r: the kernel's
    sign changes are bracketed on a pi/50 grid in eps, evaluated in one call,
    and each bracket is bisected to 1e-10.
    """
    if not -1.0 <= s_y_over_r <= 1.0:
        raise DomainError("s_y/r ratio must lie in [-1, 1]", module="physics")
    if not _is_count(count):
        raise DomainError("count must be an integer of at least 1", module="physics")
    # unit ray at k = 1, where the displacement's length is eps itself
    ray = np.array([np.sqrt(1.0 - s_y_over_r ** 2), s_y_over_r, 0.0])

    def f(eps):
        return radiation_kernel(np.multiply.outer(eps, ray), 1.0, polarized=polarized)

    step = np.pi / 50.0
    bound = count * 4.0 * np.pi
    # accumulated, not step * arange: the roots are bisection midpoints of the
    # grid's brackets, and a grid rounded differently moves them
    grid = [step]
    while grid[-1] < bound:
        grid.append(grid[-1] + step)
    values = f(np.array(grid))
    roots: list[float] = []
    for lo, hi, f_lo, f_hi in zip(grid, grid[1:], values, values[1:]):
        if len(roots) == count:
            break
        if f_lo == 0.0:
            roots.append(lo)
        elif f_lo * f_hi < 0.0:
            a, b, f_a = lo, hi, f_lo
            while b - a > 1e-10:
                mid = 0.5 * (a + b)
                f_mid = f(mid)
                if f_a * f_mid <= 0.0:
                    b = mid
                else:
                    a, f_a = mid, f_mid
            roots.append(0.5 * (a + b))
    if len(roots) < count:
        raise NumericError(f"bracketing exhausted after eps = {bound:.3f}, "
                           f"found {len(roots)} of {count} nulls", module="physics")
    return np.asarray(roots)


@dataclass(frozen=True, eq=False)
class FarFieldChannel:
    """Planar-wavefront channel between the aperture and a distant receiver.

    Calling the object with surface points of shape (..., 3) returns the
    complex channel values amplitude * exp(-j * wavevector . s).
    """

    amplitude: complex
    wavevector: np.ndarray = field(repr=False)
    distance: float
    theta: float
    phi: float

    def __call__(self, points) -> np.ndarray:
        s = np.asarray(points, dtype=float)
        out = self.amplitude * np.exp(-1j * (s @ self.wavevector))
        return complex(out) if out.ndim == 0 else out


def _require_radiating(channel: FarFieldChannel, module: str) -> None:
    """DomainError at the polarization null, where the channel amplitude is 0
    and no distribution delivers power, so no beamformer exists."""
    if channel.amplitude == 0:
        raise DomainError("channel amplitude is zero: the steering direction is the "
                          "polarization null, sin(theta) sin(phi) = +-1", module=module)


def far_field_channel(cfg: PhysicalConfig, direction: Direction, distance: float,
                      aperture: Aperture | None = None) -> FarFieldChannel:
    """Far-field channel for a receiver at the given distance and direction.

    When the aperture is supplied, distances inside its far-field boundary
    trigger a warning but are still accepted.
    """
    _require_positive("receiver distance", distance, module="physics")
    k0 = cfg.wavenumber
    kx, ky, pol = _steering(k0, direction.theta, direction.phi)
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = (-1j * k0 * Z0 * np.exp(1j * k0 * distance)
                     / (4.0 * np.pi * distance)) * pol
        energy = np.abs(amplitude) ** 2
    # every solver works with |amplitude|^2, and only the polarization null
    # may radiate nothing
    if not np.isfinite(energy):
        raise DomainError("squared channel amplitude is not finite", module="physics")
    if pol != 0.0 and energy == 0.0:
        raise DomainError("squared channel amplitude underflows to zero", module="physics")
    if aperture is not None:
        limit = fraunhofer_distance(aperture, cfg.wavelength)
        if distance < limit:
            warnings.warn(f"receiver distance {distance:.3g} m is inside the far-field "
                          f"boundary {limit:.3g} m; planar-wavefront model is inaccurate",
                          stacklevel=2)
    return FarFieldChannel(amplitude=complex(amplitude),
                           wavevector=np.array([kx, ky, 0.0]),
                           distance=float(distance),
                           theta=float(direction.theta),
                           phi=float(direction.phi))


def exact_channel(cfg: PhysicalConfig, receiver, points):
    """Channel to an arbitrary receiver point without the far-field approximation.

    Evaluates the y-polarized field coupling -j*k*Z0*(g + d2g/dy2 / k^2) of the
    spherical-wave propagator g between surface points and the receiver.
    """
    r = np.asarray(receiver, dtype=float)
    s = np.asarray(points, dtype=float)
    _require_finite("receiver and surface points", r, s, module="physics")
    d = r - s
    dist = np.linalg.norm(d, axis=-1)
    if np.any(dist == 0.0):
        raise DomainError("receiver coincides with a surface point", module="physics")
    k0 = cfg.wavenumber
    g = np.exp(1j * k0 * dist) / (4.0 * np.pi * dist)
    dg = g * (1j * k0 - 1.0 / dist)
    d2g = g * (-k0 ** 2 - 2j * k0 / dist + 2.0 / dist ** 2)
    u2 = (d[..., 1] / dist) ** 2
    d2y = d2g * u2 + dg * (1.0 - u2) / dist
    out = -1j * k0 * Z0 * (g + d2y / k0 ** 2)
    return complex(out) if out.ndim == 0 else out

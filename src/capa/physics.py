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

# radiation_kernel refuses eps = k r from here, where its eps^2 is far from overflow
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


def _require_wavenumber(wavenumber: float, module: str) -> None:
    """DomainError unless k, k^2 and the kernel prefactor k^2 Z0/(4 pi) are positive and
    finite: the kernels scale and divide by them, which must not overflow or underflow to 0."""
    _require_positive("wavenumber", wavenumber, module=module)
    k = float(wavenumber)
    _require_positive("squared wavenumber", k * k, k * k * Z0 / (4.0 * np.pi), module=module)


def _require_finite(what: str, *arrays, module: str) -> None:
    """DomainError unless every entry of every array is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise DomainError(f"{what} must be finite", module=module)


def _sinc(t: np.ndarray) -> np.ndarray:
    """sin(t)/t with the removable singularity filled, overwriting t; the steps
    of np.sinc(t / pi), bit for bit, without its full-size temporaries."""
    t /= np.pi
    t *= np.pi
    t[t == 0.0] = np.finfo(float).eps
    return np.divide(np.sin(t), t, out=t)


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
        _require_wavenumber(self.wavenumber, module="physics")

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


def _y_dipole(b0, b2, u2):
    """Y-dipole coupling over pref, (1 - u2) b0 + (3 u2 - 1) b1/x, in b0 and b2 (DLMF 10.51.1)."""
    return 2.0 / 3.0 * b0 + (u2 - 1.0 / 3.0) * b2


def _kernel_block(s: np.ndarray, wavenumber: float, polarized: bool) -> np.ndarray:
    """radiation_kernel on the displacement rows s, shape (n, 3)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.sqrt(s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1] + s[:, 2] * s[:, 2])
        eps = wavenumber * r
    # NaN and inf fail the comparison too
    if not np.all(eps < _MAX_EPS):
        raise DomainError(f"separation k*r must be finite and below {_MAX_EPS:.3g}, "
                          "which keeps (k*r)^2 far from overflow", module="physics")
    pref = wavenumber ** 2 * Z0 / (4.0 * np.pi)
    j0 = np.divide(np.sin(eps), eps, out=np.ones_like(eps), where=eps > 0.0)
    if not polarized:
        return pref * j0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        j2 = 3.0 * (j0 - np.cos(eps)) / eps ** 2 - j0
    # that form cancels below eps = 1: there nine terms of t/15 (1 - t/14 (1 - ...)), t = eps^2
    near = np.flatnonzero(eps < 1.0)
    t, series = eps[near] ** 2, 1.0
    for m in range(8, 0, -1):
        series = 1.0 - series * t / (2 * m * (2 * m + 5))
    j2[near] = series * t / 15.0
    # u2 multiplies j2(0) = 0 at r = 0
    u2 = np.divide(s[:, 1], r, out=np.zeros_like(r), where=r > 0.0) ** 2
    return pref * _y_dipole(j0, j2, u2)


def radiation_kernel(displacement, wavenumber: float, *, polarized: bool = True):
    """Real radiation-coupling kernel between two points of the surface, in
    free space (Z0).

    Parameters
    ----------
    displacement : array_like, shape (..., 3)
        Separation vector(s) between surface points.
    polarized : bool, keyword-only
        With the default True the y-polarized kernel pref (2/3 j0 + (u^2 - 1/3) j2),
        pref = k^2 Z0/(4 pi), u = s_y/r, in spherical Bessel functions of eps = k r
        (DLMF 10.49.3, 10.53.1); False keeps pref j0, zero at half-wavelengths.

    Raises DomainError for a wavenumber that is not positive and finite or whose
    square overflows or underflows, for a non-finite displacement and for eps at or
    above the cube root of the largest float, about 5.6e102, so eps^2 stays finite.
    """
    s = np.asarray(displacement, dtype=float)
    if s.shape[-1] != 3:
        raise DomainError("displacement must have three components", module="physics")
    _require_wavenumber(wavenumber, module="physics")
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
    _require_wavenumber(wavenumber, module="physics")
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

    The y-polarized coupling -j k Z0 (g + d2g/dy2 / k^2) of g = exp(j k d)/(4 pi d) is
    radiation_kernel's form in spherical Hankel functions h0, h2 of x = k d (DLMF 10.49.6).
    """
    r = np.asarray(receiver, dtype=float)
    s = np.asarray(points, dtype=float)
    _require_finite("receiver and surface points", r, s, module="physics")
    d = r - s
    dist = np.linalg.norm(d, axis=-1)
    if np.any(dist == 0.0):
        raise DomainError("receiver coincides with a surface point", module="physics")
    x = cfg.wavenumber * dist
    h0 = -1j * np.exp(1j * x) / x
    h2 = h0 * (3.0 / x ** 2 - 3j / x - 1.0)
    out = cfg.wavenumber ** 2 * Z0 / (4.0 * np.pi) * _y_dipole(h0, h2, (d[..., 1] / dist) ** 2)
    return complex(out) if out.ndim == 0 else out

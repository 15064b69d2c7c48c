"""Physical constants, coupling kernels, and channel models for a planar aperture.

The transmit surface is the rectangle [-L_x/2, L_x/2] x [-L_y/2, L_y/2] in the
z = 0 plane, carrying a y-polarized surface current.  All quantities are SI.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError

C0 = 299_792_458.0            # speed of light [m/s]
Z0 = 120.0 * np.pi            # free-space wave impedance [ohm]
MU0 = 4.0e-7 * np.pi          # vacuum permeability [H/m]
COPPER_CONDUCTIVITY = 5.8e7   # [S/m]

# Below this separation (in wavelengths) the direct kernel formula loses
# precision to cancellation and the analytic zero-separation limit is used.
_SMALL_SEPARATION_WL = 1e-6


def surface_resistance(frequency: float, mu_s: float = MU0,
                       sigma_s: float = COPPER_CONDUCTIVITY) -> float:
    """Surface resistance of a good conductor, sqrt(pi*f*mu/sigma)."""
    if frequency <= 0 or mu_s <= 0 or sigma_s <= 0:
        raise DomainError("frequency, permeability, and conductivity must be positive",
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
        if self.frequency <= 0:
            raise DomainError("frequency must be positive", module="physics")
        if self.mu_s <= 0 or self.sigma_s <= 0:
            raise DomainError("material parameters must be positive", module="physics")
        if self.surface_resistance is None:
            object.__setattr__(self, "surface_resistance",
                               surface_resistance(self.frequency, self.mu_s, self.sigma_s))
        elif self.surface_resistance <= 0:
            raise DomainError("surface resistance must be positive", module="physics")

    @property
    def wavelength(self) -> float:
        return C0 / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi * self.frequency / C0

    @property
    def impedance(self) -> float:
        """Free-space wave impedance."""
        return Z0


@dataclass(frozen=True)
class Aperture:
    """Rectangular transmit surface, side lengths in meters."""

    length_x: float
    length_y: float

    def __post_init__(self):
        if self.length_x <= 0 or self.length_y <= 0:
            raise DomainError("aperture side lengths must be positive", module="physics")

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
        return np.array([wavenumber * np.cos(self.theta) * np.sin(self.phi),
                         wavenumber * np.sin(self.theta) * np.sin(self.phi),
                         0.0])


def radiation_kernel(displacement, wavenumber: float, impedance: float = Z0,
                     polarized: bool = True):
    """Real radiation-coupling kernel between two points of the surface.

    Parameters
    ----------
    displacement : array_like, shape (..., 3)
        Separation vector(s) between surface points.
    polarized : bool
        With the default True the y-polarization term (second y-derivative of
        the sinc propagator) is included.  False drops it, leaving the
        isotropic kernel whose zeros sit at half-wavelength multiples.
    """
    s = np.asarray(displacement, dtype=float)
    if s.shape[-1] != 3:
        raise DomainError("displacement must have three components", module="physics")
    r = np.linalg.norm(s, axis=-1)
    eps = wavenumber * r
    small = eps < 2.0 * np.pi * _SMALL_SEPARATION_WL
    e = np.where(small, 1.0, eps)
    sin_e = np.sin(e)
    cos_e = np.cos(e)
    pref = wavenumber ** 2 * impedance / (4.0 * np.pi)
    if not polarized:
        out = pref * sin_e / e
        limit = pref
    else:
        r_safe = np.where(small, 1.0, r)
        u2 = (s[..., 1] / r_safe) ** 2
        # radial-derivative pieces of the sinc propagator, scaled by e^3
        first = (e * cos_e - sin_e) / e ** 3
        second = (2.0 * sin_e - 2.0 * e * cos_e - e ** 2 * sin_e) / e ** 3
        out = pref * (sin_e / e + u2 * second + (1.0 - u2) * first)
        limit = pref * (2.0 / 3.0)
    result = np.where(small, limit, out)
    return float(result) if result.ndim == 0 else result


def wavenumber_kernel(kappa, wavenumber: float, impedance: float = Z0):
    """Radiation-coupling spectrum over the transverse wavenumber plane.

    Zero outside the propagating disk; singular on its boundary, where exact
    evaluation is refused.
    """
    k = np.asarray(kappa, dtype=float)
    if k.shape[-1] not in (2, 3):
        raise DomainError("wavevector must have 2 or 3 components", module="physics")
    kx = k[..., 0]
    ky = k[..., 1]
    n2 = (kx ** 2 + ky ** 2) / wavenumber ** 2
    if np.any(n2 == 1.0):
        raise DomainError("wavenumber kernel is singular on the propagating-disk boundary",
                          module="physics")
    with np.errstate(invalid="ignore"):
        inside = impedance * (1.0 - ky ** 2 / wavenumber ** 2) / (2.0 * np.sqrt(1.0 - n2))
    result = np.where(n2 < 1.0, inside, 0.0)
    return float(result) if result.ndim == 0 else result


def null_condition(eps, s_y_over_r: float):
    """Residual whose zeros in eps = k*r locate the kernel nulls along a ray.

    The ray is fixed by the ratio s_y/r between the y component of the
    separation and its length.
    """
    e = np.asarray(eps, dtype=float)
    u2 = float(s_y_over_r) ** 2
    base = (e ** 2 - 1.0) * np.sin(e) + e * np.cos(e)
    aniso = (e ** 2 - 3.0) * np.sin(e) + 3.0 * e * np.cos(e)
    result = base - u2 * aniso
    return float(result) if result.ndim == 0 else result


def kernel_nulls(s_y_over_r: float, count: int = 3, polarized: bool = True) -> np.ndarray:
    """First `count` zero crossings of the coupling kernel along a ray.

    Returns the roots in eps = k*r, found by sign-change bracketing on a
    pi/50 grid followed by bisection to 1e-10.
    """
    if not -1.0 <= s_y_over_r <= 1.0:
        raise DomainError("s_y/r ratio must lie in [-1, 1]", module="physics")
    if count < 1:
        raise DomainError("count must be at least 1", module="physics")
    if polarized:
        def f(e):
            return null_condition(e, s_y_over_r)
    else:
        f = np.sin
    step = np.pi / 50.0
    bound = count * 4.0 * np.pi
    roots: list[float] = []
    lo = step
    f_lo = f(lo)
    while lo < bound and len(roots) < count:
        hi = lo + step
        f_hi = f(hi)
        if f_lo == 0.0:
            roots.append(lo)
        elif f_lo * f_hi < 0.0:
            # f at the left end is carried along, so each step evaluates f once
            a, b, f_a = lo, hi, f_lo
            while b - a > 1e-10:
                mid = 0.5 * (a + b)
                f_mid = f(mid)
                if f_a * f_mid <= 0.0:
                    b = mid
                else:
                    a, f_a = mid, f_mid
            roots.append(0.5 * (a + b))
        lo, f_lo = hi, f_hi
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
    if distance <= 0:
        raise DomainError("receiver distance must be positive", module="physics")
    if aperture is not None:
        limit = fraunhofer_distance(aperture, cfg.wavelength)
        if distance < limit:
            warnings.warn(f"receiver distance {distance:.3g} m is inside the far-field "
                          f"boundary {limit:.3g} m; planar-wavefront model is inaccurate",
                          stacklevel=2)
    k0 = cfg.wavenumber
    pol = 1.0 - (np.sin(direction.theta) * np.sin(direction.phi)) ** 2
    amplitude = (-1j * k0 * cfg.impedance * np.exp(1j * k0 * distance)
                 / (4.0 * np.pi * distance)) * pol
    return FarFieldChannel(amplitude=complex(amplitude),
                           wavevector=direction.transverse_wavevector(k0),
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
    out = -1j * k0 * cfg.impedance * (g + d2y / k0 ** 2)
    return complex(out) if out.ndim == 0 else out

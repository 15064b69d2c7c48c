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
# radiation_kernel's polarized terms divide by (k r)^3, which overflows from here
_MAX_EPS = float(np.cbrt(np.finfo(float).max))


def _square_is_finite(x: float) -> bool:
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.square(x)))


def surface_resistance(frequency: float, mu_s: float = MU0,
                       sigma_s: float = COPPER_CONDUCTIVITY) -> float:
    """Surface resistance of a good conductor, sqrt(pi*f*mu/sigma)."""
    if not (0 < frequency < np.inf and 0 < mu_s < np.inf and 0 < sigma_s < np.inf):
        raise DomainError("frequency, permeability, and conductivity must be positive "
                          "and finite", module="physics")
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
        if not 0.0 < self.surface_resistance < np.inf:
            raise DomainError("surface resistance must be positive and finite", module="physics")
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
        if not (0 < self.length_x < np.inf and 0 < self.length_y < np.inf):
            raise DomainError("aperture side lengths must be positive and finite",
                              module="physics")
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

    Raises DomainError for a non-finite wavenumber or displacement and for a
    separation eps = k r at or above the cube root of the largest float,
    about 5.6e102, where eps^3 overflows.
    """
    s = np.asarray(displacement, dtype=float)
    if s.shape[-1] != 3:
        raise DomainError("displacement must have three components", module="physics")
    if not np.isfinite(wavenumber):
        raise DomainError("wavenumber must be finite", module="physics")
    # flat, so every step below writes into an array, a single displacement too
    shape = s.shape[:-1]
    s = s.reshape(-1, 3)
    # each temporary is written in place, in the operand order of the formulas
    # in the comments, so every value is that of the formulas to the last bit
    with np.errstate(over="ignore", invalid="ignore"):
        # r = |s|, summed over x, y, z in order
        r = s[:, 0] * s[:, 0]
        tmp = s[:, 1] * s[:, 1]
        r += tmp
        np.multiply(s[:, 2], s[:, 2], out=tmp)
        r += tmp
        np.sqrt(r, out=r)
        eps = np.multiply(wavenumber, r, out=tmp)
    # NaN and inf fail the comparison too
    if not np.all(eps < _MAX_EPS):
        raise DomainError("separation k*r must be finite and below "
                          f"{_MAX_EPS:.3g}, where (k*r)^3 overflows", module="physics")
    small = eps < 2.0 * np.pi * _SMALL_SEPARATION_WL
    # e = where(small, 1, eps)
    e = eps
    e[small] = 1.0
    sin_e = np.sin(e)
    cos_e = np.cos(e)
    pref = wavenumber ** 2 * Z0 / (4.0 * np.pi)
    if not polarized:
        # pref * sin_e / e
        out = np.multiply(pref, sin_e, out=sin_e)
        out /= e
        limit = pref
    else:
        # u2 = (s_y / where(small, 1, r))^2
        r[small] = 1.0
        u2 = np.divide(s[:, 1], r, out=r)
        u2 *= u2
        # radial-derivative pieces of the sinc propagator, scaled by e^3:
        # first = (e cos_e - sin_e) / e^3,
        # second = (2 sin_e - 2 e cos_e - e^2 sin_e) / e^3
        e3 = e ** 3
        e_cos = np.multiply(e, cos_e, out=cos_e)
        first = e_cos - sin_e
        first /= e3
        second = 2.0 * sin_e
        # 2 (e cos_e) equals (2 e) cos_e: doubling is exact
        e_cos *= 2.0
        second -= e_cos
        # out = pref * (sin_e / e + u2 second + (1 - u2) first)
        out = np.divide(sin_e, e, out=e_cos)
        np.square(e, out=e)
        e *= sin_e
        second -= e
        second /= e3
        second *= u2
        out += second
        np.subtract(1.0, u2, out=u2)
        u2 *= first
        out += u2
        out *= pref
        limit = pref * (2.0 / 3.0)
    out[small] = limit
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
    if count < 1:
        raise DomainError("count must be at least 1", module="physics")
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
    if distance <= 0:
        raise DomainError("receiver distance must be positive", module="physics")
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

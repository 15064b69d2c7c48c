"""Closed-form coupling-aware beamforming via a plane-wave kernel expansion.

The radiation kernel is approximated by a finite sum of plane waves whose
wavenumbers and coefficients come from a quadrature rule over the propagating
disk.  Under that approximation the optimal transmit distribution and its
array gain have closed forms involving one dense linear solve whose size is
the number of expansion terms, independent of any surface discretization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import CholeskyFactor, cholesky
from .errors import DomainError, NumericError
from .physics import (Aperture, FarFieldChannel, PhysicalConfig, _require_radiating,
                      wavenumber_kernel)
from .quadrature import disk_wavenumber_grid

@dataclass(frozen=True, eq=False)
class PlaneWaveExpansion:
    """Finite plane-wave approximation of the radiation kernel.

    The kernel is approximated as sum_i rho_i * exp(j * kappa_i . s) with
    strictly positive coefficients rho.
    """

    wavenumber: float
    impedance: float
    order: int
    inner_rule: str
    kappa: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)

    @property
    def term_count(self) -> int:
        return self.coefficients.size

    def reconstruct(self, points):
        """Approximated kernel at displacement(s) of shape (..., 3)."""
        s = np.asarray(points, dtype=float)
        out = np.real(np.exp(1j * (s @ self.kappa.T)) @ self.coefficients)
        return float(out) if out.ndim == 0 else out


def build_expansion(cfg: PhysicalConfig, order: int,
                    inner_rule: str = "chebyshev") -> PlaneWaveExpansion:
    """Plane-wave expansion of the radiation kernel at the given quadrature order.

    The default "chebyshev" chord rule absorbs the inverse-square-root rim
    singularity of the spectrum and converges spectrally; "legendre" converges
    only algebraically (see disk_wavenumber_grid).  Either way, a Gauss product
    rule resolves exp(j kappa . s) over an aperture of side L only when the order
    is at least about k L.
    """
    grid = disk_wavenumber_grid(cfg.wavenumber, order, inner_rule)
    spectrum = wavenumber_kernel(grid.kappa, cfg.wavenumber, cfg.impedance)
    rho = grid.weights * spectrum / (2.0 * np.pi) ** 2
    if np.any(rho <= 0.0):
        raise NumericError("expansion produced non-positive coefficients",
                           module="kernel_approx")
    rho.setflags(write=False)
    return PlaneWaveExpansion(wavenumber=cfg.wavenumber, impedance=cfg.impedance,
                              order=int(order), inner_rule=inner_rule,
                              kappa=grid.kappa, coefficients=rho)


def _sinc(t: np.ndarray) -> np.ndarray:
    """sin(t)/t with the removable singularity filled, overwriting t; the steps
    of np.sinc(t / pi), bit for bit, without its full-size temporaries."""
    t /= np.pi
    t *= np.pi
    t[t == 0.0] = np.finfo(float).eps
    return np.divide(np.sin(t), t, out=t)


def gram_matrix(expansion: PlaneWaveExpansion, aperture: Aperture) -> np.ndarray:
    """Aperture inner products between the expansion's plane waves."""
    # kappa_x takes only `order` distinct values, each repeated over one chord
    m = expansion.order
    kx = expansion.kappa[::m, 0]
    ky = expansion.kappa[:, 1]
    q = _sinc((kx[:, None] - kx[None, :]) * (0.5 * aperture.length_x))
    q = np.repeat(np.repeat(q, m, axis=0), m, axis=1)
    # formed in place: at order 40 each n x n temporary is 20 MB
    dy = ky[:, None] - ky[None, :]
    dy *= 0.5 * aperture.length_y
    q *= aperture.area
    q *= _sinc(dy)
    return q


@dataclass(frozen=True, eq=False)
class InverseOperatorData:
    """Factored resolvent shared by every steering direction.

    I + Lambda Q is similar to the symmetric positive definite form
    S = I + Lambda^1/2 Q Lambda^1/2 = L L^T, so
    (I + Lambda Q)^-1 = Lambda^1/2 L^-T L^-1 Lambda^-1/2.  factor holds L, and
    each direction's solve is one triangular substitution, two for the
    projection.
    """

    lambda_diag: np.ndarray = field(repr=False)
    factor: CholeskyFactor = field(repr=False)


def inverse_operator(expansion: PlaneWaveExpansion, gram: np.ndarray,
                     surface_resistance: float) -> InverseOperatorData:
    """Resolvent (I + Lambda Q)^-1 of the expansion/aperture pair, factored.

    Lambda is the diagonal of expansion coefficients over the surface
    resistance.  The symmetric form I + Lambda^1/2 Q Lambda^1/2 is factored
    once by Cholesky, and no inverse of it is formed; a system that is not
    positive definite reports a condition estimate.
    """
    if surface_resistance <= 0:
        raise DomainError("surface resistance must be positive", module="kernel_approx")
    lam = expansion.coefficients / surface_resistance
    root = np.sqrt(lam)
    system = root[:, None] * gram * root[None, :]
    system[np.diag_indices_from(system)] += 1.0
    factor = cholesky(system, "resolvent system is not positive definite", "kernel_approx")
    return InverseOperatorData(lambda_diag=lam, factor=factor)


def channel_moments(channel: FarFieldChannel, expansion: PlaneWaveExpansion,
                    aperture: Aperture) -> np.ndarray:
    """Aperture inner products between the conjugate channel and each plane wave."""
    dk = expansion.kappa - channel.wavevector
    mx = _sinc(dk[:, 0] * (0.5 * aperture.length_x))
    my = _sinc(dk[:, 1] * (0.5 * aperture.length_y))
    return np.conj(channel.amplitude) * aperture.area * mx * my


def _closed_form_gains(inverse: InverseOperatorData, moments: np.ndarray,
                       matched_energy, surface_resistance: float):
    """Whitened moments L^-1 Lambda^1/2 a, penalties and gains 2 (eta - penalty) / Zs
    of one direction (moments (n,)) or of D directions (moments (n, D)).

    penalty = a^H (I + Lambda Q)^-1 Lambda a = ||L^-1 Lambda^1/2 a||^2; the gain
    eta - penalty cancels about 1e4-fold, so the penalty comes from the
    backward-stable substitution with the Cholesky factor, not an inverse of the
    non-symmetric system.
    """
    root = np.sqrt(inverse.lambda_diag).reshape((-1,) + (1,) * (moments.ndim - 1))
    whitened = inverse.factor.solve(root * moments)
    penalty = np.sum(whitened.real ** 2 + whitened.imag ** 2, axis=0)
    net = matched_energy - penalty
    if np.any(net <= 0.0):
        raise NumericError("matched energy does not exceed the coupling penalty; "
                           "closed form is numerically inconsistent", module="kernel_approx")
    return whitened, penalty, 2.0 * net / surface_resistance


@dataclass(frozen=True, eq=False)
class ClosedFormBeamformer:
    """Optimal transmit distribution under the plane-wave kernel approximation.

    Calling the object with surface points evaluates the distribution:
    scale * (conjugate channel minus its projection onto the expansion waves).
    The projection is computed from the whitened moments on first evaluation.
    """

    channel: FarFieldChannel
    expansion: PlaneWaveExpansion
    aperture: Aperture
    surface_resistance: float
    power: float
    whitened: np.ndarray = field(repr=False)
    inverse: InverseOperatorData = field(repr=False)
    matched_energy: float
    penalty: float
    gain: float
    scale: float

    @cached_property
    def projection(self) -> np.ndarray:
        """Lambda^1/2 L^-T L^-1 Lambda^1/2 a, the expansion-wave amplitudes."""
        return np.sqrt(self.inverse.lambda_diag) * self.inverse.factor.solve(
            self.whitened, transpose=True)

    def __call__(self, points) -> np.ndarray:
        s = np.asarray(points, dtype=float)
        conj_channel = np.conj(self.channel(s))
        # exponentiated in place: on an aperture grid the phase matrix is the
        # largest array a closed-form pass allocates
        phases = 1j * (s @ self.expansion.kappa.T)
        waves = np.exp(phases, out=phases) @ self.projection
        out = self.scale * (conj_channel - waves)
        return complex(out) if np.ndim(out) == 0 else out

    @property
    def uncoupled_bound(self) -> float:
        """Gain of the matched filter when coupling is ignored, 2*eta/Zs."""
        return 2.0 * self.matched_energy / self.surface_resistance


def beamform_ka(cfg: PhysicalConfig, channel: FarFieldChannel,
                expansion: PlaneWaveExpansion, aperture: Aperture,
                power: float = 1.0,
                inverse: InverseOperatorData | None = None) -> ClosedFormBeamformer:
    """Closed-form coupling-aware beamformer for one steering channel.

    The resolvent data may be precomputed once and shared across steering
    directions for the same expansion and aperture.
    """
    if power <= 0:
        raise DomainError("transmit power must be positive", module="kernel_approx")
    _require_radiating(channel, "kernel_approx")
    if inverse is None:
        inverse = inverse_operator(expansion, gram_matrix(expansion, aperture),
                                   cfg.surface_resistance)
    a = channel_moments(channel, expansion, aperture)
    eta = aperture.area * abs(channel.amplitude) ** 2
    whitened, penalty, gain = _closed_form_gains(inverse, a, eta, cfg.surface_resistance)
    # power = scale^2 * Zs * (eta - penalty) / 2 = (scale * Zs)^2 * gain / 4
    scale = float(np.sqrt(4.0 * power / gain) / cfg.surface_resistance)
    return ClosedFormBeamformer(channel=channel, expansion=expansion, aperture=aperture,
                                surface_resistance=cfg.surface_resistance, power=power,
                                whitened=whitened, inverse=inverse,
                                matched_energy=eta, penalty=float(penalty),
                                gain=float(gain), scale=scale)

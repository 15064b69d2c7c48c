"""Closed-form coupling-aware beamforming via a plane-wave kernel expansion.

The radiation kernel is approximated by a finite sum of plane waves whose
wavenumbers and coefficients come from a quadrature rule over the propagating
disk.  Under that approximation the optimal transmit distribution and its
array gain have closed forms involving one dense linear solve whose size is
the number of expansion terms, independent of any surface discretization.
The system is unchanged by the reflections x -> -x and y -> -y, so its Gram
is built directly as four decoupled blocks, even or odd in each axis, of
about a quarter of that size each, by mirror sums; no full Gram is formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import CholeskyFactor, cholesky
from .errors import DomainError, NumericError
from .physics import (Aperture, FarFieldChannel, PhysicalConfig, _require_positive,
                      _require_radiating, _sinc, wavenumber_kernel)
from .quadrature import _fold, _grid_weights, _mirror_sums, _unfold, disk_wavenumber_grid

@dataclass(frozen=True, eq=False)
class PlaneWaveExpansion:
    """Finite plane-wave approximation of the radiation kernel at a wavenumber,
    from the disk rule of the given order and inner rule (disk_wavenumber_grid).

    The kernel is approximated as sum_i rho_i * exp(j * kappa_i . s): kappa are
    the rule's nodes and rho > 0 its weights times the coupling spectrum over
    (2 pi)^2.  kappa is chord-major: term c*order + d is node d of chord c, so
    kappa_x is constant over each run of `order` terms, and the third component
    is zero.  gram_matrix and wave_sum rely on this.  Built from the rule alone,
    the expansion is unchanged by the reflections x -> -x and y -> -y: chord
    M-1-c mirrors chord c and node M-1-d of a chord mirrors node d, bit for bit.
    gram_matrix and inverse_operator rely on this.
    """

    wavenumber: float
    order: int
    inner_rule: str
    kappa: np.ndarray = field(init=False, repr=False)
    coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = disk_wavenumber_grid(self.wavenumber, self.order, self.inner_rule)
        spectrum = wavenumber_kernel(grid.kappa, self.wavenumber)
        rho = grid.weights * spectrum / (2.0 * np.pi) ** 2
        if np.any(rho <= 0.0):
            raise NumericError("expansion produced non-positive coefficients",
                               module="kernel_approx")
        rho.setflags(write=False)
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "kappa", grid.kappa)
        object.__setattr__(self, "coefficients", rho)

    @property
    def term_count(self) -> int:
        return self.coefficients.size

    def wave_sum(self, amplitudes: np.ndarray, points):
        """sum_i a_i exp(j kappa_i . s) at point(s) s of shape (..., 3).

        Summed chord by chord, sum_c exp(j kx_c x) sum_d a_cd exp(j ky_cd y),
        with one exponential row per distinct x and per distinct y of the
        points: at order M a g x g tensor grid costs g (M + M^2) exponentials,
        not g^2 M^2, and no points x terms array is formed.
        """
        s = np.asarray(points, dtype=float)
        flat = s.reshape(-1, s.shape[-1])
        m = self.order
        xs, x_index = np.unique(flat[:, 0], return_inverse=True)
        ys, y_index = np.unique(flat[:, 1], return_inverse=True)
        along = np.multiply.outer(ys, 1j * self.kappa[:, 1])
        np.exp(along, out=along)
        # chord c's sums at every distinct y: one (y x m) @ (m,) product per chord
        a = np.reshape(amplitudes, (m, m, 1))
        chord = along.reshape(ys.size, m, m).transpose(1, 0, 2) @ a
        across = np.multiply.outer(xs, 1j * self.kappa[::m, 0])
        np.exp(across, out=across)
        out = np.einsum("pc,cp->p", across[x_index], chord[:, y_index, 0])
        return complex(out[0]) if s.ndim == 1 else out.reshape(s.shape[:-1])

    def reconstruct(self, points):
        """Approximated kernel at displacement(s) of shape (..., 3)."""
        out = np.real(self.wave_sum(self.coefficients, points))
        return float(out) if out.ndim == 0 else out


def build_expansion(cfg: PhysicalConfig, order: int,
                    inner_rule: str = "chebyshev") -> PlaneWaveExpansion:
    """Plane-wave expansion of the radiation kernel at the configuration's
    wavenumber and the given quadrature order.

    The default "chebyshev" chord rule absorbs the inverse-square-root rim
    singularity of the spectrum and converges spectrally; "legendre" converges
    only algebraically (see disk_wavenumber_grid).  Either way, a Gauss product
    rule resolves exp(j kappa . s) over an aperture of side L only when the order
    is at least about k L.
    """
    return PlaneWaveExpansion(cfg.wavenumber, order, inner_rule)


def gram_matrix(expansion: PlaneWaveExpansion, aperture: Aperture) -> np.ndarray:
    """Aperture inner products between the expansion's plane waves, as the four
    reflection-parity blocks (4, N, N) of the n x n Gram, N = ceil(M/2)^2, zero
    on padding.  Entry (i, l) is area sinc((kx_i - kx_l) L_x/2) sinc((ky_i - ky_l) L_y/2),
    and a mirror image of term l negates kx_l or ky_l alone, so the mirror sums
    read one sinc table per axis and sign: 2 N^2 sinc evaluations."""
    m = expansion.order
    a = (m + 1) // 2
    n = a * a
    # before any n x n temporary, so that the heap does not grow past them
    out = np.zeros((2, 2, n, n))
    # kappa_x takes only `order` distinct values, each repeated over one chord
    kx = expansion.kappa[::m, 0][:a]
    ky = expansion.kappa[:, 1].reshape(m, m)[:a, :a].ravel()
    qx, qy = ([_sinc(np.subtract.outer(k, s * k) * (0.5 * side)) for s in (1.0, -1.0)]
              for k, side in ((kx, aperture.length_x), (ky, aperture.length_y)))
    _mirror_sums(lambda sx, sy: (qy[sy].reshape(a, a, a, a)
                                 * (aperture.area * qx[sx])[:, None, :, None]).reshape(n, n), out)
    scale = 2.0 * _grid_weights((m, m), 0.5).ravel()
    out *= np.multiply.outer(scale, scale)
    return out.reshape(4, n, n)


@dataclass(frozen=True, eq=False)
class InverseOperatorData:
    """Factored resolvent shared by every steering direction.

    I + Lambda Q is similar to the symmetric positive definite form
    S = I + Lambda^1/2 Q Lambda^1/2.  S is unchanged by the reflections
    x -> -x and y -> -y, so in the orthonormal basis of terms even or odd in
    each axis (_fold) it is block diagonal: four parity blocks, of about n/4
    rows each, B_k = I + Lambda_k^1/2 Q_k Lambda_k^1/2 = L_k L_k^T for the
    Gram's blocks Q_k and the first-quadrant coefficients Lambda_k, and
    (I + Lambda Q)^-1 = Lambda^1/2 U^T diag(L_k^-T L_k^-1) U Lambda^-1/2 for
    the basis change U.  factor holds the L_k as one stack (4, N, N) over
    N = ceil(M/2)^2 rows, a smaller block padded with identity rows;
    each direction's solve is one stacked triangular substitution, two for
    the projection.
    """

    order: int
    lambda_diag: np.ndarray = field(repr=False)
    factor: CholeskyFactor = field(repr=False)


def inverse_operator(expansion: PlaneWaveExpansion, gram: np.ndarray,
                     surface_resistance: float) -> InverseOperatorData:
    """Resolvent (I + Lambda Q)^-1 of the expansion/aperture pair, factored.

    gram holds the Gram matrix Q as its four parity blocks (4, N, N), as
    gram_matrix returns them, and Lambda is the diagonal of expansion
    coefficients over the surface resistance.  The expansion is invariant
    under both reflections by construction.  Each block Q_k is scaled by the
    first-quadrant Lambda^1/2 on both sides and I is added, and the blocks
    are factored as one stacked Cholesky: about n^3/48 flops instead of
    n^3/3, and no inverse of the system is formed.  A system that is not
    positive definite reports the condition estimate of its worst block.
    """
    _require_positive("surface resistance", surface_resistance, module="kernel_approx")
    m = expansion.order
    a = (m + 1) // 2
    if np.shape(gram) != (4, a * a, a * a):
        raise DomainError(f"gram must have shape (4, {a * a}, {a * a})", module="kernel_approx")
    # Lambda overflows at a tiny surface resistance; cholesky refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        lam = expansion.coefficients / surface_resistance
        root = np.sqrt(lam).reshape(m, m)[:a, :a].ravel()
        system = gram * root[:, None]
        system *= root
    factor = cholesky(system, "resolvent system is not positive definite", "kernel_approx",
                      shift=1.0)
    return InverseOperatorData(order=m, lambda_diag=lam, factor=factor)


def channel_moments(channel: FarFieldChannel, expansion: PlaneWaveExpansion,
                    aperture: Aperture) -> np.ndarray:
    """Aperture inner products between the conjugate channel and each plane wave;
    the x factor is taken once per chord, where kappa_x is constant."""
    m = expansion.order
    kx, ky = channel.wavevector[:2]
    mx = np.repeat(_sinc((expansion.kappa[::m, 0] - kx) * (0.5 * aperture.length_x)), m)
    my = _sinc((expansion.kappa[:, 1] - ky) * (0.5 * aperture.length_y))
    return np.conj(channel.amplitude) * aperture.area * mx * my


def _closed_form_gains(inverse: InverseOperatorData, moments: np.ndarray,
                       matched_energy, surface_resistance: float):
    """Whitened moments L^-1 U Lambda^1/2 a and gains 2 (eta - penalty) / Zs
    of one direction (moments (n,)) or of D directions (moments (n, D)).

    U folds the moments into the four reflection-parity blocks, and L holds the
    blocks' Cholesky factors, so the whitened moments are (4, N) or (4, N, D).
    penalty = a^H (I + Lambda Q)^-1 Lambda a = ||L^-1 U Lambda^1/2 a||^2, the sum
    of the four block penalties; the gain eta - penalty cancels about 1e4-fold,
    so the penalty comes from the backward-stable substitution with the
    Cholesky factors, not an inverse of the non-symmetric system.
    """
    root = np.sqrt(inverse.lambda_diag).reshape((-1,) + (1,) * (moments.ndim - 1))
    whitened = inverse.factor.solve(_fold(root * moments, (inverse.order, inverse.order)))
    penalty = np.sum(whitened.real ** 2 + whitened.imag ** 2, axis=(0, 1))
    net = matched_energy - penalty
    if np.any(net <= 0.0):
        raise NumericError("matched energy does not exceed the coupling penalty; "
                           "closed form is numerically inconsistent", module="kernel_approx")
    return whitened, 2.0 * net / surface_resistance


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
    gain: float
    scale: float

    @cached_property
    def projection(self) -> np.ndarray:
        """Lambda^1/2 U^T L^-T L^-1 U Lambda^1/2 a, the expansion-wave amplitudes."""
        inverse = self.inverse
        return np.sqrt(inverse.lambda_diag) * _unfold(
            inverse.factor.solve(self.whitened, transpose=True), (inverse.order, inverse.order))

    def __call__(self, points) -> np.ndarray:
        s = np.asarray(points, dtype=float)
        waves = self.expansion.wave_sum(self.projection, s)
        out = self.scale * (np.conj(self.channel(s)) - waves)
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
    _require_positive("transmit power", power, module="kernel_approx")
    _require_radiating(channel, "kernel_approx")
    if inverse is None:
        inverse = inverse_operator(expansion, gram_matrix(expansion, aperture),
                                   cfg.surface_resistance)
    a = channel_moments(channel, expansion, aperture)
    eta = aperture.area * abs(channel.amplitude) ** 2
    whitened, gain = _closed_form_gains(inverse, a, eta, cfg.surface_resistance)
    # power = scale^2 * Zs * (eta - penalty) / 2 = (scale * Zs)^2 * gain / 4
    scale = float(np.sqrt(4.0 * power / gain) / cfg.surface_resistance)
    return ClosedFormBeamformer(channel=channel, expansion=expansion, aperture=aperture,
                                surface_resistance=cfg.surface_resistance, power=power,
                                whitened=whitened, inverse=inverse,
                                matched_energy=eta, gain=float(gain), scale=scale)

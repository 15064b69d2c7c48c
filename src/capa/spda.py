"""Spatially discrete arrays: identical elements on a centered uniform lattice.

An array is nx by ny elements at one pitch, centered on the aperture.  Each
element is a small rectangle carrying the uniform unit-energy current;
mutual coupling between elements integrates the radiation kernel over both
element surfaces.  Per axis, the two uniform currents convolve to a hat,
int int f(u - v) du dv = int f(t) (e - |t|) dt over |t| < e for side e, so
the four-fold integral is a 2-D one, taken by the Gauss rule of the hat weight
(the kink is the weight's, not the kernel's).  The kernel is entire, so the
rule's error falls with the element's width in wavelengths (Trefethen, SIAM
Review 50, 2008): by default each axis takes the fewest nodes q with
(k e / 2)^(2q) / (2q)! <= 1e-14 for its side e, qx qy kernel evaluations per
center offset, 36 for the default tenth-of-a-wavelength element, 64 at a
quarter wavelength and 196 at one wavelength; point coupling, the element
area times the kernel at the center offset, is the one-node rule (order 1).
The coupling depends only on the center offset, (i - j) pitch per axis, and is
even in each, so one table over the integer steps |i - j| holds the
block-Toeplitz coupling matrix.  The optimal drive vector and its gain follow
from one symmetric positive-definite solve.  Reversing either axis keeps every
step, so the matrix splits into four reflection-parity blocks
(quadrature._fold; Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal.
29, 1992), mirror sums of the step table (quadrature._table_blocks) factored
as one stacked Cholesky, so no N x N matrix is gathered.  A coupling-blind
model is solved elementwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._linalg import cholesky
from .errors import DomainError, NumericError
from .physics import (Aperture, FarFieldChannel, PhysicalConfig, _is_count, _require_finite,
                      _require_positive, _sinc, radiation_kernel)
from .quadrature import _MAX_ORDER, _fold, _offset_table, _table_blocks, _unfold, legendre_rule

# log of the Gauss error term (k e / 2)^(2q) / (2q)! a derived hat rule reaches
_LOG_HAT_RULE_TOL = math.log(1e-14)


@dataclass(frozen=True)
class SpdaModel:
    """Centered uniform lattice of identical rectangular elements in z = 0.

    nx by ny elements sit pitch apart on each axis, centered on the origin,
    x-major; x and y are the ascending center coordinates per axis.  Each is
    an element_x by element_y rectangle carrying the uniform unit-energy
    current 1/sqrt(element area); order counts the nodes per axis of the hat
    rule that integrates its coupling (_hat_rule), 1 being the point rule.
    By default (None) each axis takes the fewest nodes that hold its side at
    the coupling's wavenumber to a Gauss error term of 1e-14 (_hat_order):
    4 nodes at 0.02 wavelengths, 6 at 0.1, 8 at 0.25, 10 at 0.5, 14 at 1 and
    19 at 2, within 2.1e-14 of the self term on 4 x 4 tiles at each of these
    sides (8.8e-16 at 0.02).
    A side that would need more than 512 nodes, about 117 wavelengths, is
    refused when its coupling is built.  Elements may touch but not overlap.
    """

    nx: int
    ny: int
    pitch: float
    element_x: float
    element_y: float
    order: int | None = None

    def __post_init__(self):
        if not (_is_count(self.nx) and _is_count(self.ny)):
            raise DomainError("element counts must be integers of at least 1", module="spda")
        _require_positive("lattice pitch", self.pitch, module="spda")
        _require_positive("element side lengths", self.element_x, self.element_y, module="spda")
        _require_positive("element area", self.element_area, module="spda")
        if self.order is not None:
            legendre_rule(self.order)  # DomainError unless an integer in [1, 512]
        for name, count, side in (("x", self.nx, self.element_x), ("y", self.ny, self.element_y)):
            if count > 1 and self.pitch < side - 1e-12:
                raise DomainError(f"element surfaces overlap: the pitch must be at least "
                                  f"the element side along {name}", module="spda")

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - 0.5 * (self.nx - 1)) * self.pitch

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - 0.5 * (self.ny - 1)) * self.pitch

    @property
    def centers(self) -> np.ndarray:
        """Element centers, shape (N, 3), x-major, in z = 0."""
        nx, ny = self.nx, self.ny
        return np.column_stack([np.repeat(self.x, ny), np.tile(self.y, nx), np.zeros(nx * ny)])

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def element_area(self) -> float:
        return self.element_x * self.element_y


def element_layout(aperture: Aperture, spacing: float, element_x: float,
                   element_y: float, order: int | None = None) -> SpdaModel:
    """Centered lattice of identical elements filling the aperture at a pitch.

    The element count per axis is the number of whole pitches that fit; the
    lattice is centered so every element lies inside the aperture.
    """
    _require_positive("element spacing", spacing, module="spda")
    if element_x > spacing or element_y > spacing:
        raise DomainError("element does not fit inside the lattice pitch", module="spda")
    # tiny slack so representable lengths like L = n*d count n pitches
    nx = int(np.floor(aperture.length_x / spacing + 1e-9))
    ny = int(np.floor(aperture.length_y / spacing + 1e-9))
    if nx < 1 or ny < 1:
        raise DomainError("aperture is smaller than one lattice pitch", module="spda")
    return SpdaModel(nx, ny, float(spacing), float(element_x), float(element_y), order=order)


# typed, like legendre_rule, so that 8.0 and True are checked rather than served
@lru_cache(maxsize=None, typed=True)
def _unit_hat_rule(order: int):
    """Order-node Gauss rule of the weight 1 - |x| on [-1, 1], nodes ascending.

    Discretized Stieltjes (Gautschi 2004) on order Gauss-Legendre nodes per
    half, exact for every moment it reads (degree <= 2 order - 2; the
    diagonal is 0 by symmetry), then Golub-Welsch (Math. Comp. 23, 1969) on
    the Jacobi matrix, mirrored so the halves match bit for bit.
    """
    rule = legendre_rule(order)
    t = 0.5 * (1.0 + rule.nodes)
    half = 0.5 * rule.weights * (1.0 - t)
    x, w = np.concatenate([-t[::-1], t]), np.concatenate([half[::-1], half])
    # orthonormal recurrence p_(k+1) b_(k+1) = x p_k - b_k p_(k-1); the unit hat has mass 1
    p_prev, p, b = np.zeros_like(x), np.ones_like(x), np.zeros(order)
    for k in range(1, order):
        q = x * p - b[k - 1] * p_prev
        b[k] = np.sqrt(w @ (q * q))
        p_prev, p = p, q / b[k]
    nodes, vectors = np.linalg.eigh(np.diag(b[1:], -1))
    weights = vectors[0] ** 2
    nodes, weights = 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _hat_rule(side: float, order: int):
    """Nodes on [-side, side] and weights of int f(t) (side - |t|) dt, the
    hat two uniform currents of width side convolve to: the unit hat rule
    scaled to side."""
    nodes, weights = _unit_hat_rule(order)
    return side * nodes, side * side * weights


def _hat_order(side: float, wavenumber: float) -> int:
    """Nodes per axis of the hat rule for side at wavenumber k: the fewest q
    with (k side / 2)^(2q) / (2q)! <= 1e-14.  That is the q-node Gauss error
    term, up to a factor of order q, of an integrand whose 2q-th derivative
    is k^(2q) times its size, as the radiation kernel's is: the q-th monic
    orthogonal polynomial on [-side, side] is of size (side / 2)^q.
    DomainError when q would exceed legendre_rule's 512."""
    log_half = math.log(0.5 * wavenumber * side)
    for q in range(1, _MAX_ORDER + 1):
        if 2 * q * log_half - math.lgamma(2 * q + 1) <= _LOG_HAT_RULE_TOL:
            return q
    raise DomainError(f"element side {side:g} m needs more than {_MAX_ORDER} hat-rule nodes "
                      f"per axis", module="spda")


def _pair_integrals(offsets: np.ndarray, model: SpdaModel, cfg: PhysicalConfig):
    """Kernel integrated over two elements whose centers are offsets (K, 3) apart.

    With the uniform current 1/sqrt(area) on both, the integral is
    sum over (tx, ty) of W_x(tx) W_y(ty) K(offset + (tx, ty, 0)) / area for
    the hat rule of each side, of the model's order or else _hat_order's:
    qx qy kernel evaluations per offset.
    """
    (tx, wx), (ty, wy) = (_hat_rule(side, model.order or _hat_order(side, cfg.wavenumber))
                          for side in (model.element_x, model.element_y))
    delta = np.stack(np.broadcast_arrays(tx[:, None], ty, 0.0), axis=-1).reshape(-1, 3)
    w_xy = np.outer(wx, wy).ravel() / model.element_area
    vals = np.empty(offsets.shape[0])
    # about 2^20 displacements per block: it bounds only the displacement array
    # (radiation_kernel blocks its own temporaries), and the @ w_xy sums round with it
    block = max(1, 2 ** 20 // delta.shape[0])
    for start in range(0, offsets.shape[0], block):
        kern = radiation_kernel(offsets[start:start + block, None, :] + delta, cfg.wavenumber)
        vals[start:start + block] = kern @ w_xy
    return vals


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Mutual-coupling data of a discrete array.

    table (nx, ny) holds the radiated-coupling integral of the elements
    (|i - j|, |k - l|) lattice steps apart, the zero offset first, so each
    pair's table index is its step per axis; the full matrix adds the
    per-element self impedance on the diagonal.  A coupling-blind model
    (diagonal) keeps only the zero-offset entry on the diagonal.
    """

    table: np.ndarray = field(repr=False)
    self_impedance: float
    diagonal: bool = False

    @property
    def shape(self) -> tuple:
        """(elements along x, elements along y)."""
        return self.table.shape

    @property
    def size(self) -> int:
        return self.table.size

    def diagonal_only(self) -> "CouplingMatrix":
        """Coupling-blind variant: off-diagonal radiation terms dropped."""
        return replace(self, diagonal=True)


def coupling_matrix(model: SpdaModel, cfg: PhysicalConfig,
                    mode: str = "exact") -> CouplingMatrix:
    """Pairwise coupling of all elements.

    Each pair integrates the kernel over both element surfaces by the hat
    rule of the model's order, or of each side's derived order (_hat_order),
    on each axis, qx qy kernel evaluations per pair.  Order 1 is the point
    rule: every pair, the diagonal included, is the element area times the
    kernel at the center offset (A K(0) on the diagonal), a sampled
    positive-definite function.  mode "point" is shorthand for order 1, kept
    for existing callers; "exact" keeps the model's order.  A pair's value
    depends only on its per-axis steps (|i - j|, |k - l|) and is tabulated
    once per distinct pair, at the center offset of those steps times the
    pitch; the table is all the result keeps.
    """
    if mode not in ("exact", "point"):
        raise DomainError("mode must be 'exact' or 'point'", module="spda")
    if mode == "point":
        model = replace(model, order=1)
    table = _offset_table(np.arange(model.nx), np.arange(model.ny),
                          lambda steps: _pair_integrals(steps * model.pitch, model, cfg))[0]
    # the element current carries unit energy, so its loss is Zs exactly
    return CouplingMatrix(table=table, self_impedance=cfg.surface_resistance)


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

    The coupling matrix is factored as its four parity blocks, summed from
    its step table, by one stacked Cholesky, and the drive follows by two
    triangular substitutions.  A diagonal coupling (from diagonal_only) is
    solved elementwise.
    """
    _require_positive("transmit power", power, module="spda")
    h = np.asarray(h, dtype=complex)
    if h.shape != (coupling.size,):
        raise DomainError("channel vector length does not match the coupling matrix",
                          module="spda")
    _require_finite("channel vector", h, module="spda")
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
        steps = (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) for n in shape)
        blocks = _table_blocks(coupling.table, *steps)
        factor = cholesky(blocks, "coupling matrix is not positive definite", "spda",
                          shift=coupling.self_impedance)
        whitened = factor.solve(_fold(h, shape))
        direction = _unfold(factor.solve(whitened, transpose=True), shape)
    inner = float(np.vdot(whitened, whitened).real)
    if inner <= 0.0:
        raise NumericError("whitened channel energy is non-positive", module="spda")
    weights = np.sqrt(2.0 * power / inner) * direction
    return DiscreteBeamformer(weights=weights, gain=2.0 * inner, power=power)


def lattice_gains(cfg: PhysicalConfig, channel: FarFieldChannel, aperture: Aperture,
                  spacing: float, element_x: float, element_y: float,
                  order: int | None = None) -> tuple:
    """Element count, coupled gain and coupling-blind gain of element_layout's
    lattice on aperture at spacing, its coupling integrated by the hat rule of
    order (None derives it per side, 1 is point coupling).  The coupling-blind
    drive is solved elementwise."""
    model = element_layout(aperture, spacing, element_x, element_y, order)
    coupling = coupling_matrix(model, cfg)
    h = discrete_channel(model, channel)
    return (model.n_elements, optimal_discrete_beamformer(h, coupling).gain,
            optimal_discrete_beamformer(h, coupling.diagonal_only()).gain)

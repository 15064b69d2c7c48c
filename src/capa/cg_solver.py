"""Preconditioned conjugate-gradient solution of the coupling-aware beamforming equation.

The optimality condition, a Fredholm integral equation of the second kind, is
discretized on the tensor Gauss-Legendre grid of the aperture.  In weighted
coordinates y = W^1/2 x its operator is H + Zs I, H = W^1/2 K W^1/2.  The grid
is symmetric about 0 on each axis and the kernel depends only on |dx| and |dy|,
so H is block diagonal in the basis of grid functions even or odd in each axis
(quadrature._fold; Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 29,
1992).  The four blocks are mirror sums of one kernel table over the distinct
per-axis |offsets| (quadrature._table_blocks); no M^2 x M^2 matrix is formed.
Each block is preconditioned by a randomized Nystrom approximation (Frangella,
Tropp & Udell, arXiv:2110.02820) of fixed seed, whose rank starts at 32 and
doubles, reusing the columns drawn, until its smallest eigenvalue is at most
10 Zs, capped at half the block's real rows; a block of Frobenius norm at most
10 Zs gets rank 0.  The blocks then run conjugate-gradient recurrences in
lockstep, stopped on the summed weighted residual of the unpreconditioned
system.  beamform_cg reuses the read-only operator and preconditioner of its
last call with the same configuration, aperture and order, since the steering
direction enters only the right-hand side.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ConvergenceError, DomainError, NumericError
from .physics import (Aperture, FarFieldChannel, PhysicalConfig, _is_count, _require_finite,
                      _require_positive, _require_radiating, radiation_kernel)
from .quadrature import (ApertureGrid, _fold, _offset_table, _parity_rows, _table_blocks,
                         _unfold, aperture_grid)

_SKETCH_SEED = 20251
_SKETCH_START_RANK = 32
_RANK_MARGIN = 10.0
_RETRY_SHIFT = 1e-8


@dataclass(frozen=True, eq=False)
class NystromPreconditioner:
    """Inverse of each parity block's stabilized Nystrom preconditioner,
    P^-1 = (lam_min + Zs) U (diag(lam) + Zs)^-1 U^T + (I - U U^T), stored as
    the orthonormal bases U (4, N, R), zero on padding rows and columns, and
    shrink = (lam_min + Zs) / (lam + Zs) - 1 (4, R); ranks holds each block's rank.
    """

    basis: np.ndarray = field(repr=False)
    shrink: np.ndarray = field(repr=False)
    ranks: tuple

    def apply(self, residual: np.ndarray) -> np.ndarray:
        """P^-1 residual for weighted parity-block values (4, N, 2)."""
        coords = self.basis.transpose(0, 2, 1) @ residual
        return residual + self.basis @ (self.shrink[:, :, None] * coords)


def _nystrom_sketch(block: np.ndarray, surface_resistance: float, rng):
    """Basis and shrink of one block's preconditioner, by the rank rule.

    On an electrically small aperture rounding can leave the sketch core
    indefinite; it is then shifted by _RETRY_SHIFT Zs, which next to Zs the
    preconditioner cannot tell from zero."""
    n = block.shape[0]
    test = sketch = np.empty((n, 0))
    # no eigenvalue exceeds the Frobenius norm: rank 0 meets the rank rule
    if np.linalg.norm(block) <= _RANK_MARGIN * surface_resistance:
        return test, np.empty(0)
    cap = max(1, n // 2)
    rank = min(_SKETCH_START_RANK, cap)
    while True:
        new = rng.standard_normal((n, rank - test.shape[1]))
        # two Gram-Schmidt passes keep the new columns orthogonal to the kept ones
        for _ in range(2):
            new -= test @ (test.T @ new)
        new = np.linalg.qr(new)[0]
        test, sketch = np.hstack([test, new]), np.hstack([sketch, block @ new])
        shift = np.sqrt(n) * np.finfo(float).eps * np.linalg.norm(sketch)
        for retry in (False, True):
            shifted = sketch + shift * test
            try:
                lower = np.linalg.cholesky(test.T @ shifted)
                basis, sv, _ = np.linalg.svd(np.linalg.solve(lower, shifted.T).T,
                                             full_matrices=False)
                break
            except np.linalg.LinAlgError as exc:
                if retry:
                    raise NumericError("Nystrom sketch is not finite and positive definite; "
                                       "discretized operator lost definiteness",
                                       module="cg_solver") from exc
                shift = max(shift, _RETRY_SHIFT * surface_resistance)
        eigs = np.maximum(sv ** 2 - shift, 0.0)
        if eigs[-1] <= _RANK_MARGIN * surface_resistance or rank == cap:
            return basis, (eigs[-1] + surface_resistance) / (eigs + surface_resistance) - 1.0
        rank = min(2 * rank, cap)


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Coupling operator on an aperture quadrature grid: the weighted kernel
    W^1/2 K W^1/2 as its four parity blocks (4, N, N), zero on padding, plus
    the surface-resistance identity term."""

    config: PhysicalConfig
    grid: ApertureGrid
    blocks: np.ndarray = field(repr=False)

    @property
    def surface_resistance(self) -> float:
        return self.config.surface_resistance

    @cached_property
    def preconditioner(self) -> NystromPreconditioner:
        """Nystrom preconditioner of each block's real rows, built on first use."""
        rng = np.random.default_rng(_SKETCH_SEED)
        rows = _parity_rows(self.grid.shape)
        factors = [_nystrom_sketch(block[np.ix_(real, real)], self.surface_resistance, rng)
                   for block, real in zip(self.blocks, rows)]
        ranks = tuple(shrink.size for _, shrink in factors)
        basis = np.zeros(self.blocks.shape[:2] + (max(ranks),))
        shrink = np.zeros((4, max(ranks)))
        for k, (u, s) in enumerate(factors):
            basis[k, rows[k], :s.size] = u
            shrink[k, :s.size] = s
        # shared by every solve on this operator, so no caller may write to them
        basis.setflags(write=False)
        shrink.setflags(write=False)
        return NystromPreconditioner(basis=basis, shrink=shrink, ranks=ranks)


def discretize_operator(cfg: PhysicalConfig, grid: ApertureGrid) -> DiscretizedOperator:
    """Weighted parity blocks of the radiation kernel between the grid points,
    gathered from its values at the distinct (|dx|, |dy|) pairs of the grid."""
    m = grid.order
    a = (m + 1) // 2
    axes = grid.points.reshape(m, m, 3)
    blocks = _table_blocks(*_offset_table(axes[:, 0, 0], axes[0, :, 1], lambda offsets:
                                          radiation_kernel(offsets, cfg.wavenumber)))
    root = np.sqrt(grid.weights).reshape(m, m)[:a, :a].ravel()
    blocks *= np.multiply.outer(root, root)
    blocks.setflags(write=False)
    return DiscretizedOperator(config=cfg, grid=grid, blocks=blocks)


# Re u^H v of each block of two weighted parity-block values (4, N, 2)
_dot = partial(np.einsum, "kij,kij->k")


def _weighted_apply(op: DiscretizedOperator, values: np.ndarray) -> np.ndarray:
    """(H + Zs I) values for weighted parity-block values (4, N, 2): real and
    imaginary parts on the last axis, so the blocks are never upcast."""
    return op.blocks @ values + op.surface_resistance * values


def _folded(op: DiscretizedOperator, values: np.ndarray) -> np.ndarray:
    """Complex grid values as weighted parity-block values (4, N, 2)."""
    values = np.sqrt(op.grid.weights) * np.asarray(values, dtype=complex)
    return _fold(np.stack([values.real, values.imag], axis=-1), op.grid.shape)


def _unfolded(op: DiscretizedOperator, values: np.ndarray) -> np.ndarray:
    """Inverse of _folded."""
    grid = _unfold(values, op.grid.shape) / np.sqrt(op.grid.weights)[:, None]
    return grid[:, 0] + 1j * grid[:, 1]


def apply_operator(op: DiscretizedOperator, values: np.ndarray) -> np.ndarray:
    """Apply the discretized coupling operator: kernel convolution plus loss term."""
    return _unfolded(op, _weighted_apply(op, _folded(op, values)))


@dataclass(frozen=True, eq=False)
class CgState:
    """Conjugate-gradient iterate, on the grid, and per-iteration history.

    preconditioner_rank sums the blocks' ranks.  gain_bounds[i] brackets the
    gain -4 J(v*) of the grid solution v* before iteration i by (-4 J(v_i),
    -4 J(v_i) + 2 r_i^H W P^-1 r_i / Zs), J the functional: J(v_i) - J(v*) is
    |v_i - v*|_A^2 / 2, and every eigenvalue of P^-1 A is at least Zs.
    """

    values: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)
    iterations: int
    converged: bool
    residual_norms: np.ndarray = field(repr=False)
    functional_values: np.ndarray = field(repr=False)
    gain_bounds: np.ndarray = field(repr=False)
    preconditioner_rank: int


def solve_fredholm(op: DiscretizedOperator, rhs: np.ndarray, tol: float = 1e-8,
                   max_iter: int = 10_000, init: str = "zero",
                   seed: int | None = None) -> CgState:
    """Preconditioned conjugate gradients on the grid-discretized coupling equation.

    rhs holds the conjugate channel sampled on the grid.  Each parity block runs
    its own recurrence, in lockstep; a block whose residual is exactly zero
    (three of four at front-fire) stays as it is.  residual_norms[i] is the
    weighted residual norm of the unpreconditioned system, summed over the
    blocks, before iteration i, relative to that of rhs; the solve converges
    when it falls below tol.  functional_values tracks the quadratic objective
    whose stationary point is the solution, which must decrease monotonically.
    A non-finite residual or a curvature that is not positive raises NumericError.
    """
    _require_positive("tolerance", tol, module="cg_solver")
    if not _is_count(max_iter):
        raise DomainError("max_iter must be an integer of at least 1", module="cg_solver")
    _require_finite("right-hand side", rhs, module="cg_solver")
    b = _folded(op, rhs)
    b_norm2 = float(np.sum(_dot(b, b)))
    if b_norm2 <= 0.0:
        raise DomainError("right-hand side has zero weighted norm", module="cg_solver")
    if init == "zero":
        y = np.zeros_like(b)
    elif init == "random":
        draw = np.random.default_rng(seed).standard_normal
        y = _folded(op, draw(op.grid.size) + 1j * draw(op.grid.size))
    else:
        raise DomainError("init must be 'zero' or 'random'", module="cg_solver")
    precond = op.preconditioner
    history = []

    def observe(y, r):
        rel = np.sqrt(np.sum(_dot(r, r)) / b_norm2)
        if not np.isfinite(rel):
            raise NumericError(f"residual is not finite after {iterations} iterations",
                               module="cg_solver")
        z = precond.apply(r)
        rz = _dot(r, z)
        # J(y) = y^H (H + Zs) y / 2 - Re b^H y, with (H + Zs) y = b - r
        functional = float(np.sum(0.5 * _dot(y, b - r) - _dot(b, y)))
        history.append((rel, functional, -4.0 * functional,
                        -4.0 * functional + 2.0 * np.sum(rz) / op.surface_resistance))
        return rel, z, rz

    iterations = 0
    r = b - _weighted_apply(op, y)
    rel, p, rz = observe(y, r)
    while rel >= tol and iterations < max_iter:
        ap = _weighted_apply(op, p)
        curvature = _dot(p, ap)
        active = rz > 0.0
        if not np.all(curvature[active] > 0.0):
            raise NumericError("search-direction curvature is not positive; "
                               "discretized operator lost definiteness", module="cg_solver")
        alpha = np.divide(rz, curvature, out=np.zeros(4), where=active)[:, None, None]
        y = y + alpha * p
        r = r - alpha * ap
        iterations += 1
        rel, z, rz_next = observe(y, r)
        if rel >= tol:
            p = z + np.divide(rz_next, rz, out=np.zeros(4), where=active)[:, None, None] * p
            rz = rz_next
    converged = rel < tol
    history = np.array(history)
    state = CgState(values=_unfolded(op, y), residual=_unfolded(op, r), iterations=iterations,
                    converged=converged, residual_norms=history[:, 0],
                    functional_values=history[:, 1], gain_bounds=history[:, 2:],
                    preconditioner_rank=sum(precond.ranks))
    if not converged:
        raise ConvergenceError(f"conjugate gradients did not reach tol {tol:.1e} "
                               f"in {max_iter} iterations (residual {rel:.3e})",
                               module="cg_solver", state=state)
    return state


@dataclass(frozen=True, eq=False)
class FredholmSolution:
    """Normalized beamformer synthesized from a grid solution.

    The object is callable on surface points and evaluates the continuous
    transmit distribution; grid_values holds the unnormalized solution on the
    quadrature grid and scale the power normalization factor.
    """

    operator: DiscretizedOperator
    channel: FarFieldChannel
    power: float
    grid_values: np.ndarray = field(repr=False)
    scale: complex
    matched_inner: complex
    state: CgState | None = field(default=None, repr=False)

    @property
    def gain(self) -> float:
        return 2.0 * float(np.real(self.matched_inner))

    def solution_field(self, points) -> np.ndarray:
        """Continuous unnormalized solution off the grid.

        Uses the equation itself: the conjugate channel minus the kernel
        convolution of the grid solution, over the surface resistance.
        """
        s = np.asarray(points, dtype=float)
        grid_pts = self.operator.grid.points
        disp = s[..., None, :] - grid_pts
        kern = radiation_kernel(disp, self.operator.config.wavenumber)
        conv = kern @ (self.operator.grid.weights * self.grid_values)
        out = (np.conj(self.channel(s)) - conv) / self.operator.surface_resistance
        return complex(out) if np.ndim(out) == 0 else out

    def __call__(self, points) -> np.ndarray:
        return self.scale * self.solution_field(points)


def synthesize_beamformer(op: DiscretizedOperator, channel: FarFieldChannel,
                          state: CgState, power: float = 1.0) -> FredholmSolution:
    """Power-normalize a grid solution into a transmit beamformer."""
    _require_positive("transmit power", power, module="cg_solver")
    h = channel(op.grid.points)
    inner = np.sum(op.grid.weights * h * state.values)
    if np.real(inner) <= 0.0:
        raise NumericError("channel/solution inner product has non-positive real part; "
                           "solution is inconsistent", module="cg_solver")
    scale = np.sqrt(2.0 * power / inner)
    return FredholmSolution(operator=op, channel=channel, power=power,
                            grid_values=state.values, scale=complex(scale),
                            matched_inner=complex(inner), state=state)


# One slot: callers loop over directions inside one order, and a larger cache
# would hold order^4 / 4 block entries per entry.  typed, so that 12.0 and True
# reach legendre_rule's check rather than the operators of orders 12 and 1.
@lru_cache(maxsize=1, typed=True)
def _operator(cfg: PhysicalConfig, aperture: Aperture, order: int) -> DiscretizedOperator:
    return discretize_operator(cfg, aperture_grid(aperture, order))


def beamform_cg(cfg: PhysicalConfig, channel: FarFieldChannel, aperture: Aperture,
                order: int, power: float = 1.0, tol: float = 1e-8,
                max_iter: int = 10_000, init: str = "zero",
                seed: int | None = None) -> FredholmSolution:
    """Discretize, solve, and normalize in one call.

    The operator and its preconditioner are those of the last call with the
    same cfg, aperture and order, when there was one.
    """
    _require_radiating(channel, "cg_solver")
    op = _operator(cfg, aperture, order)
    rhs = np.conj(channel(op.grid.points))
    state = solve_fredholm(op, rhs, tol=tol, max_iter=max_iter, init=init, seed=seed)
    return synthesize_beamformer(op, channel, state, power=power)

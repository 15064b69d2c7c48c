"""Preconditioned conjugate-gradient solution of the coupling-aware beamforming equation.

The optimality condition is a Fredholm integral equation of the second kind:
the coupling operator applied to the transmit distribution must reproduce the
conjugate channel over the aperture.  It is discretized on the tensor
Gauss-Legendre grid and solved by preconditioned conjugate gradients in the
grid's weighted inner product.  The kernel depends on a separation only
through dx^2 and dy^2, so its grid matrix is gathered from one table over the
distinct per-axis |offsets|: about (M^2/4)^2 kernel evaluations at order M
instead of M^4, with every entry the value its own pair gives.

In weighted coordinates y = W^1/2 x the operator is H + Zs I with
H = W^1/2 K W^1/2 positive semidefinite.  H has a fixed number of eigenvalues
above the surface resistance Zs (set by the aperture size in wavelengths, not
by the grid order), so a randomized Nystrom approximation U diag(lam) U^T of
H (Frangella, Tropp & Udell, arXiv:2110.02820) preconditions the system to a
condition number of about (lam_min + Zs) / Zs.  The sketch rank starts at 32
and doubles, reusing the columns already drawn, until the smallest retained
eigenvalue lam_min is at most 10 Zs; it is capped at half the grid size.  The
sketch seed is fixed, so a given configuration reproduces its output exactly.

The operator and its preconditioner depend on the configuration, the aperture
and the grid order, not on the steering direction, which enters only the
right-hand side.  beamform_cg therefore reuses the operator and preconditioner
of its last call with the same configuration, aperture and order; it keeps
one operator at a time, so callers that loop over directions inside one order
build each operator once.  Every array the operator holds is read-only.

The stopping test and the recorded residuals use the weighted residual of the
unpreconditioned system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import real_matvec
from .errors import ConvergenceError, DomainError, NumericError
from .physics import Aperture, FarFieldChannel, PhysicalConfig, radiation_kernel
from .quadrature import ApertureGrid, _pair_matrix, aperture_grid

_SKETCH_SEED = 20251
_SKETCH_START_RANK = 32
_RANK_MARGIN = 10.0
_RETRY_SHIFT = 1e-8


@dataclass(frozen=True, eq=False)
class NystromPreconditioner:
    """Inverse of the stabilized Nystrom preconditioner in weighted coordinates.

    P^-1 = (lam_min + Zs) U (diag(lam) + Zs)^-1 U^T + (I - U U^T), stored as
    the orthonormal basis U and shrink = (lam_min + Zs) / (lam + Zs) - 1.
    """

    basis: np.ndarray = field(repr=False)
    shrink: np.ndarray = field(repr=False)
    root_weights: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def apply(self, residual: np.ndarray) -> np.ndarray:
        """W^-1/2 P^-1 W^1/2 residual: the preconditioner in grid coordinates."""
        y = self.root_weights * residual
        y = y + real_matvec(self.basis, self.shrink * real_matvec(self.basis.T, y))
        return y / self.root_weights


def _nystrom_factors(test: np.ndarray, sketch: np.ndarray, surface_resistance: float):
    """Eigenpairs of the Nystrom approximation from an orthonormal test matrix
    and its image under H, with the shift that keeps the core factorable.

    On an electrically small aperture H is so small that rounding can leave
    the core indefinite; it is then shifted by _RETRY_SHIFT Zs, which next to
    Zs the preconditioner cannot tell from zero."""
    shift = np.sqrt(test.shape[0]) * np.finfo(float).eps * np.linalg.norm(sketch)
    for retry in (False, True):
        shifted = sketch + shift * test
        try:
            lower = np.linalg.cholesky(test.T @ shifted)
            basis, sv, _ = np.linalg.svd(np.linalg.solve(lower, shifted.T).T,
                                         full_matrices=False)
            return basis, np.maximum(sv ** 2 - shift, 0.0)
        except np.linalg.LinAlgError as exc:
            if retry:
                raise NumericError("Nystrom sketch is not finite and positive definite; "
                                   "discretized operator lost definiteness",
                                   module="cg_solver") from exc
            shift = max(shift, _RETRY_SHIFT * surface_resistance)


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Coupling operator restricted to an aperture quadrature grid.

    kernel_matrix holds the radiation kernel between every pair of grid
    points; the full operator adds the surface-resistance identity term.
    """

    config: PhysicalConfig
    grid: ApertureGrid
    kernel_matrix: np.ndarray = field(repr=False)

    @property
    def surface_resistance(self) -> float:
        return self.config.surface_resistance

    @cached_property
    def preconditioner(self) -> NystromPreconditioner:
        """Nystrom preconditioner of the weighted operator, built on first use."""
        n = self.kernel_matrix.shape[0]
        zs = self.surface_resistance
        root = np.sqrt(self.grid.weights)
        cap = max(1, n // 2)
        rng = np.random.default_rng(_SKETCH_SEED)
        test = np.empty((n, 0))
        sketch = np.empty((n, 0))
        rank = min(_SKETCH_START_RANK, cap)
        while True:
            block = rng.standard_normal((n, rank - test.shape[1]))
            # two Gram-Schmidt passes keep the new columns orthogonal to the kept ones
            for _ in range(2):
                block -= test @ (test.T @ block)
            block = np.linalg.qr(block)[0]
            test = np.hstack([test, block])
            image = root[:, None] * (self.kernel_matrix @ (root[:, None] * block))
            sketch = np.hstack([sketch, image])
            basis, eigs = _nystrom_factors(test, sketch, zs)
            if eigs[-1] <= _RANK_MARGIN * zs or rank == cap:
                break
            rank = min(2 * rank, cap)
        shrink = (eigs[-1] + zs) / (eigs + zs) - 1.0
        # shared by every solve on this operator, so no caller may write to them
        for array in (basis, shrink, root):
            array.setflags(write=False)
        return NystromPreconditioner(basis=basis, shrink=shrink, root_weights=root)


def discretize_operator(cfg: PhysicalConfig, grid: ApertureGrid) -> DiscretizedOperator:
    """Radiation kernel between every pair of grid points, gathered from its
    values at the distinct (|dx|, |dy|) pairs of the tensor grid."""
    m = grid.order
    axes = grid.points.reshape(m, m, 3)
    matrix = _pair_matrix(axes[:, 0, 0], axes[0, :, 1],
                          lambda offsets: radiation_kernel(offsets, cfg.wavenumber, cfg.impedance))
    matrix.setflags(write=False)
    return DiscretizedOperator(config=cfg, grid=grid, kernel_matrix=matrix)


def apply_operator(op: DiscretizedOperator, values: np.ndarray) -> np.ndarray:
    """Apply the discretized coupling operator: kernel convolution plus loss term."""
    return real_matvec(op.kernel_matrix, op.grid.weights * values) \
        + op.surface_resistance * values


@dataclass(frozen=True, eq=False)
class CgState:
    """Conjugate-gradient iterate and per-iteration history.

    preconditioner_rank is the rank of the Nystrom preconditioner used.
    """

    values: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)
    direction: np.ndarray = field(repr=False)
    iterations: int
    converged: bool
    residual_norms: np.ndarray = field(repr=False)
    functional_values: np.ndarray = field(repr=False)
    preconditioner_rank: int


def solve_fredholm(op: DiscretizedOperator, rhs: np.ndarray, tol: float = 1e-8,
                   max_iter: int = 10_000, init: str = "zero",
                   seed: int | None = None) -> CgState:
    """Preconditioned conjugate gradients on the grid-discretized coupling equation.

    rhs holds the conjugate channel sampled on the grid.  Convergence is
    declared when the weighted residual norm of the unpreconditioned system
    falls below tol relative to the weighted norm of rhs.  residual_norms[i]
    is that relative norm before iteration i; functional_values tracks the
    quadratic objective whose stationary point is the solution, which must
    decrease monotonically.  A non-finite residual or a curvature that is not
    positive raises NumericError.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive", module="cg_solver")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1", module="cg_solver")
    w = op.grid.weights
    rhs = np.asarray(rhs, dtype=complex)
    rhs_norm2 = float(np.real(np.vdot(rhs, w * rhs)))
    if rhs_norm2 <= 0.0:
        raise DomainError("right-hand side has zero weighted norm", module="cg_solver")
    if init == "zero":
        v = np.zeros_like(rhs)
    elif init == "random":
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(rhs.size) + 1j * rng.standard_normal(rhs.size)
    else:
        raise DomainError("init must be 'zero' or 'random'", module="cg_solver")
    precond = op.preconditioner

    def functional(vec, res):
        # operator apply recovered from the residual: A v = rhs - r
        coupled = 0.5 * np.real(np.vdot(vec, w * (rhs - res)))
        matched = np.real(np.vdot(rhs, w * vec))
        return coupled - matched

    def relative_residual(res):
        rel = np.sqrt(float(np.real(np.vdot(res, w * res))) / rhs_norm2)
        if not np.isfinite(rel):
            raise NumericError(f"residual is not finite after {iterations} iterations",
                               module="cg_solver")
        return rel

    iterations = 0
    r = rhs - apply_operator(op, v)
    z = precond.apply(r)
    p = z
    rz = float(np.real(np.vdot(r, w * z)))
    rel = relative_residual(r)
    residual_norms = [rel]
    functional_values = [functional(v, r)]
    converged = rel < tol
    while not converged and iterations < max_iter:
        ap = apply_operator(op, p)
        denom = float(np.real(np.vdot(p, w * ap)))
        if not denom > 0.0:
            raise NumericError("search-direction curvature is not positive; "
                               "discretized operator lost definiteness", module="cg_solver")
        alpha = rz / denom
        v = v + alpha * p
        r = r - alpha * ap
        iterations += 1
        rel = relative_residual(r)
        residual_norms.append(rel)
        functional_values.append(functional(v, r))
        converged = rel < tol
        if not converged:
            z = precond.apply(r)
            rz_next = float(np.real(np.vdot(r, w * z)))
            p = z + (rz_next / rz) * p
            rz = rz_next
    state = CgState(values=v, residual=r, direction=p, iterations=iterations,
                    converged=converged,
                    residual_norms=np.asarray(residual_norms),
                    functional_values=np.asarray(functional_values),
                    preconditioner_rank=precond.rank)
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
        kern = radiation_kernel(disp, self.operator.config.wavenumber,
                                self.operator.config.impedance)
        conv = kern @ (self.operator.grid.weights * self.grid_values)
        out = (np.conj(self.channel(s)) - conv) / self.operator.surface_resistance
        return complex(out) if np.ndim(out) == 0 else out

    def __call__(self, points) -> np.ndarray:
        return self.scale * self.solution_field(points)


def synthesize_beamformer(op: DiscretizedOperator, channel: FarFieldChannel,
                          state: CgState, power: float = 1.0) -> FredholmSolution:
    """Power-normalize a grid solution into a transmit beamformer."""
    if power <= 0:
        raise DomainError("transmit power must be positive", module="cg_solver")
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
# would hold an order^4 kernel matrix per entry.  typed, so that 12.0 and True
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
    op = _operator(cfg, aperture, order)
    grid = op.grid
    rhs = np.conj(channel(grid.points))
    state = solve_fredholm(op, rhs, tol=tol, max_iter=max_iter, init=init, seed=seed)
    return synthesize_beamformer(op, channel, state, power=power)

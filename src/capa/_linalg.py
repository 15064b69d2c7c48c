"""Dense linear-algebra helpers shared by the solvers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

# rows per substitution panel of CholeskyFactor.solve: solves at N = 576 and
# 1,024 slowed with 64-row panels, and a panel inverse costs p^3/3 flops
_PANEL = 128
# rows below which _lower_inverse takes one general inverse instead of halving
_INVERSE_BASE = 16


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower Cholesky factors L of a symmetric positive definite matrix (n, n)
    or of a stack of them (b, n, n), with the inverses of their diagonal
    panels of at most _PANEL rows."""

    lower: np.ndarray = field(repr=False)
    panel_inverses: tuple = field(repr=False)

    def solve(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """L^-1 x, or L^-T x, for a complex vector (n,) or block (n, D), or for
        a stack of them, (b, n) or (b, n, D), one per factor of the stack.

        Blocked substitution: each panel subtracts the product of the part of
        L left of its diagonal block (below it, for the transpose) with the
        panels already solved, then multiplies by its diagonal block's
        inverse.  L is read only through views below its diagonal blocks, so
        nothing of its zero upper triangle is read and nothing is copied.
        The real and imaginary parts of x go through each panel as one real
        product, and the factors of a stack as one stacked product.
        """
        lead = self.lower.shape[:-1]
        cols = x.reshape(lead + (-1,))
        d = cols.shape[-1]
        out = np.concatenate([cols.real, cols.imag], axis=-1)
        panels = list(zip(range(0, lead[-1], _PANEL), self.panel_inverses))
        if transpose:
            for a, inverse in reversed(panels):
                b = a + inverse.shape[-1]
                below = np.swapaxes(self.lower[..., b:, a:b], -1, -2)
                out[..., a:b, :] = np.swapaxes(inverse, -1, -2) @ (
                    out[..., a:b, :] - below @ out[..., b:, :])
        else:
            for a, inverse in panels:
                b = a + inverse.shape[-1]
                out[..., a:b, :] = inverse @ (
                    out[..., a:b, :] - self.lower[..., a:b, :a] @ out[..., :a, :])
        return (out[..., :d] + 1j * out[..., d:]).reshape(x.shape)


def cholesky(matrix: np.ndarray, message: str, module: str) -> CholeskyFactor:
    """Cholesky factor L L^T = matrix, of one matrix (n, n) or of each matrix of
    a stack (b, n, n); a matrix that is not positive definite raises
    NumericError with message and a condition estimate, on a stack the largest
    of its matrices'.  So does a matrix that is not finite, which OpenBLAS
    factors to NaN without failing."""
    if not np.all(np.isfinite(matrix)):
        raise NumericError(f"{message}: matrix is not finite", module=module)
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        cond = np.max(np.linalg.cond(matrix))
        raise NumericError(f"{message}: {exc} (condition estimate {cond:.3e})",
                           module=module) from exc
    n = lower.shape[-1]
    panel_inverses = tuple(_lower_inverse(lower[..., a:a + _PANEL, a:a + _PANEL])
                           for a in range(0, n, _PANEL))
    return CholeskyFactor(lower=lower, panel_inverses=panel_inverses)


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix (p, p), or of each of a stack, by
    halves: [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], so the
    work is p^3/3 flops of products; a general inverse is taken only of
    blocks of at most _INVERSE_BASE rows.  The upper triangle is exactly 0."""
    p = lower.shape[-1]
    if p <= _INVERSE_BASE:
        return np.tril(np.linalg.inv(lower))
    h = p // 2
    out = np.zeros_like(lower)
    out[..., :h, :h] = _lower_inverse(lower[..., :h, :h])
    out[..., h:, h:] = _lower_inverse(lower[..., h:, h:])
    out[..., h:, :h] = -(out[..., h:, h:] @ (lower[..., h:, :h] @ out[..., :h, :h]))
    return out

"""Dense linear-algebra helpers shared by the solvers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

# rows per substitution panel of CholeskyFactor.solve: a general inverse of a
# 256-row panel costs more than two of 128 rows, and solves take the same time
_PANEL = 128


def real_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector for a real matrix and a complex vector, without
    upcasting the whole matrix to complex."""
    out = matrix @ np.column_stack([vector.real, vector.imag])
    return out[:, 0] + 1j * out[:, 1]


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower Cholesky factor L of a symmetric positive definite matrix, with
    the inverses of its diagonal panels of at most _PANEL rows."""

    lower: np.ndarray = field(repr=False)
    panel_inverses: tuple = field(repr=False)

    def solve(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """L^-1 x, or L^-T x, for a complex vector (n,) or block (n, D).

        Blocked substitution: each panel subtracts the product of the part of
        L left of its diagonal block (below it, for the transpose) with the
        panels already solved, then multiplies by its diagonal block's
        inverse.  L is read only through views below its diagonal blocks, so
        nothing of its zero upper triangle is read and nothing is copied.
        The real and imaginary parts of x go through each panel as one real
        product.
        """
        n = self.lower.shape[0]
        cols = x.reshape(n, -1)
        d = cols.shape[1]
        out = np.concatenate([cols.real, cols.imag], axis=1)
        panels = list(zip(range(0, n, _PANEL), self.panel_inverses))
        if transpose:
            for a, inverse in reversed(panels):
                b = a + inverse.shape[0]
                out[a:b] = inverse.T @ (out[a:b] - self.lower[b:, a:b].T @ out[b:])
        else:
            for a, inverse in panels:
                b = a + inverse.shape[0]
                out[a:b] = inverse @ (out[a:b] - self.lower[a:b, :a] @ out[:a])
        return (out[:, :d] + 1j * out[:, d:]).reshape(x.shape)


def cholesky(matrix: np.ndarray, message: str, module: str) -> CholeskyFactor:
    """Cholesky factor L L^T = matrix; a matrix that is not positive definite
    raises NumericError with message and a condition estimate."""
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(matrix)
        raise NumericError(f"{message}: {exc} (condition estimate {cond:.3e})",
                           module=module) from exc
    panel_inverses = tuple(np.tril(np.linalg.inv(lower[a:a + _PANEL, a:a + _PANEL]))
                           for a in range(0, lower.shape[0], _PANEL))
    return CholeskyFactor(lower=lower, panel_inverses=panel_inverses)

"""Dense linear-algebra helpers shared by the solvers."""
from __future__ import annotations

import numpy as np

from .errors import NumericError

# rows per panel of lower_matvec
_PANEL = 256


def real_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector for a real matrix and a complex vector, without
    upcasting the whole matrix to complex."""
    out = matrix @ np.column_stack([vector.real, vector.imag])
    return out[:, 0] + 1j * out[:, 1]


def lower_matvec(lower: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """lower @ x, or lower.T @ x, for a real lower-triangular n x n matrix and
    a complex vector (n,) or block (n, D).

    The result is computed in panels of _PANEL rows.  A panel reads its
    diagonal block of lower and the part left of it (below it, for the
    transpose), all views, so of the zero upper triangle only the diagonal
    blocks are read and nothing is copied.  The real and imaginary parts of x
    go through each panel as one real product.
    """
    n = lower.shape[0]
    cols = x.reshape(n, -1)
    d = cols.shape[1]
    stacked = np.concatenate([cols.real, cols.imag], axis=1)
    out = np.empty((n, 2 * d))
    for a in range(0, n, _PANEL):
        b = min(a + _PANEL, n)
        if transpose:
            out[a:b] = lower[a:, a:b].T @ stacked[a:]
        else:
            out[a:b] = lower[a:b, :b] @ stacked[:b]
    return (out[:, :d] + 1j * out[:, d:]).reshape(x.shape)


def lower_triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by recursive 2x2 blocking.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]; numpy has no
    triangular solve, and a general inverse of the factor costs several times
    the flops of this one.
    """
    n = lower.shape[0]
    if n <= 128:
        return np.tril(np.linalg.inv(lower))
    h = n // 2
    top = lower_triangular_inverse(lower[:h, :h])
    bottom = lower_triangular_inverse(lower[h:, h:])
    out = np.zeros_like(lower)
    out[:h, :h] = top
    out[h:, h:] = bottom
    out[h:, :h] = -(bottom @ lower[h:, :h]) @ top
    return out


def cholesky_inverse(matrix: np.ndarray, message: str, module: str) -> np.ndarray:
    """L^-1 of the Cholesky factor L L^T = matrix; a matrix that is not positive
    definite raises NumericError with message and a condition estimate."""
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(matrix)
        raise NumericError(f"{message}: {exc} (condition estimate {cond:.3e})",
                           module=module) from exc
    return lower_triangular_inverse(lower)

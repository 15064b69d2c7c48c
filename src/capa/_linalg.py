"""Dense linear-algebra helpers shared by the solvers."""
from __future__ import annotations

import numpy as np


def real_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector for a real matrix and a complex vector, without
    upcasting the whole matrix to complex."""
    out = matrix @ np.column_stack([vector.real, vector.imag])
    return out[:, 0] + 1j * out[:, 1]


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

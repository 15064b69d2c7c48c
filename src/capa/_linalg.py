"""Dense linear-algebra helpers shared by the solvers."""
from __future__ import annotations

import numpy as np


def real_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector for a real matrix and a complex vector, without
    upcasting the whole matrix to complex."""
    out = matrix @ np.column_stack([vector.real, vector.imag])
    return out[:, 0] + 1j * out[:, 1]

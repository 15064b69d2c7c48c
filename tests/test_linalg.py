import numpy as np
import pytest

from capa._linalg import lower_matvec


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1600])
@pytest.mark.parametrize("columns", [None, 3])
def test_lower_matvec_matches_dense_product(n, columns):
    rng = np.random.default_rng(n)
    lower = np.tril(rng.standard_normal((n, n)))
    shape = (n,) if columns is None else (n, columns)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for transpose, dense in ((False, lower), (True, lower.T)):
        got = lower_matvec(lower, x, transpose=transpose)
        assert got.shape == x.shape
        # bounded by the magnitudes summed, since entries may cancel
        scale = np.abs(dense) @ np.abs(x)
        assert np.all(np.abs(got - dense @ x) <= 1e-13 * scale)

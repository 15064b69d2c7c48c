import numpy as np
import pytest

from capa import NumericError
from capa._linalg import cholesky


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1600])
@pytest.mark.parametrize("columns", [None, 3])
def test_lower_matvec_matches_dense_product(n, columns):
    # the dense product of L with the substitution's result reproduces x
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    factor = cholesky(a @ a.T + n * np.eye(n), "unused", "test")
    lower = factor.lower
    shape = (n,) if columns is None else (n, columns)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for transpose, dense in ((False, lower), (True, lower.T)):
        got = factor.solve(x, transpose=transpose)
        assert got.shape == x.shape
        # bounded by the magnitudes summed, since entries may cancel
        scale = np.abs(dense) @ np.abs(got)
        assert np.all(np.abs(dense @ got - x) <= 1e-13 * scale)


def test_cholesky_factors_and_refuses_indefinite():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 300))
    spd = a @ a.T + 300.0 * np.eye(300)
    lower = cholesky(spd, "unused", "test").lower
    assert np.array_equal(lower, np.tril(lower))
    assert np.max(np.abs(lower @ lower.T - spd)) < 1e-12 * np.max(np.abs(spd))
    with pytest.raises(NumericError, match=r"^system is bad: .*condition estimate") as exc:
        cholesky(-spd, "system is bad", "test")
    assert exc.value.module == "test"

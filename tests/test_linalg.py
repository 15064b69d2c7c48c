import numpy as np
import pytest

from capa import NumericError
from capa._linalg import cholesky_inverse, lower_matvec


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


def test_cholesky_inverse_whitens_and_refuses_indefinite():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 300))
    spd = a @ a.T + 300.0 * np.eye(300)
    factor_inverse = cholesky_inverse(spd, "unused", "test")
    assert np.array_equal(factor_inverse, np.tril(factor_inverse))
    assert np.max(np.abs(factor_inverse @ spd @ factor_inverse.T - np.eye(300))) < 1e-12
    with pytest.raises(NumericError, match=r"^system is bad: .*condition estimate") as exc:
        cholesky_inverse(-spd, "system is bad", "test")
    assert exc.value.module == "test"

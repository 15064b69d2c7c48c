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


def test_cholesky_refuses_non_finite_matrix():
    # OpenBLAS factors this matrix to NaN without raising
    matrix = np.eye(200)
    matrix[3, 5] = matrix[5, 3] = np.nan
    for bad in (matrix, np.stack([np.eye(200), np.where(np.isnan(matrix), np.inf, matrix)])):
        with pytest.raises(NumericError, match=r"^system is bad: matrix is not finite$"):
            cholesky(bad, "system is bad", "test")


@pytest.mark.parametrize("n", [1, 127, 128, 129, 400])
@pytest.mark.parametrize("columns", [None, 3])
def test_stacked_solve_matches_dense_products_block_by_block(n, columns):
    rng = np.random.default_rng(n + 7)
    a = rng.standard_normal((3, n, n))
    factor = cholesky(a @ np.swapaxes(a, 1, 2) + n * np.eye(n), "unused", "test")
    assert factor.lower.shape == (3, n, n)
    shape = (3, n) if columns is None else (3, n, columns)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for transpose in (False, True):
        got = factor.solve(x, transpose=transpose)
        assert got.shape == x.shape
        for lower, block, rhs in zip(factor.lower, got, x):
            dense = lower.T if transpose else lower
            assert np.array_equal(lower, np.tril(lower))
            scale = np.abs(dense) @ np.abs(block)
            assert np.all(np.abs(dense @ block - rhs) <= 1e-13 * scale)


@pytest.mark.parametrize("size", [1, 100, 200])
def test_identity_padded_rows_solve_to_zero(size):
    # a block padded with identity rows to the stack's size keeps its solution
    # on its own rows and returns exact zeros on the padding
    rng = np.random.default_rng(size)
    n = 300
    b = rng.standard_normal((n, n))
    a = rng.standard_normal((size, size))
    stack = np.zeros((2, n, n))
    stack[0] = b @ b.T + n * np.eye(n)
    stack[1, :size, :size] = a @ a.T + size * np.eye(size)
    stack[1, size:, size:] = np.eye(n - size)
    factor = cholesky(stack, "unused", "test")
    alone = cholesky(stack[1, :size, :size], "unused", "test")
    x = np.zeros((2, n, 2), dtype=complex)
    x[:, :size] = rng.standard_normal((2, size, 2)) + 1j * rng.standard_normal((2, size, 2))
    for transpose in (False, True):
        got = factor.solve(x, transpose=transpose)
        assert np.all(got[1, size:] == 0.0)
        want = alone.solve(x[1, :size], transpose=transpose)
        assert np.allclose(got[1, :size], want, rtol=1e-13, atol=0.0)


def test_stacked_cholesky_reports_worst_block_condition():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((50, 50))
    spd = a @ a.T + 50.0 * np.eye(50)
    stack = np.stack([np.eye(50), -spd])
    with pytest.raises(NumericError, match=r"condition estimate (\S+)\)$") as exc:
        cholesky(stack, "stack is bad", "test")
    reported = float(exc.value.args[0].rsplit(" ", 1)[1].rstrip(")"))
    assert reported == pytest.approx(np.linalg.cond(spd), rel=1e-3)

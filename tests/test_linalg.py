import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capa
from capa import NumericError
from capa._linalg import _INVERSE_BASE, _lower_inverse, cholesky


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


def test_shift_covers_zero_padding_rows():
    # shift goes on every diagonal entry in place, padding included, so a
    # zero-padded block factors as itself plus shift I, padding rows as sqrt(shift)
    rng = np.random.default_rng(11)
    n, size, shift = 300, 130, 2.5
    a = rng.standard_normal((2, n, n))
    stack = a @ np.swapaxes(a, 1, 2)
    stack[1, size:] = stack[1, :, size:] = 0.0
    want = cholesky(stack + shift * np.eye(n), "unused", "test").lower
    factor = cholesky(stack, "unused", "test", shift=shift)
    assert np.array_equal(stack[1, size:, size:], shift * np.eye(n - size))
    assert np.array_equal(factor.lower, want)
    assert np.array_equal(factor.lower[1, size:], np.sqrt(shift) * np.eye(n)[size:])


def test_stacked_cholesky_reports_worst_block_condition():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((50, 50))
    spd = a @ a.T + 50.0 * np.eye(50)
    stack = np.stack([np.eye(50), -spd])
    with pytest.raises(NumericError, match=r"condition estimate (\S+)\)$") as exc:
        cholesky(stack, "stack is bad", "test")
    reported = float(exc.value.args[0].rsplit(" ", 1)[1].rstrip(")"))
    assert reported == pytest.approx(np.linalg.cond(spd), rel=1e-3)


@pytest.mark.parametrize("n", [1, 2, 31, 33, 97, 128])
def test_lower_inverse_matches_general_inverse(n):
    rng = np.random.default_rng(n + 3)
    a = rng.standard_normal((3, n, n))
    lower = np.linalg.cholesky(a @ np.swapaxes(a, 1, 2) + n * np.eye(n))
    got = _lower_inverse(lower)
    want = np.linalg.inv(lower)
    assert np.all(np.triu(got, 1) == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_cholesky_inverts_no_block_larger_than_the_base(monkeypatch):
    # the panel inverses halve down to _INVERSE_BASE rows before any general inverse
    sizes = []
    general = np.linalg.inv

    def counting(matrix):
        sizes.append(np.shape(matrix)[-1])
        return general(matrix)

    monkeypatch.setattr(np.linalg, "inv", counting)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 400, 400))
    cholesky(a @ np.swapaxes(a, 1, 2) + 400.0 * np.eye(400), "unused", "test")
    assert sizes and max(sizes) <= _INVERSE_BASE


# the lambda/8 lattice of the lattice benchmark and capa spda-spacing (exact
# coupling, 1,024 elements) and the order-40 closed form on a 1 m aperture,
# coupled gains printed to the last digit
_THREAD_PROBE = """
import json
import numpy as np
from capa import Aperture, Direction, PhysicalConfig, build_expansion, far_field_channel
from capa.kernel_approx import beamform_ka, gram_matrix, inverse_operator
from capa.spda import (coupling_matrix, discrete_channel, element_layout,
                       optimal_discrete_beamformer)
cfg = PhysicalConfig(frequency=2.4e9)
wl = cfg.wavelength
channels = [far_field_channel(cfg, Direction(np.deg2rad(t), np.deg2rad(p)), 1000.0)
            for t, p in ((0.0, 0.0), (35.0, 20.0), (120.0, 55.0))]
model = element_layout(Aperture(0.5, 0.5), 0.125 * wl, 0.1 * wl, 0.1 * wl)
coupling = coupling_matrix(model, cfg)
h = discrete_channel(model, channels[1])
discrete = [optimal_discrete_beamformer(h, c).gain for c in (coupling, coupling.diagonal_only())]
aperture = Aperture(1.0, 1.0)
expansion = build_expansion(cfg, 40)
inverse = inverse_operator(expansion, gram_matrix(expansion, aperture), cfg.surface_resistance)
closed = [beamform_ka(cfg, ch, expansion, aperture, inverse=inverse).gain for ch in channels]
print(json.dumps({"discrete": discrete, "closed": closed}))
"""


def test_gains_reproduce_across_blas_thread_counts():
    # the closed form's eta - penalty cancels about 1e4-fold, so its gains
    # carry the rounding of the factorization; the discrete gains do not
    src = str(Path(capa.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.Popen([sys.executable, "-c", _THREAD_PROBE], env=env,
                                     stdout=subprocess.PIPE, text=True))
    one, two = (json.loads(run.communicate(timeout=60)[0]) for run in runs)
    assert all(run.returncode == 0 for run in runs)
    for key, bound in (("discrete", 1e-13), ("closed", 1e-9)):
        a, b = np.array(one[key]), np.array(two[key])
        assert np.max(np.abs(a - b) / a) <= bound, key

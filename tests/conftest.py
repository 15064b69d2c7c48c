import numpy as np
import pytest

from capa import Aperture, Direction, PhysicalConfig, cg_solver, far_field_channel

# one line per acceptance criterion, echoed after the run summary
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.line(line)


@pytest.fixture(autouse=True)
def _fresh_cg_operator():
    # beamform_cg keeps the operator of its last call; no test may see another's
    cg_solver._operator.cache_clear()


def _dense_fold(matrix, shape):
    # the parity basis of an mx x my grid from its definition, as rows, one
    # stack per block: (e_c + e_m-1-c)/sqrt 2 and the center e_c even,
    # (e_c - e_m-1-c)/sqrt 2 odd, along each axis; padding rows are zero
    axes = []
    for m in shape:
        a, b = (m + 1) // 2, m // 2
        axis = np.zeros((2, a, m))
        for c in range(b):
            axis[:, c, c] = np.sqrt(0.5)
            axis[:, c, m - 1 - c] = [np.sqrt(0.5), -np.sqrt(0.5)]
        if m % 2:
            axis[0, b, b] = 1.0
        axes.append(axis)
    (mx, my), (ax, ay) = shape, (axis.shape[1] for axis in axes)
    basis = np.einsum("pac,qbd->pqabcd", *axes).reshape(4, ax * ay, mx * my)
    return basis @ matrix @ basis.transpose(0, 2, 1), basis


@pytest.fixture(scope="session")
def dense_fold():
    """Parity blocks (4, N, N) of a dense grid-indexed matrix (mx my, mx my) on
    the grid shape (mx, my), and the basis rows (4, N, mx my): the oracle for
    every folded block."""
    return _dense_fold


def _dense_coupling(coupling, radiation_only=False):
    # element (a, b) has x coordinate a and y coordinate b, row-major: the pair
    # of grid rows (a, b) and (c, d) reads table[|a - c|, |b - d|]
    if coupling.diagonal:
        matrix = np.diag(np.full(coupling.size, coupling.table[0, 0]))
    else:
        sx, sy = (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) for n in coupling.shape)
        matrix = coupling.table[sx[:, None, :, None], sy[None, :, None, :]].reshape(
            coupling.size, -1)
    if not radiation_only:
        matrix.flat[::coupling.size + 1] += coupling.self_impedance
    return matrix


@pytest.fixture(scope="session")
def dense_coupling():
    """The N x N coupling matrix of a CouplingMatrix gathered from its step
    table, with the self impedance on the diagonal unless radiation_only: the
    dense oracle for every table-based solve."""
    return _dense_coupling


@pytest.fixture(scope="session")
def cfg():
    return PhysicalConfig(frequency=2.4e9)


@pytest.fixture(scope="session")
def aperture():
    return Aperture(0.5, 0.5)


@pytest.fixture(scope="session")
def front_channel(cfg):
    return far_field_channel(cfg, Direction(0.0, 0.0), 50.0)


@pytest.fixture(scope="session")
def oblique_channel(cfg):
    return far_field_channel(cfg, Direction(np.pi / 2, np.pi / 6), 50.0)

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

import numpy as np
import pytest

from oscinv import build_dirichlet_interval_basis, uniform_grid


@pytest.fixture(scope="session")
def interval_basis():
    return build_dirichlet_interval_basis(np.pi, 8)


@pytest.fixture(scope="session")
def single_mode_basis():
    return build_dirichlet_interval_basis(np.pi, 1)


@pytest.fixture()
def grid3():
    # slow grid to T=3, fine enough for order-4 finite differences
    return uniform_grid(3.0, 3000).nodes

import numpy as np
import pytest

import shocklab as sl


@pytest.fixture(scope="session")
def burgers2():
    return sl.burgers_flux(2)


@pytest.fixture(scope="session")
def pair11(burgers2):
    return sl.make_shock_pair(burgers2, 1.0, -1.0)


@pytest.fixture(scope="session")
def cone11(pair11):
    return sl.admissible_cone(pair11, 1e-8)


@pytest.fixture(scope="session")
def dual11(cone11):
    return sl.dual_cone(cone11)


@pytest.fixture(scope="session")
def planar11(pair11, dual11):
    return sl.make_planar(pair11, dual11, [1.0, 0.0], 0.0, y_extent=(-8.0, 8.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)

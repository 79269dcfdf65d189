import pytest

from trislither import build_grid, census


@pytest.fixture(scope="session")
def g1():
    return build_grid(1)


@pytest.fixture(scope="session")
def g2():
    return build_grid(2)


@pytest.fixture(scope="session")
def g3():
    return build_grid(3)


@pytest.fixture(scope="session")
def g5():
    return build_grid(5)


@pytest.fixture(scope="session")
def g6():
    return build_grid(6)


@pytest.fixture(scope="session")
def g11():
    return build_grid(11)


@pytest.fixture(scope="session")
def census5(g5):
    """The whole side-5 census: 128,967 cycles, 8 same-signature pairs."""
    return census(g5)

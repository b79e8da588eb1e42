import os
from pathlib import Path

import pytest

import taylorpde
from taylorpde import FIXTURES, solve


@pytest.fixture(scope="session", autouse=True)
def _child_import_path():
    # The CLI tests run `python -m taylorpde.cli` in child processes: put
    # the directory this test run imported the package from on their
    # import path, so they run the same code, installed or not.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(taylorpde.__file__).parent.parent), prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def riccati():
    return FIXTURES["riccati"]


@pytest.fixture(scope="session")
def coupled():
    return FIXTURES["coupled"]


@pytest.fixture(scope="session")
def transport():
    return FIXTURES["transport"]


@pytest.fixture(scope="session")
def riccati15(riccati):
    return solve(riccati.system, riccati.initial, 15)


@pytest.fixture(scope="session")
def riccati20(riccati):
    return solve(riccati.system, riccati.initial, 20)


@pytest.fixture(scope="session")
def coupled20(coupled):
    return solve(coupled.system, coupled.initial, 20)


@pytest.fixture(scope="session")
def transport15(transport):
    return solve(transport.system, transport.initial, 15)

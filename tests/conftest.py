import numpy as np
import pytest

from imexglm.methods import (builtin_imex_dimsim4, builtin_imex_dimsim5,
                             builtin_imex_euler)
from imexglm.problems import (allen_cahn_problem, burgers_problem,
                              reference_solution)
from imexglm.stability import COARSE_QUERY


@pytest.fixture(scope="session")
def dimsim4():
    return builtin_imex_dimsim4()


@pytest.fixture(scope="session")
def dimsim5():
    return builtin_imex_dimsim5()


@pytest.fixture(scope="session")
def euler_glm():
    return builtin_imex_euler()


@pytest.fixture(scope="session")
def coarse_query():
    """Cheap region query for tests that only need qualitative areas."""
    return COARSE_QUERY


@pytest.fixture(scope="session")
def allen_cahn_n40():
    return allen_cahn_problem(40)


@pytest.fixture(scope="session")
def allen_cahn_reference(allen_cahn_n40):
    return reference_solution(allen_cahn_n40, 5000)


@pytest.fixture(scope="session")
def burgers_n50():
    return burgers_problem(50)


@pytest.fixture(scope="session")
def burgers_reference(burgers_n50):
    return reference_solution(burgers_n50, 20000)


@pytest.fixture(autouse=True)
def _quiet_overflow():
    """Divergent runs are expected outcomes in several tests."""
    with np.errstate(over="ignore", invalid="ignore"):
        yield

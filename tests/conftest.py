import os

import numpy as np
import pytest

import tqsreg
from tqsreg.regress import RegressorConfig

# populated by the acceptance suite; echoed after the run so the
# criterion verdicts are visible regardless of output capturing
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def child_env(**overrides):
    """The environment of a fresh interpreter on this checkout's tqsreg:
    ours with the source tree first on PYTHONPATH, then ``overrides`` set
    (a value of None unsets the variable)."""
    src = os.path.dirname(os.path.dirname(tqsreg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def krr_cfg():
    return RegressorConfig("kernel_ridge")


@pytest.fixture
def trees_cfg():
    return RegressorConfig("boosted_trees")


@pytest.fixture
def spline_cfg():
    return RegressorConfig("spline_gam")

import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from qopt import OracleCounter, make_catalogue_objective
from qopt.trace import _csv_chunks

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis's pytest plugin caches the constants of local modules under
    # its home directory, ./.hypothesis by default, while collecting; keep
    # that cache out of the checkout, in a directory removed after the session.
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory()
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


def trace_csv_lines(trace):
    """The lines of the trace CSV that ``write_trace`` writes."""
    return "".join(_csv_chunks(trace)).split("\n")[:-1]


@pytest.fixture
def counter():
    return OracleCounter()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def quadratic():
    return make_catalogue_objective("quadratic")


@pytest.fixture
def quadratic_1d():
    return make_catalogue_objective("quadratic", {"dim": 1})


@pytest.fixture
def example1():
    return make_catalogue_objective("example1")


@pytest.fixture
def fig1():
    return make_catalogue_objective("fig1_counterexample")


@pytest.fixture
def glm():
    return make_catalogue_objective("glm_sigmoid")

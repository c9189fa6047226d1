"""A time budget for every test: a test that runs past TEST_BUDGET_S seconds dumps
every thread's traceback to the terminal and ends the run with exit code 1."""

import faulthandler
import os

import pytest

TEST_BUDGET_S = 60.0
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output is not captured: the
    # captured stderr of a test is lost when faulthandler ends the process
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def time_budget(request):
    faulthandler.dump_traceback_later(TEST_BUDGET_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()

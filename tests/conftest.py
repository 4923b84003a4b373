"""Session fixtures shared by the test modules."""

import os
import time
import tracemalloc

import pytest

from test_properties import PROPERTY_SUITES


@pytest.fixture(scope="session")
def property_suite():
    """run(name) -> (result, seconds): each property suite runs at most once per session.

    seconds is the suite's own run time.  A failing suite's AssertionError is
    kept and raised again to every test that asks for that suite.
    """
    runs = {}

    def run(name):
        if name not in runs:
            t0 = time.perf_counter()
            try:
                outcome = PROPERTY_SUITES[name]()
            except AssertionError as exc:
                outcome = exc
            runs[name] = (outcome, time.perf_counter() - t0)
        outcome, seconds = runs[name]
        if isinstance(outcome, AssertionError):
            raise outcome
        return outcome, seconds

    return run


def _traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(call) -> the peak traced allocation, in bytes, while call() runs."""
    return _traced_peak


@pytest.fixture(autouse=True)
def no_stray_child():
    """Fail a test that leaves a child process behind, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind, "
                + (f"exited (pid {pid})" if pid else "still running"))

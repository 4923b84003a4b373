"""Session fixtures shared by the test modules."""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import qmetric

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


# Runs qmetric.cli.main(argv) (or, with no argv, only imports the commands)
# and prints the high-water mark of this process's own address space.
_RESIDENT_PEAK = """
import sys
if sys.argv[1:]:
    from qmetric.cli import main
    rc = main(sys.argv[1:])
    if rc:
        sys.exit(f"qmetric exited {rc}")
else:
    import qmetric.commands
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _has_vmhwm() -> bool:
    try:
        return "VmHWM:" in Path("/proc/self/status").read_text()
    except OSError:
        return False


@pytest.fixture
def resident_peak():
    """resident_peak(argv=None) -> VmHWM in bytes of a fresh interpreter.

    The interpreter runs qmetric.cli.main(argv), or with no argv only
    imports qmetric.commands.  VmHWM belongs to that process's own address
    space: unlike wait4's ru_maxrss it does not inherit the high-water mark
    of the process that started it, and it does not count the children the
    writers fork.  Skipped where /proc/self/status has no VmHWM.
    """
    if not _has_vmhwm():
        pytest.skip("/proc/self/status has no VmHWM")
    src = str(Path(qmetric.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def peak(argv=None) -> int:
        done = subprocess.run([sys.executable, "-c", _RESIDENT_PEAK, *(argv or [])],
                              env=env, capture_output=True, text=True, check=True)
        return 1024 * int(done.stdout.split()[-1])

    return peak


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

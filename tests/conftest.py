"""Fixtures that every test of the suite runs under."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves alive a thread that it started: a command
    joins its own threads (the `check` lane, a `--jobs` pool's manager)
    before it returns, so none is left idle in the caller's process."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left alive by the test: {left}"

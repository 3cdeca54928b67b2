"""Suite-wide guard: no thread of the mixture-density kernel outlives a test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_kernel_thread_outlives_the_test():
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("mmicap-mc")]
    if alive:
        pytest.fail(f"kernel threads still alive after the test: {alive}")

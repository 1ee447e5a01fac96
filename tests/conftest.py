import pytest

from epkit import blas


@pytest.fixture
def blas_threads():
    """A function that sets numpy's OpenBLAS thread count for the test; the
    count is restored after it.  Skips where that library exports no thread
    getter or setter."""
    count, pin = blas.thread_getter(), blas.thread_setter()
    if count is None or pin is None:
        pytest.skip("numpy's OpenBLAS exports no thread getter or setter")
    before = count()
    try:
        yield pin
    finally:
        pin(before)

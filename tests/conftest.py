"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def fresh_extent_tallies():
    """Empty ``count_failures``' per-k extent tables before and after a test.

    A test that patches ``failure_enum`` internals needs it: a table built
    before the patch would hide it, and one built under the patch would
    outlive it.
    """
    from chio import failure_enum

    failure_enum._extent_tallies.cache_clear()
    yield
    failure_enum._extent_tallies.cache_clear()

"""Fixtures for the fault-campaign tests."""

import pytest

from repro.faults.campaign import _close_shard_pool


@pytest.fixture
def fresh_shard_pool():
    """Close the process's campaign shard pool before and after the test.

    ``jobs > 1`` campaigns share one long-lived worker pool, whose
    workers were forked before the test began.  A test that patches
    worker-side code, or how workers start, needs workers started
    after its patches, and must not leave patched workers behind.
    """
    _close_shard_pool()
    yield
    _close_shard_pool()

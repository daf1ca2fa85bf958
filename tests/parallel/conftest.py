"""Persistent worker pools shared by the tests of one module."""

from __future__ import annotations

import pytest

from repro.parallel import AlignmentWorkerPool


@pytest.fixture(scope="module")
def pool1():
    with AlignmentWorkerPool(n_workers=1) as pool:
        yield pool


@pytest.fixture(scope="module")
def pool2():
    with AlignmentWorkerPool(n_workers=2) as pool:
        yield pool

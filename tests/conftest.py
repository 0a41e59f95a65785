"""Shared test setup."""
import os

import pytest

import cycperm


@pytest.fixture(autouse=True, scope="session")
def _children_import_the_tested_package():
    """Child interpreters started by the tests (``python -m cycperm`` and
    import checks) import the same cycperm as the tests, so a bare
    ``pytest`` from a checkout works without installing the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycperm.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield

"""Shared test setup."""
import os

import pytest

import cycperm


@pytest.fixture(autouse=True, scope="session")
def _children_import_the_tested_package():
    """Child interpreters started by the tests (``python -m cycperm`` and
    import checks) import the same cycperm as the tests, so a bare
    ``pytest`` from a checkout works without installing the package. The
    CLI's own settings are removed, so the suite does not depend on the
    shell it runs in; a test that wants one sets it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycperm.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name in ("CYCPERM_ORACLE_CAP", "CYCPERM_WORKERS"):
            mp.delenv(name, raising=False)
        yield


@pytest.fixture(scope="session")
def triples_to_60():
    """``all_triples(n)`` for n = 3..60, built once for every test that sweeps it."""
    from cycperm.layered import all_triples

    return {n: tuple(all_triples(n)) for n in range(3, 61)}

from __future__ import annotations

from pathlib import Path

import pytest

from hyperreg.mpnum import PrecisionPolicy

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session", autouse=True)
def _cache_outside_checkout(tmp_path_factory):
    """HYPERREG_CACHE in a temporary directory for the session, so the CLI's
    caches (web responses, AFE kernels) are never written into the checkout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HYPERREG_CACHE", str(tmp_path_factory.mktemp("hyperreg-cache")))
        yield


@pytest.fixture(scope="session")
def pol():
    return PrecisionPolicy(30)


@pytest.fixture(scope="session")
def pol40():
    return PrecisionPolicy(40)


@pytest.fixture(scope="session")
def fixtures_dir():
    return REPO / "fixtures"

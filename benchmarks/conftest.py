"""Make the bench helpers importable and keep pytest-benchmark quiet."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True, scope="session")
def _isolated_disk_cache(tmp_path_factory):
    """Benches share runs through the disk result cache; keep it in a
    temp dir per session so repeated bench sessions stay self-contained."""
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro_cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old

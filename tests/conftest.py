"""Every test starts from empty family and generating-function caches, so no
outcome depends on which tests ran before it."""

import pytest

from macmahon.families import compute_A_family, compute_C_family
from macmahon.partitions import overpartition_series, p3_series


@pytest.fixture(autouse=True)
def _empty_caches():
    for cached in (compute_A_family, compute_C_family, p3_series, overpartition_series):
        cached.cache_clear()

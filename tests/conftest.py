"""Every test starts from empty family, generating-function and check
stores, so no outcome depends on which tests ran before it.  The generating
functions through the order limit are inverted once per session and handed
out as fixtures; the series are immutable, so sharing them changes no
outcome."""

import pytest

from macmahon.families import compute_A_family, compute_C_family
from macmahon.identities import _first_mismatch
from macmahon.partitions import MAX_ORDER, overpartition_series, p3_series

STORES = (compute_A_family, compute_C_family, p3_series, overpartition_series, _first_mismatch)


@pytest.fixture(autouse=True)
def _empty_caches():
    for cached in STORES:
        cached.cache_clear()


@pytest.fixture(scope="session")
def order_limit_series():
    """p3 ("A") and overp ("C") through MAX_ORDER."""
    return {"A": p3_series(MAX_ORDER), "C": overpartition_series(MAX_ORDER)}


@pytest.fixture
def order_limit_stores(_empty_caches, order_limit_series, monkeypatch):
    """The two generating-function stores, each already holding its series
    through MAX_ORDER, as if an earlier call had inverted it."""
    for store, tag in ((p3_series, "A"), (overpartition_series, "C")):
        monkeypatch.setattr(store, "_kept", {None: [(MAX_ORDER, order_limit_series[tag])]})
    return order_limit_series

"""The family stores' work on fixed request sequences, pinned in figures
that do not depend on the machine: requests, builds and hits, the widest
slot a build packs, and the walked volume, `oracles.fold_window_volume`
summed over the builds.

The stores decide from keys alone, so each sequence is replayed against the
real `compute_A_family` and `compute_C_family` with their `_build` replaced
by one that records (K, order, lowest) and returns a family of zero members
of the right shape.  Nothing is folded.  A verifier call is replayed through
`identities._serve` with its `family_request`, as a miss of the store of
checks asks its family store, so a theorem request reaches the store rounded as it does in
a verifier.  Every figure but the request count is an upper bound: a
change that raises one fails here, and a change that lowers one updates the
ledger and says why in CHANGES.md.

Every family verifier asks the store of checks, `identities._first_mismatch`,
first, and reaches the family stores only on its misses.  Its ledger replays
their calls against it with `_build` replaced by one that returns no
mismatch, and pins its misses as an upper bound and its hits as a lower one.
The family-store ledger replays every call through `_serve`, as if each
missed the store of checks.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

import oracles
from macmahon.families import (
    MacmahonFamily,
    _fold_bound_bits,
    _slot_bits,
    _top_member,
    compute_A_family,
    compute_C_family,
)
from macmahon.identities import _first_mismatch, _serve, family_request
from macmahon.series import TruncatedSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
STORES = {"A": compute_A_family, "C": compute_C_family}


def _load_workloads():
    # registered before it runs, as its dataclass looks its module up
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _request(op):
    return family_request(op["target"], op.get("k"), op.get("j"), op.get("N"))


def _calls(ops):
    # the store request of each verifier call, as the verifier makes it; the
    # divisor verifier makes none
    return [
        functools.partial(_serve, op["target"], _request(op))
        for op in ops
        if op["target"] != "divisor"
    ]


def _corollary(tag, k, j):
    return lambda: [_calls([{"target": tag, "k": k, "j": j}])]


def _theorem(tag, k, N):
    return lambda: [_calls([{"target": tag, "k": k, "N": N}])]


def _sweep(tag, N):
    # a cold theorem sweep over k = 0..12
    return lambda: [_calls([{"target": tag, "k": k, "N": N} for k in range(13)])]


def _identity_sweep(seed):
    # one long-lived process: the warm-up, then every pass, in one pair of stores
    run = workloads.identity_sweep(seed, 15)
    return lambda: [_calls(run.warmup + run.shards[0])]


def _deep_window(seed):
    # one fresh process, and so a fresh pair of stores, per shard, each
    # after the warm-up
    run = workloads.deep_window(seed, 15)
    return lambda: [_calls(run.warmup + shard) for shard in run.shards]


# sequence -> (its store calls, one list per fresh pair of stores; requests,
# builds, hits, walked volume in bits, widest slot in bits)
LEDGER = {
    "thm-a k=0..12 N=120": (_sweep("thm-a", 120), 13, 4, 9, 211_610_512, 72),
    "thm-c k=0..12 N=150": (_sweep("thm-c", 150), 13, 6, 7, 175_956_512, 64),
    "thm-a(30,200)": (_theorem("thm-a", 30, 200), 1, 1, 0, 132_060_368, 88),
    "thm-a(60,300)": (_theorem("thm-a", 60, 300), 1, 1, 0, 397_346_208, 112),
    "cor-a(20,2)": (_corollary("cor-a", 20, 2), 1, 1, 0, 5_593_952, 56),
    "cor-c(20,2)": (_corollary("cor-c", 20, 2), 1, 1, 0, 10_880_912, 56),
    "cor-a(100,2)": (_corollary("cor-a", 100, 2), 1, 1, 0, 326_943_680, 112),
    "cor-c(100,2)": (_corollary("cor-c", 100, 2), 1, 1, 0, 650_875_120, 112),
    "A K=12 N=500": (
        lambda: [[functools.partial(compute_A_family, 12, 500)]], 1, 1, 0, 1_645_105_280, 104
    ),
    "identity-sweep seed 1": (_identity_sweep(1), 1792, 48, 1744, 3_216_066_240, 80),
    "identity-sweep seed 2": (_identity_sweep(2), 1792, 29, 1763, 1_995_987_752, 80),
    "identity-sweep seed 3": (_identity_sweep(3), 1792, 45, 1747, 2_733_923_720, 80),
    "deep-window seed 1": (_deep_window(1), 138, 114, 24, 1_713_985_504, 80),
    "deep-window seed 2": (_deep_window(2), 138, 115, 23, 1_715_335_712, 80),
    "deep-window seed 3": (_deep_window(3), 138, 113, 25, 1_686_028_656, 80),
}


def _replay(monkeypatch, runs):
    built = []

    def recorder(tag):
        def build(K, order, lowest=0):
            built.append((tag, K, order, lowest))
            members = [TruncatedSeries.zero(order) for _ in range(lowest, K + 1)]
            if lowest == 0:
                members[0] = TruncatedSeries.one(order)
            return MacmahonFamily(tag, tuple(members), order, K, lowest)

        return build

    for tag, store in STORES.items():
        monkeypatch.setattr(store, "_build", recorder(tag))
    hits = 0
    for calls in runs:
        for store in STORES.values():
            store.cache_clear()
        for call in calls:
            call()
        hits += sum(store.cache_info().hits for store in STORES.values())
    return built, hits


def _work(built):
    # the widest slot and the walked volume over the builds; a build whose
    # members are all zero at its order folds nothing
    widest = volume = 0
    for tag, K, order, lowest in built:
        step = 1 if tag == "A" else 2
        top = _top_member(step, K, order)
        if lowest > top:
            continue
        bits = _slot_bits(_fold_bound_bits(step, order, lowest, top))
        widest = max(widest, bits)
        volume += oracles.fold_window_volume(step, lowest, top, order, bits)
    return widest, volume


@pytest.mark.parametrize("name", LEDGER)
def test_family_stores_do_no_more_work_than_the_ledger(name, monkeypatch):
    sequence, requests, builds, hits, volume, widest = LEDGER[name]
    runs = sequence()
    built, seen_hits = _replay(monkeypatch, runs)
    seen_widest, seen_volume = _work(built)
    assert sum(map(len, runs)) == requests
    # every request is a hit or a miss, and every miss builds once
    assert seen_hits + len(built) == requests
    assert len(built) <= builds and seen_hits >= hits, (len(built), seen_hits)
    assert seen_volume <= volume, seen_volume
    assert seen_widest <= widest, seen_widest


def _check_calls(ops):
    # the request each family verifier call makes of the store of checks
    return [(op["target"], _request(op)) for op in ops if op["target"] != "divisor"]


def _check_sweep(tag, N):
    return lambda: [_check_calls([{"target": tag, "k": k, "N": N} for k in range(13)])]


def _check_identity_sweep(seed):
    run = workloads.identity_sweep(seed, 15)
    return lambda: [_check_calls(run.warmup + run.shards[0])]


def _check_deep_window(seed):
    run = workloads.deep_window(seed, 15)
    return lambda: [_check_calls(run.warmup + shard) for shard in run.shards]


# sequence -> (its family verifier calls, one list per fresh store of
# checks; requests, misses, hits)
CHECK_LEDGER = {
    "thm-a k=0..12 N=120": (_check_sweep("thm-a", 120), 13, 13, 0),
    "thm-c k=0..12 N=150": (_check_sweep("thm-c", 150), 13, 13, 0),
    "identity-sweep seed 1": (_check_identity_sweep(1), 1792, 108, 1684),
    "identity-sweep seed 2": (_check_identity_sweep(2), 1792, 69, 1723),
    "identity-sweep seed 3": (_check_identity_sweep(3), 1792, 98, 1694),
    "deep-window seed 1": (_check_deep_window(1), 138, 119, 19),
    "deep-window seed 2": (_check_deep_window(2), 138, 120, 18),
    "deep-window seed 3": (_check_deep_window(3), 138, 118, 20),
}


@pytest.mark.parametrize("name", CHECK_LEDGER)
def test_check_store_does_no_more_work_than_the_ledger(name, monkeypatch):
    sequence, requests, misses, hits = CHECK_LEDGER[name]
    runs = sequence()
    monkeypatch.setattr(_first_mismatch, "_build", lambda identity, request: None)
    seen_hits = seen_misses = 0
    for calls in runs:
        _first_mismatch.cache_clear()
        for call in calls:
            _first_mismatch(*call)
        info = _first_mismatch.cache_info()
        seen_hits, seen_misses = seen_hits + info.hits, seen_misses + info.misses
    assert sum(map(len, runs)) == requests
    assert seen_hits + seen_misses == requests
    assert seen_misses <= misses and seen_hits >= hits, (seen_misses, seen_hits)

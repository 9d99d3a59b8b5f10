"""The stores' work on fixed call sequences, pinned in figures that do not
depend on the machine: the misses of the store of checks, the family
stores' builds and hits, the widest slot a build packs, and the walked
volume, `oracles.fold_window_volume` summed over the builds.

Each sequence is replayed through the production chain.  A family verifier
call asks the real store of checks, `identities._first_mismatch`, for the
build that `_build_request` names, and each miss of that store asks the
real `compute_A_family` or `compute_C_family` for the build.  The family
stores decide from keys alone, so their `_build` is replaced by one that
records (K, order, lowest) and returns a family of zero members of the
right shape: nothing is folded.  A zero family's checks are all kept, as a
correct family's are, so the store of checks misses exactly as it does on
real families.  The reports themselves are not read.

Every figure but the call count is an upper bound, and the family hits a
lower one: a change that raises a bound or lowers the hits fails here, and
a change that improves one updates the ledger and says why in CHANGES.md.
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
    compute_A_family,
    compute_C_family,
)
from macmahon.identities import _first_mismatch, _verify
from macmahon.partitions import _top_member
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


def _calls(ops):
    # each family verifier call as a workload makes it, through the path
    # all six verifiers share; the divisor verifier asks no store
    return [
        functools.partial(_verify, op["target"], op.get("k"), op.get("j"), op.get("N"))
        for op in ops
        if op["target"] != "divisor"
    ]


def _one(target, **params):
    return lambda: [_calls([{"target": target, **params}])]


def _sweep(target, N):
    # a cold theorem sweep over k = 0..12
    return lambda: [_calls([{"target": target, "k": k, "N": N} for k in range(13)])]


def _identity_sweep(seed):
    # one long-lived process: the warm-up, then every pass, in one set of stores
    run = workloads.identity_sweep(seed, 15)
    return lambda: [_calls(run.warmup + run.shards[0])]


def _deep_window(seed):
    # one fresh process, and so fresh stores, per shard, each after the warm-up
    run = workloads.deep_window(seed, 15)
    return lambda: [_calls(run.warmup + shard) for shard in run.shards]


# sequence -> (its calls, one list per fresh set of stores; calls, misses of
# the store of checks, family builds, family hits, walked volume in bits,
# widest slot in bits)
LEDGER = {
    "thm-a k=0..12 N=120": (_sweep("thm-a", 120), 13, 13, 4, 9, 211_610_512, 72),
    "thm-c k=0..12 N=150": (_sweep("thm-c", 150), 13, 13, 6, 7, 175_956_512, 64),
    "thm-a(30,200)": (_one("thm-a", k=30, N=200), 1, 1, 1, 0, 132_060_368, 88),
    "thm-a(60,300)": (_one("thm-a", k=60, N=300), 1, 1, 1, 0, 397_346_208, 112),
    "cor-a(20,2)": (_one("cor-a", k=20, j=2), 1, 1, 1, 0, 5_593_952, 56),
    "cor-c(20,2)": (_one("cor-c", k=20, j=2), 1, 1, 1, 0, 10_880_912, 56),
    "cor-a(100,2)": (_one("cor-a", k=100, j=2), 1, 1, 1, 0, 326_943_680, 112),
    "cor-c(100,2)": (_one("cor-c", k=100, j=2), 1, 1, 1, 0, 650_875_120, 112),
    "A K=12 N=500": (
        lambda: [[functools.partial(compute_A_family, 12, 500)]], 1, 0, 1, 0, 1_645_105_280, 104
    ),
    "identity-sweep seed 1": (_identity_sweep(1), 1792, 108, 48, 60, 3_216_066_240, 80),
    "identity-sweep seed 2": (_identity_sweep(2), 1792, 69, 29, 40, 1_995_987_752, 80),
    "identity-sweep seed 3": (_identity_sweep(3), 1792, 98, 45, 53, 2_733_923_720, 80),
    "deep-window seed 1": (_deep_window(1), 138, 119, 114, 5, 1_713_985_504, 80),
    "deep-window seed 2": (_deep_window(2), 138, 120, 114, 6, 1_714_928_224, 80),
    "deep-window seed 3": (_deep_window(3), 138, 118, 112, 6, 1_662_760_944, 80),
}


def _replay(monkeypatch, runs):
    # (the builds recorded, the hits and misses of the store of checks, the
    # family stores' hits), summed over the runs
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
    check_hits = check_misses = family_hits = 0
    for calls in runs:
        for store in (_first_mismatch, *STORES.values()):
            store.cache_clear()
        for call in calls:
            call()
        info = _first_mismatch.cache_info()
        check_hits, check_misses = check_hits + info.hits, check_misses + info.misses
        family_hits += sum(store.cache_info().hits for store in STORES.values())
    return built, check_hits, check_misses, family_hits


def _work(built):
    # the widest slot and the walked volume over the builds; a build whose
    # members are all zero at its order folds nothing
    widest = volume = 0
    for tag, K, order, lowest in built:
        step = 1 if tag == "A" else 2
        top = min(K, _top_member(step, order))
        if lowest > top:
            continue
        bits = _slot_bits(_fold_bound_bits(step, order, lowest, top))
        widest = max(widest, bits)
        volume += oracles.fold_window_volume(step, lowest, top, order, bits)
    return widest, volume


@pytest.mark.parametrize("name", LEDGER)
def test_stores_do_no_more_work_than_the_ledger(name, monkeypatch):
    sequence, calls, misses, builds, hits, volume, widest = LEDGER[name]
    runs = sequence()
    built, check_hits, check_misses, family_hits = _replay(monkeypatch, runs)
    seen_widest, seen_volume = _work(built)
    assert sum(map(len, runs)) == calls
    # a call that asks no check asks its family store directly; each miss of
    # the store of checks asks a family store once, and every family request
    # is a hit or a build
    direct = calls - check_hits - check_misses
    assert family_hits + len(built) == check_misses + direct
    assert check_misses <= misses, check_misses
    assert len(built) <= builds and family_hits >= hits, (len(built), family_hits)
    assert seen_volume <= volume, seen_volume
    assert seen_widest <= widest, seen_widest

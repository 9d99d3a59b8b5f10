"""Identity verifiers: the passing cases, the engineered failing cases with
their predicted first-mismatch exponents, truncation soundness, and the
sharpness of the corollary windows."""

import itertools
import json
import math
import random
import types

import pytest

import macmahon.identities as identities
from macmahon.families import (
    MAX_ORDER,
    MacmahonFamily,
    _top_member,
    compute_A_family,
    compute_A_family_uncached,
    compute_C_family,
)
from macmahon.identities import (
    Mismatch,
    OrderBelowFloor,
    VerificationReport,
    corollary_weights,
    family_request,
    theorem_rhs,
    verify_corollary_A,
    verify_corollary_C,
    verify_divisor_identities,
    verify_limit_A,
    verify_limit_C,
    verify_theorem_A,
    verify_theorem_C,
)
from macmahon.partitions import (
    mk_bruteforce,
    mk_odd_bruteforce,
    overpartition_series,
    p3_series,
)
from oracles import as_series


# family verifier target -> its verifier, called with (k, j, N)
FAMILY_VERIFIERS = {
    "thm-a": lambda k, j, N: verify_theorem_A(k, N),
    "thm-c": lambda k, j, N: verify_theorem_C(k, N),
    "cor-a": lambda k, j, N: verify_corollary_A(k, j),
    "cor-c": lambda k, j, N: verify_corollary_C(k, j),
    "limit-a": lambda k, j, N: verify_limit_A(k, N),
    "limit-c": lambda k, j, N: verify_limit_C(k, N),
}


# -- main theorems -----------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 5])
def test_theorem_A_passes(k):
    report = verify_theorem_A(k, 60)
    assert report.passed
    assert report.identity == "thm-a"
    assert report.first_mismatch is None


@pytest.mark.parametrize("k", [0, 2, 4])
def test_theorem_C_passes(k):
    report = verify_theorem_C(k, 60)
    assert report.passed


def test_theorem_terms_used_counts_members_reaching_the_window():
    for k, order in [(0, 60), (3, 45), (7, 33)]:
        report = verify_theorem_A(k, order)
        shift = k * (k + 1) // 2
        expected = len(
            [m for m in range(k, 200) if m * (m + 1) // 2 <= order + shift]
        )
        assert report.terms_used == expected
        reportC = verify_theorem_C(k, order)
        expectedC = len([m for m in range(k, 200) if m * m <= order + k * k])
        assert reportC.terms_used == expectedC


def test_theorem_A_perturbed_weight_fails_at_k_plus_1():
    # adding one extra copy of the next member makes the first bad exponent
    # exactly k+1, where that member's lowered expansion begins
    k, order = 2, 30
    shift = k * (k + 1) // 2
    rhs, _ = theorem_rhs("A", k, order)
    fam = compute_A_family(k + 1, order + shift)
    lifted_next = [fam.members[k + 1].coeffs[n + shift] for n in range(order + 1)]
    perturbed = [rhs.coeffs[n] + lifted_next[n] for n in range(order + 1)]
    lhs = p3_series(order)
    bad = [n for n in range(order + 1) if perturbed[n] != lhs.coeffs[n]]
    assert bad[0] == k + 1


def test_theorem_C_dropped_term_fails_at_2k_plus_1():
    k, order = 3, 40
    shift = k * k
    rhs, _ = theorem_rhs("C", k, order)
    fam = compute_C_family(k + 1, order + shift)
    w = math.comb(2 * (k + 1), (k + 1) + k)
    dropped = [
        rhs.coeffs[n] - w * fam.members[k + 1].coeffs[n + shift] for n in range(order + 1)
    ]
    lhs = overpartition_series(order)
    bad = [n for n in range(order + 1) if dropped[n] != lhs.coeffs[n]]
    assert bad[0] == 2 * k + 1


def test_truncation_soundness_of_theorem_sums():
    for k, small, big in [(0, 20, 35), (3, 25, 60)]:
        rhs_small, _ = theorem_rhs("A", k, small)
        rhs_big, _ = theorem_rhs("A", k, big)
        assert rhs_big.truncate(small) == rhs_small
        rhs_small, _ = theorem_rhs("C", k, small)
        rhs_big, _ = theorem_rhs("C", k, big)
        assert rhs_big.truncate(small) == rhs_small


def test_adjacent_theorem_instances_agree():
    # both lowered sums equal the same generating function, so they agree
    # with each other exactly on the shared window
    a1, _ = theorem_rhs("A", 1, 40)
    a2, _ = theorem_rhs("A", 2, 40)
    assert a1 == a2
    c1, _ = theorem_rhs("C", 1, 40)
    c2, _ = theorem_rhs("C", 2, 40)
    assert c1 == c2


# (target, verifier, arguments, the doctored exponent inside its window)
DOCTORED = [
    ("thm-a", verify_theorem_A, (0, 25), 7),
    ("thm-c", verify_theorem_C, (1, 25), 7),
    ("cor-a", verify_corollary_A, (1, 2), 5),
    ("cor-c", verify_corollary_C, (1, 2), 9),
    ("limit-a", verify_limit_A, (3, 20), 2),
    ("limit-c", verify_limit_C, (2, 20), 3),
]


@pytest.mark.parametrize("target,verify,args,n", DOCTORED, ids=[d[0] for d in DOCTORED])
def test_failing_comparison_is_reported_not_raised(target, verify, args, n, monkeypatch):
    # corrupt the generating function; the verifier must return data, with
    # the generating function on the left and the member sum on the right
    name = "p3_series" if target.endswith("a") else "overpartition_series"
    real = getattr(identities, name)(60)
    doctored = list(real.coeffs)
    doctored[n] += 1
    monkeypatch.setattr(
        identities, name, lambda order: as_series(doctored[: order + 1], order)
    )
    report = verify(*args)
    assert not report.passed
    assert report.first_mismatch == Mismatch(n, lhs=real.coeffs[n] + 1, rhs=real.coeffs[n])


# (target, verifier, arguments, member doctored, the exponent just below its floor)
BELOW_FLOOR = [
    ("thm-a", verify_theorem_A, (1, 25), 3, 5),
    ("thm-c", verify_theorem_C, (1, 25), 2, 3),
    ("cor-a", verify_corollary_A, (1, 2), 3, 5),
    ("cor-c", verify_corollary_C, (1, 2), 3, 8),
]


@pytest.mark.parametrize(
    "target,verify,args,m,e", BELOW_FLOOR, ids=[d[0] for d in BELOW_FLOOR]
)
def test_a_member_nonzero_below_its_floor_is_reported(target, verify, args, m, e, monkeypatch):
    # the member sum skips each member's zero prefix; a store that puts a
    # nonzero there must still be caught, at that exponent, with the weight
    # of the member added to the right side
    name = "compute_A_family" if target.endswith("a") else "compute_C_family"
    real = getattr(identities, name)
    clean = verify(*args)

    def doctored(K, order, lowest=0):
        fam = real(K, order, lowest)
        coeffs = list(fam.member(m).coeffs)
        assert coeffs[e] == 0 and coeffs[e + 1] > 0
        coeffs[e] += 1
        rows = list(fam.members)
        rows[m - lowest] = as_series(coeffs, order)
        return MacmahonFamily(fam.family, tuple(rows), order, K, lowest)

    monkeypatch.setattr(identities, name, doctored)
    # the clean call kept its check; the doctored one must build again
    identities._first_mismatch.cache_clear()
    report = verify(*args)
    k = args[0]
    if target.endswith("a"):
        n, weight, gf = e - k * (k + 1) // 2, math.comb(2 * m + 1, m + k + 1), p3_series
    else:
        n, weight, gf = e - k * k, math.comb(2 * m, m + k), overpartition_series
    want = gf(n).coeffs[n]
    assert report.first_mismatch == Mismatch(n, lhs=want, rhs=want + weight)
    fields = ("identity", "k", "j", "order", "terms_used")
    assert [getattr(report, f) for f in fields] == [getattr(clean, f) for f in fields]


def test_family_order_is_the_highest_order_each_verifier_builds(monkeypatch):
    # each verifier but the divisor's makes exactly one family store request
    # and builds no series of a higher order.  The request covers what
    # family_request names: it is that request for a corollary or limit
    # verifier, and for a theorem verifier the build rounded to an order
    # that is a multiple of 32 (within the order limit), an even lowest
    # member and every member nonzero at that order.  The divisor verifier
    # reads its members from power sums, so it makes no family request and
    # reads no generating function, and family_request refuses it
    requested, families = [], []

    def recording_store(tag, fn):
        def wrapper(K, order, lowest=0):
            requested.append(order)
            families.append((tag, K, order, lowest))
            return fn(K, order, lowest=lowest)

        return wrapper

    def recording_series(fn):
        def wrapper(order):
            requested.append(order)
            return fn(order)

        return wrapper

    for tag in "AC":
        name = f"compute_{tag}_family"
        monkeypatch.setattr(identities, name, recording_store(tag, getattr(identities, name)))
    for name in ("p3_series", "overpartition_series"):
        monkeypatch.setattr(identities, name, recording_series(getattr(identities, name)))
    verifiers = FAMILY_VERIFIERS | {"divisor": lambda k, j, N: verify_divisor_identities(N)}
    checked = 0
    for target, verify in verifiers.items():
        for k in range(9):
            for j in range(4):
                for N in (1, 3, 7, 20, 45):
                    requested.clear()
                    families.clear()
                    # a kept check would answer without a request
                    identities._first_mismatch.cache_clear()
                    try:
                        assert verify(k, j, N).passed
                    except ValueError as exc:
                        # a limit order below the valuation of member k
                        assert target.startswith("limit") and f"member {k}" in str(exc)
                        continue
                    if target == "divisor":
                        assert families == requested == [], N
                        with pytest.raises(ValueError, match="no family store request"):
                            family_request(target, k, j, N)
                    else:
                        request = tag, K, order, lowest = family_request(target, k, j, N)
                        step = 1 if tag == "A" else 2
                        if target.startswith("thm"):
                            order = min(-(-order // 32) * 32, MAX_ORDER)
                            lowest -= lowest % 2
                            K = _top_member(step, order, order)
                        assert families == [(tag, K, order, lowest)], (target, k, j, N)
                        assert order >= request[2] and lowest <= request[3]
                        assert _top_member(step, K, order) >= request[1]
                        assert max(requested) == order, (target, k, j, N)
                    checked += 1
    assert checked > 1000


# -- kept checks ------------------------------------------------------------------------

def _clear_stores():
    for store in (
        compute_A_family, compute_C_family, p3_series, overpartition_series,
        identities._first_mismatch,
    ):
        store.cache_clear()


def _fields(report):
    return report.to_json_dict() | {"elapsed_ms": None}


def test_checks_are_kept_per_family_and_k():
    # one check per (family, k), keyed by the window of the build its call
    # asks for: a theorem window that rounds alike hits, and so do a
    # corollary and a limit window inside a kept one; another k or family
    # misses, a longer window replaces the kept check, and no family or k
    # drops another's
    store = identities._first_mismatch
    verify_theorem_A(0, 100)
    verify_theorem_A(0, 110)  # both round to order 128
    verify_theorem_A(0, 90)
    verify_corollary_A(0, 4)  # the window 0..14
    verify_limit_A(0, 3)  # the window 0..0
    assert store.cache_info() == (4, 1, 1, 1)
    verify_corollary_C(0, 2)  # the A check of k = 0 does not answer C
    verify_limit_C(0, 5)  # inside the corollary's window 0..8
    verify_corollary_A(1, 0)
    assert store.cache_info() == (5, 3, 1, 3)
    verify_theorem_C(0, 50)  # reaches past the kept C check, which it replaces
    verify_theorem_A(0, 200)
    assert store.cache_info() == (5, 5, 1, 3)
    # 40 values of k keep 40 checks of C: 39 new ones beside k = 0's
    for k in range(40):
        verify_theorem_C(k, 0)
    assert store.cache_info() == (6, 44, 1, 42)
    for k in range(40):
        verify_theorem_C(k, 0)
    assert store.cache_info() == (46, 44, 1, 42)


def test_a_hit_reads_no_series_and_compares_nothing(monkeypatch):
    # once a call of a family and k has missed, a shorter call of any of its
    # verifiers is answered by the kept check alone: no generating-function
    # call, no compare and no family store request.  The kept C check of
    # k = 3 reaches further than the A call of k = 3 but does not answer it
    calls = []

    def counted(name):
        real = getattr(identities, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("p3_series", "overpartition_series", "_compare", "compute_A_family",
                 "compute_C_family"):
        monkeypatch.setattr(identities, name, counted(name))
    for tag, theorem, corollary, limit in (
        ("C", verify_theorem_C, verify_corollary_C, verify_limit_C),
        ("A", verify_theorem_A, verify_corollary_A, verify_limit_A),
    ):
        assert theorem(3, 120).passed
        assert calls, tag
        calls.clear()
        k_floor = 6 if tag == "A" else 9  # the valuation of member 3
        for report in (theorem(3, 120), theorem(3, 40), theorem(3, 0), corollary(3, 4),
                       limit(3, k_floor), limit(3, 200)):
            assert report.passed
        assert calls == [], tag


def test_a_kept_mismatch_past_the_window_is_not_reported(monkeypatch):
    # thm-a for k = 1 at N = 60 builds order 64, the window 0..63 rounded up
    # from 0..60; member 1 doctored at q^63, 62 in the window, fails the
    # build's check but lies past the call's own window, so the call passes.
    # A later call whose window reaches it is answered by the kept check.
    _doctor(monkeypatch, "A", 1, 63)
    assert verify_theorem_A(1, 60).passed
    assert identities._first_mismatch.cache_info()[:2] == (0, 1)
    report = verify_theorem_A(1, 62)
    assert identities._first_mismatch.cache_info()[:2] == (1, 1)
    want = p3_series(62).coeffs[62]
    assert report.first_mismatch == Mismatch(62, lhs=want, rhs=want + 1)


def _random_calls(rng, n):
    # (target, k, j, N) for every family verifier, k = 0..40 (more checks than
    # the store keeps), theorem windows N = 0..400; half the calls read an
    # earlier call's family and k through any of its verifiers, a theorem
    # on a window at most 40 shorter than the earlier call's N
    calls = []
    for _ in range(n):
        if calls and rng.random() < 0.5:
            target, k, _, N = rng.choice(calls)
            target = rng.choice([t for t in FAMILY_VERIFIERS if t[-1] == target[-1]])
            N = rng.randint(max(0, N - 40), N) if N is not None else rng.randint(0, 400)
        else:
            target = rng.choice(list(FAMILY_VERIFIERS))
            k, N = rng.randint(0, 40), rng.randint(0, 400)
        j = rng.randint(0, 4) if target.startswith("cor") else None
        if target.startswith("limit"):
            # from the valuation of member k up to past its window's end
            step = 1 if target.endswith("a") else 2
            floor = k + step * k * (k - 1) // 2
            N = floor + N % (2 * step * k + 4)
        calls.append((target, k, j, None if target.startswith("cor") else N))
    return calls


@pytest.mark.parametrize("seed", [0, 1])
def test_a_kept_check_reports_what_a_cold_call_does(seed):
    # random calls of every family verifier; each report equals that of the
    # same call made with every store empty
    calls = _random_calls(random.Random(seed), 80)
    warm = [_fields(FAMILY_VERIFIERS[target](k, j, N)) for target, k, j, N in calls]
    info = identities._first_mismatch.cache_info()
    # some calls replaced the kept check of their family and k
    assert info.hits >= 20 and info.misses > info.currsize, info
    cold = {}
    for call in set(calls):
        _clear_stores()
        target, k, j, N = call
        cold[call] = _fields(FAMILY_VERIFIERS[target](k, j, N))
    assert warm == [cold[call] for call in calls]


def _doctor(monkeypatch, tag, m, e):
    # every build of family tag that holds member m holds it with one added
    # to its coefficient at exponent e
    name = f"compute_{tag}_family"
    real = getattr(identities, name)

    def doctored(K, order, lowest=0):
        fam = real(K, order, lowest)
        if not lowest <= m <= K:
            return fam
        coeffs = list(fam.member(m).coeffs)
        coeffs[e] += 1
        rows = list(fam.members)
        rows[m - lowest] = as_series(coeffs, order)
        return MacmahonFamily(fam.family, tuple(rows), order, K, lowest)

    monkeypatch.setattr(identities, name, doctored)


# (case, member doctored, the exponent it is doctored at, calls (target, k,
# j, N), then the check store's hits and misses after them).  The theorem
# cases make two misses at two k, then two hits inside their windows, and the
# member is doctored just below its floor.  The corollary and limit cases
# are answered by the kept theorem check of their k, and read the member
DOCTORED_CHECKS = [
    (
        "thm-a", 3, 5,
        [("thm-a", 1, None, 60), ("thm-a", 2, None, 40), ("thm-a", 1, None, 25),
         ("thm-a", 2, None, 20)],
        (2, 2),
    ),
    (
        "thm-c", 2, 3,
        [("thm-c", 1, None, 50), ("thm-c", 0, None, 45), ("thm-c", 1, None, 20),
         ("thm-c", 0, None, 10)],
        (2, 2),
    ),
    (
        "cor-a", 3, 5,
        [("thm-a", 1, None, 60), ("cor-a", 1, 2, None), ("cor-a", 1, 3, None)],
        (2, 1),
    ),
    ("limit-c", 1, 3, [("thm-c", 1, None, 50), ("limit-c", 1, None, 9)], (1, 1)),
]


@pytest.mark.parametrize(
    "case,m,e,calls,counts", DOCTORED_CHECKS, ids=[d[0] for d in DOCTORED_CHECKS]
)
def test_a_kept_check_reports_a_doctored_member_as_a_cold_call_does(
    case, m, e, calls, counts, monkeypatch
):
    # the member is doctored before the first call, so a kept check finds
    # it; a hit must then report the mismatch a cold call reports
    _doctor(monkeypatch, case[-1].upper(), m, e)
    warm = [_fields(FAMILY_VERIFIERS[target](k, j, N)) for target, k, j, N in calls]
    assert identities._first_mismatch.cache_info()[:2] == counts
    cold = []
    for target, k, j, N in calls:
        _clear_stores()
        cold.append(_fields(FAMILY_VERIFIERS[target](k, j, N)))
    assert warm == cold
    assert all(report["first_mismatch"] is not None for report in cold)
    if case.startswith("thm"):
        assert len({report["first_mismatch"]["exponent"] for report in cold[2:]}) == 2


# (target, k, j, N, member above those the call reads, the exponent just
# below its floor)
FAULTY_ABOVE = [
    ("cor-a", 1, 2, None, 4, 9),
    ("limit-a", 1, None, 5, 2, 2),
]


@pytest.mark.parametrize("target,k,j,N,m,e", FAULTY_ABOVE, ids=[d[0] for d in FAULTY_ABOVE])
def test_a_hit_reports_a_faulty_member_that_a_cold_call_never_reads(
    target, k, j, N, m, e, monkeypatch
):
    # a kept theorem check covers members above the ones a corollary or
    # limit call reads; on a family whose member there is nonzero below its floor
    # inside the call's window, a hit reports that member and a cold call,
    # which never reads it, passes
    _doctor(monkeypatch, "A", m, e)
    verify = FAMILY_VERIFIERS[target]
    cold = verify(k, j, N)
    assert cold.passed
    _clear_stores()
    assert not verify_theorem_A(k, 60).passed
    warm = verify(k, j, N)
    assert identities._first_mismatch.cache_info()[:2] == (1, 1)
    n, weight = e - k * (k + 1) // 2, math.comb(2 * m + 1, m + k + 1)
    want = p3_series(n).coeffs[n]
    assert warm.first_mismatch == Mismatch(n, lhs=want, rhs=want + weight)
    fields = ("identity", "k", "j", "order", "terms_used")
    assert [getattr(warm, f) for f in fields] == [getattr(cold, f) for f in fields]


# -- corollaries ------------------------------------------------------------------------


def test_corollary_A_weights_at_k100():
    assert corollary_weights("A", 100, 2) == [1, 203, 20910]


def test_corollary_C_weights_at_k100():
    assert corollary_weights("C", 100, 2) == [1, 202, 20706]


@pytest.mark.parametrize("k,j", [(0, 3), (1, 2), (2, 2), (20, 2)])
def test_corollary_A_passes(k, j):
    report = verify_corollary_A(k, j)
    assert report.passed
    assert report.order == (j + 1) * (j + 2 * k + 2) // 2 - 1
    assert report.terms_used == j + 1


@pytest.mark.parametrize("k,j", [(0, 3), (1, 2), (2, 2), (20, 2)])
def test_corollary_C_passes(k, j):
    report = verify_corollary_C(k, j)
    assert report.passed
    assert report.order == (j + 1) * (j + 2 * k + 1) - 1


def test_corollary_A_smallest_window():
    # k=1, j=0: the window is n < 2 and the values are hand-checkable
    report = verify_corollary_A(1, 0)
    assert report.passed and report.order == 1
    assert p3_series(1).coeffs == (1, 3)
    assert mk_bruteforce(1, 1).value == 1
    assert mk_bruteforce(1, 2).value == 3


def test_corollary_windows_are_sharp_where_the_oracle_confirms():
    # at the first exponent past the guaranteed window, the omitted member
    # contributes; assert failure only where brute force confirms it does
    for k, j in [(0, 0), (0, 1), (1, 0)]:
        shift = k * (k + 1) // 2
        bound = (j + 1) * (j + 2 * k + 2) // 2
        omitted = mk_bruteforce(k + j + 1, bound + shift).value
        assert omitted > 0, (k, j)
        fam = compute_A_family(k + j, bound + shift)
        rhs = sum(
            w * fam.members[k + m].coeffs[bound + shift]
            for m, w in enumerate(corollary_weights("A", k, j))
        )
        assert p3_series(bound).coeffs[bound] != rhs, (k, j)

        boundC = (j + 1) * (j + 2 * k + 1)
        omittedC = mk_odd_bruteforce(k + j + 1, boundC + k * k).value
        assert omittedC > 0, (k, j)
        famC = compute_C_family(k + j, boundC + k * k)
        rhsC = sum(
            w * famC.members[k + m].coeffs[boundC + k * k]
            for m, w in enumerate(corollary_weights("C", k, j))
        )
        assert overpartition_series(boundC).coeffs[boundC] != rhsC, (k, j)


def test_corollary_rejects_negative_parameters():
    with pytest.raises(ValueError):
        verify_corollary_A(-1, 0)
    with pytest.raises(ValueError):
        verify_corollary_C(0, -1)


@pytest.mark.parametrize(
    "verify,args",
    [
        (verify_theorem_A, (True, 20)),
        (verify_theorem_C, (2, True)),
        (verify_corollary_A, (True, 2)),
        (verify_corollary_C, (1, False)),
        (verify_limit_A, (True, 5)),
        (verify_limit_C, (False, 5)),
        (verify_divisor_identities, (True,)),
    ],
    ids=["thm-a", "thm-c", "cor-a", "cor-c", "limit-a", "limit-c", "divisor"],
)
def test_verifiers_reject_bool_parameters(verify, args):
    # bool is an int subclass; without the check True would run as 1 and be
    # reported back as true.  The verifier itself must refuse it, before any
    # family build does
    with pytest.raises(TypeError, match="must be an int, not bool"):
        verify(*args)


# -- limit relations -----------------------------------------------------------------------


def test_limit_A_trivial_window():
    report = verify_limit_A(0, 10)
    assert report.passed


def test_limit_A_examples():
    report = verify_limit_A(4, 30)
    assert report.passed and report.terms_used == 1
    assert verify_limit_A(10, 80).passed
    # the lowered member begins with the stabilized prefix
    fam = compute_A_family(4, 30)
    assert [fam.members[4].coeffs[10 + i] for i in range(5)] == [1, 3, 9, 22, 51]


def test_limit_C_examples():
    assert verify_limit_C(0, 20).passed
    assert verify_limit_C(5, 40).passed
    report = verify_limit_C(3, 30)
    assert report.passed and report.terms_used == 1
    fam = compute_C_family(3, 30)
    assert [fam.members[3].coeffs[9 + i] for i in range(7)] == [1, 2, 4, 8, 14, 24, 40]


def test_limit_rejects_too_small_order():
    with pytest.raises(ValueError):
        verify_limit_A(4, 9)
    with pytest.raises(ValueError):
        verify_limit_C(4, 15)


def test_limit_rejects_negative_k_at_entry():
    # before any family build, whose own check would name the family cap
    with pytest.raises(ValueError, match="k must be non-negative"):
        verify_limit_A(-3, 10)
    with pytest.raises(ValueError, match="k must be non-negative"):
        verify_limit_C(-1, 10)


# -- divisor identities ----------------------------------------------------------------------


def test_divisor_identities_pass():
    report = verify_divisor_identities(60)
    assert report.passed
    assert report.identity == "divisor"


def test_divisor_identity_hand_values():
    # n=3: (-5)*4 + 28 = 8 = 8*1 ; n=4: (-7)*7 + 73 = 24 = 8*3 ; n=5: sigma_1 = 6
    fam = compute_A_family(2, 5)
    assert fam.members[2].coeffs[3] == 1
    assert fam.members[2].coeffs[4] == 3
    assert fam.members[1].coeffs[5] == 6


# (member doctored, its exponent, the report's first mismatch at it)
DOCTORED_DIVISOR = [
    (1, 17, lambda a1, a2, n: Mismatch(n, a1[n] + 1, a1[n])),
    (2, 23, lambda a1, a2, n: Mismatch(n, 8 * (a2[n] + 1), 8 * a2[n])),
    # the first exponent the formulas cover, the valuation of member 1
    (1, 1, lambda a1, a2, n: Mismatch(n, a1[n] + 1, a1[n])),
]


@pytest.mark.parametrize("m,n,want", DOCTORED_DIVISOR, ids=["A_1", "A_2", "A_1-at-1"])
def test_divisor_reports_a_doctored_member_of_its_rows(m, n, want, monkeypatch):
    # the row builder returns member m one too high at q^n; the report must
    # name n with both sides of the formula that member feeds
    order = 30
    real = compute_A_family_uncached(2, order, 1)
    a1, a2 = real.member(1).coeffs, real.member(2).coeffs
    build = identities._power_sum_members

    def doctored(s1, s3):
        rows = [list(row) for row in build(s1, s3)]
        rows[m - 1][n] += 1
        return rows

    monkeypatch.setattr(identities, "_power_sum_members", doctored)
    report = verify_divisor_identities(order)
    assert report.first_mismatch == want(a1, a2, n)
    assert (report.identity, report.order, report.terms_used) == ("divisor", 30, 2)


def test_divisor_rejects_order_below_one():
    # the divisor sums start at n = 1, the valuation of member 1
    with pytest.raises(OrderBelowFloor, match="at least 1, the valuation of member 1") as exc:
        verify_divisor_identities(0)
    assert exc.value.floor == 1


def test_divisor_identities_pass_at_the_order_limit(monkeypatch):
    # the order limit is checked before the divisor sums are sieved
    assert verify_divisor_identities(MAX_ORDER).passed

    def refuse(order):
        raise AssertionError(f"sieved order {order} for a refused call")

    monkeypatch.setattr(identities, "_divisor_sums", refuse)
    with pytest.raises(ValueError, match="above the order limit"):
        verify_divisor_identities(MAX_ORDER + 1)


# -- report plumbing ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "verify,args", [(verify_theorem_A, (1, 20)), (verify_divisor_identities, (30,))],
    ids=["thm-a", "divisor"],
)
def test_elapsed_ms_is_the_span_between_two_clock_readings(verify, args, monkeypatch):
    # a clock whose readings lie far from 0, so that only their difference
    # gives a span of 250 ms
    clock = types.SimpleNamespace(perf_counter=itertools.cycle((1e6, 1e6 + 0.25)).__next__)
    monkeypatch.setattr(identities, "time", clock)
    assert verify(*args).elapsed_ms == 250.0


def test_passed_follows_first_mismatch():
    failed = VerificationReport("thm-a", 0, None, 10, Mismatch(1, 2, 3), 1, 0.0)
    assert failed.passed is False and failed.to_json_dict()["passed"] is False
    clean = VerificationReport("thm-a", 0, None, 10, None, 1, 0.0)
    assert clean.passed is True and clean.to_json_dict()["passed"] is True


def test_report_json_shape():
    report = verify_theorem_A(1, 20)
    obj = report.to_json_dict()
    assert set(obj) == {
        "identity",
        "k",
        "j",
        "N",
        "passed",
        "first_mismatch",
        "terms_used",
        "elapsed_ms",
    }
    assert obj["j"] is None and obj["first_mismatch"] is None
    json.dumps(obj)  # serializable as-is


def test_report_json_mismatch_values_are_strings(monkeypatch):
    real = p3_series(12)
    doctored = list(real.coeffs)
    doctored[3] -= 2
    monkeypatch.setattr(
        identities, "p3_series", lambda order: as_series(doctored[: order + 1], order)
    )
    obj = verify_theorem_A(0, 12).to_json_dict()
    mm = obj["first_mismatch"]
    assert mm["exponent"] == 3
    assert isinstance(mm["lhs"], str) and isinstance(mm["rhs"], str)


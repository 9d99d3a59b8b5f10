"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget.

Run `pytest -s tests/test_acceptance.py` to watch the per-criterion lines.
Everything is exact integer comparison; the budgets are wall-clock seconds.
The deep-window extension of criterion 6 checks the k=100 worked example on
members 100..102 of both families, at orders 5355 and 10608.
"""

import json
import random
import time

from macmahon.cli import main as cli_main
import oracles
from macmahon.families import (
    a_k_directsum,
    compute_A_family,
    compute_A_family_uncached,
    compute_C_family,
)
from macmahon.identities import (
    verify_corollary_A,
    verify_corollary_C,
    verify_divisor_identities,
    verify_limit_A,
    verify_limit_C,
    verify_theorem_A,
    verify_theorem_C,
)
from macmahon.partitions import (
    jacobi_cube,
    mk_bruteforce,
    mk_odd_bruteforce,
    overpartition_series,
    sigma,
    theta_square,
)
from macmahon.series import TruncatedSeries
from oracles import as_series


def check(num, description, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description} ({elapsed:.2f}s, budget {budget}s)")
    assert not failures, failures[:10]
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


A_SNAPSHOTS = [
    (0, [1]),
    (1, [0, 1, 3, 4, 7, 6]),
    (2, [0, 0, 0, 1, 3, 9, 15, 30]),
    (3, [0, 0, 0, 0, 0, 0, 1, 3, 9, 22, 42]),
    (4, [0] * 10 + [1, 3, 9, 22, 51]),
    (5, [0] * 15 + [1, 3, 9, 22, 51]),
]


def test_criterion_01_paper_snapshots():
    t0 = time.perf_counter()
    failures = []
    fam = compute_A_family(5, 19)
    for k, prefix in A_SNAPSHOTS:
        got = list(fam.members[k].coeffs[: len(prefix)])
        if got != prefix:
            failures.append(("A", k, got, prefix))
    overp = overpartition_series(5)
    if list(overp.coeffs) != [1, 2, 4, 8, 14, 24]:
        failures.append(("overpartition", list(overp.coeffs)))
    check(1, "initial segments match the six displays and the overpartition start", failures, t0, 1)


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    fam = compute_A_family(5, 30)
    for k in range(6):
        for n in range(31):
            got = fam.members[k].coeffs[n]
            want = mk_bruteforce(k, n).value
            if got != want:
                failures.append(("A", k, n, got, want))
    famC = compute_C_family(4, 30)
    for k in range(5):
        for n in range(31):
            got = famC.members[k].coeffs[n]
            want = mk_odd_bruteforce(k, n).value
            if got != want:
                failures.append(("C", k, n, got, want))
    fam40 = compute_A_family(3, 40)
    for k in range(4):
        if a_k_directsum(k, 40) != fam40.members[k]:
            failures.append(("directsum", k))
    check(2, "product extraction equals brute force and the literal nested sum", failures, t0, 60)


def test_criterion_03_theorem_A_suite():
    t0 = time.perf_counter()
    reports = [verify_theorem_A(k, 120) for k in range(13)]
    failures = [(r.k, r.first_mismatch) for r in reports if not r.passed]
    check(3, "main A identity exact for k=0..12 at order 120", failures, t0, 120)


def test_criterion_04_theorem_C_suite():
    t0 = time.perf_counter()
    reports = [verify_theorem_C(k, 150) for k in range(13)]
    failures = [(r.k, r.first_mismatch) for r in reports if not r.passed]
    check(4, "main C identity exact for k=0..12 at order 150", failures, t0, 120)


def test_criterion_05_corollary_suites():
    t0 = time.perf_counter()
    failures = []
    for k, j in [(0, 3), (1, 2), (2, 2), (20, 2)]:
        rA = verify_corollary_A(k, j)
        if not (rA.passed and rA.order == (j + 1) * (j + 2 * k + 2) // 2 - 1):
            failures.append(("cor-a", k, j, rA.first_mismatch))
        rC = verify_corollary_C(k, j)
        if not (rC.passed and rC.order == (j + 1) * (j + 2 * k + 1) - 1):
            failures.append(("cor-c", k, j, rC.first_mismatch))
    check(5, "truncated formulas exact over their full stated windows", failures, t0, 300)


def test_criterion_06_worked_example_weights():
    t0 = time.perf_counter()
    failures = []
    for tag, want in [("A", [1, 203, 20910]), ("C", [1, 202, 20706])]:
        got = oracles.identity_weights(tag, 100, 2)
        if got != want:
            failures.append((tag, got, want))
    check(6, "worked-example binomial weights", failures, t0, 1)


def test_criterion_06_extended_deep_windows():
    t0 = time.perf_counter()
    failures = []
    rA = verify_corollary_A(100, 2)
    if not (rA.passed and rA.order == 305):
        failures.append(("cor-a", rA.order, rA.first_mismatch))
    rC = verify_corollary_C(100, 2)
    if not (rC.passed and rC.order == 608):
        failures.append(("cor-c", rC.order, rC.first_mismatch))
    check(6, "deep windows n<306 and n<609 at k=100", failures, t0, 30)


def test_criterion_07_limit_relations():
    t0 = time.perf_counter()
    failures = []
    for k in range(11):
        if not verify_limit_A(k, 80).passed:
            failures.append(("limit-a", k))
    for k in range(9):
        if not verify_limit_C(k, 100).passed:
            failures.append(("limit-c", k))
    check(7, "remainder valuations at least k+1 (A, k<=10) and 2k+1 (C, k<=8)", failures, t0, 30)


def test_criterion_08_divisor_identities():
    t0 = time.perf_counter()
    failures = []
    report = verify_divisor_identities(500)
    if not report.passed:
        failures.append(report.first_mismatch)
    for n in range(1, 501):
        if ((1 - 2 * n) * sigma(1, n) + sigma(3, n)) % 8:
            failures.append(("divisibility", n))
    check(8, "divisor formulas to order 500 with 8-divisibility", failures, t0, 5)


def test_criterion_09_property_suite():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0xACCE)
    for _ in range(40):
        order = rng.randint(0, 32)
        a = as_series([rng.randint(-9, 9) for _ in range(order + 1)], order)
        b = as_series([rng.randint(-9, 9) for _ in range(order + 1)], order)
        c = as_series([rng.randint(-9, 9) for _ in range(order + 1)], order)
        if a * b != b * a or (a * b) * c != a * (b * c):
            failures.append(("product", a.coeffs, b.coeffs, c.coeffs))
        unit = as_series(
            [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(order)], order
        )
        if unit.invert().invert() != unit:
            failures.append(("invert-involution", unit.coeffs))
        if unit * unit.invert() != TruncatedSeries.one(order):
            failures.append(("invert-unit", unit.coeffs))
    for order in range(201):
        poch = oracles.pochhammer(1, 1, order)
        cube = oracles.convolve(oracles.convolve(poch, poch, order), poch, order)
        if cube != list(jacobi_cube(order).coeffs):
            failures.append(("jacobi-cube-product-form", order))
        odd = oracles.pochhammer(1, 2, order)
        even = oracles.pochhammer(2, 2, order)
        square = oracles.convolve(oracles.convolve(even, odd, order), odd, order)
        if square != list(theta_square(order).coeffs):
            failures.append(("theta-square-product-form", order))
    for k, small, big in [(0, 30, 55), (2, 30, 70)]:
        for tag in "AC":
            big_sum = oracles.member_sum(tag, k, big)
            if big_sum.truncate(small) != oracles.member_sum(tag, k, small):
                failures.append((f"truncation-soundness-{tag.lower()}", k))
    check(9, "product axioms, unit inverses, theta product forms, verifier truncation soundness", failures, t0, 60)


def test_criterion_10_bench_sanity(capsys):
    t0 = time.perf_counter()
    failures = []
    t_fam = time.perf_counter()
    compute_A_family_uncached(12, 500)
    t_fam = time.perf_counter() - t_fam
    if t_fam >= 60:
        failures.append(("family K=12 N=500", t_fam))
    code = cli_main(
        ["bench", "--K", "12", "--sizes", "100,200,400", "--format", "json"]
    )
    rows = json.loads(capsys.readouterr().out)
    if code != 0:
        failures.append(("bench exit", code))
    if [r["op"] for r in rows] != ["family"] * 3:
        failures.append(("bench ops", [r["op"] for r in rows]))
    sizes = [r["N"] for r in rows]
    times = [float(r["elapsed_s"]) for r in rows]
    if sizes != sorted(set(sizes)):
        failures.append(("family", "sizes not strictly increasing", sizes))
    if times != sorted(times):
        failures.append(("family", "times not monotone", times))
    with capsys.disabled():
        check(10, "family K=12 N=500 under 60s and a monotone bench ladder", failures, t0, 60)

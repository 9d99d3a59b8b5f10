"""A catalogue of mutants of src/ and the tests that must kill each one.

Each entry changes one piece of the package: the exact old text of one file
under src/macmahon/, which must occur there exactly once, becomes the new
text.  Its killers are the test ids expected to fail on the change.  Run
every entry from the repository root with

    python tests/mutants.py

For each mutant the runner copies src/ to a temporary directory, applies
the change there and runs the mutant's killers with `pytest -x` against the
copy; the working tree is never touched.  It exits 1 if a mutant survives
or an old text does not occur exactly once, and 0 otherwise.  Tier-1 does
not collect this file (it is not named test_*).

Each mutant has a kind.  A "fold", "theta" or "bound" mutant changes a
route the verifiers' identities were derived from, or the bounds its slots
are sized by; a "power-sum" mutant changes the rows the divisor verifier
reads members 1 and 2 from; a "verifier" mutant changes a verifier; a
"store" mutant changes what a verifier asks its family store for or what
its store of checks keeps, and a "limit" one the package's order limit.

The north star's rule that a verifier must never be the only check on a
route derived from the paper's identities is checked here too, and so is
the same rule for the rows a verifier reads.  The test that kills a fold,
theta, bound or power-sum mutant must lie outside tests/test_identities.py
and the verifier criteria of tests/test_acceptance.py, and each of those
criteria must still be defined there, so that a renamed one cannot pass for
an independent test.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# the kinds of mutant that change a route the verifiers' identities were
# derived from, the bounds its slots are sized by, or the rows the divisor
# verifier reads
ROUTE_KINDS = ("fold", "theta", "bound", "power-sum")

# the acceptance criteria that call a verifier or read its identities
VERIFIER_CRITERIA = tuple(
    f"tests/test_acceptance.py::test_criterion_{name}"
    for name in (
        "03_theorem_A_suite",
        "04_theorem_C_suite",
        "05_corollary_suites",
        "06_worked_example_weights",
        "06_extended_deep_windows",
        "07_limit_relations",
        "08_divisor_identities",
        "09_property_suite",
    )
)


class Mutant(NamedTuple):
    name: str
    kind: str  # "fold", "theta", "bound", "power-sum", "verifier", "store" or "limit"
    path: str  # under src/macmahon/
    old: str
    new: str
    killers: tuple[str, ...]


FAMILIES = "tests/test_families.py::"
IDENTITIES = "tests/test_identities.py::"
PARTITIONS = "tests/test_partitions.py::"

FAMILY_ORDER = IDENTITIES + "test_family_order_is_the_highest_order_each_verifier_builds"
LEDGER = "tests/test_store_ledger.py::test_family_stores_do_no_more_work_than_the_ledger"
CHECK_LEDGER = "tests/test_store_ledger.py::test_check_store_does_no_more_work_than_the_ledger"
KEPT_CHECKS = IDENTITIES + "test_checks_are_kept_per_family_and_k"
ORDER_LIMIT = "tests/test_cli.py::test_order_limit_applies_to_the_order_each_call_builds"

MUTANTS = [
    Mutant(
        "fold-cut-one-exponent-too-deep",
        "fold",
        "families.py",
        "cut = r * s + step * r * (r + 1) // 2\n",
        "cut = r * s + step * r * (r + 1) // 2 + 1\n",
        (
            FAMILIES + "test_corollary_shapes_match_theta_and_bruteforce",
            FAMILIES + "test_fold_visits_every_window_the_reference_loop_does",
        ),
    ),
    Mutant(
        "fold-row-loop-stops-one-row-early",
        "fold",
        "families.py",
        "for k in range(min(top, applied), 0, -1):",
        "for k in range(min(top, applied), 1, -1):",
        (FAMILIES + "test_A_member_2_at_order_7", FAMILIES + "test_C_valuations_are_squares"),
    ),
    Mutant(
        "fold-one-doubling-add-dropped",
        "fold",
        "families.py",
        "                t += t >> sh\n                t += t >> sh\n",
        "                t += t >> sh\n",
        (
            FAMILIES + "test_A_member_2_at_order_7",
            FAMILIES + "test_fold_visits_every_window_the_reference_loop_does",
        ),
    ),
    Mutant(
        "fold-uncut-branch-one-row-low",
        "fold",
        "families.py",
        "if k >= lowest:",
        "if k >= lowest - 1:",
        (
            FAMILIES + "test_fold_visits_every_window_the_reference_loop_does",
            FAMILIES + "test_corollary_shapes_match_theta_and_bruteforce",
        ),
    ),
    Mutant(
        "fold-part-sizes-one-step-short",
        "fold",
        "families.py",
        "enumerate(range(1, last + 1, step), 1)",
        "enumerate(range(1, last, step), 1)",
        (
            FAMILIES + "test_family_against_bruteforce_grid",
            FAMILIES + "test_fold_visits_every_window_the_reference_loop_does",
        ),
    ),
    Mutant(
        "unpack-guard-bit-check-dropped",
        "bound",
        "families.py",
        "    if slot_bits < bound_bits + 8:\n",
        "    if False:\n",
        (FAMILIES + "test_unpack_rejects_a_slot_too_narrow_for_its_coefficients",),
    ),
    Mutant(
        "unpack-slot-check-dropped",
        "bound",
        "families.py",
        "if max(slots, default=0) >> bound_bits:",
        "if False:",
        (
            FAMILIES + "test_members_reject_a_slot_too_narrow",
            FAMILIES + "test_a_doctored_series_raises",
            FAMILIES + "test_unpack_names_the_lowest_exponent_past_the_bound",
        ),
    ),
    Mutant(
        "fold-bound-64-bits-too-loose",
        "bound",
        "families.py",
        "    bound = min(\n",
        "    bound = 64 + min(\n",
        (
            FAMILIES + "test_members_only_slot_widths",
            FAMILIES + "test_members_check_each_member_against_its_own_bound",
        ),
    ),
    Mutant(
        "total-bound-one-bit-short",
        "bound",
        "families.py",
        "(10 / 9, 1.25, -3.3)",
        "(10 / 9, 1.25, -4.3)",
        (
            FAMILIES + "test_family_against_bruteforce_grid",
            FAMILIES + "test_bounds_hold_through_the_order_limit",
        ),
    ),
    Mutant(
        "theta-signs-flipped",
        "theta",
        "partitions.py",
        "row.append((-c if (m + k) % 2 else c, _lowval(m, step)))",
        "row.append((c if (m + k) % 2 else -c, _lowval(m, step)))",
        (FAMILIES + "test_members_equal_bruteforce", FAMILIES + "test_members_equal_the_fold"),
    ),
    Mutant(
        "theta-row-one-term-short",
        "theta",
        "partitions.py",
        "    while _lowval(m, step) <= order:\n",
        "    while _lowval(m, step) < order:\n",
        (FAMILIES + "test_members_equal_bruteforce", FAMILIES + "test_members_equal_the_fold"),
    ),
    Mutant(
        "theta-slots-two-bytes-narrower-than-the-series",
        "theta",
        "families.py",
        "bits = _slot_bits(max(dense.coeffs).bit_length())",
        "bits = _slot_bits(max(dense.coeffs).bit_length()) - 16",
        (
            FAMILIES + "test_theta_slots_are_sized_by_the_series_they_hold",
            FAMILIES + "test_members_equal_bruteforce",
        ),
    ),
    Mutant(
        "corollary-order-one-too-high",
        "verifier",
        "identities.py",
        "order = _lowval(k + j + 1, step) - 1\n",
        "order = _lowval(k + j + 1, step)\n",
        (
            FAMILY_ORDER,
            IDENTITIES + "test_corollary_A_smallest_window",
        ),
    ),
    Mutant(
        "lhs-and-rhs-swapped",
        "verifier",
        "identities.py",
        "return _compare(gf(window).coeffs, rhs, window)",
        "return _compare(rhs, gf(window).coeffs, window)",
        (IDENTITIES + "test_failing_comparison_is_reported_not_raised",),
    ),
    Mutant(
        "store-called-one-order-higher",
        "verifier",
        "identities.py",
        "store(K, order, lowest=lowest)",
        "store(K, order + 1, lowest=lowest)",
        (FAMILY_ORDER, IDENTITIES + "test_limit_A_examples"),
    ),
    Mutant(
        "divisor-never-reports-member-2",
        "verifier",
        "identities.py",
        "if 8 * a2[n] != expr:",
        "if False and 8 * a2[n] != expr:",
        (IDENTITIES + "test_divisor_reports_a_doctored_member_of_its_rows",),
    ),
    Mutant(
        "divisor-skips-exponent-1",
        "verifier",
        "identities.py",
        "for n in range(1, order + 1):",
        "for n in range(2, order + 1):",
        (IDENTITIES + "test_divisor_reports_a_doctored_member_of_its_rows",),
    ),
    Mutant(
        "elapsed-ms-adds-the-clock-readings",
        "verifier",
        "identities.py",
        "elapsed_ms = (time.perf_counter() - t0) * 1000.0\n    order = window",
        "elapsed_ms = (time.perf_counter() + t0) * 1000.0\n    order = window",
        (IDENTITIES + "test_elapsed_ms_is_the_span_between_two_clock_readings",),
    ),
    Mutant(
        "divisor-elapsed-ms-adds-the-clock-readings",
        "verifier",
        "identities.py",
        '(time.perf_counter() - t0) * 1000.0\n    return VerificationReport("divisor"',
        '(time.perf_counter() + t0) * 1000.0\n    return VerificationReport("divisor"',
        (IDENTITIES + "test_elapsed_ms_is_the_span_between_two_clock_readings",),
    ),
    Mutant(
        "divisor-newton-sign",
        "power-sum",
        "identities.py",
        "(sq - (c3 - c1) // 6) // 2",
        "(sq + (c3 - c1) // 6) // 2",
        (PARTITIONS + "test_divisor_rows_match_the_sieve_oracle_and_the_fold",),
    ),
    Mutant(
        "divisor-sieve-drops-square-divisors",
        "power-sum",
        "partitions.py",
        "        s1[d * d] += d\n        s3[d * d] += d3\n",
        "",
        (PARTITIONS + "test_divisor_rows_match_the_sieve_oracle_and_the_fold",),
    ),
    Mutant(
        "theorem-order-rounded-down",
        "store",
        "identities.py",
        "-(-order // _ORDER_GRID) * _ORDER_GRID",
        "order // _ORDER_GRID * _ORDER_GRID",
        (FAMILY_ORDER, IDENTITIES + "test_theorem_A_passes"),
    ),
    Mutant(
        "theorem-lowest-rounded-up",
        "store",
        "identities.py",
        "lowest -= lowest % 2",
        "lowest += lowest % 2",
        (FAMILY_ORDER, IDENTITIES + "test_theorem_A_passes"),
    ),
    Mutant(
        # the rounded order is kept within the limit, so it is never refused
        "theorem-exact-order-not-refused-first",
        "store",
        "identities.py",
        "    _check_order(order)\n    if identity",
        '    identity.startswith("thm") or _check_order(order)\n    if identity',
        (ORDER_LIMIT,),
    ),
    Mutant(
        # a call that a kept check answers is then never refused: the order
        # is checked only where a miss asks its family store
        "check-key-skips-the-order-limit",
        "store",
        "identities.py",
        "return (tag, k), _build_order(identity, order) - ",
        "return (tag, k), order - ",
        (ORDER_LIMIT + "[verify --target cor-a --k 4 --j 2]",),
    ),
    Mutant(
        # every undoctored check of one family passes, so only a doctored
        # member or the store's counts show it
        "check-slot-covers-another-k",
        "store",
        "identities.py",
        "return (tag, k), _build_order(",
        "return tag, _build_order(",
        (
            KEPT_CHECKS,
            IDENTITIES + "test_a_kept_check_reports_a_doctored_member_as_a_cold_call_does",
        ),
    ),
    Mutant(
        # every report stays the same; only the work the check store does shows it
        "check-misses-its-own-window",
        "store",
        "identities.py",
        "_check_key, operator.ge,",
        "_check_key, operator.gt,",
        (CHECK_LEDGER + "[identity-sweep seed 1]", KEPT_CHECKS),
    ),
    Mutant(
        # every report stays the same; only the work the check store does shows it
        "theorem-check-key-not-rounded",
        "store",
        "identities.py",
        "_build_order(identity, order) - _lowval",
        '_build_order("cor", order) - _lowval',
        (CHECK_LEDGER + "[identity-sweep seed 1]", KEPT_CHECKS),
    ),
    Mutant(
        # every report stays the same; only the work the stores do shows it
        "corollary-and-limit-requests-rounded-too",
        "store",
        "identities.py",
        '    if identity.startswith("thm"):\n        order = min(',
        "    if True:\n        order = min(",
        (LEDGER + "[deep-window seed 1]", LEDGER + "[cor-a(100,2)]"),
    ),
    Mutant(
        # a check of the A family would answer a C call of the same k
        "check-slot-ignores-the-family",
        "store",
        "identities.py",
        "return (tag, k), _build_order(",
        "return k, _build_order(",
        (KEPT_CHECKS, IDENTITIES + "test_a_hit_reads_no_series_and_compares_nothing"),
    ),
    Mutant(
        # a check that reaches past the call's window reports a mismatch the
        # call never compares
        "kept-mismatch-not-cut-to-the-window",
        "store",
        "identities.py",
        "    if mm is not None and mm.exponent > window:\n        mm = None\n",
        "",
        (IDENTITIES + "test_a_kept_mismatch_past_the_window_is_not_reported",),
    ),
    Mutant(
        "order-limit-one-too-high",
        "limit",
        "families.py",
        "order > MAX_ORDER",
        "order > MAX_ORDER + 1",
        (FAMILIES + "test_builds_past_the_order_limit_raise_before_anything_is_built",),
    ),
]


def _independent(test_id: str) -> bool:
    # a test that neither lives with the verifiers' tests nor is a verifier
    # criterion of the acceptance suite
    return not test_id.startswith(IDENTITIES) and not test_id.startswith(VERIFIER_CRITERIA)


def catalogue_faults(mutants) -> list[str]:
    """What is wrong with the catalogue itself, before anything runs."""
    faults = []
    names = [m.name for m in mutants]
    for name in sorted({n for n in names if names.count(n) > 1}):
        faults.append(f"{name}: listed twice")
    for m in mutants:
        if not m.killers:
            faults.append(f"{m.name}: no killers")
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    defined = set(re.findall(r"^def (test_\w+)\(", acceptance, re.M))
    for test_id in VERIFIER_CRITERIA:
        if test_id.rpartition("::")[2] not in defined:
            faults.append(f"{test_id}: not defined, so VERIFIER_CRITERIA is stale")
    return faults


def run_mutant(mutant: Mutant) -> str | None:
    """None if the mutant's killers kill it, else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "macmahon" / mutant.path
        text = target.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return f"old text occurs {found} times in {mutant.path}, not once"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # pyproject's pythonpath would put the working tree's src/ first
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-p", "no:cacheprovider",
             "-o", "pythonpath=", *mutant.killers],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if done.returncode == 0:
        return "survived"
    if done.returncode not in (1, 2):
        return f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}"
    killed_by = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if not killed_by:
        return f"no failing test reported:\n{done.stdout}{done.stderr}"
    if mutant.kind in ROUTE_KINDS and not _independent(killed_by[0]):
        return f"killed only by a verifier's test, {killed_by[0]}"
    return None


def main() -> int:
    faults = catalogue_faults(MUTANTS)
    for fault in faults:
        print(f"catalogue: {fault}")
    if faults:
        return 1
    failed = 0
    for mutant in MUTANTS:
        problem = run_mutant(mutant)
        print(f"{mutant.name}: {'killed' if problem is None else problem}", flush=True)
        failed += problem is not None
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The library's verification reports, pinned: every call of the grids
below, made in one process with warm stores, must give the report that
report_corpus.jsonl holds for it, `elapsed_ms` left out.

The first grid covers every verifier on correct families:

- thm-a and thm-c, and limit-a and limit-c where the order reaches the
  valuation of member k, for k 0..19 at each N in THEOREM_ORDERS;
- cor-a and cor-c for k 0..24 and j 0..4;
- divisor at each N in DIVISOR_ORDERS.

Then each family in DOCTORED is served with one member one off at one
exponent, the first of each pair just below the member's floor, and a
smaller grid calls that family's verifiers: thm and limit for k 0..4 at
each N in DOCTORED_ORDERS, and cor for k 0..4 and j 0..3.  The store of
checks starts empty for each, as its kept checks were made on other
families.

The corpus lists the reports in grid order, one JSON line each, the
correct families' first.  The test makes each grid's calls in a fixed
shuffled order, so later calls are answered from what earlier ones kept:
longer and shorter windows of one family and k, and theorem orders that
round alike.  On a doctored family too, no report depends on that order.

A change that alters a report on purpose regenerates the corpus from the
repository root with

    PYTHONPATH=src python tests/test_report_corpus.py

and lists the reports that changed.
"""

import contextlib
import json
import random
from pathlib import Path

import macmahon.identities as identities
import oracles
from macmahon.identities import (
    verify_corollary_A,
    verify_corollary_C,
    verify_divisor_identities,
    verify_limit_A,
    verify_limit_C,
    verify_theorem_A,
    verify_theorem_C,
)

CORPUS = Path(__file__).with_name("report_corpus.jsonl")
THEOREM_ORDERS = (0, 1, 5, 20, 60, 120, 150, 200, 300, 400)
DIVISOR_ORDERS = (1, 2, 10, 90, 300, 600)
# (family, member, exponent it is one off at)
DOCTORED = (("A", 3, 5), ("A", 2, 9), ("C", 3, 8), ("C", 2, 6))
DOCTORED_ORDERS = (5, 20, 60)

# target -> its verifier, called with (k, j, N)
VERIFIERS = {
    "thm-a": lambda k, j, N: verify_theorem_A(k, N),
    "thm-c": lambda k, j, N: verify_theorem_C(k, N),
    "limit-a": lambda k, j, N: verify_limit_A(k, N),
    "limit-c": lambda k, j, N: verify_limit_C(k, N),
    "cor-a": lambda k, j, N: verify_corollary_A(k, j),
    "cor-c": lambda k, j, N: verify_corollary_C(k, j),
    "divisor": lambda k, j, N: verify_divisor_identities(N),
}


def _grid():
    # (target, k, j, N) in corpus order
    calls = []
    for N in THEOREM_ORDERS:
        for k in range(20):
            calls += [("thm-a", k, None, N), ("thm-c", k, None, N)]
            # a limit order below the valuation of member k is refused
            if N >= k * (k + 1) // 2:
                calls.append(("limit-a", k, None, N))
            if N >= k * k:
                calls.append(("limit-c", k, None, N))
    for k in range(25):
        for j in range(5):
            calls += [("cor-a", k, j, None), ("cor-c", k, j, None)]
    calls += [("divisor", None, None, N) for N in DIVISOR_ORDERS]
    return calls


def _doctored_grid(tag):
    # (target, k, j, N) of one doctored family, in corpus order
    step = 1 if tag == "A" else 2
    thm, limit, cor = (f"{name}-{tag.lower()}" for name in ("thm", "limit", "cor"))
    calls = []
    for N in DOCTORED_ORDERS:
        for k in range(5):
            calls.append((thm, k, None, N))
            if N >= k + step * k * (k - 1) // 2:
                calls.append((limit, k, None, N))
    for k in range(5):
        calls += [(cor, k, j, None) for j in range(4)]
    return calls


GRID = _grid()
# (family, member, exponent, call) of every doctored line, in corpus order
DOCTORED_GRID = [
    (tag, m, e, call) for tag, m, e in DOCTORED for call in _doctored_grid(tag)
]


@contextlib.contextmanager
def _doctored(tag, m, e):
    # the verifiers read family tag with member m one off at exponent e, and
    # no check kept on another family
    name = f"compute_{tag}_family"
    real = getattr(identities, name)
    setattr(identities, name, oracles.doctored(real, m, e))
    identities._first_mismatch.cache_clear()
    try:
        yield
    finally:
        setattr(identities, name, real)
        identities._first_mismatch.cache_clear()


def _lines(calls, rng):
    # the corpus line of each call, the calls made in a shuffled order
    order = list(calls)
    rng.shuffle(order)
    reports = {}
    for call in order:
        target, k, j, N = call
        report = VERIFIERS[target](k, j, N).to_json_dict()
        del report["elapsed_ms"]
        reports[call] = json.dumps(report, sort_keys=True)
    return [reports[call] for call in calls]


def replay():
    """The corpus lines the grids give now, each grid's calls made in a
    shuffled order in one process."""
    rng = random.Random(41)
    lines = _lines(GRID, rng)
    for tag, m, e in DOCTORED:
        with _doctored(tag, m, e):
            lines += _lines(_doctored_grid(tag), rng)
    return lines


def test_warm_reports_match_the_corpus():
    expected = CORPUS.read_text(encoding="utf-8").splitlines()
    assert len(GRID) == 868 and len(DOCTORED_GRID) == 192
    assert len(expected) == len(GRID) + len(DOCTORED_GRID)
    # the first report that moved fails, named by its call
    for call, want, line in zip(GRID + DOCTORED_GRID, expected, replay()):
        assert line == want, call


if __name__ == "__main__":
    lines = replay()
    CORPUS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} reports to {CORPUS}")

"""The CLI's bytes, pinned: for every command line below, the exit status,
stdout and stderr that `main(argv)` produces in-process must equal the
entry of cli_corpus.jsonl for that line.

Each entry keeps a SHA-256 of each stream and, for a stream of at most
SHORT characters, its full text.  Timings are masked by a fake clock that
makes every timed span last exactly TICK seconds, and argparse formats
its usage at COLUMNS=80, so the bytes do not depend on the machine or the
terminal.  The lines argparse refuses pin argparse's own wording, as
Python 3.11 prints it.  A "doctored" line runs with the A family store
returning member 1 one too high at q^31, the top exponent its verifier
reads, so its report fails.

A change that alters a line's bytes on purpose regenerates the corpus
from the repository root with

    PYTHONPATH=src python tests/test_cli_corpus.py

and lists the lines whose entries changed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import types
from pathlib import Path

import pytest

import macmahon.cli as cli
import macmahon.identities as identities
from macmahon.families import MacmahonFamily, compute_A_family
from macmahon.series import TruncatedSeries
from test_cli import REFUSED

CORPUS = Path(__file__).with_name("cli_corpus.jsonl")
SHORT = 512
TICK = 6.81e-05
FORMATS = ("text", "json", "csv")


def _formatted(*argvs):
    return [argv + ["--format", fmt] for argv in argvs for fmt in FORMATS]


# (argv, doctored)
LINES = [
    *[(argv, False) for argv in _formatted(
        *[["compute", "--target", t, "--K", K, "--N", N]
          for t in ("a", "c") for K in ("0", "2") for N in ("0", "30")],
        *[["compute", "--target", t, "--N", N]
          for t in ("p3", "overp", "theta-cube", "theta-square") for N in ("0", "30")],
        *[["table", "--target", t, "--K", K, "--N", N]
          for t in ("a", "c") for K, N in (("0", "0"), ("3", "10"))],
        ["verify", "--target", "thm-a", "--k", "1", "--N", "30"],
        ["verify", "--target", "thm-c", "--k", "2", "--N", "30"],
        ["verify", "--target", "cor-a", "--k", "0", "--j", "3"],
        ["verify", "--target", "cor-c", "--k", "2", "--j", "2"],
        ["verify", "--target", "limit-a", "--k", "3", "--N", "10"],
        ["verify", "--target", "limit-c", "--k", "2", "--N", "10"],
        ["verify", "--target", "divisor", "--N", "40"],
        ["bench", "--K", "3", "--sizes", "10,20", "--repeat", "1"],
        ["bench"],
    )],
    *[(argv, True) for argv in _formatted(["verify", "--target", "thm-a", "--k", "1", "--N", "30"])],
    *[(argv, False) for _, argv, _ in REFUSED],
    (["bench", "--sizes", "10,x"], False),
    (["verify", "--target", "divisor", "--N", "-1"], False),
]


def _line_id(argv, doctored):
    return ("doctored " if doctored else "") + " ".join(argv)


def _doctored_A(K, order, lowest=0):
    # member 1 one too high at q^31, the top exponent `thm-a --k 1 --N 30`
    # reads, wherever the reply's order and lowest member lie
    fam = compute_A_family(K, order, lowest=lowest)
    coeffs = list(fam.member(1).coeffs)
    coeffs[31] += 1
    rows = list(fam.members)
    rows[1 - lowest] = TruncatedSeries(tuple(coeffs), order)
    return MacmahonFamily("A", tuple(rows), order, K, lowest)


def _stream(text):
    entry = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "size": len(text)}
    if len(text) <= SHORT:
        entry["text"] = text
    return entry


def run_line(argv, doctored):
    """The corpus entry `main(argv)` produces now."""
    clock = types.SimpleNamespace(perf_counter=itertools.cycle((0.0, TICK)).__next__)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        mp.setattr(cli, "time", clock)
        mp.setattr(identities, "time", clock)
        if doctored:
            mp.setattr(identities, "compute_A_family", _doctored_A)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code
    return {
        "line": _line_id(argv, doctored),
        "exit": status,
        "stdout": _stream(out.getvalue()),
        "stderr": _stream(err.getvalue()),
    }


def _load():
    if not CORPUS.exists():
        return {}
    entries = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    return {entry["line"]: entry for entry in entries}


EXPECTED = _load()


def test_the_corpus_holds_exactly_these_lines():
    assert sorted(EXPECTED) == sorted(_line_id(*line) for line in LINES)


@pytest.mark.parametrize("argv,doctored", LINES, ids=[_line_id(*line) for line in LINES])
def test_cli_line_matches_the_corpus(argv, doctored):
    expected = EXPECTED.get(_line_id(argv, doctored))
    assert expected is not None, "no corpus entry; regenerate it (see the module docstring)"
    got = run_line(argv, doctored)
    for stream in ("stdout", "stderr"):
        # the full text first, for a readable diff where it is kept
        if "text" in expected[stream]:
            assert got[stream].get("text") == expected[stream]["text"], stream
    assert got == expected


if __name__ == "__main__":
    with CORPUS.open("w", encoding="utf-8") as fh:
        for line in LINES:
            fh.write(json.dumps(run_line(*line), sort_keys=True) + "\n")
    print(f"wrote {len(LINES)} lines to {CORPUS}")

"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LIBRARY_BOUNDARIES, Tracer, layer_metrics, self_times  # noqa: E402

import macmahon.cli  # noqa: E402
import macmahon.identities  # noqa: E402


def _key(op: dict) -> str:
    return json.dumps(op, sort_keys=True)


# -- operation lists ---------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_list(name):
    assert workloads.build(name, 7, 15) == workloads.build(name, 7, 15)


def _composition(name: str, ops: list[dict]) -> Counter:
    if name == "identity-sweep":
        return Counter(op["target"] for op in ops)
    if name == "deep-window":
        return Counter(_key(op) for op in ops)
    return Counter((op["cmd"], op["target"], op["format"]) for op in ops)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_gives_other_list_of_same_composition(name):
    a = workloads.build(name, 7, 15)
    b = workloads.build(name, 8, 15)
    assert a.ops != b.ops
    assert _composition(name, a.ops) == _composition(name, b.ops)
    assert len(a.ops) >= workloads.MIN_OPS


def test_warmup_keys_are_not_measured():
    for name in workloads.WORKLOADS:
        w = workloads.build(name, 3, 15)
        measured = {_key(op) for op in w.ops}
        assert not measured.intersection(_key(op) for op in w.warmup)


def test_deep_window_processes_never_repeat_a_family():
    w = workloads.build("deep-window", 5, 15)
    assert len(w.ops) == 2 * len(workloads.DEEP_K) * len(workloads.DEEP_J)
    for shard in w.shards:
        keys = [key for op in shard for key in workloads.family_keys(op)]
        assert len(keys) == len(set(keys))


def test_cli_export_never_repeats_a_family():
    w = workloads.build("cli-export", 5, 15)
    keys = [key for op in w.ops for key in workloads.family_keys(op)]
    assert len(keys) == len(set(keys))


def test_strata_cover_the_range_evenly():
    import random

    values = sorted(workloads.strata(random.Random(1), 100, 200, 10))
    assert [v // 10 for v in values] == list(range(10, 20))


# -- reference checks ---------------------------------------------------------------


def _cli_output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert macmahon.cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def ref():
    return checks.Reference.load()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_table_output_parses_and_matches(ref, fmt):
    op = {"cmd": "table", "target": "c", "K": 4, "N": 30, "format": fmt}
    text = _cli_output(workloads.cli_argv(op))
    assert checks.check_cli(op, 0, text, ref) is None


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_series_output_parses_and_matches(ref, fmt):
    op = {"cmd": "compute", "target": "overp", "N": 300, "format": fmt}
    text = _cli_output(workloads.cli_argv(op))
    assert checks.check_cli(op, 0, text, ref) is None


def test_extra_json_keys_are_not_failures(ref):
    op = {"cmd": "verify", "target": "cor-c", "k": 2, "j": 1, "format": "json"}
    obj = json.loads(_cli_output(workloads.cli_argv(op)))
    obj["phases_ms"] = {"family": 1.0}
    assert checks.check_cli(op, 0, json.dumps(obj), ref) is None


def test_corrupted_coefficient_is_a_failure(ref):
    op = {"cmd": "compute", "target": "a", "K": 5, "N": 40, "format": "json"}
    text = _cli_output(workloads.cli_argv(op))
    bad = checks.Reference(ref.reports, dict(ref.residues))
    bad.residues["A5"] = list(ref.residues["A5"])
    bad.residues["A5"][33] ^= 1
    assert "q^33" in checks.check_cli(op, 0, text, bad)


def test_corrupted_reference_counts_in_failed_ratio(ref, monkeypatch, capsys):
    bad_reports = dict(ref.reports)
    for target in ("cor-a", "cor-c"):
        key = f"{target} k=20 j=2"
        order, terms = bad_reports[key]
        bad_reports[key] = [order, terms + 1]
    monkeypatch.setattr(checks.Reference, "load", lambda: checks.Reference(bad_reports, ref.residues))
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: None)
    monkeypatch.chdir(ROOT)
    status = run.main(["--workload", "identity-sweep", "--seed", "1", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    passes = 2  # the shortest run still holds two identity-sweep passes
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 2 * passes
    assert result["attempted"] == passes * 55


def test_empty_directory_refuses_to_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "deep-window", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


# -- tracer -----------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_once():
    spans = [
        ["identities", 0.0, 10.0, -1, 0, None],
        ["families", 1.0, 3.0, 0, 0, None],
        ["partitions.gf", 2.0, 4.0, 0, 0, None],  # overlaps its sibling
        ["series.invert", 2.5, 3.5, 2, 0, None],  # grandchild: not subtracted again
        ["families", 8.0, 12.0, 0, 0, None],  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_missing_boundary_is_reported_as_missing():
    tracer = Tracer()
    tracer.install([("macmahon.identities", "no_such_family_route", "families")])
    try:
        values = layer_metrics([tracer.export()])
    finally:
        tracer.uninstall()
    assert values["families.ms"] == "missing"
    assert values["families.member_yield"] == "missing"
    assert values["partitions.gf_ms"] == 0.0


def test_tracer_counts_member_reads_and_restores_names():
    original = macmahon.identities.compute_A_family
    tracer = Tracer()
    tracer.install(LIBRARY_BOUNDARIES)
    try:
        tracer.op = 0
        assert macmahon.identities.verify_corollary_A(12, 1).passed
        assert macmahon.identities.verify_corollary_A(11, 2).passed  # same family
        values = layer_metrics([tracer.export()])
    finally:
        tracer.uninstall()
    assert macmahon.identities.compute_A_family is original
    assert values["families.calls"] == 2
    assert values["families.member_yield"] == pytest.approx((2 + 3) / (14 + 14))
    assert values["families.repeat_share"] == pytest.approx(0.5)
    assert values["identities.calls"] == 2
    assert values["partitions.gf_calls"] == 2
    assert values["series.mul_calls"] == 0
    assert values["cli.self_ms"] == 0.0

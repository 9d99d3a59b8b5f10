"""CLI behavior: output formats, exit statuses, JSON round-trips, the oracle
guard, and the family bench ladder."""

import json

import pytest

import macmahon.cli as cli
from macmahon.cli import RunConfig, main, run
from macmahon.families import compute_A_family_uncached, compute_C_family_uncached
from macmahon.identities import Mismatch, VerificationReport
from macmahon.partitions import mk_bruteforce


def out_of(capsys):
    return capsys.readouterr().out


def test_compute_family_member_json(capsys):
    assert main(["compute", "--target", "a", "--K", "2", "--N", "7", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj == {
        "truncation": 7,
        "coeffs": ["0", "0", "0", "1", "3", "9", "15", "30"],
    }


def test_compute_json_round_trips_byte_identically(capsys):
    assert main(["compute", "--target", "p3", "--N", "40", "--format", "json"]) == 0
    emitted = out_of(capsys)
    assert json.dumps(json.loads(emitted), indent=2, sort_keys=True) + "\n" == emitted


def test_compute_text(capsys):
    assert main(["compute", "--target", "theta-cube", "--N", "10"]) == 0
    assert out_of(capsys).startswith("1 - 3q + 5q^3 - 7q^6 + 9q^10")


def test_compute_csv(capsys):
    assert main(["compute", "--target", "overp", "--N", "3", "--format", "csv"]) == 0
    assert out_of(capsys) == "n,coefficient\n0,1\n1,2\n2,4\n3,8\n"


def test_compute_c_member(capsys):
    assert main(["compute", "--target", "c", "--K", "1", "--N", "3", "--format", "csv"]) == 0
    assert out_of(capsys).splitlines()[1:] == ["0,0", "1,1", "2,2", "3,4"]


def test_compute_family_member_requires_K(capsys):
    assert main(["compute", "--target", "a", "--N", "7"]) == 2


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", "--target", "cor-a", "--k", "0", "--j", "3"]) == 0
    assert "PASS" in out_of(capsys)


def test_verify_divisor(capsys):
    assert main(["verify", "--target", "divisor", "--N", "40", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["identity"] == "divisor" and obj["passed"] is True


def test_verify_report_json_round_trips(capsys):
    assert main(
        ["verify", "--target", "thm-a", "--k", "1", "--N", "30", "--format", "json"]
    ) == 0
    emitted = out_of(capsys)
    assert json.dumps(json.loads(emitted), indent=2, sort_keys=True) + "\n" == emitted


def test_verify_negative_k_is_usage_error(capsys):
    assert main(["verify", "--target", "thm-a", "--k", "-1", "--N", "10"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_missing_parameter_is_usage_error(capsys):
    assert main(["verify", "--target", "thm-a", "--N", "10"]) == 2


def test_verify_infeasible_parameter_combination_is_usage_error(capsys):
    # limit check needs order >= k(k+1)/2
    assert main(["verify", "--target", "limit-a", "--k", "5", "--N", "10"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_mismatch_exit_one(capsys, monkeypatch):
    fake = VerificationReport(
        "thm-a", 0, None, 10, False, Mismatch(3, 4, 5), 2, 1.0
    )
    monkeypatch.setattr(cli, "verify_theorem_A", lambda k, order: fake)
    assert main(["verify", "--target", "thm-a", "--k", "0", "--N", "10"]) == 1
    assert "FAIL at q^3" in out_of(capsys)


def test_verify_mismatch_csv(capsys, monkeypatch):
    fake = VerificationReport(
        "thm-a", 0, None, 10, False, Mismatch(3, 4, 5), 2, 1.0
    )
    monkeypatch.setattr(cli, "verify_theorem_A", lambda k, order: fake)
    assert main(
        ["verify", "--target", "thm-a", "--k", "0", "--N", "10", "--format", "csv"]
    ) == 1
    lines = out_of(capsys).splitlines()
    assert lines[1].startswith("thm-a,0,,10,false,3,4,5,")


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--bogus", "1"])
    assert exc.value.code == 2


def test_unknown_target_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--target", "nope"])
    assert exc.value.code == 2


def test_table_csv_matches_family(capsys):
    assert main(
        ["table", "--target", "a", "--K", "2", "--N", "5", "--format", "csv"]
    ) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "k,n,value"
    assert "1,4,7" in lines  # sigma_1(4)
    assert len(lines) == 1 + 3 * 6


def test_table_oracle_matches_bruteforce(capsys):
    assert main(
        ["table", "--target", "a", "--K", "2", "--N", "8", "--oracle", "--format", "json"]
    ) == 0
    obj = json.loads(out_of(capsys))
    for k in range(3):
        for n in range(9):
            assert int(obj["values"][k][n]) == mk_bruteforce(k, n).value


def test_table_oracle_guard(capsys):
    assert main(["table", "--target", "a", "--K", "1", "--N", "50", "--oracle"]) == 2
    assert "oracle guard" in capsys.readouterr().err
    assert main(
        ["table", "--target", "a", "--K", "1", "--N", "50", "--oracle", "--oracle-guard", "60"]
    ) == 0


def test_table_text_grid(capsys):
    assert main(["table", "--target", "c", "--K", "1", "--N", "3"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0].split() == ["n", "k=0", "k=1"]
    assert lines[1].split() == ["0", "1", "0"]


def test_bench_ladder(capsys):
    assert main(["bench", "--K", "4", "--sizes", "20,40", "--format", "json"]) == 0
    rows = json.loads(out_of(capsys))
    assert [(r["op"], r["K"], r["N"]) for r in rows] == [("family", 4, 20), ("family", 4, 40)]
    assert all(r["elapsed_s"] >= 0 for r in rows)


def test_bench_csv_and_text(capsys):
    assert main(["bench", "--K", "2", "--sizes", "10", "--format", "csv"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "op,K,N,elapsed_s"
    assert lines[1].startswith("family,2,10,")
    assert main(["bench", "--K", "2", "--sizes", "10"]) == 0
    assert out_of(capsys).splitlines()[1].split()[:3] == ["family", "2", "10"]


def test_bench_rejects_bad_sizes():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "10,-3"])
    assert exc.value.code == 2


# -- compute and table against the fold -----------------------------------------

FAMILY_BUILDS = {"a": compute_A_family_uncached, "c": compute_C_family_uncached}

# (target, K, N): N = 0, small and mid orders, and caps above the top member
# (A_9 starts at q^45, C_5 at q^25)
MEMBER_CASES = [
    ("a", 0, 0), ("a", 3, 0), ("a", 2, 7), ("a", 6, 90), ("a", 9, 20),
    ("c", 0, 0), ("c", 2, 0), ("c", 1, 3), ("c", 5, 120), ("c", 5, 20),
]


def _parse_text_series(line):
    # inverse of format_series for series with non-negative coefficients
    body, tail = line.split("   (truncation order ")
    order = int(tail.rstrip(")\n"))
    coeffs = [0] * (order + 1)
    if body != "0":
        for term in body.split(" + "):
            head, q, power = term.partition("q")
            n = int(power[1:]) if power else (1 if q else 0)
            coeffs[n] = int(head) if head else 1
    return coeffs


def _parse_series(text, fmt):
    if fmt == "json":
        return [int(c) for c in json.loads(text)["coeffs"]]
    if fmt == "csv":
        return [int(line.split(",")[1]) for line in text.splitlines()[1:]]
    return _parse_text_series(text)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("target,K,N", MEMBER_CASES)
def test_compute_member_matches_the_fold(target, K, N, fmt, capsys):
    argv = ["compute", "--target", target, "--K", str(K), "--N", str(N), "--format", fmt]
    assert main(argv) == 0
    want = FAMILY_BUILDS[target](K, N).member(K)
    assert _parse_series(out_of(capsys), fmt) == list(want.coeffs)


def _parse_table(text, fmt, K, N):
    if fmt == "json":
        obj = json.loads(text)
        assert (obj["K"], obj["N"]) == (K, N)
        return [[int(v) for v in row] for row in obj["values"]]
    values = [[None] * (N + 1) for _ in range(K + 1)]
    if fmt == "csv":
        for line in text.splitlines()[1:]:
            k, n, v = map(int, line.split(","))
            values[k][n] = v
        return values
    lines = text.splitlines()
    assert lines[0].split() == ["n"] + [f"k={k}" for k in range(K + 1)]
    for line in lines[1:]:
        n, *row = map(int, line.split())
        for k, v in enumerate(row):
            values[k][n] = v
    return values


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("target,K,N", MEMBER_CASES)
def test_table_matches_the_fold(target, K, N, fmt, capsys):
    argv = ["table", "--target", target, "--K", str(K), "--N", str(N), "--format", fmt]
    assert main(argv) == 0
    want = [list(m.coeffs) for m in FAMILY_BUILDS[target](K, N).members]
    assert _parse_table(out_of(capsys), fmt, K, N) == want


def test_cli_binds_every_layer_by_name():
    # perfbench/tracer.py wraps these names in macmahon.cli; a name that
    # disappears turns its whole layer into a missing metric
    names = ["main", "compute_A_family", "compute_C_family", "p3_series",
             "overpartition_series", "verify_theorem_A", "verify_theorem_C",
             "verify_corollary_A", "verify_corollary_C", "verify_limit_A",
             "verify_limit_C", "verify_divisor_identities"]
    assert all(callable(getattr(cli, name, None)) for name in names)


# -- the order limit -----------------------------------------------------------


def test_order_limit_sits_above_every_documented_order():
    # the deep k=100 corollary windows build orders 5355 and 10608
    assert cli.MAX_ORDER > 10608


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--target", "a", "--K", "0"],
        ["compute", "--target", "theta-cube"],
        ["compute", "--target", "theta-square"],
    ],
    ids=["table", "theta-cube", "theta-square"],
)
def test_order_past_the_limit_exits_two(argv, capsys):
    # each of these stays cheap even if the limit were not checked
    assert main(argv + ["--N", str(cli.MAX_ORDER + 1)]) == 2
    assert f"order limit {cli.MAX_ORDER}" in capsys.readouterr().err


# (argv, the highest truncation order the call builds)
BUILT_ORDERS = [
    (["compute", "--target", "p3", "--N", "30"], 30),
    (["compute", "--target", "c", "--K", "2", "--N", "30"], 30),
    (["table", "--target", "c", "--K", "3", "--N", "30"], 30),
    (["table", "--target", "a", "--K", "1", "--N", "30", "--oracle"], 30),
    (["bench", "--K", "2", "--sizes", "10,30"], 30),
    (["verify", "--target", "thm-a", "--k", "5", "--N", "15"], 30),
    (["verify", "--target", "thm-c", "--k", "4", "--N", "14"], 30),
    (["verify", "--target", "cor-a", "--k", "4", "--j", "2"], 27),
    (["verify", "--target", "cor-c", "--k", "2", "--j", "3"], 35),
    (["verify", "--target", "limit-a", "--k", "4", "--N", "40"], 14),
    (["verify", "--target", "limit-a", "--k", "4", "--N", "12"], 12),
    (["verify", "--target", "limit-c", "--k", "3", "--N", "40"], 15),
    (["verify", "--target", "divisor", "--N", "30"], 30),
]


@pytest.mark.parametrize("argv,order", BUILT_ORDERS, ids=[" ".join(a) for a, _ in BUILT_ORDERS])
def test_order_limit_applies_to_the_order_each_call_builds(argv, order, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_ORDER", order)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "MAX_ORDER", order - 1)
    assert main(argv) == 2
    assert f"truncation order {order}, above the order limit {order - 1}" in capsys.readouterr().err


# -- the cell limit ------------------------------------------------------------


def test_cell_limit_sits_above_every_documented_grid():
    # the cap-12 family at the order limit; README, the acceptance bench and
    # perfbench stay at K = 12, N <= 500
    assert cli.MAX_CELLS >= 13 * (cli.MAX_ORDER + 1)


# (argv, the most cells (K+1)*(N+1) one table or bench row of the call builds)
BUILT_CELLS = [
    (["table", "--target", "a", "--K", "3", "--N", "30"], 124),
    (["table", "--target", "c", "--K", "40", "--N", "2", "--format", "csv"], 123),
    (["table", "--target", "a", "--K", "1", "--N", "30", "--oracle"], 62),
    (["bench", "--K", "2", "--sizes", "10,30"], 93),
]


@pytest.mark.parametrize("argv,cells", BUILT_CELLS, ids=[" ".join(a) for a, _ in BUILT_CELLS])
def test_cell_limit_applies_to_table_and_bench(argv, cells, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_CELLS", cells)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "MAX_CELLS", cells - 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"builds {cells} cells (K+1)*(N+1), above the cell limit {cells - 1}" in err


def test_cell_limit_is_checked_before_the_build(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built past the cell limit")

    monkeypatch.setattr(cli, "MAX_CELLS", 10)
    for name in ("members", "mk_bruteforce", "mk_odd_bruteforce", "compute_A_family_uncached"):
        monkeypatch.setattr(cli, name, refuse)
    for argv in (
        ["table", "--target", "a", "--K", "10", "--N", "0"],
        ["table", "--target", "c", "--K", "1", "--N", "5", "--oracle"],
        ["bench", "--K", "0", "--sizes", "3,10"],
    ):
        assert main(argv) == 2
        assert "above the cell limit 10" in capsys.readouterr().err


def test_output_file(tmp_path, capsys):
    path = tmp_path / "series.json"
    assert main(
        ["compute", "--target", "p3", "--N", "5", "--format", "json", "--output", str(path)]
    ) == 0
    assert out_of(capsys) == ""
    obj = json.loads(path.read_text())
    assert obj["coeffs"] == ["1", "3", "9", "22", "51", "108"]


def test_run_rejects_unknown_command(capsys):
    assert run(RunConfig(command="fly")) == 2


def test_run_config_defaults():
    cfg = RunConfig(command="bench")
    assert cfg.format == "text" and cfg.oracle_guard == 40

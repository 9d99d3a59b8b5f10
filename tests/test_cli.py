"""CLI behavior: output formats, exit statuses, JSON round-trips, the oracle
guard, and the family bench ladder."""

import json

import pytest

import macmahon.cli as cli
from macmahon.cli import RunConfig, main, run
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

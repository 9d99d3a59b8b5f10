"""CLI behavior: output formats, exit statuses, JSON round-trips, the options
each command takes, and the family bench ladder."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import macmahon.cli as cli
import macmahon.families as families
import macmahon.identities as identities
from macmahon.cli import main
from macmahon.families import compute_A_family_uncached, compute_C_family_uncached
from macmahon.identities import Mismatch, VerificationReport
from macmahon.partitions import mk_bruteforce, mk_odd_bruteforce


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
    fake = VerificationReport("thm-a", 0, None, 10, Mismatch(3, 4, 5), 2, 1.0)
    monkeypatch.setattr(cli, "verify_theorem_A", lambda k, order: fake)
    assert main(["verify", "--target", "thm-a", "--k", "0", "--N", "10"]) == 1
    assert "FAIL at q^3" in out_of(capsys)


def test_verify_mismatch_csv(capsys, monkeypatch):
    fake = VerificationReport("thm-a", 0, None, 10, Mismatch(3, 4, 5), 2, 1.0)
    monkeypatch.setattr(cli, "verify_theorem_A", lambda k, order: fake)
    assert main(
        ["verify", "--target", "thm-a", "--k", "0", "--N", "10", "--format", "csv"]
    ) == 1
    lines = out_of(capsys).splitlines()
    assert lines[1].startswith("thm-a,0,,10,false,3,4,5,")


# the options each target takes; any other one it is given is refused
TAKEN = {
    ("verify", "thm-a"): ("k", "N"),
    ("verify", "thm-c"): ("k", "N"),
    ("verify", "cor-a"): ("k", "j"),
    ("verify", "cor-c"): ("k", "j"),
    ("verify", "limit-a"): ("k", "N"),
    ("verify", "limit-c"): ("k", "N"),
    ("verify", "divisor"): ("N",),
    ("compute", "p3"): ("N",),
    ("compute", "overp"): ("N",),
    ("compute", "theta-cube"): ("N",),
    ("compute", "theta-square"): ("N",),
}
UNTAKEN = [
    (command, target, option)
    for (command, target), taken in TAKEN.items()
    for option in (("k", "j", "N") if command == "verify" else ("K",))
    if option not in taken
]
OPTION_VALUES = {"k": "3", "j": "2", "K": "3", "N": "30"}


@pytest.mark.parametrize("command,target,option", UNTAKEN, ids=[" ".join(u) for u in UNTAKEN])
def test_an_option_the_target_does_not_take_exits_two(command, target, option, capsys):
    argv = [command, "--target", target]
    for name in TAKEN[command, target]:
        argv += [f"--{name}", OPTION_VALUES[name]]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [f"--{option}", OPTION_VALUES[option]]) == 2
    assert capsys.readouterr() == ("", f"error: --{option} is not an option of target {target}\n")


def test_unknown_flag_exits_two():
    table = ["table", "--target", "a", "--K", "1", "--N", "3"]
    # --oracle and --oracle-guard selected a brute-force table route, now gone
    for argv in (
        ["compute", "--bogus", "1"],
        table + ["--oracle"],
        table + ["--oracle-guard", "60"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
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


@pytest.mark.parametrize(
    "target,counter", [("a", mk_bruteforce), ("c", mk_odd_bruteforce)], ids=["a", "c"]
)
def test_table_matches_bruteforce(target, counter, capsys):
    # brute-force enumeration shares no code with the theta route table uses
    assert main(["table", "--target", target, "--K", "3", "--N", "12", "--format", "json"]) == 0
    values = json.loads(out_of(capsys))["values"]
    assert values == [[str(counter(k, n).value) for n in range(13)] for k in range(4)]


def test_table_text_grid(capsys):
    assert main(["table", "--target", "c", "--K", "1", "--N", "3"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0].split() == ["n", "k=0", "k=1"]
    assert lines[1].split() == ["0", "1", "0"]


def test_bench_ladder(capsys):
    assert main(["bench", "--K", "4", "--sizes", "20,40", "--format", "json"]) == 0
    rows = json.loads(out_of(capsys))
    assert [(r["op"], r["K"], r["N"]) for r in rows] == [("family", 4, 20), ("family", 4, 40)]
    assert all(float(r["elapsed_s"]) >= 0 for r in rows)


def test_bench_json_carries_the_csv_cell(capsys, monkeypatch):
    # a fast row reads in six fixed decimals in every format, not in
    # exponent form in JSON
    monkeypatch.setattr(cli, "_best_of", lambda repeats, fn: 6.81e-05)
    argv = ["bench", "--K", "2", "--sizes", "10,20"]
    assert main(argv + ["--format", "json"]) == 0
    json_cells = [r["elapsed_s"] for r in json.loads(out_of(capsys))]
    assert main(argv + ["--format", "csv"]) == 0
    csv_cells = [line.split(",")[3] for line in out_of(capsys).splitlines()[1:]]
    assert json_cells == csv_cells == ["0.000068", "0.000068"]


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
    assert families.MAX_ORDER > 10608


# (a command line without its --N, the valuation its family's order adds to N)
PAST_THE_LIMIT = [
    (["table", "--target", "a", "--K", "0"], 0),
    (["compute", "--target", "theta-cube"], 0),
    (["compute", "--target", "theta-square"], 0),
    (["verify", "--target", "thm-a", "--k", "0"], 0),
    (["verify", "--target", "thm-c", "--k", "3"], 9),
    (["verify", "--target", "divisor"], 0),
]


@pytest.mark.parametrize(
    "argv,shift",
    PAST_THE_LIMIT,
    ids=["table", "theta-cube", "theta-square", "thm-a", "thm-c", "divisor"],
)
def test_order_past_the_limit_exits_two(argv, shift, monkeypatch, capsys):
    # before anything is built: compute and table check the order up front,
    # and the family store a verifier asks refuses it
    built = _refuse_to_build(monkeypatch, family_stores=False)
    limit = families.MAX_ORDER
    assert main(argv + ["--N", str(limit + 1 - shift)]) == 2
    err = f"error: this call builds truncation order {limit + 1}, above the order limit {limit}\n"
    assert capsys.readouterr() == ("", err)
    assert built == []


# (argv, the highest truncation order the call builds)
BUILT_ORDERS = [
    (["compute", "--target", "p3", "--N", "30"], 30),
    (["compute", "--target", "c", "--K", "2", "--N", "30"], 30),
    (["table", "--target", "c", "--K", "3", "--N", "30"], 30),
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
    monkeypatch.setattr(families, "MAX_ORDER", order)
    assert main(argv) == 0
    monkeypatch.setattr(families, "MAX_ORDER", order - 1)
    assert main(argv) == 2
    assert f"truncation order {order}, above the order limit {order - 1}" in capsys.readouterr().err


# -- the cell limit ------------------------------------------------------------


def test_cell_limit_sits_above_every_documented_grid():
    # the cap-12 family at the order limit; README, the acceptance bench and
    # perfbench stay at K = 12, N <= 500
    assert cli.MAX_CELLS >= 13 * (families.MAX_ORDER + 1)


# (argv, the most cells (K+1)*(N+1) one table or bench row of the call builds)
BUILT_CELLS = [
    (["table", "--target", "a", "--K", "3", "--N", "30"], 124),
    (["table", "--target", "c", "--K", "40", "--N", "2", "--format", "csv"], 123),
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
    for name in ("members", "compute_A_family_uncached"):
        monkeypatch.setattr(cli, name, refuse)
    for argv in (
        ["table", "--target", "a", "--K", "10", "--N", "0"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--target", "p3", "--N", "5"],
        ["verify", "--target", "thm-a", "--k", "1", "--N", "5"],
        ["table", "--target", "a", "--K", "1", "--N", "5"],
    ],
    ids=["compute", "verify", "table"],
)
def test_output_into_a_missing_directory_exits_two(argv, tmp_path, capsys):
    # status 1 means a verification mismatch; a bad path is a usage error
    path = tmp_path / "missing" / "out.json"
    assert main(argv + ["--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --output") and "Traceback" not in err
    assert not path.parent.exists()


def _refuse_to_build(monkeypatch, family_stores=True):
    # every builder a command reaches, each recording the call it refuses:
    # the CLI's own, the family and series stores the verifiers read, and
    # the fold and the series the family routes read.  The verifiers
    # themselves stay, so their own refusals are the ones a call meets; with
    # family_stores=False the family stores stay too, and so do theirs
    built = []

    def refuse(name):
        def build(*args, **kwargs):
            built.append(name)
            raise AssertionError(f"{name} built for a refused call")

        return build

    builders = {
        cli: ["members", "compute_A_family_uncached", "p3_series", "overpartition_series",
              "jacobi_cube", "theta_square"],
        identities: ["p3_series", "overpartition_series"]
        + (["compute_A_family", "compute_C_family"] if family_stores else []),
        families: ["_fold_packed", "p3_series", "overpartition_series"],
    }
    for module, names in builders.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse(f"{module.__name__}.{name}"))
    return built


TABLE = ["table", "--target", "a", "--K", "1", "--N", "3"]
# (id, a refused command line, its stderr): the parser refuses an option the
# command does not have, an unknown format, a missing target and an unknown
# command, and its message only contains the part given here; main refuses a
# limit window below the valuation of member k with exactly the message given
REFUSED = [
    ("table --k", TABLE + ["--k", "5"], "unrecognized arguments: --k 5"),
    ("table --j", TABLE + ["--j", "5"], "unrecognized arguments: --j 5"),
    ("table --sizes", TABLE + ["--sizes", "10"], "unrecognized arguments: --sizes 10"),
    ("table --repeat", TABLE + ["--repeat", "1"], "unrecognized arguments: --repeat 1"),
    ("compute --sizes", ["compute", "--target", "p3", "--N", "3", "--sizes", "10"],
     "unrecognized arguments: --sizes 10"),
    ("compute --repeat", ["compute", "--target", "p3", "--N", "3", "--repeat", "1"],
     "unrecognized arguments: --repeat 1"),
    ("verify --sizes", ["verify", "--target", "divisor", "--N", "3", "--sizes", "10"],
     "unrecognized arguments: --sizes 10"),
    ("verify --repeat", ["verify", "--target", "divisor", "--N", "3", "--repeat", "1"],
     "unrecognized arguments: --repeat 1"),
    ("bench --target", ["bench", "--target", "c"], "unrecognized arguments: --target c"),
    ("bench --k", ["bench", "--k", "5"], "unrecognized arguments: --k 5"),
    ("bench --j", ["bench", "--j", "5"], "unrecognized arguments: --j 5"),
    ("bench --N", ["bench", "--N", "5"], "unrecognized arguments: --N 5"),
    ("compute --format xml", ["compute", "--target", "p3", "--N", "3", "--format", "xml"],
     "invalid choice: 'xml'"),
    ("verify --format xml", ["verify", "--target", "divisor", "--N", "3", "--format", "xml"],
     "invalid choice: 'xml'"),
    ("table --format xml", TABLE + ["--format", "xml"], "invalid choice: 'xml'"),
    ("bench --format xml", ["bench", "--format", "xml"], "invalid choice: 'xml'"),
    ("compute no --target", ["compute", "--N", "3"],
     "the following arguments are required: --target"),
    ("verify no --target", ["verify", "--N", "3"],
     "the following arguments are required: --target"),
    ("fly", ["fly"], "invalid choice: 'fly'"),
    ("limit-a below the floor", ["verify", "--target", "limit-a", "--k", "3", "--N", "5"],
     "error: --N must be >= 6, got 5\n"),
    ("limit-c below the floor", ["verify", "--target", "limit-c", "--k", "3", "--N", "8"],
     "error: --N must be >= 9, got 8\n"),
    ("divisor below the floor", ["verify", "--target", "divisor", "--N", "0"],
     "error: --N must be >= 1, got 0\n"),
]


@pytest.mark.parametrize("argv,err", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_refused_command_line_exits_two_before_any_build(argv, err, monkeypatch, capsys):
    built = _refuse_to_build(monkeypatch)
    if err.startswith("error: "):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, got = capsys.readouterr()
        assert out == "" and err in got
    assert built == []


def test_table_without_a_target_exits_two(monkeypatch, capsys):
    built = _refuse_to_build(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--K", "1", "--N", "3"])
    assert exc.value.code == 2
    assert "the following arguments are required: --target" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize(
    "argv,namespace",
    [
        (["compute", "--target", "p3", "--N", "5"], dict(target="p3", K=None, N=5)),
        (["verify", "--target", "cor-a", "--k", "2", "--j", "1"],
         dict(target="cor-a", k=2, j=1, N=None)),
        (["table", "--target", "c", "--K", "3", "--N", "4"], dict(target="c", K=3, N=4)),
        (["bench"], dict(K=12, sizes=(100, 200, 400), repeat=3)),
    ],
    ids=["compute", "verify", "table", "bench"],
)
def test_parsed_namespace_holds_every_default_under_its_option_name(argv, namespace):
    # the parser holds every default, and each is kept under the name of its
    # option: a bare bench writes text to stdout and runs the documented
    # ladder.  An option a target does not take stays None, so main can
    # refuse it when it is given, and the options of a single target are
    # not bench's to take
    args = cli.build_parser().parse_args(argv)
    assert vars(args) == dict(command=argv[0], format="text", output=None, **namespace)


# -- the entry point as a process ----------------------------------------------------


def _run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "macmahon", *argv], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--target", "a", "--K", "3", "--N", "12", "--format", "json"],
        ["verify", "--target", "thm-c", "--k", "2", "--N", "40", "--format", "json"],
    ],
    ids=["compute", "verify"],
)
def test_module_entry_point_exits_zero_with_the_in_process_json(argv, capsys):
    done = _run_module(*argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert main(argv) == 0
    got, want = json.loads(done.stdout), json.loads(out_of(capsys))
    for obj in (got, want):
        obj.pop("elapsed_ms", None)  # a report's timing differs from run to run
    assert got == want


def test_module_entry_point_exits_two_on_an_option_the_target_does_not_take():
    done = _run_module("verify", "--target", "divisor", "--N", "10", "--k", "1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: --k is not an option of target divisor\n"

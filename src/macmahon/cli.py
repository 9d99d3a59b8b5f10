"""Command-line front end: compute series, verify identities, emit tables
and benchmarks.

Exit status: 0 success (and verification passed), 1 verification mismatch,
2 usage error.  Coefficients are always emitted as decimal strings; they
outgrow anything a JSON number can hold exactly almost immediately.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

# compute_A_family and compute_C_family serve no command directly; they stay
# bound here, next to the generating functions and verifiers, because
# perfbench/tracer.py wraps each layer at its name in this module
from .families import (
    compute_A_family,
    compute_A_family_uncached,
    compute_C_family,
    members,
)
from .identities import (
    VerificationReport,
    verify_corollary_A,
    verify_corollary_C,
    verify_divisor_identities,
    verify_limit_A,
    verify_limit_C,
    verify_theorem_A,
    verify_theorem_C,
)
from .partitions import (
    jacobi_cube,
    mk_bruteforce,
    mk_odd_bruteforce,
    overpartition_series,
    p3_series,
    theta_square,
)
from .series import TruncatedSeries, format_series

COMPUTE_TARGETS = ("a", "c", "p3", "overp", "theta-cube", "theta-square")
VERIFY_TARGETS = ("thm-a", "thm-c", "cor-a", "cor-c", "limit-a", "limit-c", "divisor")
TABLE_TARGETS = ("a", "c")
FORMATS = ("text", "json", "csv")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    target: str | None = None
    k: int | None = None
    j: int | None = None
    K: int | None = None
    N: int | None = None
    format: str = "text"
    output_path: str | None = None
    oracle_guard: int = 40
    use_oracle: bool = False
    bench_family_sizes: tuple[int, ...] = (100, 200, 400)
    repeat: int = 3


# The highest truncation order any command builds: above the order 10608 of
# the deep k=100 corollary window, below orders whose coefficient vectors and
# folds would exhaust memory or run for hours.
MAX_ORDER = 20_000


def _check_order(order: int) -> int:
    if order > MAX_ORDER:
        raise UsageError(
            f"this call builds truncation order {order}, above the order limit {MAX_ORDER}"
        )
    return order


# The most cells (K+1)*(N+1) one `table` call or one `bench` row builds:
# above the 13 x 20001 grid of the cap-12 family at the order limit, below
# caps whose members, zero ones included, would exhaust memory.
MAX_CELLS = 300_000


def _check_cells(cap: int, order: int) -> None:
    cells = (cap + 1) * (order + 1)
    if cells > MAX_CELLS:
        raise UsageError(
            f"this call builds {cells} cells (K+1)*(N+1), above the cell limit {MAX_CELLS}"
        )


def _need(value: int | None, name: str, minimum: int = 0) -> int:
    if value is None:
        raise UsageError(f"--{name} is required for this target")
    if value < minimum:
        raise UsageError(f"--{name} must be >= {minimum}, got {value}")
    return value


def _dump_json(obj) -> str:
    # canonical form so emitted JSON round-trips byte-identically
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- compute -------------------------------------------------------------------


def _compute_series(config: RunConfig) -> TruncatedSeries:
    target = config.target
    order = _check_order(_need(config.N, "N"))
    if target in ("a", "c"):
        return members(target.upper(), (_need(config.K, "K"),), order)[0]
    if target == "p3":
        return p3_series(order)
    if target == "overp":
        return overpartition_series(order)
    if target == "theta-cube":
        return jacobi_cube(order)
    if target == "theta-square":
        return theta_square(order)
    raise UsageError(f"unknown compute target {target!r}")


def _series_output(series: TruncatedSeries, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(series.to_json_dict())
    if fmt == "csv":
        lines = ["n,coefficient"]
        lines += [f"{n},{c}" for n, c in enumerate(series.coeffs)]
        return "\n".join(lines) + "\n"
    return format_series(series) + f"   (truncation order {series.truncation_order})\n"


# -- verify --------------------------------------------------------------------


def _run_verifier(config: RunConfig) -> VerificationReport:
    # each branch checks the highest order its verifier builds (see
    # identities.py) before the verifier allocates anything
    target = config.target
    if target == "thm-a":
        k, order = _need(config.k, "k"), _need(config.N, "N")
        _check_order(order + k * (k + 1) // 2)
        return verify_theorem_A(k, order)
    if target == "thm-c":
        k, order = _need(config.k, "k"), _need(config.N, "N")
        _check_order(order + k * k)
        return verify_theorem_C(k, order)
    if target == "cor-a":
        k, j = _need(config.k, "k"), _need(config.j, "j")
        _check_order((j + 1) * (j + 2 * k + 2) // 2 - 1 + k * (k + 1) // 2)
        return verify_corollary_A(k, j)
    if target == "cor-c":
        k, j = _need(config.k, "k"), _need(config.j, "j")
        _check_order((j + 1) * (j + 2 * k + 1) - 1 + k * k)
        return verify_corollary_C(k, j)
    if target == "limit-a":
        k, order = _need(config.k, "k"), _need(config.N, "N")
        _check_order(min(k * (k + 1) // 2 + k, order))
        return verify_limit_A(k, order)
    if target == "limit-c":
        k, order = _need(config.k, "k"), _need(config.N, "N")
        _check_order(min(k * k + 2 * k, order))
        return verify_limit_C(k, order)
    if target == "divisor":
        return verify_divisor_identities(_check_order(_need(config.N, "N", minimum=1)))
    raise UsageError(f"unknown verify target {target!r}")


def _report_output(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(report.to_json_dict())
    if fmt == "csv":
        mm = report.first_mismatch
        header = "identity,k,j,N,passed,mismatch_exponent,mismatch_lhs,mismatch_rhs,terms_used,elapsed_ms"
        row = ",".join(
            [
                report.identity,
                "" if report.k is None else str(report.k),
                "" if report.j is None else str(report.j),
                str(report.order),
                str(report.passed).lower(),
                "" if mm is None else str(mm.exponent),
                "" if mm is None else str(mm.lhs),
                "" if mm is None else str(mm.rhs),
                str(report.terms_used),
                f"{report.elapsed_ms:.3f}",
            ]
        )
        return header + "\n" + row + "\n"
    params = []
    if report.k is not None:
        params.append(f"k={report.k}")
    if report.j is not None:
        params.append(f"j={report.j}")
    params.append(f"N={report.order}")
    head = f"{report.identity} {' '.join(params)}"
    tail = f"(terms_used={report.terms_used}, {report.elapsed_ms:.1f} ms)"
    if report.passed:
        return f"{head}: PASS {tail}\n"
    mm = report.first_mismatch
    return f"{head}: FAIL at q^{mm.exponent}: lhs={mm.lhs} rhs={mm.rhs} {tail}\n"


# -- table ---------------------------------------------------------------------


def _table_values(config: RunConfig) -> list[list[int]]:
    cap = _need(config.K, "K")
    order = _check_order(_need(config.N, "N"))
    _check_cells(cap, order)
    if config.use_oracle:
        if order > config.oracle_guard:
            raise UsageError(
                f"--N {order} exceeds the oracle guard {config.oracle_guard}; "
                "raise --oracle-guard explicitly for long brute-force runs"
            )
        counter = mk_odd_bruteforce if config.target == "c" else mk_bruteforce
        return [[counter(k, n).value for n in range(order + 1)] for k in range(cap + 1)]
    return [list(m.coeffs) for m in members(config.target.upper(), range(cap + 1), order)]


def _table_output(values: list[list[int]], config: RunConfig) -> str:
    if config.format == "json":
        obj = {
            "family": config.target,
            "K": config.K,
            "N": config.N,
            "values": [[str(v) for v in row] for row in values],
        }
        return _dump_json(obj)
    if config.format == "csv":
        lines = ["k,n,value"]
        for k, row in enumerate(values):
            lines += [f"{k},{n},{v}" for n, v in enumerate(row)]
        return "\n".join(lines) + "\n"
    width = max(len(str(v)) for row in values for v in row)
    width = max(width, 6)
    nw = max(len(str(len(values[0]) - 1)), 1)
    header = f"{'n':<{nw}} " + " ".join(f"{f'k={k}':>{width}}" for k in range(len(values)))
    lines = [header]
    for n in range(len(values[0])):
        lines.append(
            f"{n:<{nw}} " + " ".join(f"{values[k][n]:>{width}}" for k in range(len(values)))
        )
    return "\n".join(lines) + "\n"


# -- bench ---------------------------------------------------------------------


def _best_of(repeats: int, fn) -> float:
    # minimum over repeats; resistant to transient load like timeit's min
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def _run_bench(config: RunConfig) -> list[dict]:
    rows: list[dict] = []
    cap = config.K if config.K is not None else 12
    if cap < 0:
        raise UsageError(f"--K must be >= 0, got {cap}")
    if config.repeat < 1:
        raise UsageError(f"--repeat must be >= 1, got {config.repeat}")
    for n in config.bench_family_sizes:
        _check_order(n)
        _check_cells(cap, n)
    compute_A_family_uncached(min(cap, 4), 16)  # warm up allocators
    for n in config.bench_family_sizes:
        dt = _best_of(config.repeat, lambda: compute_A_family_uncached(cap, n))
        rows.append({"op": "family", "K": cap, "N": n, "elapsed_s": dt})
    return rows


def _bench_output(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _dump_json(rows)
    if fmt == "csv":
        lines = ["op,K,N,elapsed_s"]
        for r in rows:
            lines.append(f"{r['op']},{r['K']},{r['N']},{r['elapsed_s']:.6f}")
        return "\n".join(lines) + "\n"
    lines = [f"{'op':<14} {'K':>4} {'N':>7} {'elapsed_s':>12}"]
    for r in rows:
        lines.append(f"{r['op']:<14} {r['K']:>4} {r['N']:>7} {r['elapsed_s']:>12.6f}")
    return "\n".join(lines) + "\n"


# -- driver ----------------------------------------------------------------------


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        if config.command == "compute":
            _emit(_series_output(_compute_series(config), config.format), config.output_path)
            return 0
        if config.command == "verify":
            report = _run_verifier(config)
            _emit(_report_output(report, config.format), config.output_path)
            return 0 if report.passed else 1
        if config.command == "table":
            _emit(_table_output(_table_values(config), config), config.output_path)
            return 0
        if config.command == "bench":
            _emit(_bench_output(_run_bench(config), config.format), config.output_path)
            return 0
        raise UsageError(f"unknown command {config.command!r}")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if not sizes or any(s < 0 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macmahon",
        description="Exact q-series engine for the MacMahon partition families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="emit a series")
    p_compute.add_argument("--target", required=True, choices=COMPUTE_TARGETS)
    p_compute.add_argument("--K", type=int, help="family member index (targets a, c)")
    p_compute.add_argument("--N", type=int, required=True, help="truncation order")

    p_verify = sub.add_parser("verify", help="verify one identity")
    p_verify.add_argument("--target", required=True, choices=VERIFY_TARGETS)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--N", type=int)

    p_table = sub.add_parser("table", help="emit a partition-count grid")
    p_table.add_argument("--target", required=True, choices=TABLE_TARGETS)
    p_table.add_argument("--K", type=int, required=True)
    p_table.add_argument("--N", type=int, required=True)
    p_table.add_argument("--oracle", action="store_true", help="use brute-force enumeration")
    p_table.add_argument("--oracle-guard", type=int, default=40)

    p_bench = sub.add_parser("bench", help="time family computation")
    p_bench.add_argument("--K", type=int, default=12)
    p_bench.add_argument("--sizes", type=_parse_sizes, default=(100, 200, 400))
    p_bench.add_argument("--repeat", type=int, default=3, help="best-of repetitions per row")

    for p in (p_compute, p_verify, p_table, p_bench):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--output", dest="output_path")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        target=getattr(args, "target", None),
        k=getattr(args, "k", None),
        j=getattr(args, "j", None),
        K=getattr(args, "K", None),
        N=getattr(args, "N", None),
        format=args.format,
        output_path=args.output_path,
        oracle_guard=getattr(args, "oracle_guard", 40),
        use_oracle=getattr(args, "oracle", False),
        bench_family_sizes=getattr(args, "sizes", (100, 200, 400)),
        repeat=getattr(args, "repeat", 3),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())

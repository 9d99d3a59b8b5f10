"""Command-line front end: compute series, verify identities, emit tables
and benchmarks.

Exit status: 0 success (and verification passed), 1 verification mismatch,
2 usage error, an --output path that cannot be written included.  A call
that would build past the package's order limit (families.MAX_ORDER) exits 2
before anything is built: compute, table and every bench size are checked
up front, and a verifier, or the family store it asks, refuses its order.
Coefficients are always emitted as decimal strings; they outgrow anything a
JSON number can hold exactly almost immediately.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Container, Iterable

# compute_A_family and compute_C_family serve no command directly; they stay
# bound here, next to the generating functions and verifiers, because
# perfbench/tracer.py wraps each layer at its name in this module
from .families import (
    _check_order,
    compute_A_family,
    compute_A_family_uncached,
    compute_C_family,
    members,
)
from .identities import (
    Mismatch,
    OrderBelowFloor,
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
    overpartition_series,
    p3_series,
    theta_square,
)
from .series import TruncatedSeries, format_series

COMPUTE_TARGETS = ("a", "c", "p3", "overp", "theta-cube", "theta-square")
# verify target -> the name of its verifier here, looked up at call time, and
# the options it takes, in order
_VERIFIERS = {
    "thm-a": ("verify_theorem_A", "k", "N"),
    "thm-c": ("verify_theorem_C", "k", "N"),
    "cor-a": ("verify_corollary_A", "k", "j"),
    "cor-c": ("verify_corollary_C", "k", "j"),
    "limit-a": ("verify_limit_A", "k", "N"),
    "limit-c": ("verify_limit_C", "k", "N"),
    "divisor": ("verify_divisor_identities", "N"),
}
VERIFY_TARGETS = tuple(_VERIFIERS)
TABLE_TARGETS = ("a", "c")
FORMATS = ("text", "json", "csv")


# The most cells (K+1)*(N+1) one `table` call or one `bench` row builds:
# above the 13 x (MAX_ORDER + 1) grid of the cap-12 family at the order
# limit, below caps whose members, zero ones included, would exhaust memory.
MAX_CELLS = 300_000


def _check_cells(cap: int, order: int) -> None:
    cells = (cap + 1) * (order + 1)
    if cells > MAX_CELLS:
        raise ValueError(
            f"this call builds {cells} cells (K+1)*(N+1), above the cell limit {MAX_CELLS}"
        )


def _need(value: int | None, name: str, minimum: int = 0) -> int:
    if value is None:
        raise ValueError(f"--{name} is required for this target")
    if value < minimum:
        raise ValueError(f"--{name} must be >= {minimum}, got {value}")
    return value


def _check_options(args: argparse.Namespace, taken: Container[str]) -> None:
    # an option the target does not take is refused rather than ignored
    for option in ("k", "j", "K", "N"):
        if option not in taken and getattr(args, option, None) is not None:
            raise ValueError(f"--{option} is not an option of target {args.target}")


def _dump_json(obj) -> str:
    # canonical form so emitted JSON round-trips byte-identically
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    # one line per row, each cell as str() renders it
    line = ",".join(["%s"] * len(header))
    return "\n".join([",".join(header), *[line % row for row in rows]]) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        # a path that cannot be written is a usage error (status 2), not a
        # verification mismatch (status 1)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {path}: {exc.strerror}") from exc


# -- compute -------------------------------------------------------------------


def _compute_series(args: argparse.Namespace) -> TruncatedSeries:
    target = args.target
    _check_options(args, ("K", "N") if target in ("a", "c") else ("N",))
    order = _check_order(_need(args.N, "N"))
    if target in ("a", "c"):
        return members(target.upper(), (_need(args.K, "K"),), order)[0]
    if target == "p3":
        return p3_series(order)
    if target == "overp":
        return overpartition_series(order)
    if target == "theta-cube":
        return jacobi_cube(order)
    return theta_square(order)


def _series_output(series: TruncatedSeries, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(series.to_json_dict())
    if fmt == "csv":
        return _csv(("n", "coefficient"), enumerate(series.coeffs))
    return format_series(series) + f"   (truncation order {series.truncation_order})\n"


# -- verify --------------------------------------------------------------------


def _run_verifier(args: argparse.Namespace) -> VerificationReport:
    # the verifier refuses an order below its window's floor, and it or its
    # family store one above the order limit, before anything is built
    name, *options = _VERIFIERS[args.target]
    _check_options(args, options)
    values = [_need(getattr(args, option), option) for option in options]
    try:
        return globals()[name](*values)
    except OrderBelowFloor as exc:
        # the limit and divisor windows start at the valuation of a member
        raise ValueError(f"--N must be >= {exc.floor}, got {args.N}") from None


def _report_output(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(report.to_json_dict())
    if fmt == "csv":
        # the JSON form's fields, the mismatch spread over one column per field
        row = {}
        for key, value in report.to_json_dict().items():
            if key == "first_mismatch":
                for field in Mismatch.__slots__:
                    row[f"mismatch_{field}"] = value and value[field]
            else:
                row[key] = value
        row["passed"] = str(report.passed).lower()
        return _csv(tuple(row), [tuple("" if v is None else v for v in row.values())])
    params = []
    if report.k is not None:
        params.append(f"k={report.k}")
    if report.j is not None:
        params.append(f"j={report.j}")
    params.append(f"N={report.order}")
    head = f"{report.identity} {' '.join(params)}"
    tail = f"(terms_used={report.terms_used}, {report.to_json_dict()['elapsed_ms']} ms)"
    if report.passed:
        return f"{head}: PASS {tail}\n"
    mm = report.first_mismatch
    return f"{head}: FAIL at q^{mm.exponent}: lhs={mm.lhs} rhs={mm.rhs} {tail}\n"


# -- table ---------------------------------------------------------------------


def _table_values(args: argparse.Namespace) -> list[list[int]]:
    cap = _need(args.K, "K")
    order = _check_order(_need(args.N, "N"))
    _check_cells(cap, order)
    return [list(m.coeffs) for m in members(args.target.upper(), range(cap + 1), order)]


def _table_output(values: list[list[int]], args: argparse.Namespace) -> str:
    if args.format == "json":
        obj = {
            "family": args.target,
            "K": args.K,
            "N": args.N,
            "values": [[str(v) for v in row] for row in values],
        }
        return _dump_json(obj)
    if args.format == "csv":
        cells = ((k, n, v) for k, row in enumerate(values) for n, v in enumerate(row))
        return _csv(("k", "n", "value"), cells)
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


def _run_bench(args: argparse.Namespace) -> list[dict]:
    rows: list[dict] = []
    cap = _need(args.K, "K")
    repeat = _need(args.repeat, "repeat", 1)
    for n in args.sizes:
        _check_order(n)
        _check_cells(cap, n)
    compute_A_family_uncached(min(cap, 4), 16)  # warm up allocators
    for n in args.sizes:
        dt = _best_of(repeat, lambda: compute_A_family_uncached(cap, n))
        # six fixed decimals in every format; JSON carries them as a string,
        # since a JSON number would print a fast row in exponent form
        rows.append({"op": "family", "K": cap, "N": n, "elapsed_s": f"{dt:.6f}"})
    return rows


def _bench_output(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _dump_json(rows)
    if fmt == "csv":
        cells = ((r["op"], r["K"], r["N"], r["elapsed_s"]) for r in rows)
        return _csv(("op", "K", "N", "elapsed_s"), cells)
    lines = [f"{'op':<14} {'K':>4} {'N':>7} {'elapsed_s':>12}"]
    for r in rows:
        lines.append(f"{r['op']:<14} {r['K']:>4} {r['N']:>7} {r['elapsed_s']:>12}")
    return "\n".join(lines) + "\n"


# -- driver ----------------------------------------------------------------------


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

    p_bench = sub.add_parser("bench", help="time family computation")
    p_bench.add_argument("--K", type=int, default=12)
    p_bench.add_argument("--sizes", type=_parse_sizes, default=(100, 200, 400))
    p_bench.add_argument("--repeat", type=int, default=3, help="best-of repetitions per row")

    for p in (p_compute, p_verify, p_table, p_bench):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = _run_verifier(args)
            _emit(_report_output(report, args.format), args.output)
            return 0 if report.passed else 1
        if args.command == "compute":
            text = _series_output(_compute_series(args), args.format)
        elif args.command == "table":
            text = _table_output(_table_values(args), args)
        else:
            text = _bench_output(_run_bench(args), args.format)
        _emit(text, args.output)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

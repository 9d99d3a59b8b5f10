"""Command-line front end: compute series, verify identities, emit tables
and benchmarks.

Exit status: 0 success (and verification passed), 1 verification mismatch,
2 usage error, an --output path that cannot be written included.
Coefficients are always emitted as decimal strings; they outgrow anything a
JSON number can hold exactly almost immediately.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Container

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
    family_order,
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
from .series import TruncatedSeries, _Record, _setfield, format_series

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


class UsageError(Exception):
    pass


class RunConfig(_Record):
    """One command and its options; the parser names each option after its
    field, and an unknown field raises TypeError."""

    __slots__ = (
        "command", "target", "k", "j", "K", "N",
        "format", "output_path", "bench_family_sizes", "repeat",
    )

    def __init__(
        self,
        command: str,
        target: str | None = None,
        k: int | None = None,
        j: int | None = None,
        K: int | None = None,
        N: int | None = None,
        format: str = "text",
        output_path: str | None = None,
        bench_family_sizes: tuple[int, ...] | None = None,
        repeat: int | None = None,
    ) -> None:
        _setfield(self, "command", command)
        _setfield(self, "target", target)
        _setfield(self, "k", k)
        _setfield(self, "j", j)
        _setfield(self, "K", K)
        _setfield(self, "N", N)
        _setfield(self, "format", format)
        _setfield(self, "output_path", output_path)
        _setfield(self, "bench_family_sizes", bench_family_sizes)
        _setfield(self, "repeat", repeat)


# The highest truncation order any command builds: above the order 10608 of
# the deep k=100 corollary window. It bounds the size of every coefficient
# vector and of every fold's packed integers; it does not bound time, since a
# verifier's fold grows about 8x per doubling of its order.
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


def _check_options(config: RunConfig, taken: Container[str]) -> None:
    # a field the call does not read is refused rather than ignored
    owner = f"target {config.target}" if "target" in taken else config.command
    for field in ("target", "k", "j", "K", "N", "bench_family_sizes", "repeat"):
        if field not in taken and getattr(config, field) is not None:
            flag = "sizes" if field == "bench_family_sizes" else field
            raise UsageError(f"--{flag} is not an option of {owner}")


def _dump_json(obj) -> str:
    # canonical form so emitted JSON round-trips byte-identically
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
            raise UsageError(f"cannot write --output {path}: {exc.strerror}") from exc


# -- compute -------------------------------------------------------------------


def _compute_series(config: RunConfig) -> TruncatedSeries:
    target = config.target
    if target not in COMPUTE_TARGETS:
        raise UsageError(f"unknown compute target {target!r}")
    _check_options(config, ("target", "K", "N") if target in ("a", "c") else ("target", "N"))
    order = _check_order(_need(config.N, "N"))
    if target in ("a", "c"):
        return members(target.upper(), (_need(config.K, "K"),), order)[0]
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
        lines = ["n,coefficient"]
        lines += [f"{n},{c}" for n, c in enumerate(series.coeffs)]
        return "\n".join(lines) + "\n"
    return format_series(series) + f"   (truncation order {series.truncation_order})\n"


# -- verify --------------------------------------------------------------------


def _run_verifier(config: RunConfig) -> VerificationReport:
    if config.target not in _VERIFIERS:
        raise UsageError(f"unknown verify target {config.target!r}")
    name, *options = _VERIFIERS[config.target]
    _check_options(config, ("target", *options))
    minimum = 1 if config.target == "divisor" else 0  # divisor sums start at n = 1
    args = [_need(getattr(config, option), option, minimum) for option in options]
    # the highest order the verifier builds, checked before it allocates anything
    _check_order(family_order(config.target, config.k, config.j, config.N))
    return globals()[name](*args)


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
    if config.target not in TABLE_TARGETS:
        raise UsageError(f"unknown table target {config.target!r}")
    _check_options(config, ("target", "K", "N"))
    cap = _need(config.K, "K")
    order = _check_order(_need(config.N, "N"))
    _check_cells(cap, order)
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
    _check_options(config, ("K", "bench_family_sizes", "repeat"))
    rows: list[dict] = []
    cap = 12 if config.K is None else config.K
    sizes = (100, 200, 400) if config.bench_family_sizes is None else config.bench_family_sizes
    repeat = 3 if config.repeat is None else config.repeat
    if cap < 0:
        raise UsageError(f"--K must be >= 0, got {cap}")
    if repeat < 1:
        raise UsageError(f"--repeat must be >= 1, got {repeat}")
    for n in sizes:
        _check_order(n)
        _check_cells(cap, n)
    compute_A_family_uncached(min(cap, 4), 16)  # warm up allocators
    for n in sizes:
        dt = _best_of(repeat, lambda: compute_A_family_uncached(cap, n))
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
        if config.format not in FORMATS:
            raise UsageError(f"unknown format {config.format!r}")
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
    # an option left out is left out of the namespace too, so every default
    # comes from RunConfig (and the bench cap, sizes and repeat from _run_bench)
    sub_parser = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p_compute = sub_parser("compute", help="emit a series")
    p_compute.add_argument("--target", required=True, choices=COMPUTE_TARGETS)
    p_compute.add_argument("--K", type=int, help="family member index (targets a, c)")
    p_compute.add_argument("--N", type=int, required=True, help="truncation order")

    p_verify = sub_parser("verify", help="verify one identity")
    p_verify.add_argument("--target", required=True, choices=VERIFY_TARGETS)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--N", type=int)

    p_table = sub_parser("table", help="emit a partition-count grid")
    p_table.add_argument("--target", required=True, choices=TABLE_TARGETS)
    p_table.add_argument("--K", type=int, required=True)
    p_table.add_argument("--N", type=int, required=True)

    p_bench = sub_parser("bench", help="time family computation")
    p_bench.add_argument("--K", type=int)
    p_bench.add_argument("--sizes", dest="bench_family_sizes", type=_parse_sizes)
    p_bench.add_argument("--repeat", type=int, help="best-of repetitions per row")

    for p in (p_compute, p_verify, p_table, p_bench):
        p.add_argument("--format", choices=FORMATS)
        p.add_argument("--output", dest="output_path")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # the parser names each option after its RunConfig field
    return RunConfig(**vars(args))


def main(argv: list[str] | None = None) -> int:
    return run(config_from_args(build_parser().parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())

"""Reference outputs and the exact check of every benchmark operation.

The reference files under `reference/` were generated once, at the commit
that defined the benchmark, by `gen_reference.py`, which cross-checks them
against independent routes.  They hold:

* `reports.json`: the expected report fields `[order, terms_used]` of every
  verifier call any workload can draw (a verifier call must also pass);
* `residues.json.gz`: every coefficient of p3 and overp through q^10000 and of
  the members A_0..A_12 and C_0..C_12 through q^600, each reduced modulo the
  prime 2^64 - 59.  A series output is right only if its length is right and
  every coefficient has the stored residue.

CLI output is parsed back to integers, so a change that only adds JSON keys
or reformats text does not count as a failure.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

MODULUS = 2**64 - 59
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def report_key(op: dict) -> str:
    parts = [op["target"]] + [f"{p}={op[p]}" for p in ("k", "j", "N") if p in op]
    return " ".join(parts)


def series_name(target: str, K: int | None = None) -> str:
    return {"p3": "p3", "overp": "overp"}.get(target) or f"{target.upper()}{K}"


class Reference:
    def __init__(self, reports: dict[str, list[int]], residues: dict[str, list[int]]) -> None:
        self.reports = reports
        self.residues = residues

    @classmethod
    def load(cls, directory: Path = REFERENCE_DIR) -> "Reference":
        reports = json.loads((directory / "reports.json").read_text())["reports"]
        with gzip.open(directory / "residues.json.gz", "rt") as fh:
            packed = json.load(fh)["series"]
        residues = {
            name: [int(text[i : i + 16], 16) for i in range(0, len(text), 16)]
            for name, text in packed.items()
        }
        return cls(reports, residues)

    def check_report(self, op: dict, report: dict) -> str | None:
        """report holds `passed`, `order` and `terms_used`."""
        key = report_key(op)
        expected = self.reports.get(key)
        if expected is None:
            return f"{key}: no reference"
        if report["passed"] is not True:
            return f"{key}: identity reported as failed"
        got = [report["order"], report["terms_used"]]
        if got != expected:
            return f"{key}: [order, terms_used] {got} != {expected}"
        return None

    def check_series(self, name: str, coeffs: list[int], order: int) -> str | None:
        expected = self.residues.get(name)
        if expected is None or order >= len(expected):
            return f"{name} to q^{order}: no reference"
        if len(coeffs) != order + 1:
            return f"{name}: {len(coeffs)} coefficients for order {order}"
        for n, c in enumerate(coeffs):
            if c % MODULUS != expected[n]:
                return f"{name}: coefficient of q^{n} differs"
        return None


# -- CLI output ------------------------------------------------------------------


def parse_series(text: str, fmt: str) -> tuple[list[int], int]:
    """Coefficients and truncation order of a `compute` output."""
    if fmt == "json":
        obj = json.loads(text)
        return [int(c) for c in obj["coeffs"]], int(obj["truncation"])
    if fmt == "csv":
        lines = text.splitlines()[1:]
        coeffs = []
        for n, line in enumerate(lines):
            index, value = line.split(",")
            if int(index) != n:
                raise ValueError(f"csv row {n} is labelled {index}")
            coeffs.append(int(value))
        return coeffs, len(coeffs) - 1
    raise ValueError(f"no parser for compute format {fmt!r}")


def parse_table(text: str, fmt: str) -> list[list[int]]:
    """Rows k = 0..K of a `table` output, each with coefficients 0..N."""
    if fmt == "json":
        return [[int(v) for v in row] for row in json.loads(text)["values"]]
    if fmt == "csv":
        rows: list[list[int]] = []
        for line in text.splitlines()[1:]:
            k, n, value = (int(part) for part in line.split(","))
            if k == len(rows):
                rows.append([])
            if k != len(rows) - 1 or n != len(rows[k]):
                raise ValueError(f"csv cell ({k},{n}) out of order")
            rows[k].append(value)
        return rows
    if fmt == "text":
        lines = text.splitlines()
        header = lines[0].split()
        columns = len(header) - 1
        rows = [[] for _ in range(columns)]
        for n, line in enumerate(lines[1:]):
            cells = line.split()
            if int(cells[0]) != n or len(cells) != columns + 1:
                raise ValueError(f"text row {n} is malformed")
            for k in range(columns):
                rows[k].append(int(cells[k + 1]))
        return rows
    raise ValueError(f"no parser for table format {fmt!r}")


def parse_report(text: str) -> dict:
    obj = json.loads(text)
    return {"passed": obj["passed"], "order": obj["N"], "terms_used": obj["terms_used"]}


def check_cli(op: dict, returncode: int, stdout: str, ref: Reference) -> str | None:
    """None when the CLI call's exit status and parsed output match the
    reference, else a one-line reason."""
    if returncode != 0:
        return f"{op['cmd']} {op['target']}: exit status {returncode}"
    try:
        if op["cmd"] == "verify":
            return ref.check_report(op, parse_report(stdout))
        if op["cmd"] == "compute":
            coeffs, order = parse_series(stdout, op["format"])
            if order != op["N"]:
                return f"compute {op['target']}: truncation {order} != {op['N']}"
            return ref.check_series(series_name(op["target"], op.get("K")), coeffs, order)
        rows = parse_table(stdout, op["format"])
        if len(rows) != op["K"] + 1:
            return f"table {op['target']}: {len(rows)} rows for K={op['K']}"
        for k, row in enumerate(rows):
            problem = ref.check_series(series_name(op["target"], k), row, op["N"])
            if problem:
                return problem
        return None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{op['cmd']} {op['target']}: unparsable output ({exc})"

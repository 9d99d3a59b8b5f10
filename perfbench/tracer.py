"""Span tracer for the benchmark's traced runs, and the per-layer metrics
computed from its spans.

The tracer wraps public functions of the package at the names their callers
look them up by (a module attribute such as `macmahon.identities.p3_series`,
or a method on `macmahon.series.TruncatedSeries`).  Nothing under `src/` is
changed.  Each boundary belongs to a group named after its layer; a boundary
that no longer exists is recorded as missing, and every metric that depends
on its group is then reported as "missing" rather than as 0.

Spans live in memory as lists `[group, start, end, parent, op, info]` and are
exported when the process finishes its work.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Sequence
from typing import Callable

# verifier target -> public function of macmahon.identities
VERIFIERS = {
    "thm-a": "verify_theorem_A",
    "thm-c": "verify_theorem_C",
    "cor-a": "verify_corollary_A",
    "cor-c": "verify_corollary_C",
    "limit-a": "verify_limit_A",
    "limit-c": "verify_limit_C",
    "divisor": "verify_divisor_identities",
}

_BELOW_VERIFIERS = (
    ("macmahon.identities", "compute_A_family", "families"),
    ("macmahon.identities", "compute_C_family", "families"),
    ("macmahon.identities", "p3_series", "partitions.gf"),
    ("macmahon.identities", "overpartition_series", "partitions.gf"),
    ("macmahon.identities", "sigma", "partitions.sigma"),
    ("macmahon.series", "TruncatedSeries.invert", "series.invert"),
    ("macmahon.series", "TruncatedSeries.__mul__", "series.mul"),
)

# The library workloads call the verifiers through `macmahon.identities`.
LIBRARY_BOUNDARIES = (
    tuple(("macmahon.identities", name, "identities") for name in VERIFIERS.values())
    + _BELOW_VERIFIERS
)

# A CLI child enters through `macmahon.cli.main`, and the CLI looks the
# verifiers, families and generating functions up in its own namespace.
CLI_BOUNDARIES = (
    (("macmahon.cli", "main", "cli"),)
    + tuple(("macmahon.cli", name, "identities") for name in VERIFIERS.values())
    + (
        ("macmahon.cli", "compute_A_family", "families"),
        ("macmahon.cli", "compute_C_family", "families"),
        ("macmahon.cli", "p3_series", "partitions.gf"),
        ("macmahon.cli", "overpartition_series", "partitions.gf"),
    )
    + _BELOW_VERIFIERS
)


class _MemberReads(Sequence):
    """The members tuple of one family request; records which indices the
    caller reads."""

    def __init__(self, members: Sequence, read: set) -> None:
        self._members = members
        self._read = read

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, index):
        indices = range(len(self._members))[index]
        if isinstance(index, slice):
            self._read.update(indices)
        else:
            self._read.add(indices)
        return self._members[index]


class _FamilyView:
    """Stands in for the family a request returned, counting member reads."""

    def __init__(self, family, read: set) -> None:
        self._family = family
        self._read = read

    @property
    def members(self) -> _MemberReads:
        return _MemberReads(self._family.members, self._read)

    def member(self, k: int):
        self._read.add(k)
        return self._family.member(k)

    def coefficient(self, k: int, n: int) -> int:
        self._read.add(k)
        return self._family.coefficient(k, n)

    def __getattr__(self, name: str):
        return getattr(self._family, name)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _family_hook(tag: str) -> Callable:
    def hook(span: list, args: tuple, kwargs: dict, result):
        read: set = set()
        span[5] = {
            "key": [tag, _arg(args, kwargs, 0, "K"), _arg(args, kwargs, 1, "order")],
            "read": read,
        }
        return _FamilyView(result, read)

    return hook


def _order_hook(span: list, args: tuple, kwargs: dict, result):
    span[5] = {"order": _arg(args, kwargs, 0, "order")}
    return result


_HOOKS = {
    "compute_A_family": _family_hook("A"),
    "compute_C_family": _family_hook("C"),
    "p3_series": _order_hook,
    "overpartition_series": _order_hook,
}


class Tracer:
    """Records one span per call of a wrapped boundary.  `op` is the id of
    the operation in progress; the caller sets it before each operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, boundaries) -> None:
        for module_name, qualname, group in boundaries:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(group)
                continue
            setattr(owner, attr, self._wrap(group, original, _HOOKS.get(attr)))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, group: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [group, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return hook(span, args, kwargs, result) if hook else result

        traced.__wrapped__ = fn
        return traced

    def export(self) -> dict:
        """JSON-ready spans; a family span's read set becomes its count."""
        spans = []
        for group, start, end, parent, op, info in self.spans:
            if info is not None and "read" in info:
                info = {"key": info["key"], "read": len(info["read"])}
            spans.append([group, start, end, parent, op, info])
        return {"spans": spans, "missing": sorted(self.missing)}


# -- per-layer metrics -----------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for group, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (group, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


# metric name -> (span group it is measured at, unit)
LAYER_METRICS = {
    "families.ms": ("families", "ms"),
    "families.calls": ("families", "count"),
    "families.coeffs_out": ("families", "count"),
    "families.member_yield": ("families", "ratio"),
    "families.repeat_share": ("families", "ratio"),
    "partitions.gf_ms": ("partitions.gf", "ms"),
    "partitions.gf_calls": ("partitions.gf", "count"),
    "partitions.gf_coeffs": ("partitions.gf", "count"),
    "series.invert_ms": ("series.invert", "ms"),
    "partitions.sigma_ms": ("partitions.sigma", "ms"),
    "identities.self_ms": ("identities", "ms"),
    "identities.calls": ("identities", "count"),
    "cli.import_ms": ("cli", "ms"),
    "cli.self_ms": ("cli", "ms"),
    "cli.out_bytes": ("cli", "bytes"),
    "series.mul_calls": ("series.mul", "count"),
}


def layer_metrics(processes: list[dict]) -> dict[str, float | str]:
    """Per-layer values over the exports of every process of one run.

    Each export may carry `import_ms` and `out_bytes` (CLI children).  Times
    are totals over the run.  A layer that was never called reads 0; a layer
    whose boundary was missing in any process reads "missing".  Repeats of a
    family key are counted within one process, since a cache in the program
    can only reuse work inside the process that did it."""
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    families = {"coeffs": 0, "requested": 0, "read": 0, "repeats": 0}
    gf_coeffs = 0
    identities_self = cli_self = cli_import = 0.0
    cli_bytes = 0
    missing: set[str] = set()
    for proc in processes:
        spans = proc["spans"]
        missing.update(proc["missing"])
        cli_import += proc.get("import_ms", 0.0)
        cli_bytes += proc.get("out_bytes", 0)
        own = self_times(spans)
        seen = set()
        for i, (group, start, end, parent, _op, info) in enumerate(spans):
            if parent >= 0 and spans[parent][0] == group:
                continue  # nested in a span of its own layer: counted there
            ms[group] = ms.get(group, 0.0) + (end - start) * 1000.0
            calls[group] = calls.get(group, 0) + 1
            if group == "identities":
                identities_self += own[i] * 1000.0
            elif group == "cli":
                cli_self += own[i] * 1000.0
            elif info is None:
                continue  # a call that raised before its hook ran
            elif group == "families":
                tag, cap, order = info["key"]
                families["coeffs"] += (cap + 1) * (order + 1)
                families["requested"] += cap + 1
                families["read"] += info["read"]
                key = (tag, cap, order)
                families["repeats"] += key in seen
                seen.add(key)
            elif group == "partitions.gf":
                gf_coeffs += info["order"] + 1

    family_calls = calls.get("families", 0)
    values: dict[str, float | str] = {
        "families.ms": ms.get("families", 0.0),
        "families.calls": family_calls,
        "families.coeffs_out": families["coeffs"],
        "families.member_yield": (
            families["read"] / families["requested"] if families["requested"] else 0.0
        ),
        "families.repeat_share": (
            families["repeats"] / family_calls if family_calls else 0.0
        ),
        "partitions.gf_ms": ms.get("partitions.gf", 0.0),
        "partitions.gf_calls": calls.get("partitions.gf", 0),
        "partitions.gf_coeffs": gf_coeffs,
        "series.invert_ms": ms.get("series.invert", 0.0),
        "partitions.sigma_ms": ms.get("partitions.sigma", 0.0),
        "identities.self_ms": identities_self,
        "identities.calls": calls.get("identities", 0),
        "cli.import_ms": cli_import,
        "cli.self_ms": cli_self,
        "cli.out_bytes": cli_bytes,
        "series.mul_calls": calls.get("series.mul", 0),
    }
    for name, (group, _unit) in LAYER_METRICS.items():
        if group in missing:
            values[name] = "missing"
    return values

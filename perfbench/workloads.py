"""Seeded operation lists of the three benchmark workloads.

An operation is a small JSON-ready dict.  A verifier call reads
`{"target": "thm-a", "k": 3, "N": 150}`; a CLI call adds `"cmd"` and, for
`compute` and `table`, `"K"` and `"format"`.  The lists depend only on the
seed (and, for the sizes that scale, on the run length); the package receives
nothing but these inputs.

Parameters that change the cost of an operation are drawn by stratified
sampling: one value from each of n equal slices of the range, then shuffled.
Every seed therefore puts the same amount of work in a run, and only the
values and the order change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("identity-sweep", "deep-window", "cli-export")

# the corollary windows (k, j) that every identity-sweep pass repeats
COROLLARY_WINDOWS = ((0, 3), (1, 2), (2, 2), (20, 2))

# Operations a run issues per second of requested run length, measured at the
# commit that defined this benchmark, on a 2-CPU x86-64 machine with Python
# 3.11 and no gmpy2.
PASSES_PER_SECOND = 2.2  # identity-sweep passes, about 0.45 s each
CLI_OPS_PER_SECOND = 7.0  # cli-export children, about 0.14 s each
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90

DEEP_K = range(12, 33)
DEEP_J = (1, 2, 3)
DEEP_PROCESSES = 3

# share of the cli-export operations per kind
CLI_MIX = (("series", 0.30), ("member", 0.30), ("table", 0.25), ("verify", 0.15))

VERIFY_TARGETS = ("thm-a", "thm-c", "cor-a", "cor-c", "limit-a", "limit-c", "divisor")


@dataclass(frozen=True)
class Workload:
    """`shards` holds one operation list per fresh process for the library
    workloads, and the single list of CLI calls for cli-export.  `warmup`
    uses keys that no shard contains."""

    name: str
    shards: tuple[tuple[dict, ...], ...]
    warmup: tuple[dict, ...]

    @property
    def ops(self) -> list[dict]:
        return [op for shard in self.shards for op in shard]


def spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers from [lo, hi], one drawn from each of n equal slices of the
    range, in slice order."""
    width = hi - lo + 1
    out = []
    for i in range(n):
        a = lo + i * width // n
        b = max(a, lo + (i + 1) * width // n - 1)
        out.append(rng.randint(a, b))
    return out


def strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """The values of `spread` in random order."""
    out = spread(rng, lo, hi, n)
    rng.shuffle(out)
    return out


def _tri(m: int) -> int:
    return m * (m + 1) // 2


# -- identity-sweep --------------------------------------------------------------


def _sweep_pass(N: int) -> list[dict]:
    ops = [{"target": t, "k": k, "N": N} for t in ("thm-a", "thm-c") for k in range(13)]
    ops += [{"target": "limit-a", "k": k, "N": N} for k in range(11)]
    ops += [{"target": "limit-c", "k": k, "N": N} for k in range(9)]
    ops.append({"target": "divisor", "N": 3 * N})
    ops += [
        {"target": t, "k": k, "j": j}
        for t in ("cor-a", "cor-c")
        for k, j in COROLLARY_WINDOWS
    ]
    return ops


def identity_sweep(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"identity-sweep/{seed}")
    ops: list[dict] = []
    for N in strata(rng, 100, 200, max(2, round(seconds * PASSES_PER_SECOND))):
        batch = _sweep_pass(N)
        rng.shuffle(batch)
        ops += batch
    warmup = [{"target": t, "k": k, "N": 60} for t in ("thm-a", "thm-c") for k in range(3)]
    warmup += [
        {"target": "limit-a", "k": 1, "N": 60},
        {"target": "limit-c", "k": 1, "N": 60},
        {"target": "divisor", "N": 90},
        {"target": "cor-a", "k": 3, "j": 1},
        {"target": "cor-c", "k": 3, "j": 1},
    ]
    return Workload("identity-sweep", (tuple(ops),), tuple(warmup))


# -- deep-window ----------------------------------------------------------------


def deep_window(seed: int, seconds: float) -> Workload:
    """Every (family, k, j) with k in [12, 32] and j in {1, 2, 3} once.

    A corollary window reads its family at an order fixed by k + j alone, so
    the up to three windows with one k + j share a family.  Each of them goes
    to a different fresh process: no process requests a family twice.  The
    126 operations are the whole key space, so the run length does not scale
    this list."""
    rng = random.Random(f"deep-window/{seed}")
    shards: list[list[dict]] = [[] for _ in range(DEEP_PROCESSES)]
    for target in ("cor-a", "cor-c"):
        for total in range(min(DEEP_K) + min(DEEP_J), max(DEEP_K) + max(DEEP_J) + 1):
            group = [
                {"target": target, "k": total - j, "j": j}
                for j in DEEP_J
                if total - j in DEEP_K
            ]
            for op, shard in zip(group, rng.sample(range(DEEP_PROCESSES), len(group))):
                shards[shard].append(op)
    for shard in shards:
        rng.shuffle(shard)
    warmup = [{"target": t, "k": k, "j": j} for t in ("cor-a", "cor-c") for k, j in ((8, 1), (9, 2))]
    return Workload("deep-window", tuple(tuple(s) for s in shards), tuple(warmup))


# -- cli-export -----------------------------------------------------------------


def family_keys(op: dict) -> list[tuple[str, int, int]]:
    """The family requests (tag, cap, order) that one operation makes in the
    package at the commit that defined the benchmark.  Used only to keep the
    requests of one cli-export run distinct; the traced run measures the
    requests the package really makes."""
    target = op["target"]
    if op.get("cmd") in ("compute", "table"):
        return [(target.upper(), op["K"], op["N"])] if target in ("a", "c") else []
    k, j, N = op.get("k"), op.get("j"), op.get("N")
    if target == "thm-a":
        order = N + _tri(k)
        top = k
        while _tri(top + 1) <= order:
            top += 1
        return [("A", top, order)]
    if target == "thm-c":
        order = N + k * k
        top = k
        while (top + 1) ** 2 <= order:
            top += 1
        return [("C", top, order)]
    if target == "cor-a":
        return [("A", k + j, _tri(k + j + 1) - 1)]
    if target == "cor-c":
        return [("C", k + j, (k + j + 1) ** 2 - 1)]
    if target == "limit-a":
        return [("A", k, N)]
    if target == "limit-c":
        return [("C", k, N)]
    if target == "divisor":
        return [("A", 2, N)]
    raise ValueError(f"unknown target {target!r}")


def _small_verify(rng: random.Random, target: str) -> dict:
    # every family these request has order below 150, under the compute and
    # table ranges, so they never share a key with them
    if target in ("thm-a", "thm-c"):
        return {"target": target, "k": rng.randint(0, 8), "N": rng.randint(20, 60)}
    if target in ("cor-a", "cor-c"):
        return {"target": target, "k": rng.randint(0, 8), "j": rng.randint(0, 3)}
    if target == "limit-a":
        return {"target": target, "k": rng.randint(0, 6), "N": rng.randint(21, 60)}
    if target == "limit-c":
        return {"target": target, "k": rng.randint(0, 5), "N": rng.randint(25, 60)}
    return {"target": target, "N": rng.randint(20, 60)}


def cli_argv(op: dict) -> list[str]:
    argv = [op["cmd"], "--target", op["target"]]
    for name in ("K", "k", "j", "N"):
        if name in op:
            argv += [f"--{name}", str(op[name])]
    return argv + ["--format", op["format"]]


def _cli_kind_counts(total: int) -> dict[str, int]:
    counts = {kind: int(total * share) for kind, share in CLI_MIX}
    counts["series"] += total - sum(counts.values())
    return counts


def _scatter(n: int) -> list[int]:
    """A fixed permutation of range(n) that spreads neighbours apart."""
    return sorted(range(n), key=lambda i: (i * 0.6180339887) % 1.0)


def cli_export(seed: int, seconds: float) -> Workload:
    """Numeric parameters come one from each slice of their range; the i-th
    slice is paired with fixed choices of target and format and with a fixed
    slice of the other parameter, so that only the values inside the slices
    and the order of the calls change with the seed."""
    rng = random.Random(f"cli-export/{seed}")
    counts = _cli_kind_counts(max(MIN_OPS, round(seconds * CLI_OPS_PER_SECOND)))
    seen: set = set()

    def fresh(op: dict, lo: int, hi: int) -> dict:
        # the nearest N inside [lo, hi] whose family no earlier call requested
        for step in range(hi - lo + 1):
            for N in (op["N"] + step, op["N"] - step):
                candidate = {**op, "N": N}
                keys = family_keys(candidate)
                if lo <= N <= hi and not seen.intersection(keys):
                    seen.update(keys)
                    return candidate
        raise RuntimeError(f"no fresh family key near {op}")

    ops: list[dict] = []
    for i, N in enumerate(spread(rng, 3000, 10000, counts["series"])):
        target, fmt = ("p3", "overp")[i % 2], ("json", "csv")[i // 2 % 2]
        ops.append({"cmd": "compute", "target": target, "N": N, "format": fmt})

    n = counts["member"]
    caps, orders = spread(rng, 4, 12, n), spread(rng, 200, 600, n)
    for i, j in enumerate(_scatter(n)):
        op = {"cmd": "compute", "target": ("a", "c")[i % 2], "K": caps[j], "N": orders[i]}
        ops.append(fresh({**op, "format": "json"}, 200, 600))

    n = counts["table"]
    caps, orders = spread(rng, 4, 12, n), spread(rng, 150, 400, n)
    for i, j in enumerate(_scatter(n)):
        op = {"cmd": "table", "target": ("a", "c")[i // 3 % 2], "K": caps[j], "N": orders[i]}
        ops.append(fresh({**op, "format": ("json", "csv", "text")[i % 3]}, 150, 400))

    for i in range(counts["verify"]):
        target = VERIFY_TARGETS[i % len(VERIFY_TARGETS)]
        for _ in range(1000):
            op = {"cmd": "verify", **_small_verify(rng, target), "format": "json"}
            keys = family_keys(op)
            if not seen.intersection(keys):
                seen.update(keys)
                ops.append(op)
                break
        else:
            raise RuntimeError(f"no fresh family key for {target}")

    rng.shuffle(ops)
    warmup = (
        {"cmd": "compute", "target": "p3", "N": 1000, "format": "json"},
        {"cmd": "table", "target": "a", "K": 2, "N": 50, "format": "text"},
        {"cmd": "verify", "target": "divisor", "N": 10, "format": "json"},
    )
    return Workload("cli-export", (tuple(ops),), warmup)


BUILDERS = {
    "identity-sweep": identity_sweep,
    "deep-window": deep_window,
    "cli-export": cli_export,
}


def build(name: str, seed: int, seconds: float) -> Workload:
    return BUILDERS[name](seed, seconds)

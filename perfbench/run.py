"""Benchmark of the macmahon package.

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 15 --trace 0

Run it from the repository root.  It builds the workload's operation list from
the seed, sets up (imports, input generation, warm-up) three times, runs the
list as a closed loop with one client in fresh processes, and checks every
output exactly against the stored reference.  With `--trace 1` it runs the
list a second time with the span tracer installed and reports per-layer
metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment.  The full record goes to `.perfbench/`.  The exit status is
0 when every output matched, 1 when one did not, and 2 when the benchmark
cannot run in this directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import workloads
from checks import Reference, check_cli
from tracer import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # every child is stopped before the run reaches this

E2E_UNITS = {
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """One run of a workload's operation list.  Times are scaled to the
    reference speed by `probe` (see speed.py); set-up, which starts
    interpreters, is scaled by the SPAWN probe."""

    probe: speed.Probe
    op_ms: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)  # scaled / raw, per operation
    raw_ms: float = 0.0  # the operation time, unscaled
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)  # one per process

    def wall_s(self) -> float:
        return sum(self.op_ms) / 1000.0

    def record(self, raw_ms: float, around_ms: float, problem: str | None) -> None:
        self.factors.append(self.probe.scale(1.0, around_ms))
        self.op_ms.append(raw_ms * self.factors[-1])
        self.raw_ms += raw_ms
        if problem:
            self.problems.append(problem)

    def time_setup(self, setup) -> None:
        before = speed.SPAWN.measure()
        t0 = time.perf_counter()
        setup()
        raw = time.perf_counter() - t0
        self.setup_s.append(speed.SPAWN.scale(raw, (before + speed.SPAWN.measure()) / 2.0))

    def scaled_traces(self) -> list[dict]:
        """The traces, with each span's clock and each child's import time
        scaled by the factor of its operation, as the operation itself was."""
        for export in self.traces:
            for span in export["spans"]:
                span[1] *= self.factors[span[4]]
                span[2] *= self.factors[span[4]]
            if "import_ms" in export:
                export["import_ms"] *= self.factors[export["op"]]
        return self.traces


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run exceeded its time limit")
        return left


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    kernel timings and the operations they scale share one CPU's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# -- library workloads ------------------------------------------------------------


def run_worker(request: dict, root: Path, deadline: Deadline) -> dict | None:
    """Run one library worker to completion; its reply, or None for a
    set-up-only worker."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "libworker.py")],
        input=json.dumps(request) + "\n",
        capture_output=True,
        text=True,
        env=child_env(root),
        cwd=root,
        timeout=deadline.left(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"library worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]) if request["ops"] else None


def run_library(workload, build, root, ref, trace, deadline) -> Outcome:
    out = Outcome(speed.FOLD)
    warmup = list(workload.warmup)

    def setup() -> None:
        build()
        run_worker({"warmup": warmup, "ops": [], "trace": False}, root, deadline)

    for _ in range(SETUP_REPEATS):
        out.time_setup(setup)
    base = 0
    for shard in workload.shards:
        reply = run_worker({"warmup": warmup, "ops": list(shard), "trace": trace}, root, deadline)
        for op, (ms, around, report, error) in zip(shard, reply["results"]):
            out.record(ms, around, error or ref.check_report(op, report))
        if trace:
            for span in reply["trace"]["spans"]:
                span[4] += base
            out.traces.append(reply["trace"])
        base += len(shard)
    return out


# -- cli-export -------------------------------------------------------------------


def run_child(op: dict, spans: Path | None, root: Path, deadline: Deadline):
    argv = workloads.cli_argv(op)
    return subprocess.run(
        [sys.executable, str(HERE / "cli_child.py"), str(spans or "-"), *argv],
        capture_output=True,
        env=child_env(root),
        cwd=root,
        timeout=deadline.left(),
    )


def run_cli(workload, build, root, ref, trace, deadline) -> Outcome:
    out = Outcome(speed.SPAWN)

    def setup() -> None:
        build()
        for op in workload.warmup:
            if run_child(op, None, root, deadline).returncode != 0:
                raise RuntimeError(f"warm-up call {op} failed")

    for _ in range(SETUP_REPEATS):
        out.time_setup(setup)
    scratch = root / ".perfbench" / f"children-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:

        def call(i: int, op: dict):
            spans = scratch / f"op{i}.json" if trace else None
            t0 = time.perf_counter()
            proc = run_child(op, spans, root, deadline)
            ms = (time.perf_counter() - t0) * 1000.0
            if trace:
                export = json.loads(spans.read_text())
                for span in export["spans"]:
                    span[4] = i
                export["op"] = i
                export["out_bytes"] = len(proc.stdout)
                out.traces.append(export)
            return ms, check_cli(op, proc.returncode, proc.stdout.decode(), ref)

        for ms, around, problem in speed.calibrated_loop(workload.ops, call, speed.SPAWN):
            out.record(ms, around, problem)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


# -- metrics and report -------------------------------------------------------------


def quantile(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density, integrated
    over each rank's slice of [0, 1].  It moves less from run to run than a
    single order statistic does."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(out: Outcome) -> dict[str, float]:
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    return {
        "wall_s": out.wall_s(),
        "op_ms.p50": quantile(out.op_ms, 0.5),
        "op_ms.p90": quantile(out.op_ms, 0.9),
        "setup_s": statistics.median(out.setup_s),
        "peak_rss_mb": rss / 1024.0,
    }


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cpus": os.cpu_count(),
        "git_sha": git_sha(root),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "macmahon" / "__init__.py").is_file():
        print("error: run from a checkout of the repository (no src/macmahon here)", file=sys.stderr)
        return 2
    try:
        ref = Reference.load()
    except OSError as exc:
        print(f"error: cannot read the reference outputs: {exc}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    deadline = Deadline(RUN_LIMIT_S)
    build = lambda: workloads.build(args.workload, args.seed, args.seconds)  # noqa: E731
    workload = build()
    runner = run_cli if args.workload == "cli-export" else run_library
    try:
        passes = [runner(workload, build, root, ref, trace, deadline) for trace in range(args.trace + 1)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plain = passes[0]
    if args.trace:
        traced = passes[1]
        metrics = layer_metrics(traced.scaled_traces())
        metrics["trace.overhead_ratio"] = traced.wall_s() / plain.wall_s() - 1.0
        units = {name: unit for name, (_group, unit) in LAYER_METRICS.items()}
        units["trace.overhead_ratio"] = "ratio"
    else:
        metrics = end_to_end(plain)
        units = E2E_UNITS

    problems = [p for run in passes for p in run.problems]
    attempted = sum(len(run.op_ms) for run in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "op_ms_samples": len(plain.op_ms),
        "unscaled_wall_s": plain.raw_ms / 1000.0,
        "failed_ratio": len(problems) / attempted,
        "setup_samples_s": plain.setup_s,
        "op_ms": plain.op_ms,
        "problems": problems[:50],
        "metrics": metrics,
    }
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(passes[1].traces))

    for problem in problems[:10]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{name:<24} {shown:>14} {units[name]}")
    print(f"{'failed_ratio':<24} {record['failed_ratio']:>14.6g} ({len(problems)}/{attempted})")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh library process of a benchmark run.

Reads one JSON request from standard input:

    {"warmup": [op, ...], "ops": [op, ...], "trace": false}

imports the package, runs the warm-up, then runs the operations one after
another (a closed loop with one client) through the verifiers of
`macmahon.identities`.  It prints one JSON line: per operation its latency
in ms, the FOLD probe's time around it (see speed.py) and the report fields
or the error it raised; with "trace" also the tracer's spans.  A warm-up
failure exits non-zero.
"""

from __future__ import annotations

import json
import sys
import time

from speed import FOLD, calibrated_loop
from tracer import LIBRARY_BOUNDARIES, VERIFIERS, Tracer


def call(identities, op: dict) -> dict:
    # looked up on every call, so that traced wrappers are the ones called
    verify = getattr(identities, VERIFIERS[op["target"]])
    report = verify(*[op[p] for p in ("k", "j", "N") if p in op])
    return {"passed": report.passed, "order": report.order, "terms_used": report.terms_used}


def main() -> int:
    request = json.loads(sys.stdin.readline())
    import macmahon.identities as identities

    for op in request["warmup"]:
        if not call(identities, op)["passed"]:
            raise SystemExit(f"warm-up operation {op} failed")

    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install(LIBRARY_BOUNDARIES)

    def run_one(i: int, op: dict):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, error = call(identities, op), None
        except Exception as exc:  # an operation failure is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        return (time.perf_counter() - t0) * 1000.0, (out, error)

    rows = calibrated_loop(request["ops"], run_one, FOLD)
    results = [[ms, around, out, error] for ms, around, (out, error) in rows]
    reply = {"results": results, "trace": tracer.export() if tracer else None}
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

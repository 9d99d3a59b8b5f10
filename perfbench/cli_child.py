"""One CLI call of the cli-export workload, in an interpreter of its own.

    python3 perfbench/cli_child.py SPANS_PATH ARG...

calls `macmahon.cli.main(ARGS)` as the console script does and exits with its
status; the output goes to this process's standard output.  With SPANS_PATH
"-" nothing else happens.  Otherwise the child times the import of
`macmahon.cli`, traces the call, and writes its spans to SPANS_PATH, never to
the standard output that the benchmark checks.
"""

import sys


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    if spans_path == "-":
        from macmahon.cli import main as cli_main

        return cli_main(argv)

    import time

    t0 = time.perf_counter()
    import macmahon.cli

    import_ms = (time.perf_counter() - t0) * 1000.0
    import json

    from tracer import CLI_BOUNDARIES, Tracer

    tracer = Tracer()
    tracer.install(CLI_BOUNDARIES)
    tracer.op = 0
    try:
        return macmahon.cli.main(argv)
    finally:
        export = tracer.export()
        export["import_ms"] = import_ms
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(export, fh)


if __name__ == "__main__":
    sys.exit(main())

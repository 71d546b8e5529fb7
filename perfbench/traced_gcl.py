"""Run one gcl command with spans around the calls into each module.

Usage: traced_gcl.py SPANS_FILE SPAWN_TIME GCL_ARGS...

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so start-up is
interpreter start plus `import gcl.cli`.  Spans stay in memory and are
written to SPANS_FILE as JSON when the command returns.
"""

import json
import sys
import time


def main(spans_file: str, spawn_time: float, argv: list[str]) -> int:
    import gcl.cli

    startup_s = time.monotonic() - spawn_time
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", gcl.cli.main)(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump(
                {"startup_s": startup_s, "spans": tracer.spans, "counts": tracer.counts},
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2]), sys.argv[3:]))

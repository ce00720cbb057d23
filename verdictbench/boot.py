"""Traced start-up of one CLI call, for the cli-cold workload.

Installs the benchmark's wrappers, then runs `algebroids.cli.console_main`
on the command line it was given.  The aggregates and spans go to
`$VERDICTBENCH_TRACE_OUT.json` and `.jsonl` when the call ends.
"""

import json
import os
import sys

import tracer as T


def main():
    out = os.environ["VERDICTBENCH_TRACE_OUT"]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import algebroids.cli
    tracer = T.Tracer()
    tracer.install()
    tracer.begin_verdict(int(os.environ.get("VERDICTBENCH_VERDICT", "0")))
    code = 0
    try:
        algebroids.cli.console_main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(out + ".json", "w") as fh:
            json.dump(tracer.state(), fh)
        tracer.dump_spans(out + ".jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())

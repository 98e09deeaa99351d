"""Run the tikhtorus CLI in this process with its public functions traced.

Usage: python3 -X importtime perfbench/traced_cli.py TRACE_JSON CLI_ARG...

The CLI arguments are those of the ``tikhtorus`` console script. The span
report goes to TRACE_JSON; the exit code is the CLI's.
"""

import json
import sys

import tikhtorus.cli
from tracer import Tracer


def main(argv: list) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tikhtorus.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

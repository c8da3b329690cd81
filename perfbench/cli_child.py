"""Run one ``equiguide`` CLI command with tracing on.

Usage: python3 cli_child.py TRACE_OUT CLI_ARGS...

Installs the benchmark's wrappers, runs ``equiguide.cli.main`` on the
remaining arguments exactly as the console command would, writes the traced
statistics to TRACE_OUT as JSON and exits with the command's code.
"""

import sys

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer().install()
    from equiguide import cli

    code = cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    raise SystemExit(code)

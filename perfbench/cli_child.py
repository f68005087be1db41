"""Run ``hbspline.cli.main`` with the tracer installed, then write its spans.

    python3 perfbench/cli_child.py SPANS_OUT PARENT_SPAN_ID OP_ID CLI_ARGS...

The tracer is installed before ``main`` runs, so every layer call the CLI
makes is a span whose top-level parent is the benchmark's span for this
process.  Interpreter start-up and imports fall outside any child span and
show up as the CLI's self time.
"""

import sys

from tracer import Tracer

import hbspline.cli


def run(argv) -> int:
    out_path, parent, op_id, cli_args = argv[0], argv[1], int(argv[2]), argv[3:]
    tracer = Tracer(op_id=op_id, parent=parent)
    tracer.install()
    try:
        return hbspline.cli.main(cli_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))

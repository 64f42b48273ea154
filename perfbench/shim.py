"""Run one tdlab command with tracing installed, then write its spans.

    python perfbench/shim.py SPANS_FILE <tdlab arguments...>

The report goes to stdout and the exit code is the command's, exactly as
with `python -m tdlab.cli`; SPANS_FILE receives the spans at exit.
"""

import sys

import spans


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    tracer = spans.Tracer()
    tracer.install()
    from tdlab import cli

    try:
        return cli.run(args)
    finally:
        spans.dump(out, tracer.spans, tracer.counters, {"argv": args})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

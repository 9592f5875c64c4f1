"""Traced entry point: ``repro`` with the layer tracer installed.

    PYTHONPATH=src python perfbench/launcher.py TRACE_DIR fleet [args...]

Installs :class:`tracer.Tracer` writing into ``TRACE_DIR``, then calls
``repro.cli.main(args)`` in this process, exactly as ``python -m
repro`` would; forked supervised workers inherit the wrappers. After
the run it records which trace targets resolved (``targets.json``).
"""

import sys

from tracer import Tracer


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: launcher.py TRACE_DIR COMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    tracer.install()
    from repro import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.write_target_status()


if __name__ == "__main__":
    raise SystemExit(main())

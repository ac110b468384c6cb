"""Run one ``repro`` CLI command as a benchmark child process.

Usage::

    python3 perfbench/launch.py [--trace-out FILE] -- serve --port 0 ...
    python3 perfbench/launch.py [--trace-out FILE] -- dist worker ...

SIGTERM stops the command the way Ctrl-C would (its ``serve_forever``
loops treat ``KeyboardInterrupt`` as a clean shutdown).  With
``--trace-out`` the layer wrappers of :mod:`spans` are installed before the
command starts and the recorded spans are written to FILE once it returns.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--label", default="child")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    signal.signal(signal.SIGTERM, _interrupt)
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer(args.label)
        spans.install(tracer)

    from repro.cli import main as repro_main

    try:
        code = repro_main(command)
    except KeyboardInterrupt:
        code = 0
    finally:
        if tracer is not None:
            pathlib.Path(args.trace_out).write_text(
                json.dumps(tracer.export()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for ``python -m eventstates``.

Usage: ``python cli_child.py SPANS_OUT ARG...``.  Imports the package, wraps
its public functions (see :mod:`spans`), runs ``eventstates.cli.main(ARG...)``
and writes the spans to SPANS_OUT, also when the call raises.  Exit status,
standard output and standard error are those of the plain call.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import eventstates.cli  # noqa: E402

imported = time.perf_counter()

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.add_span("import.eventstates", start, imported, op=0)
tracer.op = 0
tracer.install()
try:
    status = eventstates.cli.main(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1])
sys.exit(status)

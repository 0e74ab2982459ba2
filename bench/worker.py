"""One repeat of a workload, in a fresh single-threaded Python process.

    python3 bench/worker.py SPEC.json

The spec names the engine's source directory, the input files to parse
during set-up and the op list, each op an argument list for
``siltengine.cli.main``.  The worker times the import of ``siltengine`` plus
the parsing of every input (set-up), then runs the ops in order in this
process, capturing each report.  It writes one JSON line per step to
standard output: the set-up time, then one line per op, then a final line
with the peak resident memory, the library versions and, for a traced
repeat, the per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import siltengine
    from siltengine import cli

    for alg, cpx, field in spec["parse"]:
        with open(alg, encoding="utf-8") as fh:
            A = cli.parse_algebra(fh.read(),
                                  cli.parse_field(field) if field else None)
        if cpx:
            with open(cpx, encoding="utf-8") as fh:
                cli.parse_complex(fh.read(), A)
    emit({"setup_s": time.perf_counter() - start,
          "engine": os.path.dirname(os.path.abspath(siltengine.__file__))})

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(siltengine)
        tracer.install()
    for argv in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # an op that crashes is reported, not fatal
            rc = "exception"
            err.write(traceback.format_exc())
        emit({"wall_s": time.perf_counter() - t0, "rc": rc,
              "out": out.getvalue(), "err": err.getvalue()})
    if tracer is not None:
        tracer.uninstall()

    import numpy
    import sympy
    emit({"done": True,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          / 1024.0,
          "versions": {"python": sys.version.split()[0],
                       "numpy": numpy.__version__,
                       "sympy": sympy.__version__},
          "trace": tracer.metrics() if tracer is not None else None})


if __name__ == "__main__":
    main(sys.argv[1])

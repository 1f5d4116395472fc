"""Child process: run gasket CLI requests in one interpreter.

Usage: python3 worker.py SPEC.json OUT.json

SPEC holds {"src": <directory holding the gasket package>, "trace": bool,
"requests": [argv, ...]}.  Each argv goes through ``gasket.cli.main`` with
stdout and stderr captured.  OUT receives one JSON line per request, with
the exit code, the captured text and the seconds the call took, written as
soon as the request ends so that finished outputs do not add to the
process's memory; a last line holds the peak RSS and, when asked, the
trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from launch import peak_rss_mb
from tracer import Tracer


def main(spec_path, out_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import gasket.cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install("gasket")
        tracer.observe_runtime()

    clock = time.perf_counter
    with open(out_path, "w", encoding="utf-8") as fh:
        for number, argv in enumerate(spec["requests"]):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.request = number
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = gasket.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            seconds = clock() - t0
            fh.write(json.dumps({"rc": rc, "stdout": out.getvalue(),
                                 "stderr": err.getvalue(),
                                 "seconds": seconds}) + "\n")
        summary = {"peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            summary["trace"] = tracer.report()
        fh.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

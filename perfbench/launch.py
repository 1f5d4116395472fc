"""Child process: run the gasket CLI exactly as ``python -m gasket.cli``.

Usage: python3 launch.py PEAK_FILE ARG...

On exit the process writes its peak resident set size in MB to PEAK_FILE.
The peak is read from VmHWM, which covers this program image only: the
``ru_maxrss`` a parent gets from ``wait4`` also counts the pages of the
parent the child was spawned from, which would make the benchmark's own
memory part of the measurement.
"""

from __future__ import annotations

import atexit
import os
import runpy
import sys


def peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _record(path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(repr(peak_rss_mb()))


if __name__ == "__main__":
    atexit.register(_record, sys.argv[1])
    sys.argv = ["gasket"] + sys.argv[2:]
    sys.path[0] = os.getcwd()  # as -m sets it, instead of this directory
    runpy.run_module("gasket.cli", run_name="__main__", alter_sys=True)

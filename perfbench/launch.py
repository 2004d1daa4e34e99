"""Run one command as a child; report its wall time and peak RSS.

Usage: ``python3 perfbench/launch.py <command> [args...]``.  Prints one
JSON line ``{"seconds", "exit", "peak_rss_kib"}``; the child's stderr
passes through and its stdout is discarded.

The CLI workloads start each op through this launcher because the
kernel counts, in a child's peak RSS, the memory of the process that
forked it.  The benchmark process holds inputs and reference answers;
this one holds almost nothing, so the peak it reports is the op's own
(its pool workers included, as they are reaped by the op).
"""

import json
import os
import subprocess
import sys
import time

started = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
seconds = time.perf_counter() - started
child.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({
    "seconds": seconds,
    "exit": child.returncode,
    "peak_rss_kib": usage.ru_maxrss,
}))

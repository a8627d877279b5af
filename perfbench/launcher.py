"""Starts lodprobe processes for run.py, one at a time.

Reads one JSON request per line on stdin, {"argv", "log", "timeout"},
runs argv with its output in the log file, kills it after `timeout`
seconds, and answers one JSON line: exit code, wall seconds from start to
exit, start and end on the time.monotonic() clock (the speed probe's), and
the child's own ru_maxrss and user+sys time from os.wait4.
Kept small on purpose: a child's ru_maxrss starts at this process's
high-water mark.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

for request in sys.stdin:
    request = json.loads(request)
    with open(request["log"], "wb") as log:
        stamp = time.monotonic()
        start = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(request["timeout"], os.kill, (child.pid, signal.SIGKILL))
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        end = time.monotonic()
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    print(json.dumps({"exit": child.returncode, "wall_s": wall, "start": stamp, "end": end,
                      "maxrss_kib": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}),
          flush=True)

"""Runs the benchmark's child processes; reports each one's wall time and rusage.

The peak RSS that wait4 reports for a child includes the peak RSS of the
process it was spawned from, because the child shares that process's memory
until it executes the new program.  The benchmark holds hundreds of megabytes
while it checks outputs, so it spawns its children through this process,
which imports only the standard library.

    spawn.py LOG_DIR

reads one JSON request per line on stdin, ``{"argv": [...], "timeout": s}``,
and answers each with one JSON line on stdout: ``wall_s``, ``cpu_s`` (user +
system), ``rss_mb`` (peak RSS), ``code`` (exit status) and ``output`` (the
child's stdout and stderr).  A child still running after ``timeout`` seconds
is killed.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time


def run(argv, timeout, log_dir):
    with tempfile.TemporaryFile(dir=log_dir) as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read().decode("utf-8", "replace")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "output": output,
    }


def main(log_dir):
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["timeout"], log_dir)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])

"""Start and time the benchmark's child processes from a small, long-lived process.

A child's max RSS as ``wait4`` reports it includes the memory of the
process it was forked from (Linux carries the parent's high-water mark
across the fork and exec).  The benchmark itself grows with its request
pool, so children are launched from here instead: this process stays
smaller than any request process, and the reported peak is the child's own.

Protocol, one JSON line each way: ``[argv, stdin path or null, stdout
path, stderr path, timeout seconds]`` in, ``[seconds, exit code, max RSS
KiB]`` out, with seconds measured from spawn to exit.  Ends at EOF.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        argv, stdin_path, out_path, err_path, timeout = json.loads(line)
        with open(stdin_path or os.devnull, "rb") as fin, open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            secs = time.perf_counter() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps([secs, code, usage.ru_maxrss]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

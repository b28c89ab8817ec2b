"""Run one command and print its wall time and rusage as JSON.

    python3 bench/launch.py CMD...

Linux carries a process's peak RSS across fork and exec, so a child started
straight from the benchmark would report at least the benchmark's own peak.
This launcher imports nothing heavy, so the peak it hands on is a few MB.
The command's stdout is discarded; its stderr is inherited. A command still
running after OP_TIMEOUT_S is killed, and its rc is minus the signal number.
"""

import json
import os
import subprocess
import sys
import threading
import time

OP_TIMEOUT_S = 150


def main(cmd: list[str]) -> int:
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rc": proc.returncode,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

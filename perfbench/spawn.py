"""Starts workload processes for run.py, one per request line on stdin, and
answers each with a JSON line: launch and exit times, exit code, the
child's own peak RSS, and the host's speed just before and just after.

On Linux a child's ru_maxrss never reads below the resident size of the
process that spawned it (exec records the old address space's high-water
mark), so children are started from this small process rather than from
run.py, whose size would otherwise set a floor under small workloads.

Request: {"argv": [...], "stdout": path, "stderr": path, "timeout": s}.
The child inherits this process's environment and working directory.
"""

import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work of the package's kind
    (Fraction sums keyed by sorted tuples).  The shared host's speed drifts
    by a fifth over minutes; this tracks it, so run.py can rescale times."""
    start = time.perf_counter()
    sums: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for i in range(1, 6000):
        key = tuple(sorted((i % 7, i % 5, i % 3), reverse=True))
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i, i % 13 + 1)
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        before = calibrate()
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            launched = time.monotonic_ns()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "calibration_s": [before, calibrate()],
            "launched_ns": launched,
            "ended_ns": ended,
            "exit_code": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

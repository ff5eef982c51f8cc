"""Small helper process that starts each CLI request and reaps it with wait4.

A child's ru_maxrss includes the peak RSS of the process that spawned it
(Linux carries the old address space's high-water mark across exec, and
subprocess shares it through vfork).  The benchmark itself grows large while
it builds reference answers, so children are started from this helper,
launched first while the benchmark is still small, and their streams go to
files so the helper never holds their output.

Protocol, one JSON object per line each way:
  in:  {"argv": [...], "cwd": dir, "env": {...}, "stdin": path|null,
        "stdout": path, "stderr": path, "timeout": seconds}
  out: {"code": int, "seconds": float, "maxrss_kb": int}
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err, \
                open(job["stdin"] or os.devnull, "rb") as src:
            start = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdin=src, stdout=out, stderr=err,
                                    cwd=job["cwd"], env=job["env"])
            timer = threading.Timer(job["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()

"""Launches the benchmark's child processes, one at a time, and measures them.

    python3 perfbench/spawner.py    (requests on stdin, one JSON line each)

A request is {"argv", "stdout", "stderr", "ready"}; the reply is one JSON
line {"wall_s", "ready_s", "returncode", "maxrss_mb"}.  With "ready" set,
``ready_s`` is the time until the child printed the line ``ready``.

Children are started from this small process rather than from the runner
because Linux carries the spawning process's peak resident memory into the
``ru_maxrss`` of a child started with vfork and exec; the runner holds
sympy and every answer, this process holds neither.
"""

import json
import os
import subprocess
import sys
import time


def launch(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE if request["ready"] else out,
                                stderr=err)
        ready_s = None
        if request["ready"]:
            line = proc.stdout.readline()
            if line.strip() == b"ready":
                ready_s = time.perf_counter() - start
            out.write(line + proc.stdout.read())
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall_s, "ready_s": ready_s, "returncode": proc.returncode,
            "maxrss_mb": usage.ru_maxrss / 1024}


def main():
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

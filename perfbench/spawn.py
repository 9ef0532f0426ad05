"""Small helper that starts the benchmark's child processes.

Linux charges a child's peak RSS (``ru_maxrss`` from ``wait4``) with the
resident size of the process that started it, because the child shares
that process's memory until it calls exec. Children started straight from
the benchmark process, which holds the calibration operands and set-up
data, would therefore report the benchmark's own peak. This helper is
started first, stays at a few MiB, and starts every child instead.

Protocol: one JSON request per stdin line, ``{"cmd", "env", "cwd", "log"}``;
one JSON reply per stdout line, ``{"wall", "cpu", "maxrss_mib", "code"}``.
The helper exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run(cmd, env, cwd, log) -> dict:
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=out, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind, then re-raise
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

"""Run one command and record its wall time and resource use.

    python spawn.py RESULT.json COMMAND [ARGS...]

Writes ``{"started", "wall_s", "returncode", "cpu_s", "peak_rss_mb"}``
to ``RESULT.json``; ``started`` is ``time.monotonic()`` just before the
fork. CPU time and peak RSS come from ``os.wait4`` on the command, so
they cover the workers it reaped. This small process, not the
benchmark, is the command's parent because a child's ``ru_maxrss``
starts from the memory of the process it was forked from: under the
benchmark's larger interpreter a small CLI would report the
benchmark's size instead of its own.
"""

import json
import os
import sys
import time


def main(argv):
    if len(argv) < 2:
        print("usage: spawn.py RESULT.json COMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    result_path, command = argv[0], argv[1:]
    started = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    __, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - started
    with open(result_path, "w") as handle:
        json.dump({"started": started, "wall_s": wall,
                   "returncode": os.waitstatus_to_exitcode(status),
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

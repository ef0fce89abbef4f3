"""Run one command as a child of this small process and report the child's resource use.

Usage::

    python3 perfbench/spawn.py TIMEOUT_S STDOUT STDERR -- CMD...

Prints one JSON line with the child's exit code, its wall time from spawn
to exit, and its user+sys CPU time and peak RSS from ``wait4``.  The child
is killed if it runs longer than TIMEOUT_S.

The benchmark spawns every op through this process rather than directly.
On Linux, a child started with vfork (as ``posix_spawn`` and ``subprocess``
do) carries the peak RSS of the process that spawned it into its own
``ru_maxrss``.  The benchmark holds hundreds of MiB while it computes the
reference values, but this process stays near 10 MiB, below any op's own
peak, so the ``ru_maxrss`` it reads is the op's.
"""

import json
import os
import select
import signal
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    timeout, stdout, stderr, cmd = float(argv[0]), argv[1], argv[2], argv[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

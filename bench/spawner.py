"""Child launcher, run by ``run.py`` as a separate small process.

Linux copies the spawning process's peak RSS into a child's
``ru_maxrss`` when the child execs, so a child spawned by the benchmark
itself would report at least the benchmark's own peak.  This process
stays small (it imports almost nothing), which keeps each child's
reported peak its own.

Protocol, one JSON object per line.  Request on stdin:
``{"argv": [...], "stdout": path, "stderr": path}``.  Replies on stdout:
``{"pid": n}`` once the child is spawned, then ``{"status": n,
"wall_s": x, "maxrss_kb": n}`` once it has been reaped.  The child's
stdout and stderr go to the named files; its stdin is /dev/null.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(
                request["argv"][0], request["argv"], os.environ, file_actions=actions
            )
            print(json.dumps({"pid": pid}), flush=True)
            _, status, usage = os.wait4(pid, 0)
            wall_s = time.perf_counter() - start
        reply = {"status": status, "wall_s": wall_s, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()

"""Start ``compest`` CLI processes on request and report each one's peak RSS.

Reads one JSON argv list per stdin line, runs ``python -m compest.cli`` with
it and answers with one JSON line: returncode, stdout, stderr tail and the
child's ``ru_maxrss`` (KiB) from ``os.wait4``.

A child's ``ru_maxrss`` also counts the peak RSS of the process that spawned
it (Linux carries the memory high-water mark across exec), so CLI ops are
spawned from this small process rather than from the benchmark, whose own
peak would otherwise hide the child's.
"""

import json
import os
import subprocess
import sys
import tempfile


def run(argv: list) -> dict:
    with tempfile.TemporaryFile(dir=".bench_out") as err:  # cwd is the checkout root
        proc = subprocess.Popen(
            [sys.executable, "-m", "compest.cli", *argv], stdout=subprocess.PIPE, stderr=err
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return {
            "returncode": proc.returncode,
            "stdout": out.decode(),
            "stderr": err.read().decode(errors="replace")[-500:],
            "rss_kb": usage.ru_maxrss,
        }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload oltp-sessions|read-mostly|tpcc \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
perfbench/main.exe with dune (build output goes to standard error), then
runs it with the same arguments; the last line of standard output is
the JSON result. Outside a source checkout it exits with status 2.
"""

import os
import signal
import subprocess
import sys


def run(cmd, **kwargs):
    """Run cmd to completion; a SIGTERM to this script stops it too."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        signal.signal(signal.SIGTERM, previous)


def main():
    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
    ):
        print(
            "perfbench: dune-project and lib/ not found; run from the root of a source checkout",
            file=sys.stderr,
        )
        return 2
    status = run(
        ["dune", "build", "--root", root, "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return run([exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

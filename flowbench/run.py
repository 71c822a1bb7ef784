#!/usr/bin/env python3
"""Build the flow benchmark from source and run it.

Run from the repository root:

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build output goes to stderr; the benchmark's own output (whose last
line is the result object) goes to stdout.  Exits non-zero without a
result when the repository's sources are not there to build from.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "flowbench", "flowbench.exe")


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("flowbench: run from the repository root (no dune-project here)\n")
        return 2
    # --root pins the build to this checkout; the shared dune cache would
    # write outside it, so it is disabled.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./flowbench/flowbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("flowbench: build failed\n")
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

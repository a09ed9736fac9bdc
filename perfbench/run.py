#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable (perfbench/main.exe, built with dune against the
repository's libraries) prints its metrics and, as the last line of
standard output, one JSON result object.  Exits non-zero without a
result when the build fails, e.g. outside a full source checkout.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("perfbench: run from the repository root "
                         "(no dune-project here)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    args = sys.argv[1:] + ["--nproc", str(os.cpu_count() or 0)]
    try:
        run = subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

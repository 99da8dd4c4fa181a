#!/usr/bin/env python3
"""Build and run the outside-in benchmark (see README.md next to this file).

Run from the root of the repository:

    python3 perfbench/run.py --workload disk-paper --seed 1 --seconds 10 --trace 0

The benchmark is compiled from source with dune into .bench_build/ (with
dune's shared cache off, so nothing is written outside the checkout),
then run with the same arguments. The last line of standard output is
the JSON result; the exit status is non-zero if the build fails or an
output check does not hold.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: run from the repository root (dune-project and lib/ not found)",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [
            "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
            "--profile", "release", "./perfbench/bench.exe",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

The arguments go to perfbench/main.exe unchanged; see perfbench/README.md.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Exits non-zero, printing no result, when the checkout lacks
the sources to build from.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("perfbench/dune")):
        fail("run from the root of a full checkout (dune-project, lib/ and perfbench/ are needed)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    sys.stdout.flush()
    result = subprocess.run([EXE] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

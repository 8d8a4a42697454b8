#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch_m16 --seed 1 --seconds 20 --trace 0

The arguments go to perfbench.exe unchanged (see README.md).  The build
uses the release profile: under the dev profile dune compiles with
-opaque, which boxes every float accessor, and the numbers would measure
the build mode instead of the engine.  Build output goes to stderr, so the
last line on stdout is the result object.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main() -> int:
    # The benchmark links the repository's libraries, so it needs the
    # whole source tree, not only its own directory.
    needed = ["dune-project", os.path.join("lib", "sim", "driver.ml"), os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the repository root; missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-batch --seed 1 --seconds 30 --trace 0

The Go program in this directory is built into .bench_build/ (its
build cache and Go config stay there too) and then run from the
repository root with the arguments given. Its standard output, whose
last line is the result, passes through unchanged; the exit code is
the program's, or 2 when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench-bin")
    os.makedirs(build, exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(".bench_build", "perfbench")
    return subprocess.run([binary, "-workdir", workdir] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

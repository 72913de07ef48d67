#!/usr/bin/env python3
"""Build and run the itcfs benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tcp_fetch --seed 1 --seconds 10 --trace 0

The benchmark is a Go program (a module of its own in this directory that
builds against the checkout's itcfs module). This script builds it into
.bench_build/ with every Go cache and config directory inside the checkout,
then replaces itself with the binary, passing the arguments through. The
binary's last line of standard output is the JSON result. A failed build
exits 1 and prints nothing on standard output.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    data = os.path.join(BUILD, "data")
    os.makedirs(data, exist_ok=True)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["-data", data])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the Sharoes benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload createlist-wan --seed 1 --seconds 15 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that uses the
repository's packages through a replace directive, so it builds from the
source tree it sits in. Build outputs, the Go build cache included, stay
in .bench_build/ under the working directory. Arguments are passed to
the benchmark binary unchanged; its last line of output is the result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(OUT, "perfbench")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOMODCACHE": os.path.join(OUT, "gomodcache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(OUT, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    try:
        return subprocess.run([BIN] + sys.argv[1:], cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

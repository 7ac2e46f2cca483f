#!/usr/bin/env python3
"""Builds the perfbench binary from this source tree and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the bcast library and the benchmark
(default RelWithDebInfo build, the repository's own flags) under
$CARGO_TARGET_DIR, default `.bench_build`, at the root of the tree; later
calls only rebuild what changed. Build output goes to standard error, so
the last line of standard output stays the benchmark's result object.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself bounds each run to about --seconds (a traced run to a
# fixed set of batches); this only keeps a hung child from outliving us.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no bcast source tree at %s" % ROOT, file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(os.path.join(ROOT, target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

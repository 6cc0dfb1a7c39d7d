#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the staged server.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the benchmark package (perfbench/CMakeLists.txt) into .bench_build;
later calls only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. Exits non-zero, without a result, when the build or the run
fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench build failed: {err}", file=sys.stderr)
        return 1
    proc = subprocess.Popen([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                            cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the SMOQE benchmark from the repository sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) in release mode; the benchmark binary then replaces
this process, so its exit code and its standard output (the JSON result
on the last line) are this command's.  A failed build exits non-zero
without printing a result.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850


def build(build_dir):
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    cmd = [dune, "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "--cache=disabled",
           "./perfbench/bench.exe"]
    # dune's own output goes to stderr: stdout carries only the result.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: build timed out")
    if code != 0:
        sys.exit("run.py: build failed (dune exit %d)" % code)
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def main():
    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the end-to-end load benchmark (e2e_bench).

Usage, from the root of a source checkout:

    python3 e2ebench/run.py --workload batch_load|batch_dirty|stream_upsert \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

The first run configures and builds e2ebench/CMakeLists.txt into
.bench_build/e2ebench (build output goes to stderr); later runs only let the
build tool confirm the binary is current. The benchmark then runs in a private,
pid-suffixed work directory under .bench_build/e2ebench/work that it removes
at exit. Spans of traced runs are written to .bench_build/e2ebench/traces.
The last line of stdout is the benchmark's JSON result.
"""

import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BUILD_TYPE = "RelWithDebInfo"


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "Makefile").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return False
    return (BUILD / "e2e_bench").is_file()


def sweep_stale_work_dirs():
    """Removes work directories of runs that were killed before cleaning up."""
    for d in (BUILD / "work").glob("run-*"):
        try:
            os.kill(int(d.name[4:]), 0)
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def main(argv):
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    sweep_stale_work_dirs()
    cmd = [str(BUILD / "e2e_bench"), *argv,
           "--work-dir", str(BUILD / "work"),
           "--trace-dir", str(BUILD / "traces"),
           "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

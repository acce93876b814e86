#!/usr/bin/env python3
"""Builds and runs the IoT Sentinel end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload gateway_onboard --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds e2ebench/ (the repository's libraries
plus the e2e_bench driver, Release) into the build directory: the value of
CARGO_TARGET_DIR when set, else .bench_build. Later runs only re-check the
build. Build output goes to stderr; stdout carries the driver's report,
whose last line is the result JSON. Spans of traced runs are written under
<build dir>/traces/. Exits non-zero, without a result, when the build
fails (for example outside a full source tree).
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def run_build(cmd):
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("run.py: no CMakeLists.txt at %s; the benchmark "
                         "needs the full source tree\n" % ROOT)
        return None
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_build(cmd):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_build(["cmake", "--build", out, "--target", "e2e_bench",
                      "-j", jobs]):
        return None
    binary = os.path.join(out, "e2e_bench")
    return binary if os.path.isfile(binary) else None


def git(*args):
    try:
        result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def git_sha():
    """HEAD of the checkout, or "none" when ROOT is not a git work tree's
    top level (a parent directory's repository does not count)."""
    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "none"
    return git("rev-parse", "HEAD") or "none"


def source_digest():
    """SHA-256 over the library sources, so runs in checkouts that are not
    git repositories still name the code they measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    out = build_dir()
    binary = build(out)
    if binary is None:
        sys.stderr.write("run.py: build failed\n")
        return 1
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + [
        "--trace-dir", traces,
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

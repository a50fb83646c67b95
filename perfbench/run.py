#!/usr/bin/env python3
"""Build and run the end-to-end Sirius benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload open_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the pipeline libraries and the
benchmark binary from source into .bench_build/ (about a minute on four
cores); later calls only check that the build is current. The binary's
stdout passes through unchanged, so the last line is the result object.
A fuller per-run report is written to .bench_build/reports/.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a full checkout")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main(argv):
    binary = build()
    if argv == ["--selftest"]:
        return subprocess.run([binary, "--selftest"]).returncode
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds",
                             "--trace"} <= args.keys():
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    os.makedirs(REPORTS, exist_ok=True)
    report = os.path.join(
        REPORTS, "{}-seed{}-trace{}.json".format(
            os.path.basename(args["--workload"]), args["--seed"],
            args["--trace"]))
    command = [binary] + argv + ["--report", report,
                                 "--commit", source_id()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

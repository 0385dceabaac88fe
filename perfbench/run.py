#!/usr/bin/env python3
"""Build and run the Fig 7 benchmark.

    python3 perfbench/run.py --workload fig7_n96_d50 --seed 1 --seconds 60 --trace 0

Run from the repository root. Builds perfbench/ (with the jacepp sources in
src/) into .bench_build/perfbench as a Release build, then runs fig7_bench with
the given arguments. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. Exits non-zero, printing no result, when the build or
the run fails.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fig7_bench")


def run(cmd):
    # Build tools report on stderr, so stdout keeps only the benchmark.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run(["cmake", "--build", BUILD, "--target", "fig7_bench", "-j", jobs]) == 0


def git_sha():
    # Only a .git inside the tree counts; never search parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                         cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, *sys.argv[1:], "--git-sha", git_sha(), "--source-digest", source_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

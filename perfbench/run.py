#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rqc_gpu|rqc_host|serve_mix \
        --seed N --seconds S --trace 0|1

Builds the program's libraries and the perfbench binary from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the statistics-helper unit test, then runs the workload. The last line
of standard output is the JSON result; the exit code is non-zero when the
build fails, an output check fails, or the run overruns its time limit.
Provenance lines and per-run records land in <build dir>/out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("rqc_gpu", "rqc_host", "serve_mix")
RUN_TIMEOUT_S = 170  # one run must end within 180 s, build excluded


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """Git commit when the checkout is a repository, else a content hash."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "circuits"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench", "perfbench_stats_test"],
        [str(build_dir / "perfbench_stats_test")],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"program sources not found under {root}/src")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    if not build(root, build_dir):
        return 2
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--out-dir", str(out_dir),
           "--commit", source_id(root)]
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

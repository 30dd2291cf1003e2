#!/usr/bin/env python3
"""Builds the benchmark from the sources of this checkout and runs one workload.

    python3 perfbench/run.py --workload sv_deep --seed 1 --seconds 12 --trace 0

The library, bgls_serve, bgls_fleet and the perfbench binary are built in
Release into .bench_build (or $CARGO_TARGET_DIR) at the checkout root; later
runs only rebuild what changed. The binary runs in .bench_run/<run>/ (its
sockets, journals, logs and spans.json live there) and prints, as its last
line, the JSON result. Build output goes to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("sv_deep", "dict_heavy", "noisy_traj", "service_mix")
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when this is a git checkout, else a hash of src/."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "perfbench", "bgls_serve", "bgls_fleet"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no library sources next to perfbench/ to build")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)

    run_dir = ROOT / ".bench_run" / f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--tools-dir", str(build_dir / "bgls" / "tools"),
               "--source-id", source_id()]
    try:
        done = subprocess.run(command, cwd=run_dir, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the orthotree host-time benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload sort_large --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --workload all --seconds 20 --trace 0

The first run configures and builds hostbench (the simulator sources plus
the benchmark program, RelWithDebInfo) into $CARGO_TARGET_DIR/hostbench,
default .bench_build/hostbench; later runs only re-check the build.  Build
output goes to stderr.  The benchmark's own standard output is passed
through, so its last line is the result JSON.  Exit code: the benchmark's
(0 = every op verified, 1 = an op failed, 2 = a bad request); nonzero with
no result line when the simulator sources are missing or the build fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture=False, env=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
        env=env,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"hostbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S,
                    env=env)
        if rc != 0:
            sys.exit(2)
    rc, _ = run(["cmake", "--build", build_dir, "--target", "hostbench",
                 "-j", jobs], BUILD_TIMEOUT_S, env=env)
    if rc != 0:
        sys.exit(2)
    return os.path.join(build_dir, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no simulator sources (src/) next to hostbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "hostbench"))
    binary = build(build_dir)

    # "all" runs every workload in turn, each printing its own result.
    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in names:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scn", os.path.join(HERE, "scenario.scn"),
               "--golden", os.path.join(HERE, "golden.tsv")]
        if args.trace:
            cmd += ["--spans-out",
                    os.path.join(build_dir, f"spans-{name}.tsv")]
        rc, out = run(cmd, RUN_TIMEOUT_S, capture=True)
        sys.stdout.write(out.decode())
        sys.stdout.flush()
        status = status or rc
    sys.exit(status)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run routerbench, the router's end-to-end benchmark.

    python3 routerbench/run.py --workload cached_fwd --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds the benchmark (and the router libraries from ../src) into
$CARGO_TARGET_DIR/routerbench, default .bench_build/routerbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, with no result, when
the sources are missing, the build fails, or the run's correctness checks
fail. See routerbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cached_fwd", "flow_setup", "qos_churn", "sharded_multiq")
RUN_TIMEOUT_S = 170


def log(msg):
    print("routerbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "routerbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("router sources not found next to the benchmark (expected ../src)")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(out, "routerbench")
    return exe if os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (the self-test setting)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="flip one gate verdict; the run must fail its checks")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    if res.returncode != 0:
        log("run failed with exit code %d" % res.returncode)
        return res.returncode if res.returncode > 0 else 4
    sys.stdout.write(res.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of routerbench at smoke size.

    python3 routerbench/selftest.py

For every workload, under the bound-setting seed (1) and a held-out seed
(977), it checks that:
  * a plain run passes its correctness checks, exits 0 and prints a result
    line with every end-to-end metric, and a traced run does the same with
    every per-layer metric;
  * a run with --inject-fault (a bench-owned decorator flips one gate
    verdict) is caught: exit code non-zero, wrong_frac > 0 reported on
    stderr, and no result line.
Exits 0 only when every case holds. Builds like run.py does.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cached_fwd", "flow_setup", "qos_churn", "sharded_multiq")
SEEDS = (1, 977)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, fault):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    if fault:
        cmd.append("--inject-fault")
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300, text=True)


def main():
    spec = bench_json()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def fail(msg):
        failures.append(msg)
        print("FAIL " + msg, flush=True)

    for w in WORKLOADS:
        for seed in SEEDS:
            for trace, names in ((0, e2e), (1, layer)):
                res = run(w, seed, trace, fault=False)
                tag = "%s seed=%d trace=%d" % (w, seed, trace)
                if res.returncode != 0:
                    fail("%s: exit %d\n%s" % (tag, res.returncode, res.stderr))
                    continue
                out = json.loads(res.stdout.strip().splitlines()[-1])
                if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
                    fail("%s: result not correct: %s" % (tag, out))
                elif set(out["metrics"]) != names:
                    fail("%s: metric names differ: %s" % (
                        tag, sorted(set(out["metrics"]) ^ names)))
                else:
                    print("ok   " + tag, flush=True)
            res = run(w, seed, 0, fault=True)
            tag = "%s seed=%d inject-fault" % (w, seed)
            m = re.search(r"wrong_frac=([0-9.eE+-]+)", res.stderr)
            if res.returncode == 0 or res.stdout.strip():
                fail("%s: fault not caught (exit %d)" % (tag, res.returncode))
            elif not m or float(m.group(1)) <= 0:
                fail("%s: no wrong_frac > 0 reported:\n%s" % (tag, res.stderr))
            else:
                print("ok   %s (wrong_frac=%s, exit %d)" % (
                    tag, m.group(1), res.returncode), flush=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

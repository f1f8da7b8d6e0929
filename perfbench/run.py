#!/usr/bin/env python3
"""The Rolis benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe from source
with dune, runs the workload in its own process and prints the report,
ending with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the gated end-to-end metrics. setup_s is the median of
three set-ups: the measured run's own and two more in fresh processes.

--trace 1 reports the per-layer metrics from a traced run, plus
trace.overhead_pct, the host_txn_per_s lost to tracing against an
untraced run of the same seed. It also checks that the two runs agree
bit for bit on every simulated-time figure; a mismatch makes the result
incorrect. The traced run's spans go to perfbench-out/.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("tpcc_exec", "ycsb_rw", "shard_2pc", "failover")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SETUPS = 3  # set-ups whose median is setup_s
RUN_TIMEOUT = 170  # seconds; the whole invocation must end within 180


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("perfbench"):
        fail("run from the root of a Rolis checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(res.stdout)
        fail("build failed")


def run_exe(args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    try:
        res = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail("run timed out: " + " ".join(args))
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        fail("run failed: " + " ".join(args))
    lines = res.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def simtime(lines):
    for line in lines:
        if line.startswith("simtime: "):
            return json.loads(line[len("simtime: "):])
    fail("no simtime line in the report")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", repr(a.seconds)]

    if a.trace == 0:
        report, result = run_exe(common + ["--trace", "0"], deadline)
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUPS - 1):
            _, s = run_exe(common + ["--trace", "0", "--setup-only"], deadline)
            setups.append(s["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("\n".join(report))
        print("setup_s samples: " + ", ".join(repr(s) for s in setups))
        print(json.dumps(result))
        return

    os.makedirs("perfbench-out", exist_ok=True)
    spans = os.path.join("perfbench-out", "spans-%s-seed%d.jsonl" % (a.workload, a.seed))
    plain_report, plain = run_exe(common + ["--trace", "0"], deadline)
    report, result = run_exe(common + ["--trace", "1", "--spans", spans], deadline)
    plain_sim, traced_sim = simtime(plain_report), simtime(report)
    identical = plain_sim == traced_sim
    untraced_rate = plain["metrics"]["host_txn_per_s"]["value"]
    traced_rate = next(float(line.split()[1]) for line in report
                       if line.split()[:1] == ["host_txn_per_s"])
    overhead = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    result["correct"] = bool(result["correct"] and plain["correct"] and identical)
    print("\n".join(report))
    print("untraced host_txn_per_s %r, traced %r: tracing overhead %.2f%%"
          % (untraced_rate, traced_rate, overhead))
    if identical:
        print("traced and untraced simulated-time metrics: bit-identical")
    else:
        for k in sorted(set(plain_sim) | set(traced_sim)):
            if plain_sim.get(k) != traced_sim.get(k):
                print("MISMATCH %s: untraced %s traced %s" % (k, plain_sim.get(k), traced_sim.get(k)))
    print("spans written to " + spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

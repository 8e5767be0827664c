#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds bench.exe and the nascentd
daemon with dune (inside the checkout, shared cache off), runs one
workload in its own process group and private run directory under
.pb/, and removes that directory and stops every process of the group
on every exit path, including a timeout or SIGINT/SIGTERM. The last
line of standard output is the JSON result printed by bench.exe.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["compile-plain", "compile-oracle", "serve-hot", "serve-cold"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def group_alive(proc):
    proc.poll()  # reap the group leader once it exits
    try:
        os.killpg(proc.pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(proc):
    """SIGTERM the leader's group, SIGKILL what is left, wait until it is empty."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        if not group_alive(proc):
            return
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while group_alive(proc) and time.monotonic() < deadline:
            time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/nascentd.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(".pb", exist_ok=True)
    rundir = os.path.join(".pb", "run-%d-%d" % (os.getpid(), args.seed))
    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--nascentd", os.path.join("_build", "default", "bin", "nascentd.exe"),
        "--rundir", rundir,
        "--spans", os.path.join(".pb", "spans-%s.jsonl" % args.workload),
    ]
    proc = subprocess.Popen(cmd, start_new_session=True)

    def forward(signum, _frame):
        stop_group(proc)
        shutil.rmtree(rundir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 124
    finally:
        stop_group(proc)
        if proc.poll() is None:
            proc.wait()
        shutil.rmtree(rundir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

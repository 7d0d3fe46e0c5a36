#!/usr/bin/env python3
"""Builds the benchmark program from this source tree and runs one workload.

    python3 perfbench/run.py --workload browse --seed 2003 --seconds 10 --trace 0

Run from the root of the source tree. cbfww_perf is compiled with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first invocation builds the warehouse libraries, later ones are
incremental. Its output is passed through; its last line is the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Extra flags:
    --smoke          tiny warm-up and replay (the benchmark's own tests)
    --setups K       set-ups per measured run (setup_s is their median)
    --dump-ops N     print the first N ops of the seeded stream and exit
    --record FILE    also append {"workload", "seed", "trace", "result"}
                     as one JSON line to FILE (input for compare.py)
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def child_env(out_dir):
    """Keeps the compiler's and cbfww_perf's temporary files in the build
    directory, inside the source tree."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configures and builds cbfww_perf; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "cbfww_perf",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=child_env(out_dir)) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail + "\nbuild failed: " + " ".join(cmd) + "\n")
                return None
    binary = os.path.join(out_dir, "cbfww_perf")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setups", type=int)
    parser.add_argument("--dump-ops", type=int)
    parser.add_argument("--record")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out_dir, "work")]
    if args.smoke:
        cmd.append("--smoke")
    if args.setups:
        cmd += ["--setups", str(args.setups)]
    if args.dump_ops:
        cmd += ["--dump-ops", str(args.dump_ops)]

    # cbfww_perf forks node processes, which stay in its new process group;
    # on a timeout the whole group is killed.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=child_env(out_dir))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        sys.stderr.write("benchmark run timed out\n")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    if args.record and not args.dump_ops:
        result = json.loads(stdout.strip().splitlines()[-1])
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

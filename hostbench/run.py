#!/usr/bin/env python3
"""Host-time benchmark entry point.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds hostbench/ (and the program library
from src/) into .bench_build/, runs the named workload, and relays the
binary's output; the last stdout line is the JSON result. `--help` builds
the binary and prints its workload and metric tables.

setup_s is measured here, from just before a process is spawned to the
moment its first runPlan call starts (the binary prints that moment as
"setup-end-ns", on the same CLOCK_MONOTONIC clock). It is the median over
the main run and twenty --setup-only starts, each one cold.

Exit status: 0 when every output check passed, 1 when a check failed or the
build or run did not complete, 2 on a bad command line (nothing is run).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper-full", "paper-ci", "modern-matrix", "gc-governed")
# An untraced run lasts about max(--seconds, one runPlan call); a traced run
# makes one runPlan call and one traced pass. With --seconds capped at 60,
# each workload ends well inside this.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 175
SETUP_ONLY_STARTS = 20
BUILD_TIMEOUT_S = 850

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "hostbench"


def parse_args(argv):
    p = argparse.ArgumentParser(prog="hostbench/run.py", add_help=False,
                                allow_abbrev=False)
    p.add_argument("--help", "-h", action="store_true")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed")
    p.add_argument("--seconds")
    p.add_argument("--trace", choices=("0", "1"))
    args = p.parse_args(argv)
    if args.help:
        return args
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not re.fullmatch(r"[0-9]{1,10}", args.seed) or int(args.seed) >= 2**32:
        p.error(f"--seed wants an integer in 0..4294967295, got {args.seed!r}")
    if (not re.fullmatch(r"[0-9]{1,2}", args.seconds)
            or not 1 <= int(args.seconds) <= MAX_SECONDS):
        p.error(f"--seconds wants an integer in 1..{MAX_SECONDS}, "
                f"got {args.seconds!r}")
    return args


def build():
    """Configures (once) and builds the binary; False on failure."""
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    cache = BUILD_DIR / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
    steps = []
    if not cache.exists() or home not in cache.read_text(errors="replace"):
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "hostbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                out.write(f"\n{e}\n")
                rc = 1
            if rc != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print(f"hostbench: build failed (log: {log})", file=sys.stderr)
                return False
    return True


def spawn(cmd, env):
    """Runs the binary; returns (returncode, stdout, seconds from just
    before the spawn to the first runPlan call), or None on a timeout."""
    started_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    m = re.search(r"^setup-end-ns: ([0-9]+)$", proc.stdout, re.M)
    setup_s = (int(m.group(1)) - started_ns) / 1e9 if m else None
    return proc.returncode, proc.stdout, setup_s


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    cmd = [str(BINARY)]
    if args.help:
        return subprocess.run(cmd + ["--help"]).returncode
    cmd += ["--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(BUILD_DIR / f"spans-{args.workload}-{args.seed}.jsonl")]
    # The program reads only SPF_* variables; start from none of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPF_")}
    env["SPF_OBS"] = "0"
    setups = []
    if args.trace == "0":
        for _ in range(SETUP_ONLY_STARTS):
            started = spawn(cmd + ["--setup-only"], env)
            if started is None or started[0] != 0 or started[2] is None:
                print("hostbench: a --setup-only start failed",
                      file=sys.stderr)
                return 1
            setups.append(started[2])
    ran = spawn(cmd, env)
    if ran is None:
        return 1
    rc, stdout, setup_s = ran
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        print("hostbench: the binary printed no result", file=sys.stderr)
        return 1
    if args.trace == "0":
        if setup_s is None:
            print("hostbench: the binary printed no setup-end-ns",
                  file=sys.stderr)
            return 1
        setups.append(setup_s)
        metrics = result["metrics"]
        # Keep the end-to-end metrics in their documented order.
        result["metrics"] = {"wall_s": metrics["wall_s"],
                             "sim_mips": metrics["sim_mips"],
                             "setup_s": {"value": statistics.median(setups),
                                         "unit": "s"},
                             "peak_rss_mb": metrics["peak_rss_mb"]}
        lines.insert(-1, "setup_s starts (ms): " + " ".join(
            f"{1e3 * v:.3f}" for v in setups))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

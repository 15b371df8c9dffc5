#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload tpcc-hdd --seed 42 --seconds 20 --trace 0

Run it from the repository root. The driver (perfbench/driver.cc) is built
twice under .bench_build/: optimised for the measured runs, and with -pg for
the gprof profile that --trace 1 adds. The driver's own report goes to stdout
first; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Extra driver flags (--cells, --passes, --warmup-ms,
--measure-ms) are passed through; perfbench/selftest.py uses them.
"""

import argparse
import collections
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
VARIANTS = {
    "opt": ["-DCMAKE_BUILD_TYPE=Release"],
    "prof": ["-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-pg",
             "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
}

# gprof self time is grouped by the namespace of each function; the names
# are the src/ modules. Two hot spots of the simulator core are split out.
MODULES = [
    ("sim.host_frac", ("rlsim",)),
    ("storage.host_frac", ("rlstor",)),
    ("db.host_frac", ("rldb",)),
    ("vmm.host_frac", ("rlvmm",)),
    ("microkernel.host_frac", ("rlkern",)),
    ("net.host_frac", ("rlnet",)),
    ("shard.host_frac", ("rlshard",)),
    ("faults.host_frac", ("rlfault", "rlchaos")),
]
HOT_SPOTS = [
    ("sim.reap_host_frac", "rlsim::Simulator::ReapFinishedTasks"),
    ("sim.crc_host_frac", "rlsim::Crc32c"),
]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(variant):
    """Configures (once) and builds one variant; returns the binary path."""
    out = os.path.join(BUILD, "perfbench-" + variant)
    log_path = os.path.join(BUILD, "build-%s.log" % variant)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", out] + VARIANTS[variant])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                shutil.rmtree(out, ignore_errors=True)
                fail("build of the %s driver failed:\n%s" % (variant, tail))
    return os.path.join(out, "perfbench")


def run_driver(binary, args, cwd):
    """Runs the driver; echoes its report and returns its JSON line."""
    proc = subprocess.run([binary] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with %d" % proc.returncode)
    return lines, json.loads(lines[-1])


def host_fractions(binary, args, workdir):
    """Self-time shares per module from a gprof flat profile of one pass."""
    os.makedirs(workdir, exist_ok=True)
    gmon = os.path.join(workdir, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    run_driver(binary, args + ["--trace", "0", "--passes", "1"], workdir)
    proc = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail("gprof failed: " + proc.stderr.strip())
    self_s = collections.Counter()
    total = 0.0
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
    for line in proc.stdout.splitlines():
        match = row.match(line)
        if not match:
            continue
        seconds, name = float(match.group(1)), match.group(2).strip()
        total += seconds
        # The qualifier before the first '(' or '<', after any return type.
        head = re.split(r"[(<]", name, maxsplit=1)[0].split(" ")[-1]
        namespace = head.split("::")[0]
        for metric, spaces in MODULES:
            if namespace in spaces:
                self_s[metric] += seconds
        for metric, prefix in HOT_SPOTS:
            if head.startswith(prefix):
                self_s[metric] += seconds
    shares = {}
    for metric, _ in MODULES + HOT_SPOTS:
        shares[metric] = self_s[metric] / total if total else 0.0
    return shares, total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, passthrough = parser.parse_known_args()

    if not os.path.isfile(os.path.join(SOURCE, "driver.cc")):
        fail("run from the repository root")
    binary = build("opt")
    profiled = build("prof")

    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds)] + passthrough
    lines, result = run_driver(binary, driver_args + ["--trace", str(args.trace)],
                               ROOT)
    print("\n".join(lines[:-1]))
    metrics = result["metrics"]
    if args.trace:
        workdir = os.path.join(BUILD, "gprof-" + args.workload)
        shares, sampled = host_fractions(profiled, driver_args, workdir)
        for name, share in shares.items():
            metrics[name] = {"value": share, "unit": "fraction"}
            print("  %-36s %16.6f fraction" % (name, share))
        print("gprof: %.2f s of self time sampled" % sampled)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

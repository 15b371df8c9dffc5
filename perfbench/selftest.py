#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

They build the driver like run.py does and check that:
  - the same seed twice gives identical virtual metrics and digest;
  - a traced run reproduces the untraced digest, and every class's
    critical-path shares sum to 1;
  - with E5's window (0.5 s warmup + 3 s) and seed 42, one tpcc cell gives
    E5's rapilog cells (4209 txn/s on shared-hdd, 3973 on ssd-log);
  - with E13's small window (0.2 s + 0.8 s), one fleet-2pc cell gives the
    small grid's 4-shard / 8-client / 0.60 cell (10882 txn/s);
  - chaos at the default seed covers episode seed 105 and reports its
    durability loss;
  - each workload in BENCHMARK.json reports exactly its metrics.
Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the builder beside this file)

BINARY = None
# Virtual results: everything but host time, host memory and trace overhead.
HOST_METRICS = {"setup_s", "wall_s", "peak_rss_mib", "sim.host_ns_per_event",
                "obs.trace_overhead_frac"}


def driver(*args):
    proc = subprocess.run([BINARY] + list(args), capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("driver %s failed:\n%s" % (" ".join(args), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        sys.exit(1)


def virtual(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k not in HOST_METRICS}


def main():
    global BINARY
    BINARY = run.build("opt")
    short = ["--passes", "1", "--cells", "1"]
    e5 = short + ["--warmup-ms", "500", "--measure-ms", "3000"]
    e13_small = short + ["--warmup-ms", "200", "--measure-ms", "800"]

    _, a = driver("--workload", "tpcc-hdd", *e5)
    _, b = driver("--workload", "tpcc-hdd", *e5)
    check(a["digest"] == b["digest"] and virtual(a) == virtual(b),
          "tpcc-hdd: same seed, same digest and virtual metrics")
    check(round(a["metrics"]["txn_per_s"]["value"]) == 4209,
          "tpcc-hdd at E5's window reproduces E5 rapilog shared-hdd (4209)")
    _, ssd = driver("--workload", "tpcc-ssd", *e5)
    check(round(ssd["metrics"]["txn_per_s"]["value"]) == 3973,
          "tpcc-ssd at E5's window reproduces E5 rapilog ssd-log (3973)")
    _, other = driver("--workload", "tpcc-hdd", "--seed", "7", *e5)
    check(other["digest"] != a["digest"], "another seed, other inputs")

    _, fleet = driver("--workload", "fleet-2pc", *e13_small)
    # bench_e13_fleet prints %.0f of 10882.5, which rounds to even.
    check(abs(fleet["metrics"]["txn_per_s"]["value"] - 10882.5) < 1e-6,
          "fleet-2pc at E13's small window reproduces 4/8/0.60 (10882)")
    _, traced = driver("--workload", "fleet-2pc", "--trace", "1", *e13_small)
    check(traced["correct"] and traced["digest"] == fleet["digest"],
          "fleet-2pc: the traced pass reproduces the untraced digest")
    classes = traced["critical_path"]
    check("client-txn" in classes and all(
        abs(sum(edges.values()) - 1) < 1e-9 for edges in classes.values()),
        "critical-path shares sum to 1 in each of %d classes" % len(classes))

    _, chaos = driver("--workload", "chaos", "--passes", "1")
    check(chaos["failed"] >= 1 and "seed 105:" in chaos["verdict"],
          "chaos at seed 42 covers seed 105 and reports its durability loss")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            # The gprof shares are added by run.py, not by the driver.
            want = {m["name"] for m in spec[kind]
                    if not m["name"].endswith("host_frac")}
            _, res = driver("--workload", name, "--trace", trace,
                            "--seconds", "0", *short)
            check(set(res["metrics"]) == want and res["correct"],
                  "%s --trace %s reports exactly the %s metrics"
                  % (name, trace, kind))


if __name__ == "__main__":
    main()

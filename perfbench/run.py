#!/usr/bin/env python3
"""carve-sim benchmark: build the simulator from source, run one
workload, check its outputs, and print every metric with its unit.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 12 --trace 0

Run from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Every measurement runs in its own child
process (perfbench/src, built into $CARGO_TARGET_DIR/perfbench), so
peak RSS covers one workload and nothing else.

    python3 perfbench/run.py --self-test

checks that peak RSS is per workload: a small workload measured after
a large one reports the smaller figure.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["figures", "rdc-thrash", "numa-remote", "par-coherence"]
# Workloads whose stat trees must equal the serial engine's.
PARALLEL_WORKLOADS = {"par-coherence"}
SETUP_SECONDS = 1.0
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target / "perfbench"


def build():
    """Configure once, then (re)build the driver; returns its path."""
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").exists():
        raise BenchError("carve-sim sources (src/) not found next to "
                         f"{BENCH_DIR.name}/")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return out / "carve-perfbench"


def run_child(exe, mode, workload, seed, *extra):
    """Run one measurement process; returns (result dict, peak RSS in
    MiB of that process alone)."""
    args = [str(exe), mode, "--workload", workload, "--seed", str(seed),
            *map(str, extra)]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError(f"{mode} {workload}: timed out")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = proc.stdout.read().decode()
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload}: exit {proc.returncode}")
    return json.loads(text.strip().splitlines()[-1]), usage.ru_maxrss / 1024


class Checks:
    """Simulations attempted and failed, over every child of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}

    def add(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]

    def same_digests(self, digests, what):
        """Every run of a job must produce the same stat tree."""
        for key, d in digests.items():
            first = self.digests.setdefault(key, d)
            if first != d:
                self.failed += 1
                self.failures.append(f"{key}: stat tree differs ({what})")


def bench_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def metric_block(names_units, values):
    missing = [n for n, _ in names_units if n not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def serial_reference(exe, args, checks):
    if args.workload in PARALLEL_WORKLOADS:
        ref, _ = run_child(exe, "ref", args.workload, args.seed)
        checks.add(ref)
        checks.same_digests(ref["digests"], "vs serial engine")


def measure(exe, args, checks):
    """Untraced run: set-up timing, then one process that warms up and
    repeats the whole workload for --seconds. Times come back scaled
    by the host-speed probe; each is a median."""
    serial_reference(exe, args, checks)
    setup, _ = run_child(exe, "setup", args.workload, args.seed,
                         "--reps", 10, "--seconds", SETUP_SECONDS)
    r, rss = run_child(exe, "sim", args.workload, args.seed,
                       "--seconds", args.seconds)
    checks.add(r)
    checks.same_digests(r["digests"], "timed passes")
    print("unscaled pass wall_s: " +
          " ".join(f"{s:.4f}" for s in r["pass_s"]))
    print("probe_s: " + " ".join(f"{s:.5f}" for s in r["probe_s"]))
    print(f"unscaled median wall_s: {r['raw_wall_s']:.4f}")
    print(f"{len(r['pass_s'])} timed passes, "
          f"{len(setup['raw_setup_s'])} set-ups")
    return {"wall_s": r["wall_s"],
            "winst_per_s": r["warp_insts"] / r["sim_s"],
            "setup_s": setup["setup_s"],
            "peak_rss_mib": rss}


def trace(exe, args, checks):
    """Traced run: the driver's per-layer report."""
    serial_reference(exe, args, checks)
    spans = build_dir() / f"spans-{args.workload}-{args.seed}.json"
    r, _ = run_child(exe, "trace", args.workload, args.seed,
                     "--seconds", args.seconds, "--spans", spans)
    checks.add(r)
    checks.same_digests(r["digests"], "traced run")
    for note in r["not_applicable"]:
        print(f"not applicable: {note}")
    print(f"spans: {spans}")
    return r["metrics"]


def self_test(exe):
    """A small workload measured after a large one must report its own,
    smaller peak RSS, not the process-lifetime high-water mark."""
    sizes = {}
    for workload in ("figures", "rdc-thrash"):
        _, sizes[workload] = run_child(exe, "sim", workload, 1,
                                       "--seconds", 0)
        print(f"{workload}: peak_rss_mib={sizes[workload]:.1f}")
    # Peak RSS of one workload varies by under 3% between runs, so a
    # lifetime high-water mark could not read 20% below the larger one.
    ok = sizes["rdc-thrash"] < 0.8 * sizes["figures"]
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    try:
        exe = build()
        if args.self_test:
            return self_test(exe)
        spec = bench_spec()
        checks = Checks()
        print(f"workload {args.workload}, seed {args.seed}")
        if args.trace:
            values = trace(exe, args, checks)
            wanted = spec["per_layer"]
        else:
            values = measure(exe, args, checks)
            wanted = spec["end_to_end"]
        metrics = metric_block([(m["name"], m["unit"]) for m in wanted],
                               values)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    for key, d in sorted(checks.digests.items()):
        print(f"stat-tree digest {key} {d}")
    for f in checks.failures:
        print(f"FAILED {f}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": min(checks.failed, checks.attempted),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the HiStar benchmark and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the benchmark
executable (perfbench/main.ml) with dune into .bench_build/, then:

  --trace 0  sets the workload up repeatedly in one process (setup_s is
             the median), then runs it untraced for S seconds in a fresh
             process and prints the end-to-end metrics.
  --trace 1  runs it traced for S seconds (N operations), writes the span
             dump to .bench_build/perfbench-traces/, then re-runs exactly
             N operations untraced (tracing overhead, and a check that
             virtual results did not move) and, for a workload that steps
             on the lib/par pool, once more at 1 domain (par.speedup_2d).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero without printing a result
if the build or any run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")
TRACES = os.path.join(BUILD, "perfbench-traces")

WORKLOADS = ["store-sync", "net-fetch", "web-cluster"]
RUN_TIMEOUT_S = 170

E2E_UNITS = {
    "wall_ops_per_s": "1/s",
    "wall_drift": "x",
    "virt_ops_per_s": "1/s",
    "virt_p50_us": "us",
    "virt_p99_us": "us",
    "ok_frac": "share",
    "setup_s": "s",
    "heap_peak_mb": "MB",
}

VIRT_KEYS = ["virt_ops_per_s", "virt_p50_us", "virt_p99_us", "ok_frac"]

LAYER_UNITS = {
    "label.elide_ratio": "share",
    "label.elided": "count",
    "label.decisions": "count",
    "label.checks_per_op": "count/op",
    "kernel.syscalls_per_op": "count/op",
    "kernel.syscall_virt_us_per_op": "us/op",
    "kernel.sync_all.wall_us": "us",
    "kernel.sync_all.virt_us": "us",
    "unix.read.wall_us": "us",
    "unix.read.virt_us": "us",
    "unix.fsync_range.wall_us": "us",
    "unix.fsync_range.virt_us": "us",
    "unix.create_fsync.wall_us": "us",
    "unix.create_fsync.virt_us": "us",
    "wal.sectors_per_commit": "sectors",
    "store.synced_oids_per_sync": "count",
    "btree.touches_per_op": "count/op",
    "store.checkpoint_virt_ms": "ms",
    "disk.write_amp": "x",
    "disk.media_bytes_written": "bytes",
    "disk.user_bytes_acked": "bytes",
    "disk.flushes_per_op": "count/op",
    "disk.busy_share": "share",
    "disk.busy_ms": "ms",
    "disk.virt_elapsed_ms": "ms",
    "net.connect.wall_us": "us",
    "net.recv.wall_us": "us",
    "net.wall_us_per_kb.small": "us/KB",
    "net.wall_us_per_kb.large": "us/KB",
    "net.frames_per_fetch": "count/op",
    "net.retransmit_ratio": "share",
    "net.segments_retransmitted": "count",
    "net.segments_sent": "count",
    "webcluster.session_hit_ratio": "share",
    "webcluster.session_hits": "count",
    "webcluster.requests": "count",
    "dist.calls_per_req": "count/op",
    "dist.conn_reuse_ratio": "share",
    "dist.conn_reused": "count",
    "dist.calls": "count",
    "apps.render_util": "share",
    "apps.served_imbalance": "x",
    "dist.drive_wall_us_per_round": "us",
    "dist.rounds_per_req": "count/op",
    "par.speedup_2d": "x",
    "par.wall_s_1d": "s",
    "par.wall_s_2d": "s",
    "gc.alloc_words_per_op": "words/op",
    "gc.major_per_kop": "count/kop",
    "gc.heap_growth_mb_per_kop": "MB/kop",
    "virt.latency_samples": "count",
    "trace.overhead_ops_per_s": "1/s",
    "trace.untraced_wall_ops_per_s": "1/s",
    "trace.traced_wall_ops_per_s": "1/s",
}

def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s not found: run from the root of a full source checkout" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "-j", "2",
           "./perfbench/main.exe"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                             timeout=860)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if res.returncode != 0:
        die("build failed with exit code %d" % res.returncode)


def run_exe(args):
    """Run the executable; echo its report lines, return its JSON line."""
    try:
        res = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("%s: %s" % (" ".join(args), e))
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        die("%s exited with code %d" % (" ".join(args), res.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("%s printed no result" % " ".join(args))


def base_args(ns, mode):
    return [mode, "--workload", ns.workload, "--seed", str(ns.seed)]


def end_to_end(ns):
    setup_s = run_exe(base_args(ns, "setup"))["setup_s"]
    res = run_exe(base_args(ns, "run") + ["--seconds", str(ns.seconds)])
    values = dict(res["e2e"])
    print("set-up of the measuring process (s): %.6f" % values["setup_s"])
    values["setup_s"] = setup_s
    return res["correct"], res["attempted"], res["failed"], values, E2E_UNITS


def same_virtual(a, b, what):
    """Virtual results are a function of the seed and operation count."""
    diff = [k for k in VIRT_KEYS if a["e2e"][k] != b["e2e"][k]]
    if diff or a["attempted"] != b["attempted"]:
        print("CHECK FAILED: %s changed virtual results: %s" % (what, diff or "attempted"))
        return False
    return True


def per_layer(ns):
    os.makedirs(TRACES, exist_ok=True)
    traced = run_exe(base_args(ns, "run") + ["--seconds", str(ns.seconds), "--trace", "1",
                                             "--dump-dir", TRACES])
    n = traced["attempted"]
    plain = run_exe(base_args(ns, "run") + ["--ops", str(n)])
    correct = traced["correct"] and plain["correct"]
    correct = same_virtual(traced, plain, "tracing") and correct
    values = dict(traced["layers"])
    values["trace.traced_wall_ops_per_s"] = traced["e2e"]["wall_ops_per_s"]
    values["trace.untraced_wall_ops_per_s"] = plain["e2e"]["wall_ops_per_s"]
    values["trace.overhead_ops_per_s"] = (
        plain["e2e"]["wall_ops_per_s"] - traced["e2e"]["wall_ops_per_s"])
    if traced["domains"] > 1:
        one = run_exe(base_args(ns, "run") + ["--ops", str(n), "--domains", "1"])
        correct = one["correct"] and same_virtual(plain, one, "the pool width") and correct
        values["par.wall_s_1d"] = one["wall_s"]
        values["par.wall_s_2d"] = plain["wall_s"]
        values["par.speedup_2d"] = one["wall_s"] / plain["wall_s"]
    else:
        # The workload never steps on the pool: nothing to compare.
        for k in ("par.wall_s_1d", "par.wall_s_2d", "par.speedup_2d"):
            values[k] = 0.0
    missing = set(LAYER_UNITS) - set(values)
    if missing:
        die("per-layer metrics missing: %s" % sorted(missing))
    values = {k: values[k] for k in LAYER_UNITS}
    return correct, traced["attempted"], traced["failed"], values, LAYER_UNITS


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ns = p.parse_args()
    if ns.seconds < 1:
        die("--seconds must be at least 1")
    build()
    correct, attempted, failed, values, units = (per_layer if ns.trace else end_to_end)(ns)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

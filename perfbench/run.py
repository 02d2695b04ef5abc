#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload varmail --seed 1 --seconds 12 --trace 0

Builds perfbench (the simulator library from src/ plus perfbench.cc) into
.bench_build/ on first use, then runs repetitions of the workload until
--seconds of wall time have passed. Each repetition is one process: set up
a fresh device and file system, run the generated workload, check every
output, unmount, fsck. Virtual-time results must repeat exactly across
repetitions. Host cost per op sums, over windows of the measured
interval, the fastest repetition of each window; set-up time and peak RSS
are medians over the repetitions.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end").
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics ("per_layer"), after checking that tracing left every
virtual result bit-identical; spans go to .bench_out/.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
The exit code is 0 only when every check passed.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("varmail", "untar", "readhot", "untar-fuse")
OPS = ("open", "creat", "read", "write", "fsync", "close", "unlink", "mkdir")
MIN_REPS = 3        # untraced repetitions per run, at least
MIN_PAIRS = 2       # untraced + traced pairs per traced run, at least
MAX_REPS = 40
REP_TIMEOUT_S = 60
# The workloads that acknowledge writes with fsync: their durability oracle
# runs once per untraced run.
ORACLE_WORKLOADS = ("varmail", "readhot")
# Results that depend only on virtual time; they must repeat exactly.
VIRTUAL_KEYS = ("ops_ok", "ops_failed", "virt_elapsed_ns", "lat_n", "p50_ns",
                "p99_ns", "fsync_n", "fsync_p99_ns", "syscall_errors",
                "user_bytes")


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and failed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_build(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release", *gen])
        run_build(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    exe = BUILD_DIR / "perfbench"
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe


def run_build(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def repetition(exe, workload, seed, trace=False, oracle=False):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}-{seed}.csv")]
    if oracle:
        cmd.append("--oracle")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"repetition timed out: {' '.join(cmd)}") from e
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"no result (exit {proc.returncode}): {' '.join(cmd)}")
    rep = json.loads(lines[-1])
    rep["exit_code"] = proc.returncode
    return rep


def rep_problems(rep):
    """Output-check failures of one repetition, beyond failed ops."""
    out = list(rep["problems"])
    if rep["exit_code"] != 0 and not out and not rep["ops_failed"]:
        out.append(f"perfbench exited {rep['exit_code']}")
    return out


def virtual_of(rep):
    return {k: rep[k] for k in VIRTUAL_KEYS}


def host_us_per_op(rep):
    return rep["host_ns"] / 1e3 / max(rep["ops_ok"], 1)


# ---- stats snapshot helpers (Kernel::dump_stats JSON) ----

def structs(snapshot):
    """All stats objects of the snapshot: device trees, then /mnt's."""
    out = list(snapshot["devices"])
    for mount in snapshot["mounts"]:
        if mount["mountpoint"] == "/mnt":
            out.extend(mount["stats"])
    return out


def total(snapshot, struct, field):
    return sum(s.get(field, 0) for s in structs(snapshot)
               if s["struct"] == struct)


def bucket_p99_us(snapshot, struct, hist):
    vals = [s[hist]["p99_ns"] for s in structs(snapshot)
            if s["struct"] == struct and hist in s]
    return max(vals, default=0) / 1e3


def ratio(num, den):
    return num / den if den else 0.0


def fastest(reps):
    """The repetition with the least host time per op."""
    return min(reps, key=host_us_per_op)


def host_cost_us_per_op(reps):
    """Host cost per op, robust to other load on the machine.

    Every repetition does identical work (their virtual results are
    checked to be equal), window by window: perfbench splits the measured
    interval into windows of equal op counts. Other load can only add host
    time, so the cost of each window is taken as its fastest repetition,
    and the windows are summed (the minimum estimator of Chen & Revels,
    "Robust benchmarking in noisy environments", 2016, per window)."""
    windows = zip(*(r["window_ns"] for r in reps))
    return sum(min(w) for w in windows) / 1e3 / max(reps[0]["ops_ok"], 1)


def per_layer(traced, untraced):
    """Per-layer metrics from the traced repetitions. Counters repeat
    exactly; host times come from the fastest traced repetition."""
    rep = fastest(traced)
    ops = max(rep["ops_ok"], 1)
    epoch, end = rep["stats_epoch"], rep["stats_end"]

    def d(struct, field):
        return total(end, struct, field) - total(epoch, struct, field)

    m = {}
    for op in OPS:
        v = rep["vfs"][op]
        calls = v["calls"]
        m[f"vfs.{op}.calls"] = (calls, "count")
        m[f"vfs.{op}.virt_us_mean"] = (ratio(v["virt_ns_sum"], calls) / 1e3,
                                       "us")
        m[f"vfs.{op}.virt_us_p99"] = ((v["virt_p99_ns"] or 0) / 1e3, "us")
        m[f"vfs.{op}.host_ns_mean"] = (ratio(v["host_ns_sum"], calls), "ns")
    m["vfs.errors"] = (rep["syscall_errors"], "count")

    hits, misses = d("AddressSpaceStats", "hits"), d("AddressSpaceStats",
                                                     "misses")
    m["page_cache.hits"] = (hits, "count")
    m["page_cache.misses"] = (misses, "count")
    m["page_cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    m["page_cache.readahead_pages"] = (d("AddressSpaceStats",
                                         "readahead_pages"), "count")
    wb_pages = d("AddressSpaceStats", "writeback_pages")
    m["page_cache.writeback_pages"] = (wb_pages, "count")
    m["page_cache.pages_per_writeback"] = (
        ratio(wb_pages, d("AddressSpaceStats", "writeback_calls")), "pages")

    hits, misses = d("BufferCacheStats", "hits"), d("BufferCacheStats",
                                                    "misses")
    m["buffer_cache.hits"] = (hits, "count")
    m["buffer_cache.misses"] = (misses, "count")
    m["buffer_cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    for f in ("evictions", "writebacks", "jdirty_skipped"):
        m[f"buffer_cache.{f}"] = (d("BufferCacheStats", f), "count")

    for f in ("wakeups", "pages_flushed", "buffers_flushed", "throttle_waits"):
        m[f"flusher.{f}"] = (d("FlusherStats", f), "count")
    m["flusher.throttled_ns"] = (d("FlusherStats", "throttled_ns"), "ns")

    commits = d("LogStats", "commits")
    m["journal.commits"] = (commits, "count")
    m["journal.ops_per_commit"] = (ratio(d("LogStats", "ops_committed"),
                                         commits), "ops")
    for f in ("blocks_logged", "absorbed", "flushes_skipped",
              "pipelined_commits"):
        m[f"journal.{f}"] = (d("LogStats", f), "count")
    m["journal.record_bucket_p99_us"] = (
        bucket_p99_us(end, "LogStats", "record_lat"), "us")

    m["bento.dispatches_per_op"] = (d("ModuleStats", "dispatches") / ops,
                                    "calls/op")
    m["fuse.requests_per_op"] = (d("FuseConnStats", "requests") / ops,
                                 "requests/op")
    m["fuse.payload_bytes_per_op"] = (d("FuseConnStats", "payload_bytes")
                                      / ops, "B/op")

    writes = d("DeviceStats", "writes")
    m["blockdev.read_blocks"] = (d("DeviceStats", "reads"), "count")
    m["blockdev.write_blocks"] = (writes, "count")
    m["blockdev.write_requests"] = (d("DeviceStats", "write_requests"),
                                    "count")
    m["blockdev.blocks_per_write_request"] = (
        ratio(writes, d("DeviceStats", "write_requests")), "blocks")
    m["blockdev.merges"] = (d("DeviceStats", "merges"), "count")
    m["blockdev.flushes_per_op"] = (d("DeviceStats", "flushes") / ops,
                                    "flushes/op")
    m["blockdev.utilization"] = (ratio(d("DeviceStats", "busy_ns"),
                                       rep["virt_elapsed_ns"]), "ratio")
    m["blockdev.write_amp"] = (ratio(writes * 4096, rep["user_bytes"]),
                               "ratio")
    for name, hist in (("write_wait", "write_wait"),
                       ("write_service", "write_service"),
                       ("flush", "flush_lat")):
        m[f"blockdev.{name}_bucket_p99_us"] = (
            bucket_p99_us(end, "DeviceStats", hist), "us")
    m["blockdev.errors"] = (sum(d("DeviceStats", f) for f in (
        "read_errors", "write_errors", "transient_errors")), "count")
    m["blockdev.retries"] = (d("RequestQueueStats", "retries"), "count")

    m["sim.host_us_per_op"] = (host_cost_us_per_op(untraced), "us")
    m["sim.host_self_ns_per_op"] = ((rep["host_ns"] - rep["span_host_ns"])
                                    / ops, "ns")
    m["trace.overhead_us_per_op"] = (
        host_cost_us_per_op(traced) - host_cost_us_per_op(untraced), "us")
    return m


def end_to_end(reps):
    first = reps[0]
    virt_s = first["virt_elapsed_ns"] / 1e9
    return {
        "ops_per_s": (first["ops_ok"] / virt_s, "1/s"),
        "p50_us": (first["p50_ns"] / 1e3, "us"),
        "p99_us": (first["p99_ns"] / 1e3, "us"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024
                                          for r in reps), "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
        return measure(exe, args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 2


def measure(exe, args):
    problems = []
    untraced, traced = [], []
    start = time.monotonic()

    def more(n, least):
        return n < least or (time.monotonic() - start < args.seconds
                             and n < MAX_REPS)

    if args.trace:
        while more(len(traced), MIN_PAIRS):
            untraced.append(repetition(exe, args.workload, args.seed))
            traced.append(repetition(exe, args.workload, args.seed,
                                     trace=True))
    else:
        while more(len(untraced), MIN_REPS):
            untraced.append(repetition(exe, args.workload, args.seed))

    for rep in untraced + traced:
        problems += rep_problems(rep)
    reference = virtual_of(untraced[0])
    for rep in untraced[1:]:
        if virtual_of(rep) != reference:
            problems.append("virtual results differ between repetitions")
            break
    for rep in traced:
        if virtual_of(rep) != reference:
            problems.append("tracing changed virtual results")
            break
    if untraced[0]["p50_ns"] is None or untraced[0]["p99_ns"] is None:
        problems.append("too few op samples for p50/p99")

    if not args.trace and args.workload in ORACLE_WORKLOADS:
        oracle = repetition(exe, args.workload, args.seed, oracle=True)
        problems += [f"durability oracle: {p}" for p in rep_problems(oracle)]

    first = untraced[0]
    attempted = first["ops_ok"] + first["ops_failed"]
    # A failed output check counts as a failed op.
    failed = min(attempted, first["ops_failed"] + len(problems))
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(
        untraced)

    mode = "traced + untraced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed}: "
          f"{len(untraced) + len(traced)} repetitions ({mode}), "
          f"{attempted} ops each")
    notes = {}
    if not args.trace:
        n = f"(n={first['lat_n']} ops, exact order statistic)"
        notes = {"p50_us": n, "p99_us": n,
                 "peak_rss_mb": f"(median of {len(untraced)})",
                 "setup_s": f"(median of {len(untraced)})"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit} {notes.get(name, '')}")
    if not args.trace:
        if args.workload == "varmail":
            fp99 = first["fsync_p99_ns"]
            shown = f"{fp99 / 1e3:.6g} us" if fp99 is not None else "n/a"
            print(f"  {'fsync_p99_us':<36} {shown} "
                  f"(n={first['fsync_n']} fsyncs)")
        print(f"  {'fail_ratio':<36} {failed / max(attempted, 1):.6g} "
              f"({failed}/{attempted})")
        print(f"  {'host_us_per_op':<36} "
              f"{host_cost_us_per_op(untraced):.6g} us "
              f"(fastest-window sum over {len(untraced)}; tracked, not gated)")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validated-GB/s benchmark of demsort's CANONICALMERGESORT on Gray100 records.

Usage (from the repository root):

    python3 perfbench/run.py --workload uniform_mem --seed 1 \
        --seconds 25 --trace 0

Builds perfbench/ (the demsort library plus sortperf_driver) into
$CARGO_TARGET_DIR (default .bench_build), then launches the driver once per
sample until --seconds have passed. Every launch is one whole sort: fork,
mesh connect, PeResources, input generation, the sort, validation with
workload::ValidateCollective, teardown.

--trace 0  untraced launches of core::CanonicalMergeSort; prints the
           end-to-end metrics.
--trace 1  alternates traced launches (the driver times each layer call
           and runs the roofline probes) with untraced ones; prints the
           per-layer metrics and the traced run's overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Earlier lines carry the host record, the
host load during the run, the sample counts and the two-set steadiness
self-check. Build output and
diagnostics go to stderr. See perfbench/README.md for every workload and
metric.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every workload sorts the same total bytes of 100-byte Gray100 records on
# 4 compute threads. The driver's fixed block B = 128 KiB and m = 1 MiB per
# PE make R = 24 runs, so the input is 24 x P*m.
TOTAL_RECORDS = 1_000_000
WORKLOADS = {
    "uniform_mem": {"pes": 4, "threads": 1},
    "skewed_mem": {"pes": 4, "threads": 1, "skewed": True},
    "uniform_file_hier": {"pes": 4, "threads": 1, "pes_per_node": 2,
                          "storage": "file"},
    "uniform_mem_threads": {"pes": 2, "threads": 2},
}

PHASES = ["run_formation", "selection", "alltoall", "final_merge"]
MIN_ACCOUNTED = 0.99     # busy + barrier wait must explain each phase wall

MIN_SAMPLES = 5          # untraced samples per run, even past --seconds
MIN_TRACED = 3           # traced samples per --trace 1 run
LAUNCH_TIMEOUT_S = 30    # one sort; a hung launch counts as failed
RUN_BUDGET_S = 120       # hard stop for the whole measuring loop


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (until one configure completes; the build step re-runs it
    when a CMakeLists.txt changes) and builds the driver; returns its path,
    or None if the build failed."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    steps = [["cmake", "--build", cmake_dir, "--target", "sortperf_driver",
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(os.path.join(cmake_dir, "cmake_install.cmake")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    # The compiler's temporary files stay inside the build directory too.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, check=False).returncode
        except OSError as err:
            log(f"build: {err}")
            return None
        if rc != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    return os.path.join(cmake_dir, "sortperf_driver")


def host_record(file_dir):
    """nproc, kernel, build type, the file-dir filesystem, and whether the
    filesystem honours O_DIRECT (the file backend itself is buffered)."""
    fs = subprocess.run(["stat", "-f", "-c", "%T", file_dir],
                        capture_output=True, text=True, check=False)
    probe = os.path.join(file_dir, "o_direct_probe")
    try:
        fd = os.open(probe, os.O_CREAT | os.O_WRONLY | os.O_DIRECT, 0o644)
        os.close(fd)
        o_direct = True
    except OSError:
        o_direct = False
    finally:
        if os.path.exists(probe):
            os.unlink(probe)
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "build_type": "Release",
        "file_dir_fs": fs.stdout.strip() or "unknown",
        "o_direct_available": o_direct,
        "o_direct_used": False,
    }


def cpu_clock():
    """(busy, steal) CPU seconds of the whole machine from /proc/stat, and
    the CPU seconds of this script's reaped children; None if unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _, _, irq, softirq, steal = fields
    hz = os.sysconf("SC_CLK_TCK")
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ((user + nice + system + irq + softirq) / hz, steal / hz,
            kids.ru_utime + kids.ru_stime)


def fault_touch_gbps(reps=5, size=64 << 20):
    """Median rate at which this process fills fresh memory: page faults
    plus first writes, the host cost the memory-backend launches pay for
    every block. It moves with the host, not with the program."""
    rates = []
    for _ in range(reps):
        start = time.perf_counter()
        buf = b"\x01" * size
        rates.append(size / (time.perf_counter() - start) / 1e9)
        del buf
    return statistics.median(rates)


def host_load(before, after, wall_s, calibration):
    """Share of the machine's CPUs that other processes kept busy (and that
    the hypervisor stole) while the run measured, and the fault+touch rate
    before and after. The time metrics drift with these, so a slow set can
    be told from a slow program."""
    load = {"fault_touch_gbps": calibration}
    if before is not None and after is not None:
        busy, steal, ours = (b - a for a, b in zip(before, after))
        cpus = (os.cpu_count() or 1) * wall_s
        load["others_cpu_frac"] = max(busy - ours, 0.0) / cpus
        load["steal_frac"] = steal / cpus
    return load


def launch(driver, workload, seed, traced, file_dir):
    """One sort launch. Returns the parsed sample, with ok=False on any
    failure (non-zero exit, timeout, validation, unreadable output)."""
    spec = WORKLOADS[workload]
    cmd = [driver, f"--mode={'traced' if traced else 'sort'}",
           f"--pes={spec['pes']}", f"--threads={spec['threads']}",
           f"--pes-per-node={spec.get('pes_per_node', 0)}",
           f"--records-per-pe={TOTAL_RECORDS // spec['pes']}",
           f"--seed={seed}", f"--storage={spec.get('storage', 'memory')}"]
    if spec.get("skewed"):
        cmd.append("--skewed")
    if spec.get("storage", "memory") != "memory":
        cmd.append(f"--file-dir={file_dir}")
    start = time.monotonic_ns()
    cmd.append(f"--launch-ns={start}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"launch timed out after {LAUNCH_TIMEOUT_S} s")
        return {"ok": False}
    total_s = (time.monotonic_ns() - start) * 1e-9
    sample = {"ok": False, "total_s": total_s}
    for line in out.splitlines():
        try:
            sample.update(json.loads(line))
        except ValueError:
            continue
    ranks = sample.get("ranks")
    if proc.returncode != 0 or not ranks or "peak_rss_kib" not in sample:
        log(f"launch failed: exit {proc.returncode}")
        return sample
    sample["ok"] = all(r["ok"] for r in ranks)
    return sample


def phase_sum(ranks, phase, key):
    return sum(r["phases"][phase][key] for r in ranks)


def phase_max(ranks, phase, key):
    return max(r["phases"][phase][key] for r in ranks)


def total_sum(ranks, key):
    return sum(phase_sum(ranks, p, key) for p in range(len(PHASES)))


def sort_figures(sample, input_bytes):
    ranks = sample["ranks"]
    sort_s = max(r["sort_s"] for r in ranks)
    return {
        "sort_gbps": input_bytes / sort_s / 1e9,
        "setup_s": max(r["setup_s"] for r in ranks),
        "total_s": sample["total_s"],
        "peak_rss_mib": sample["peak_rss_kib"] / 1024.0,
        "io_bytes_per_byte": total_sum(ranks, "io_bytes") / input_bytes,
        "net_bytes_per_byte": total_sum(ranks, "net_bytes") / input_bytes,
        "sort_s": sort_s,
    }


def layer_figures(sample, num_records):
    """Per-layer figures of one traced launch. Cluster rates are total work
    over the slowest rank's time; a phase's busy time is the slowest rank's
    call, its barrier wait the longest any rank waited after it."""
    ranks = sample["ranks"]
    slowest = lambda key: max(r[key] for r in ranks)
    rate = lambda work_key, time_key: (
        sum(r[work_key] for r in ranks) / max(slowest(time_key), 1e-12))
    f = {}
    f["host.memcpy_gbps"] = rate("memcpy_bytes", "memcpy_s") / 1e9
    probe_recs = sum(r["probe_records"] for r in ranks)
    for name, key in [("par.sort_mrec_s", "sort_wt_s"),
                      ("par.sort_1t_mrec_s", "sort_1t_s"),
                      ("par.merge_mrec_s", "merge_wt_s"),
                      ("par.merge_1t_mrec_s", "merge_1t_s")]:
        f[name] = probe_recs / max(slowest(key), 1e-12) / 1e6
    f["io.seq_gbps"] = rate("io_probe_bytes", "io_probe_s") / 1e9
    f["net.a2a_gbps"] = rate("a2a_probe_bytes", "a2a_probe_s") / 1e9
    f["host.minor_faults"] = sample["minor_faults"]
    f["workload.generate_s"] = slowest("generate_s")
    f["workload.validate_s"] = slowest("validate_s")
    f["core.sort_s"] = slowest("sort_s")

    io_bw = f["io.seq_gbps"] * 1e9
    net_bw = f["net.a2a_gbps"] * 1e9
    for p, name in enumerate(PHASES):
        pre = f"core.{name}."
        busy = phase_max(ranks, p, "busy_s")
        f[pre + "busy_s"] = busy
        f[pre + "barrier_wait_s"] = phase_max(ranks, p, "wait_s")
        f[pre + "wall_s"] = phase_max(ranks, p, "wall_s")
        # Busy + barrier wait against the phase wall the program's own
        # PhaseCollector measured, for the rank it explains least.
        f[pre + "accounted_frac"] = min(
            (r["phases"][p]["busy_s"] + r["phases"][p]["wait_s"])
            / max(r["phases"][p]["wall_s"], 1e-12) for r in ranks)
        io_bytes = phase_sum(ranks, p, "io_bytes")
        net_bytes = phase_sum(ranks, p, "net_bytes")
        # Roofline time: this phase's work at the probed ceilings, as a
        # share of its busy time.
        ideal = io_bytes / io_bw + net_bytes / net_bw
        if name == "run_formation":
            ideal += num_records / (f["par.sort_mrec_s"] * 1e6)
        if name == "final_merge":
            ideal += num_records / (f["par.merge_mrec_s"] * 1e6)
        f[pre + "roofline_frac"] = ideal / max(busy, 1e-12)
        if name in ("selection", "alltoall"):
            f[pre + "io_bytes"] = io_bytes
        if name == "alltoall":
            f[pre + "net_bytes"] = net_bytes
        if name == "selection":
            f[pre + "rounds"] = phase_max(ranks, p, "selection_rounds")
    fm = PHASES.index("final_merge")
    f["core.final_merge.cpu_ms"] = phase_sum(ranks, fm, "merge_cpu_ms")
    f["core.final_merge.io_wait_ms"] = phase_sum(ranks, fm, "merge_io_wait_ms")
    # Share of the merge's block reads that the prediction sequence
    # prefetched; the rest were demand fetches.
    merge_reads = phase_sum(ranks, fm, "io_reads")
    f["core.final_merge.prefetch_hit_ratio"] = (
        1 - phase_sum(ranks, fm, "demand_fetches") / max(merge_reads, 1))
    f["core.final_merge.workers"] = phase_max(ranks, fm, "merge_workers")

    ops = total_sum(ranks, "io_ops")
    f["io.ops"] = ops
    f["io.bytes"] = total_sum(ranks, "io_bytes")
    f["io.queue_depth_peak"] = max(phase_max(ranks, p, "io_qd_peak")
                                   for p in range(len(PHASES)))
    f["io.queue_depth_mean"] = total_sum(ranks, "io_qd_sum") / max(ops, 1)
    f["io.submit_reap_us_mean"] = (total_sum(ranks, "io_submit_reap_ns")
                                   / max(ops, 1) / 1e3)
    f["net.bytes_sent"] = total_sum(ranks, "net_bytes")
    f["net.credit_msgs"] = total_sum(ranks, "net_credit_msgs")
    f["net.recv_buffer_peak_bytes"] = max(
        phase_max(ranks, p, "net_recv_buffer_peak") for p in range(len(PHASES)))
    f["net.pool_hit_ratio"] = (total_sum(ranks, "net_pool_hits")
                               / max(total_sum(ranks, "net_pool_leases"), 1))
    return f


def counter_detail(sample):
    """Counters that read 0 on some workloads, so they are printed beside
    the result rather than as metrics: the node split exists only on the
    two-level transport, credits piggyback only at other geometries, and
    the merge's prefetching often leaves no demand fetch."""
    ranks = sample["ranks"]
    return {
        "net.intra_node_bytes": total_sum(ranks, "net_intra_bytes"),
        "net.inter_node_bytes": total_sum(ranks, "net_inter_bytes"),
        "net.piggybacked_credits": total_sum(ranks, "net_piggybacked_credits"),
        "core.final_merge.demand_fetches": phase_sum(
            ranks, PHASES.index("final_merge"), "demand_fetches"),
    }


def medians(samples):
    """Per-key medians of a list of equally keyed dicts."""
    samples = list(samples)
    return {name: statistics.median(s[name] for s in samples)
            for name in samples[0]}


def two_set_check(figures, end_to_end):
    """Splits the samples into two alternating sets and reports whether each
    end-to-end median of the second stays within its bound of the first."""
    a, b = figures[0::2], figures[1::2]
    report = {}
    if not a or not b:
        return report
    for metric in end_to_end:
        name = metric["name"]
        if name not in a[0]:
            continue
        ma = statistics.median(s[name] for s in a)
        mb = statistics.median(s[name] for s in b)
        worse = (ma - mb) if metric["better"] == "higher" else (mb - ma)
        report[name] = {"set_a": ma, "set_b": mb,
                        "agree": worse / ma <= metric["bound"]}
    return report


def slow_tail(values):
    """The highest percentile with at least ten samples above it (None if
    there are too few samples)."""
    n = len(values)
    if n < 20:
        return None
    return {"percentile": round(100 * (n - 10) / n),
            "value": sorted(values)[n - 11]}


def measure(driver, workload, seed, seconds, traced, file_dir):
    start = time.monotonic()
    untraced, traced_samples, attempted, failed = [], [], 0, 0
    while True:
        elapsed = time.monotonic() - start
        enough = (len(untraced) >= MIN_SAMPLES
                  and (not traced or len(traced_samples) >= MIN_TRACED))
        if (elapsed >= seconds and enough) or elapsed >= RUN_BUDGET_S:
            break
        run_traced = traced and attempted % 2 == 0
        sample = launch(driver, workload, seed, run_traced, file_dir)
        attempted += 1
        if not sample["ok"]:
            failed += 1
            continue
        (traced_samples if run_traced else untraced).append(sample)
    return untraced, traced_samples, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # BENCHMARK.json names every metric this run prints, with its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    driver = build(out_dir)
    if driver is None:
        return 2
    file_dir = os.path.join(out_dir, f"files-{os.getpid()}")
    os.makedirs(file_dir, exist_ok=True)
    try:
        print(json.dumps({"host": host_record(file_dir)}), flush=True)
        calibration = [fault_touch_gbps()]
        clock, start = cpu_clock(), time.monotonic()
        untraced, traced, attempted, failed = measure(
            driver, args.workload, args.seed, args.seconds, args.trace == 1,
            file_dir)
        wall_s = time.monotonic() - start
        after = cpu_clock()
        calibration.append(fault_touch_gbps())
        load = host_load(clock, after, wall_s, calibration)
    finally:
        shutil.rmtree(file_dir, ignore_errors=True)

    figures = [sort_figures(s, TOTAL_RECORDS * 100) for s in untraced]
    correct = failed == 0 and bool(figures)
    # Byte counts depend on the seed alone: every launch of this run must
    # read, write and send exactly the same bytes.
    for name in ("io_bytes_per_byte", "net_bytes_per_byte"):
        distinct = {f[name] for f in figures}
        if len(distinct) > 1:
            log(f"{name} differs between launches of one seed: {distinct}")
            correct = False
    if not figures or (args.trace == 1 and not traced):
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 0

    if args.trace == 0:
        values = medians(figures)
        values["valid_ratio"] = (attempted - failed) / attempted
        wanted = spec["end_to_end"]
        print(json.dumps({
            "samples": len(figures),
            "host_load": load,
            "sort_s_tail": slow_tail([f["sort_s"] for f in figures]),
            "steadiness": two_set_check(figures, wanted),
        }), flush=True)
    else:
        layers = [layer_figures(s, TOTAL_RECORDS) for s in traced]
        values = medians(layers)
        values["trace.overhead_ratio"] = (
            values["core.sort_s"]
            / statistics.median(f["sort_s"] for f in figures))
        for phase in PHASES:
            frac = values[f"core.{phase}.accounted_frac"]
            if frac < MIN_ACCOUNTED:
                log(f"core.{phase}: busy + barrier wait explain only "
                    f"{frac:.4f} of the phase wall")
                correct = False
        wanted = spec["per_layer"]
        print(json.dumps({"traced_samples": len(layers),
                          "host_load": load,
                          "untraced_samples": len(figures),
                          "counters": medians(counter_detail(s)
                                              for s in traced)}), flush=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

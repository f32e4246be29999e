#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_bin from source and runs one
workload, one process per run, for a fixed number of seconds.

    python3 perfbench/run.py --workload dht_lock_1k --seed 7 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics (medians over the runs made in
--seconds); --trace 1 makes the traced run and the probe arms and prints the
per-layer metrics. --workload all runs every workload, each in its own
processes, and prints every report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_bin")

# The workloads in BENCHMARK.json. himeno_16k and serve_zipf_kill run and
# report their output checks like the others, but stay out of
# BENCHMARK.json while those checks fail on this code (see README.md).
GATED_WORKLOADS = ["coll_16k", "dht_lock_1k"]
WORKLOADS = ["himeno_16k"] + GATED_WORKLOADS + ["serve_zipf_kill"]

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB")]

PROBES = ["sim", "fabric", "shmem", "caf", "caf_calls", "fd"]

PER_LAYER = [
    ("sim.events", "count"), ("sim.switches", "count"),
    ("sim.host_ns_per_event", "ns"), ("sim.stack_bytes_mapped", "bytes"),
    ("sim.stack_bytes_peak", "bytes"), ("sim.queue_ns_per_event", "ns"),
    ("sim.switch_ns", "ns"),
    ("shmem.barrier_all_host_us", "us"), ("shmem.shmalloc_host_us", "us"),
    ("shmem.barrier_all_sim_us", "sim_us"),
    ("fabric.put_host_ns", "ns"), ("fabric.wire_msgs", "count"),
    ("net.wire_sim_us_mean", "sim_us"), ("net.fd.detect_latency_us", "sim_us"),
    ("net.fd.false_positives", "count"),
    ("caf.lock_host_us", "us"), ("caf.unlock_host_us", "us"),
    ("caf.get_host_us", "us"), ("caf.put_host_us", "us"),
    ("caf.lock_sim_us", "sim_us"), ("caf.unlock_sim_us", "sim_us"),
    ("caf.get_sim_us", "sim_us"), ("caf.put_sim_us", "sim_us"),
    ("caf.puts", "count"), ("caf.strided_puts", "count"), ("caf.amos", "count"),
    ("caf.locks_acquired", "count"), ("caf.syncs", "count"),
    ("caf.fences", "count"), ("caf.rma.quiet_elided_ratio", "ratio"),
    ("caf.repl.write_retries", "count"), ("caf.repl.read_fallbacks", "count"),
    ("caf.repl.lock_reclaims", "count"),
    ("caf.sync_all_host_us", "us"), ("caf.co_sum_sim_us", "sim_us"),
    ("caf.quiet_stall_frac", "ratio"), ("caf.coll_stall_frac", "ratio"),
    ("caf.lock_wait_frac", "ratio"), ("caf.sync_stall_frac", "ratio"),
    ("net.wire_frac", "ratio"), ("apps.compute_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("process.sys_s", "s"), ("process.minor_faults", "count"),
    ("process.calib_ns", "ns"),
]

CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_bin under .bench_build (incremental)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_child(args):
    """Runs perfbench_bin once; returns its JSON report."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench_bin %s failed (exit %d)"
                         % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    """Median, first and third quartile (statistics.quantiles, n=4), and
    the quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else 0.0
    return med, q1, q3, rel


def verdict(reports):
    """Correctness over a workload's runs: every output check passed and
    every run produced the same simulated-output digest."""
    problems = []
    for rep in reports:
        for check in rep["checks"]:
            if not check["ok"]:
                problems.append("check %s failed: %s"
                                % (check["name"], check["detail"]))
    digests = sorted({rep["digest"] for rep in reports})
    if len(digests) > 1:
        problems.append("simulated outputs differ between runs: digests "
                        + ", ".join(digests))
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    return not problems, attempted, failed, sorted(set(problems))


def run_args(workload, seed, limit, traced=False):
    args = ["run", workload, "--seed", str(seed),
            "--put-p99-limit-us", repr(limit)]
    return args + ["--trace"] if traced else args


def repeat(seconds, step):
    """Calls step() until `seconds` have passed (at least once), skipping a
    further call that the mean call time says would overrun."""
    t0 = time.monotonic()
    out = []
    while True:
        out.append(step())
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(out) > seconds:
            return out


def end_to_end(reports):
    values = {
        "setup_s": [r["setup_s"] for r in reports],
        "run_s": [r["run_s"] for r in reports],
        "peak_rss_mib": [r["process"]["peak_rss_mib"] for r in reports],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def print_report(workload, seed, reports, ok, attempted, failed, problems,
                 metrics, elapsed):
    print("== %s  seed %d  %d runs in %.1f s ==" % (workload, seed,
                                                     len(reports), elapsed))
    print("end-to-end, host time (median [q1, q3], quartile spread):")
    for name, (values, unit) in metrics.items():
        med, q1, q3, rel = spread(values)
        print("  %-22s %12.5g %-4s [%.5g, %.5g]  %.1f%%"
              % (name, med, unit, q1, q3, 100 * rel))
    print("failed_frac = %d / %d = %.6g" % (failed, attempted,
                                            failed / max(attempted, 1)))
    sim = reports[0]["sim"]
    if sim:
        print("simulated (digest %s):" % reports[0]["digest"])
        for name, m in sim.items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        print("simulated metrics withheld: an output check failed "
              "(digest %s)" % reports[0]["digest"])
    print("checks:")
    for check in reports[0]["checks"]:
        print("  %-4s %s: %s" % ("ok" if check["ok"] else "FAIL",
                                 check["name"], check["detail"]))
    for problem in problems:
        print("  INCORRECT: " + problem)
    calib = statistics.median(r["process"]["calib_ns"] for r in reports)
    print("process.calib_ns = %.4g ns   correct = %s" % (calib, ok))


def measure(workload, seed, seconds, limit):
    """Untraced runs for `seconds`: the end-to-end metrics. One run before
    the window is checked and then discarded: it pays the first touches of
    memory the host has not yet backed, which would otherwise make the first
    timed run, and a set of runs made right after a build, read slow."""
    warm = run_child(run_args(workload, seed, limit))
    t0 = time.monotonic()
    reports = repeat(seconds, lambda: run_child(run_args(workload, seed, limit)))
    ok, attempted, failed, problems = verdict([warm] + reports)
    metrics = end_to_end(reports)
    print_report(workload, seed, reports, ok, attempted, failed, problems,
                 metrics, time.monotonic() - t0)
    out = {name: {"value": statistics.median(values), "unit": unit}
           for name, (values, unit) in metrics.items()}
    return ok, attempted, failed, out


def measure_layers(workload, seed, seconds, limit):
    """The traced run: untraced/traced pairs for `seconds`, then the probe
    arms, each in its own process. Returns the per-layer metrics."""
    t0 = time.monotonic()
    pairs = repeat(seconds, lambda: (
        run_child(run_args(workload, seed, limit)),
        run_child(run_args(workload, seed, limit, traced=True))))
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    ok, attempted, failed, problems = verdict(plain + traced)
    layer = {}
    for name in traced[0]["layer"]:
        layer[name] = statistics.median(r["layer"][name]["value"]
                                        for r in traced)
    def host_s(r):
        return r["setup_s"] + r["run_s"]
    # From the untraced runs: the digest check shows they simulate the same
    # events as the traced ones, without the tracing's host cost.
    layer["sim.host_ns_per_event"] = statistics.median(
        host_s(r) * 1e9 / r["events"] for r in plain)
    layer["obs.trace_overhead_frac"] = (
        statistics.median(host_s(r) for r in traced)
        / statistics.median(host_s(r) for r in plain) - 1.0)
    layer["process.sys_s"] = statistics.median(
        r["process"]["sys_s"] for r in plain)
    layer["process.minor_faults"] = statistics.median(
        r["process"]["minor_faults"] for r in plain)
    calib = [r["process"]["calib_ns"] for r in plain + traced]
    for probe in PROBES:
        if probe == "fd" and "net.fd.detect_latency_us" in layer:
            continue  # the workload runs the detector itself
        rep = run_child(["probe", probe, "--seed", str(seed)])
        calib.append(rep["process"]["calib_ns"])
        for name, m in rep["layer"].items():
            layer[name] = m["value"]
    layer["process.calib_ns"] = statistics.median(calib)
    missing = [name for name, _ in PER_LAYER if name not in layer]
    if missing:
        raise BenchError("per-layer metrics not produced: " + ", ".join(missing))
    print("== %s  seed %d  traced, %d run pairs + probes in %.1f s ==" % (
        workload, seed, len(pairs), time.monotonic() - t0))
    for name, unit in PER_LAYER:
        print("  %-30s %16.6g %s" % (name, layer[name], unit))
    for problem in problems:
        print("  INCORRECT: " + problem)
    print("digest %s   correct = %s" % (traced[0]["digest"], ok))
    out = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    return ok, attempted, failed, out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--put-p99-limit-us", type=float, default=60.0,
                    help="serve_zipf_kill: put p99 limit for the rate ladder")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        build()
        step = measure_layers if args.trace else measure
        if args.workload != "all":
            ok, attempted, failed, metrics = step(
                args.workload, args.seed, args.seconds, args.put_p99_limit_us)
        else:
            ok, attempted, failed, metrics = True, 0, 0, {}
            for workload in WORKLOADS:
                w_ok, w_att, w_fail, w_metrics = step(
                    workload, args.seed, args.seconds, args.put_p99_limit_us)
                print()
                ok, attempted, failed = ok and w_ok, attempted + w_att, failed + w_fail
                for name, m in w_metrics.items():
                    metrics[workload + "." + name] = m
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

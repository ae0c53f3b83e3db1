#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload monthly_batch --seed 7 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first call builds the telcochurn
libraries and the harness (perfbench/harness) into .bench_build/; later
calls reuse that build. Scratch inputs go under .bench_work/ and are
removed at exit, except the span traces in .bench_work/traces/.

A run sets its workload up several times (setup_s is their median), then
runs the timed phase once for --seconds, checks the outputs and prints a
table of metrics. With --trace 0 the table holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced pass plus layer
replays. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

WORKLOADS = ("monthly_batch", "retrain", "serve_open_loop")
# Scale factor of each workload's generated warehouse (SF 1.0 = ~2.1M
# customers). monthly_batch, the cheapest per customer, takes twice the
# customers, so its figures vary less from seed to seed (the spread of
# peak_rss_mb over seeds fell from 0.09 to 0.03, of pr_auc from 0.16 to
# about 0.1).
WORKLOAD_SF = {"monthly_batch": 0.01, "retrain": 0.005,
               "serve_open_loop": 0.005}
SETUPS_PER_RUN = 3
# Set-ups plus the timed phase must end within this (the build before
# them is not counted).
RUN_BUDGET_S = 170


def load_metric_specs():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def cores():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then builds the harness incrementally."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
         "-j", str(cores())],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def host_steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def parse_results(text):
    values = {}
    for line in text.splitlines():
        if line.startswith("#"):
            log(line)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            continue
        values[key] = value if key == "fingerprint" else float(value)
    return values


def harness(args, env, deadline):
    """Runs one harness step in its own process group, so that on a timeout
    the step and the load generator it spawned are all stopped."""
    start = time.monotonic()
    proc = subprocess.Popen([HARNESS] + args, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        # A timeout, or this script being stopped (SIGTERM, Ctrl-C).
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    log(f"# perfbench_harness {args[0]}: {time.monotonic() - start:.1f} s")
    if stderr:
        log(stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_harness {args[0]} exited "
                           f"{proc.returncode}")
    return parse_results(stdout)


def check_fingerprint(key, fingerprint):
    """The ranked list of a seed must be bit-identical in every run."""
    path = os.path.join(WORK_ROOT, "fingerprints.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known:
        return known[key] == fingerprint
    known[key] = fingerprint
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return True


def run(options):
    end_to_end, per_layer = load_metric_specs()
    specs = per_layer if options.trace else end_to_end
    threads = cores()
    env = dict(os.environ, TELCO_THREADS=str(threads),
               TELCO_LOG_LEVEL="warning")
    work = os.path.join(WORK_ROOT, options.workload)
    traces = os.path.join(WORK_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    tag = f"{options.workload}-seed{options.seed}"
    common = ["--workload", options.workload, "--seed", str(options.seed),
              "--sf", repr(options.sf), "--work", work,
              "--trace", "1" if options.trace else "0"]

    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        for i in range(SETUPS_PER_RUN):
            setups.append(harness(
                ["setup"] + common +
                ["--trace-out", os.path.join(traces, f"{tag}-setup{i}.json")],
                env, deadline))
        steal_start = host_steal_seconds()
        start = time.monotonic()
        result = harness(
            ["run"] + common +
            ["--seconds", repr(options.seconds),
             "--trace-out", os.path.join(traces, f"{tag}-run.json")]
            + (["--corrupt"] if options.corrupt else []), env, deadline)
        # Share of the guest's CPU time the hypervisor gave to other guests
        # during the timed phase: context for the figures, not a metric.
        steal_share = ((host_steal_seconds() - steal_start) /
                       ((time.monotonic() - start) * threads))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Set-up numbers are medians over the set-ups; the timed phase's own
    # numbers take precedence where both measured a layer.
    values = {}
    for key in {k for s in setups for k in s}:
        if key != "fingerprint":
            values[key] = statistics.median(s[key] for s in setups if key in s)
    values.update(result)
    attempted = int(values.get("attempted", 0))
    failed = int(values.get("failed", 0))
    values["ok_ratio"] = 1.0 - failed / attempted if attempted else 0.0
    values["fail_ratio"] = failed / attempted if attempted else 1.0

    problems = []
    if attempted < 1:
        problems.append("nothing attempted")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    fingerprint = values.get("fingerprint")
    if fingerprint is None or not check_fingerprint(
            f"{options.workload}/{options.seed}/{options.sf!r}", fingerprint):
        problems.append("ranked list differs from an earlier run of this seed")
    if not 0.5 < values.get("auc", 0.0) <= 1.0:
        problems.append("AUC outside (0.5, 1]")
    if values.get("threads", 0) > threads or \
            values.get("loadgen.connections", 0) > threads:
        problems.append("thread pool or connections exceed the core count")
    if options.trace and values.get("trace.self_coverage", 0.0) < 0.9:
        problems.append("span self times cover < 90% of the timed wall")
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))

    print(f"# {options.workload} seed={options.seed} sf={options.sf} "
          f"seconds={options.seconds} trace={int(options.trace)} "
          f"threads={int(values.get('threads', 0))} "
          f"loadgen threads={int(values.get('loadgen.threads', 0))} "
          f"connections={int(values.get('loadgen.connections', 0))} "
          f"cores={threads}")
    print(f"# attempted={attempted} failed={failed} "
          f"fail_ratio={values['fail_ratio']:.6g} "
          f"fingerprint={fingerprint} host_steal_share={steal_share:.4f}")
    print("# " + " ".join(
        f"{key}={values[key]:g}" for key in (
            "passes", "batch.contended_passes", "serve.contended_phases",
            "serve.invalid_rungs", "serve.backlog_rungs",
            "serve.v2_responses", "eval.positive_share") if key in values))
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": spec["unit"]}
            print(f"{name:34s} {values[name]:16.6f} {spec['unit']}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: a smaller warehouse, and a flipped
    # score bit that the output checks must catch.
    parser.add_argument("--sf", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    options = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running harness step is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if options.sf is None:
        options.sf = WORKLOAD_SF[options.workload]
    try:
        build()
        run(options)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, KeyError, ValueError) as error:
        log(f"perfbench: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the post-OPC timing flow.

One workload per process:

    python3 perfbench/run.py --workload chip_unique --seed 1 --seconds 36 --trace 0

builds the benchmark (perfbench/CMakeLists.txt, which builds the
repository's libraries from source) into .bench_build, characterizes the
cell library once per build into a file inside that build directory (an
untimed step), runs the workload and prints its metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.

    python3 perfbench/run.py --all [--smoke] [--seed N] [--seconds S]

runs every workload, untraced and traced, each in its own process, prints
every metric with its unit and fails unless every check passes.  --smoke
runs each workload at its smallest input, with the sample counts of a
5-second run unless --seconds says otherwise; with --all it is the
benchmark's own smoke test (about 20 s on 4 processors, build excluded).

    python3 perfbench/run.py --write-spec

writes BENCHMARK.json from the definitions below.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "poc_perfbench")
RUN_TIMEOUT_S = 170

# Why each workload is there, and which layer it loads and which it bypasses.
WORKLOADS = [
    ("chip_unique",
     "Seeded 100-gate random logic, 4 threads: OPC windows do not repeat "
     "(0 cache hits measured), so OPC and litho compute dominate. Loads "
     "opc/litho; bypasses cache reuse."),
    ("sta_query",
     "Warm TimingService on tiled2000 (10.7k gates), seeded closed-loop "
     "query stream; its repeated windows mostly hit the caches. Loads "
     "incremental STA, whatif extraction, cache; bypasses model-based OPC."),
    ("chip_sharded",
     "chip_unique's design and seed via run_sharded_flow, 2 fork/exec "
     "workers x 2 threads. Loads run journal, merge, replay and disk cache; "
     "bypasses in-process OPC."),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("flow_s", "s", "lower", 0.25),
    ("scan_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("query_p50_us", "us", "lower", 0.25),
    ("query_p99_us", "us", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("stdcell.load_s", "s", "lower"),
    ("netlist.generate_s", "s", "lower"),
    ("pnr.place_route_s", "s", "lower"),
    ("sta.clock_probe_s", "s", "lower"),
    ("core.flow_init_s", "s", "lower"),
    ("trace.setup_unattributed_s", "s", "lower"),
    ("core.warm_opc_s", "s", "lower"),
    ("cdx.warm_extract_s", "s", "lower"),
    ("device.warm_annotate_s", "s", "lower"),
    ("sta.make_service_s", "s", "lower"),
    ("sta.load_annotations_s", "s", "lower"),
    ("sta.tag_s", "s", "lower"),
    ("opc.run_s", "s", "lower"),
    ("opc.windows", "count", "lower"),
    ("opc.iterations", "count", "lower"),
    ("opc.windows_per_s", "1/s", "higher"),
    ("cdx.extract_s", "s", "lower"),
    ("device.annotate_s", "s", "lower"),
    ("sta.retime_s", "s", "lower"),
    ("trace.flow_s", "s", "lower"),
    ("trace.flow_unattributed_s", "s", "lower"),
    ("opc.scan_s", "s", "lower"),
    ("opc.scan_windows", "count", "lower"),
    ("cache.opc.hit_ratio", "ratio", "higher"),
    ("cache.opc.lookups", "count", "lower"),
    ("cache.latent.hit_ratio", "ratio", "higher"),
    ("cache.latent.lookups", "count", "lower"),
    ("cache.orc.hit_ratio", "ratio", "higher"),
    ("cache.orc.lookups", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("sta.slack_p50_us", "us", "lower"),
    ("sta.paths_p50_us", "us", "lower"),
    ("sta.retime_p50_us", "us", "lower"),
    ("sta.whatif_p50_us", "us", "lower"),
    ("sta.queries", "count", "higher"),
    ("sta.arrival_evals", "count", "lower"),
    ("sta.rank_critical_s", "s", "lower"),
    ("cdx.whatif_extract_s", "s", "lower"),
    ("device.whatif_annotate_s", "s", "lower"),
    ("sta.whatif_s", "s", "lower"),
    ("cache.latent.stream.hit_ratio", "ratio", "higher"),
    ("cache.latent.stream.lookups", "count", "lower"),
    ("trace.stream_s", "s", "lower"),
    ("trace.stream_unattributed_s", "s", "lower"),
    ("run.worker_max_s", "s", "lower"),
    ("run.worker_min_s", "s", "lower"),
    ("run.coordinator_tail_s", "s", "lower"),
    ("run.residual_windows", "count", "lower"),
    ("run.failed_workers", "count", "lower"),
    ("run.worker_peak_rss_mb", "MB", "lower"),
    ("cache.disk.publishes", "count", "lower"),
    ("cache.disk.hits", "count", "higher"),
    ("core.retries", "count", "lower"),
    ("core.degraded_windows", "count", "lower"),
    ("core.fail_ratio", "ratio", "lower"),
    ("run.nproc", "count", "higher"),
    ("run.threads", "count", "higher"),
    ("run.workers", "count", "higher"),
    ("run.setup_reps", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.span_cost_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

RUN_SECONDS = 36


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr so
    that the result stays the last line of stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree next to perfbench/ (expected src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "poc_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def library():
    """The cell library of this build: characterized once, outside any
    timed run, into a file named after the binary's hash, so a run never
    loads a library another build characterized."""
    with open(BINARY, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(BUILD, "perfbench", "cells-%s.lib" % digest)
    if not os.path.isfile(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for stale in glob.glob(os.path.join(os.path.dirname(path), "cells-*")):
            os.remove(stale)
        tmp = "%s.%d.tmp" % (path, os.getpid())
        subprocess.run([BINARY, "--characterize", tmp], stdout=sys.stderr,
                       check=True)
        os.replace(tmp, path)
    return path


def run_child(argv):
    """Runs one workload process in its own session; on a timeout the whole
    session (the workload and any shard workers) is killed and reaped."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out


def run_workload(name, seed, seconds, trace, smoke, lib):
    """Runs one workload in its own process and returns (stdout, result)."""
    work = os.path.join(BUILD, "perfbench", "runs", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [BINARY, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--lib", lib, "--work-dir", work,
            "--scale", "smoke" if smoke else "full"]
    try:
        code, out = run_child(argv)
        if trace and os.path.isfile(os.path.join(work, "trace.json")):
            os.replace(os.path.join(work, "trace.json"),
                       os.path.join(BUILD, "perfbench", name + ".trace.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("workload %s exited with code %d" % (name, code))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("workload %s printed no result line" % name)
    expected = PER_LAYER if trace else END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m[0]: m[1] for m in expected}
    if got != want:
        fail("workload %s reported metrics %s, expected %s" % (name, got, want))
    return out, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w[0] for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs (the smoke test)")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json")
    args = ap.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    if not args.all and not args.workload:
        ap.error("give --workload, --all or --write-spec")

    if args.seconds is None:
        args.seconds = 5 if args.smoke else RUN_SECONDS
    build()
    lib = library()
    if not args.all:
        out, _ = run_workload(args.workload, args.seed, args.seconds,
                              args.trace == 1, args.smoke, lib)
        sys.stdout.write(out)
        return 0

    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        if json.load(f) != spec():
            print("BENCHMARK.json differs from run.py; rerun --write-spec")
            ok = False
    for name, _ in WORKLOADS:
        results = []
        for trace in (False, True):
            out, result = run_workload(name, args.seed, args.seconds, trace,
                                       args.smoke, lib)
            print("== %s (%s)" % (name, "traced" if trace else "untraced"))
            for line in out.strip().splitlines()[:-1]:
                print("   " + line)
            passed = result["correct"] and result["failed"] == 0
            print("   correct=%s attempted=%d failed=%d"
                  % (result["correct"], result["attempted"], result["failed"]))
            ok = ok and passed
            results.append(result["metrics"])
        # Same seed, same work: the traced flow against the untraced one.
        # One pair of runs, so host noise of a few percent dominates; the
        # traced run's own trace.overhead_pct is the recording cost alone.
        plain, traced = results
        print("   traced flow %.3f s vs untraced %.3f s (%+.1f%%)" % (
            traced["trace.flow_s"]["value"], plain["flow_s"]["value"],
            100.0 * (traced["trace.flow_s"]["value"] /
                     plain["flow_s"]["value"] - 1.0)))
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Closed-loop service benchmark: build, run one workload, report.

    python3 svcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository's library, tools/trace_report and the svcbench
load generator from source into .bench_build/ (CMake, Release), runs one
workload and prints, as the LAST line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, folded from the load generator's span chunks with
trace_report's self-time table. Exits non-zero, without a result line,
when the build fails (for example when the repository's sources are not
beside this directory) and with status 1 after the result line when an
answer or a workload-validity check was wrong. See README.md.
"""

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "svcbench")
GENERATOR = os.path.join(BUILD_DIR, "svcbench")
TRACE_REPORT = os.path.join(BUILD_DIR, "streamrel", "tools", "trace_report")
WORKLOADS = ("whatif_mix", "cold_onboard", "churn_durable")
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "batch_qps": "1/s",
}

PER_LAYER = {
    "api.decode_us": "us",
    "api.encode_us": "us",
    "server.interactive_queue_ms": "ms",
    "server.bulk_queue_ms": "ms",
    "server.service_self_ms": "ms",
    "server.register_ms": "ms",
    "server.shed": "count",
    "server.rejected": "count",
    "core.accumulate_ms": "ms",
    "core.query_prepare_ms": "ms",
    "core.batch_prepare_ms": "ms",
    "core.batch_accumulate_ms": "ms",
    "core.cache_hit_ratio": "ratio",
    "core.side_array_ms": "ms",
    "core.assignments_ms": "ms",
    "core.lanes_wordwise_ratio": "ratio",
    "cuts.partition_search_ms": "ms",
    "maxflow.calls_per_op": "count",
    "maxflow.residue_per_op": "count",
    "graph.parse_ms": "ms",
    "graph.compile_ms": "ms",
    "graph.apply_delta_ms": "ms",
    "core.session_delta_ms": "ms",
    "core.invalidation_survival": "ratio",
    "core.salvaged_sides": "count",
    "persist.journal_ms": "ms",
    "persist.checkpoint_ms": "ms",
    "persist.bytes_per_event": "B",
    "obs.scrape_ms": "ms",
    "obs.series": "count",
    "proc.cpu_ms_per_op": "ms",
    "trace.overhead_pct": "%",
}

# Spans svcbench records on its generator thread; the thread that
# records any of them is the generator's.
GENERATOR_SPANS = {"svc.submit", "svc.register", "svc.apply_delta",
                   "svc.persist", "svc.stats", "obs.scrape", "api.decode"}
BATCH_SPANS = {"batch_prepare", "batch_accumulate", "batch_finalize"}
SIDE_ARRAY_SPANS = ("side_array_s", "side_array_t", "build_side_array",
                    "side_sweep_shard")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the two targets; output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("svcbench: the repository's sources are not beside svcbench/")
        return False
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "svcbench", "trace_report"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("svcbench: build step failed: " + " ".join(step))
            return False
    return True


# --- traced run: fold spans into layers ------------------------------------

def split_chunk(events):
    """Splits one chunk's complete events into generator, foreground-worker
    and bulk-worker lanes (bulk = inside a batch_* span on its thread)."""
    generator = {e["tid"] for e in events if e["name"] in GENERATOR_SPANS}
    batch_spans = {}
    for e in events:
        if e["name"] in BATCH_SPANS:
            batch_spans.setdefault(e["tid"], []).append(
                (e["ts"], e["ts"] + e["dur"]))
    gen, fg, bulk = [], [], []
    for e in events:
        if e["tid"] in generator:
            gen.append(e)
            continue
        inside = any(lo <= e["ts"] and e["ts"] + e["dur"] <= hi
                     for lo, hi in batch_spans.get(e["tid"], ()))
        if inside or e["name"] == "api.encode.bulk":
            bulk.append(e)
        else:
            fg.append(e)
    return gen, fg, bulk


def self_times(bundle_path):
    """trace_report's self-time table as
    {span: (count, total_ms, self_ms, category)}."""
    out = subprocess.run([TRACE_REPORT, bundle_path, "--csv"],
                         capture_output=True, text=True, check=True).stdout
    return {row["span"]: (int(row["count"]), float(row["total_ms"]),
                          float(row["self_ms"]), row["category"])
            for row in csv.DictReader(io.StringIO(out))}


def fold_trace(trace_dir):
    lanes = {"gen": [], "fg": [], "bulk": []}
    hits = lookups = 0
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as f:
            events = [e for e in json.load(f)["traceEvents"]
                      if e.get("ph") == "X"]
        gen, fg, bulk = split_chunk(events)
        for key, part in (("gen", gen), ("fg", fg), ("bulk", bulk)):
            lanes[key].append(json.dumps({"traceEvents": part}))
        for e in fg:
            if e["name"] == "query_prepare":
                args = e.get("args", {})
                hits += args.get("cache_hits", 0)
                lookups += args.get("cache_hits", 0) + args.get("cache_misses", 0)
    tables = {}
    for key, docs in lanes.items():
        path = os.path.join(trace_dir, key + ".bundle")
        with open(path, "w") as f:
            f.write("\n".join(docs) + "\n")
        tables[key] = self_times(path)
    return tables, hits, lookups


def print_top_spans(tables, ops):
    """The largest self times per lane, per foreground op (diagnostic)."""
    for lane in ("fg", "gen", "bulk"):
        rows = sorted(tables[lane].items(), key=lambda kv: -kv[1][2])[:5]
        print("self time, %s lane, ms per op: %s" % (lane, ", ".join(
            "%s %.4g" % (name, row[2] / ops) for name, row in rows)))


def layer_metrics(workload, counters, tables, hits, lookups):
    gen, fg, bulk = tables["gen"], tables["fg"], tables["bulk"]
    ops = max(1.0, counters["traced_ops"])
    batches = max(1.0, counters["traced_batches"])

    def own(table, name):
        return table.get(name, (0, 0.0, 0.0, ""))[2]

    def total(table, name):
        return table.get(name, (0, 0.0, 0.0, ""))[1]

    def per_call(table, name):
        count, tot = table.get(name, (0, 0.0, 0.0, ""))[:2]
        return tot / count if count else 0.0

    # Library spans on the worker threads: the time execute() spends
    # below the service layer's own code.
    library = sum(row[2] for row in fg.values() if row[3] != "bench")
    m = dict(counters)
    m.update({
        "api.decode_us": 1000.0 * total(gen, "api.decode") / ops,
        "api.encode_us": 1000.0 * total(fg, "api.encode") / ops,
        "server.service_self_ms": (counters["exec_solve_ms"] - library)
        / max(1.0, counters["exec_solve_count"]),
        "server.register_ms": per_call(gen, "svc.register"),
        "core.accumulate_ms": own(fg, "accumulate") / ops,
        "core.query_prepare_ms": own(fg, "query_prepare") / ops,
        "core.batch_prepare_ms": total(bulk, "batch_prepare") / batches,
        "core.batch_accumulate_ms": total(bulk, "batch_accumulate") / batches,
        "core.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.side_array_ms": sum(own(fg, n) for n in SIDE_ARRAY_SPANS) / ops,
        "core.assignments_ms": own(fg, "assignments") / ops,
        "cuts.partition_search_ms": own(fg, "partition_search") / ops,
        "graph.parse_ms": per_call(gen, "graph.parse"),
        "graph.compile_ms": per_call(gen, "graph.compile"),
        # Churn: one op is one event; the spans are absent elsewhere.
        "graph.apply_delta_ms": own(gen, "apply_delta") / ops,
        "core.session_delta_ms": own(gen, "session_delta") / ops,
        "persist.journal_ms": (total(gen, "svc.apply_delta")
                               - total(gen, "session_delta")) / ops,
        "persist.checkpoint_ms": per_call(gen, "svc.persist"),
        "obs.scrape_ms": per_call(gen, "obs.scrape"),
    })
    # Validity the spans can show: a warm what-if never searches for a
    # partition; an onboarding never hits the cache.
    problems = []
    if workload == "whatif_mix":
        searches = sum(t["partition_search"][0] for t in tables.values()
                       if "partition_search" in t)
        if searches or m["core.cache_hit_ratio"] != 1.0:
            problems.append("whatif_mix traced run searched %d partitions, "
                            "hit ratio %r" % (searches, m["core.cache_hit_ratio"]))
    if workload == "cold_onboard" and hits:
        problems.append("cold_onboard traced run had %d cache hits" % hits)
    return {name: m[name] for name in PER_LAYER}, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 2

    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    trace_dir = os.path.join(ROOT, ".bench_build", "trace-%d" % os.getpid())
    command = [GENERATOR, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--work-dir=" + work_dir]
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        command.append("--trace-dir=" + trace_dir)
    try:
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("svcbench: the load generator timed out")
            return 3
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log("svcbench: the load generator exited with status %d"
                % proc.returncode)
            return 3
        for line in lines[:-1]:
            print(line)
        raw = json.loads(lines[-1])
        correct = raw["correct"]
        if args.trace:
            tables, hits, lookups = fold_trace(trace_dir)
            print_top_spans(tables, max(1.0, raw["layer_counters"]["traced_ops"]))
            values, problems = layer_metrics(args.workload,
                                             raw["layer_counters"], tables,
                                             hits, lookups)
            for problem in problems:
                print("VALIDITY " + problem)
            correct = correct and not problems
            units = PER_LAYER
        else:
            values, units = raw["end_to_end"], END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(trace_dir, ignore_errors=True)

    result = {
        "correct": bool(correct),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

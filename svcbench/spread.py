#!/usr/bin/env python3
"""Run-to-run spread of the service benchmark.

    python3 svcbench/spread.py --workload NAME [--runs 10] [--sets 1]
                               [--seed 1] [--seconds S]

Runs svcbench/run.py --trace 0 --runs times per set, each run with its
own seed (set k uses seeds seed + 1000*k + i), and prints for every
end-to-end metric the median, the first and third quartiles
(statistics.quantiles(n=4)) and the quartile distance as a share of the
median. With --sets 2 it also
prints how far the second set's median moved from the first's, which
is how two sets of runs of the same code are shown to agree. Bounds are
read from BENCHMARK.json beside svcbench/ when it exists: a spread
above a third of the bound, or a drift above the bound, is flagged.
--seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("run with seed %d failed (status %d)"
                         % (seed, proc.returncode))
    result = json.loads(lines[-1])
    host = [line for line in lines if line.startswith("host.spin_rate")]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, host[0] if host else ""


def summarize(runs):
    table = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        table[name] = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else 0.0}
    return table


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec.get("run_seconds", 10))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}

    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.seed + 1000 * k + i
            values, host = one_run(args.workload, seed, args.seconds)
            runs.append(values)
            print("set %d run %d seed %d: %s  [%s]" % (
                k + 1, i + 1, seed, json.dumps(values, sort_keys=True), host),
                flush=True)
        sets.append(summarize(runs))

    print("\n%s, %d runs x %d set(s), %gs each" % (args.workload, args.runs,
                                                  args.sets, args.seconds))
    header = "%-28s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3",
                                           "spread")
    if args.sets == 2:
        header += " %12s %8s" % ("median2", "drift")
    print(header)
    flagged = False
    for name, s in sets[0].items():
        line = "%-28s %12.6g %12.6g %12.6g %7.1f%%" % (
            name, s["median"], s["q1"], s["q3"], 100 * s["spread"])
        bound = bounds.get(name)
        notes = []
        if bound and s["spread"] > bound["bound"] / 3:
            notes.append("spread > bound/3")
        if args.sets == 2:
            m2 = sets[1][name]["median"]
            worse = m2 - s["median"] if bound and bound["better"] == "lower" \
                else s["median"] - m2
            drift = worse / s["median"] if s["median"] else 0.0
            line += " %12.6g %7.1f%%" % (m2, 100 * drift)
            if bound and drift > bound["bound"]:
                notes.append("drift > bound")
        if notes:
            flagged = True
            line += "  <- " + ", ".join(notes)
        print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

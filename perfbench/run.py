#!/usr/bin/env python3
"""Build and run the whole-job benchmark, or compare saved runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-4k --seed 1 --seconds 20 --trace 0

builds perfbench/ (a Go module that builds the simulator from this
checkout) into .bench_build/, runs it with the given arguments, passes
its output through, and saves the output under .bench_build/reports/.
The last line of standard output is the run's JSON result.

    python3 perfbench/run.py compare DIR_A DIR_B

compares two directories of saved reports workload by workload (median
and quartiles of every metric over the runs of each side). It refuses
when the two sides' host facts (nproc, GOMAXPROCS, Go version) differ.

    python3 perfbench/run.py spread DIR

prints, per workload and metric, the median and the quartile spread
(Q3 - Q1) / median of the saved runs in DIR.

Every file the build and the runs write stays inside .bench_build/.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
HOST_KEYS = ("nproc", "gomaxprocs", "go_version")


def build():
    """Build the benchmark binary; the Go caches live in .bench_build."""
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        # HOME and XDG_CONFIG_HOME keep the go command's own state files
        # (telemetry counters, env file) inside the checkout too.
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    proc = subprocess.run(
        ["go", "build", "-trimpath", "-o", BINARY, "."],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=840,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: build failed\n")
        sys.exit(proc.returncode or 1)


def run(args):
    build()
    proc = subprocess.run(
        [BINARY] + args, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    name = "run-%d-%d.jsonl" % (time.time_ns(), os.getpid())
    with open(os.path.join(reports, name), "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def load(directory):
    """Saved runs in directory: a list of (host, report, result) triples."""
    runs = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        if not lines or "metrics" not in lines[-1]:
            continue  # a failed or unfinished run
        host = next(l["host"] for l in lines if "host" in l)
        report = next(l["report"] for l in lines if "report" in l)
        runs.append((host, report, lines[-1]))
    return runs


def summarize(runs):
    """{(workload, trace): {metric: [values]}}"""
    out = {}
    for host, _, res in runs:
        key = (host["workload"], host["trace"])
        for m, v in res["metrics"].items():
            out.setdefault(key, {}).setdefault(m, []).append(v["value"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(directory):
    for (wl, trace), metrics in sorted(summarize(load(directory)).items()):
        print("%s trace=%d" % (wl, trace))
        for m, xs in sorted(metrics.items()):
            q1, q2, q3 = quartiles(xs)
            rel = (q3 - q1) / q2 if q2 else 0.0
            print("  %-32s n=%-3d median=%-14.6g spread=%.4f" % (m, len(xs), q2, rel))
    return 0


def compare(dir_a, dir_b):
    a, b = load(dir_a), load(dir_b)
    facts = set()
    for host, _, _ in a + b:
        facts.add(tuple(host[k] for k in HOST_KEYS))
    if len(facts) != 1:
        sys.stderr.write("run.py: refusing to compare runs with different host facts %s: %s\n"
                         % (HOST_KEYS, sorted(facts)))
        return 1
    sa, sb = summarize(a), summarize(b)
    for key in sorted(set(sa) & set(sb)):
        print("%s trace=%d" % key)
        for m in sorted(set(sa[key]) & set(sb[key])):
            qa, qb = quartiles(sa[key][m]), quartiles(sb[key][m])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print("  %-32s A %-12.6g [%.6g, %.6g]  B %-12.6g [%.6g, %.6g]  %+.2f%%"
                  % (m, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100 * change))
    return 0


def main(argv):
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["spread"] and len(argv) == 2:
        return spread(argv[1])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

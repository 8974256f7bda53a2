#!/usr/bin/env python3
"""Serve-path benchmark entry point.

Builds `geobrowse` and the `servebench` harness from source, then runs one
workload:

    python3 servebench/run.py --workload pan-zoom --seed 1 --seconds 10 --trace 0

The last line of standard output is the harness's JSON result. With
`--repeat K` the workload runs K times back to back (seeds seed..seed+K-1)
and the script prints each metric's median, quartiles and spread
(interquartile range over median) instead.

Run it from the root of a checkout; build outputs go to
$CARGO_TARGET_DIR (default `.bench_build`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "geobrowse"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode or 1)
    release = os.path.join(target, "release")
    return os.path.join(release, "geobrowse"), os.path.join(release, "servebench")


def run_once(harness, server, args, seed, capture):
    cmd = [
        harness,
        "--server", server,
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if not capture:
        return subprocess.run(cmd).returncode, None
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result


def steadiness(results):
    """Median, quartiles and spread of every metric over the runs."""
    print("\nmetric                      median          q1          q3   spread")
    summary = {}
    names = results[0]["metrics"].keys()
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        print(f"{name:<24} {med:>12.4f} {q1:>11.4f} {q3:>11.4f} {spread:>8.3f}  {unit}")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print("failed/attempted per run:", [f"{f}/{a}" for f, a in shares],
          "shares:", sorted({round(f / a, 9) for f, a in shares}))
    print(json.dumps({"runs": len(results), "correct": all(r["correct"] for r in results),
                      "metrics": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1,
                   help="run K times back to back and print each metric's spread")
    args = p.parse_args()
    server, harness = build()
    if args.repeat <= 1:
        code, _ = run_once(harness, server, args, args.seed, capture=False)
        sys.exit(code)
    results = []
    for i in range(args.repeat):
        code, result = run_once(harness, server, args, args.seed + i, capture=True)
        if code != 0 or result is None:
            sys.exit(code or 1)
        results.append(result)
    steadiness(results)


if __name__ == "__main__":
    main()

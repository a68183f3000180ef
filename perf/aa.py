#!/usr/bin/env python3
"""Runs the whole benchmark and judges whether its numbers repeat.

    python3 perf/aa.py                 # every workload once, both trace modes
    python3 perf/aa.py --aa 3          # 3 interleaved A/A pairs per workload
    python3 perf/aa.py --aa 10 --workload net-drift

Run from the repository root. Everything it needs comes from
BENCHMARK.json: the command, the workloads, the metrics, the bounds.

Without --aa it is the "one command": each workload runs untraced
(end-to-end metrics) and traced (per-layer metrics), every metric is
printed with its unit, and perf/out/results.json is written.

With --aa N it makes the acceptance check the driver makes. Each
workload runs 2N times untraced, alternating between set A and set B,
every run with another seed (A and B are the same code: any gap is
noise). For each workload/metric it prints both medians, their gap, the
spread of each set (interquartile range over median) and the bound, and
exits 1 if a spread or a gap exceeds its bound. `setup_s` is judged on
its gap only. Aim for spreads below a third of the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def once(bench, workloads, seed):
    rows = []
    for w in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(bench, w, seed, trace)
            for spec in bench[kind]:
                m = result["metrics"][spec["name"]]
                rows.append({"workload": w, "kind": kind, "name": spec["name"],
                             "value": m["value"], "unit": m["unit"]})
                print(f"{w + '/' + spec['name']:<58} {m['value']:>16.4f} {m['unit']}")
    out = pathlib.Path("perf/out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps({"seed": seed, "metrics": rows}, indent=1))
    print("wrote perf/out/results.json")


def aa(bench, workloads, pairs, seed):
    bad = 0
    for w in workloads:
        sets = ({}, {})
        for i in range(2 * pairs):
            # A B B A A B …: neither set always runs first.
            side = (i + i // 2) % 2
            result = run(bench, w, seed + i, 0)
            for name, m in result["metrics"].items():
                sets[side].setdefault(name, []).append(m["value"])
            print(f"  {w} run {i + 1}/{2 * pairs} done", file=sys.stderr)
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a, b = sets[0][name], sets[1][name]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            sa, sb, sab = spread(a), spread(b), spread(a + b)
            over = abs(worse) > bound or (name != "setup_s" and max(sa, sb) > bound)
            bad += over
            print(f"{w + '/' + name:<42} A {ma:>12.4f} B {mb:>12.4f} gap {worse:>+7.2%} "
                  f"spread {sa:>6.2%} {sb:>6.2%} both {sab:>6.2%} bound {bound:>4.0%} "
                  f"{'FAIL' if over else 'ok' if max(sa, sb) <= bound / 3 else 'ok (spread > bound/3)'}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--aa", type=int, default=0, metavar="N", help="run N interleaved A/A pairs per workload")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=1, help="first seed (default 1)")
    args = ap.parse_args()
    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.aa:
        sys.exit(1 if aa(bench, workloads, args.aa, args.seed) else 0)
    once(bench, workloads, args.seed)


if __name__ == "__main__":
    main()

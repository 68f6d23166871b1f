"""Steadiness check: run workloads k times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 --first-seed 101
    python3 perfbench/steady.py --workload cold-queries --runs 5 --save a.json
    python3 perfbench/steady.py --runs 10 --first-seed 201 --compare a.json

Every run is ``perfbench/run.py`` with its own seed (``first-seed``,
``first-seed + 1``, ...), one at a time, with the command and run length
from BENCHMARK.json.  For each end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread -- the
interquartile distance as a share of the median -- and that spread
against the metric's bound.  ``--compare`` also prints how far each
median moved from an earlier saved set, as a share of the earlier
median and against the bound (worse direction only).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(spec: dict, workload: str, results: list, earlier: "dict | None") -> bool:
    print(f"\n{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)} operations")
    print(f"  {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6} {'spread/bound':>12}"
          + ("  median moved/bound" if earlier else ""))
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        line = (f"  {name:16} {med:11.4f} {q1:11.4f} {q3:11.4f} {spread:8.3f} {bound:6.2f} "
                f"{spread / bound:12.2f}")
        if spread > bound:
            ok = False
            line += " OVER"
        if earlier and name in earlier:
            before = statistics.median(earlier[name])
            worse = (med - before) / before
            if metric["better"] == "higher":
                worse = -worse
            line += f"  {worse:+.3f} ({worse / bound:+.2f})"
            if worse > bound:
                ok = False
                line += " WORSE"
        print(line)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the per-run values to this JSON file")
    parser.add_argument("--compare", help="an earlier --save file to compare medians with")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)
    saved = {}
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            result = run_once(spec, workload, args.first_seed + i, seconds)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        saved[workload] = {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                           for m in spec["end_to_end"]}
        ok &= summarise(spec, workload, results, earlier.get(workload))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(saved, handle, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

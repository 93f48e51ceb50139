#!/usr/bin/env python3
"""Alternated A/B pairs of the benchmark: a base commit against this checkout.

    python3 tools/ab_bench.py --base HEAD --workload readme-300 --pairs 5 --seconds 30

Run from anywhere inside a checkout; uses the standard library only. The
base commit's files are extracted (`git archive`) into a temporary directory,
removed when the script ends. Each pair runs `bench/run.py --trace 0` once in
the base tree and once in this checkout, one after the other, and the order
switches every pair, so a drift in machine speed does not favour one side.

The script refuses to run unless `bench/` and `BENCHMARK.json` in this
checkout equal the base commit's: both sides must be measured by the same
benchmark. It prints each run's end-to-end metrics, then for each metric the
median of each side, their relative change (change / base - 1), the base's
interquartile distance and the number of pairs the change won (by the
metric's "better" direction in BENCHMARK.json), over the pairs whose two
runs both ended correct. A metric whose change median is worse than the base
median by more than its "bound" in BENCHMARK.json is marked "worse past its
bound"; one whose base quartile distance is wider than its bound is marked
"unresolved", unless every change run is better than every base run; and one
the change won in at least 9 of every 10 pairs, over at least 10 pairs, with
medians further apart than the base's quartile distance, is marked "gain
holds". It exits 1 if any run fails or ends `"correct": false`. With `--out
FILE` it also writes every run's result and each workload's summary rows
to FILE as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=False)


def same_benchmark(root: Path, ref: str) -> str | None:
    """Why this checkout's benchmark differs from ref's, or None."""
    if git(root, "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}").returncode != 0:
        return f"{ref} names no commit"
    if git(root, "diff", "--quiet", ref, "--", "bench", "BENCHMARK.json").returncode != 0:
        return f"bench/ or BENCHMARK.json differ from {ref}'s; both sides must run one benchmark"
    untracked = git(root, "ls-files", "--others", "--exclude-standard", "--", "bench").stdout
    if untracked.strip():
        return f"untracked files under bench/: {untracked.decode().split()}"
    return None


def extract(root: Path, ref: str, into: Path):
    """Write ref's committed files under `into`."""
    done = git(root, "archive", "--format=tar", ref)
    if done.returncode != 0:
        sys.exit(f"ab_bench: git archive {ref} failed: {done.stderr.decode().strip()}")
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}  # Python >= 3.10.12
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, **safe)


def run_bench(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One `bench/run.py --trace 0` run in `tree`: its final JSON object, or
    {"correct": False, ...} if it failed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if done.returncode != 0 or not result.get("correct"):
        print(f"ab_bench: run in {tree} failed (exit {done.returncode}):\n{done.stderr}",
              file=sys.stderr)
        result["correct"] = False
    return result


def quartile_distance(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(pairs: list[dict], spec: list[dict]) -> list[dict]:
    """Print, and return, per metric: each side's median, the relative
    change of the medians (change / base - 1), the base's quartile distance,
    and the pairs in which the change was better by the metric's "better"
    direction. A printed row is marked when the change median is worse than
    the base median by more than the metric's "bound" (a share of the base
    median), if it has one; when the base's quartile distance is wider than
    that bound and the two sides' runs overlap ("unresolved"); and when the
    change won at least 9/10 of at least 10 pairs by a median gain wider than
    the base's quartile distance ("gain holds"). A pair with a failed or
    incorrect run on either side is skipped."""
    good = [p for p in pairs if p["base"]["correct"] and p["change"]["correct"]]
    if len(good) < len(pairs):
        print(f"  {len(pairs) - len(good)} of {len(pairs)} pairs skipped: a run failed")
    print(f"  {'metric':<16} {'base median':>12} {'change median':>14} {'rel change':>11} "
          f"{'base IQR':>10} {'change wins':>12}")
    rows = []
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        got = [(p["base"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
               for p in good if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not got:
            continue
        base = statistics.median(b for b, _ in got)
        change = statistics.median(c for _, c in got)
        row = {"metric": name, "base": base, "change": change,
               "relative": change / base - 1 if base else math.nan,
               "base_iqr": quartile_distance([b for b, _ in got]),
               "wins": sum((c > b) if higher else (c < b) for b, c in got), "pairs": len(got)}
        rows.append(row)
        worse = -row["relative"] if higher else row["relative"]
        bound = m.get("bound")
        marks = []
        if bound is not None and worse > bound:
            marks.append(f"worse past its bound {bound:.1%}")
        bases, changes = [b for b, _ in got], [c for _, c in got]
        apart = min(changes) > max(bases) if higher else max(changes) < min(bases)
        if bound is not None and row["base_iqr"] > bound * abs(base) and not apart:
            marks.append("unresolved")
        gain = change - base if higher else base - change
        if len(got) >= 10 and row["wins"] >= 0.9 * len(got) and gain > row["base_iqr"]:
            marks.append("gain holds")
        print(f"  {name:<16} {base:>12.6g} {change:>14.6g} {row['relative']:>+11.2%} "
              f"{row['base_iqr']:>10.3g} {row['wins']:>6} of {len(got)}"
              + "".join(f"  {mark}" for mark in marks))
    return rows


def main(argv=None) -> int:
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").stdout.decode().strip()
                or ".").resolve()
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default every workload)")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", default=None,
                    help="directory for the base tree (default: the system temp directory)")
    ap.add_argument("--out", default=None,
                    help="also write every run and the summary rows to this JSON file")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("need --pairs >= 1 and --seconds > 0")
    if args.out and not Path(args.out).resolve().parent.is_dir():
        ap.error(f"--out {args.out}: no such directory")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    problem = same_benchmark(root, args.base)
    if problem:
        sys.exit(f"ab_bench: {problem}")

    correct = True
    report = {"base": args.base, "seconds": args.seconds, "seed": args.seed, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab_bench_", dir=args.workdir) as tmp:
        base_tree = Path(tmp) / "base"
        extract(root, args.base, base_tree)
        sides = {"base": base_tree, "change": root}
        for workload in workloads:
            print(f"# {workload}: {args.pairs} pairs of {args.seconds:g} s, base {args.base}",
                  flush=True)
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    pair[side] = run_bench(sides[side], workload, args.seconds, args.seed)
                    correct = correct and pair[side]["correct"]
                    values = " ".join(f"{k}={v['value']:.6g}"
                                      for k, v in pair[side]["metrics"].items())
                    print(f"  pair {i + 1} {side:<6} correct={pair[side]['correct']} {values}",
                          flush=True)
                pairs.append(pair)
            rows = summarize(pairs, bench["end_to_end"])
            report["workloads"][workload] = {"pairs": pairs, "summary": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)  # a relative change from a 0 median is NaN
    if not correct:
        print("ab_bench: a run failed or was not correct", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads readme-300 --seeds 0-9 [--out FILE]

For each workload and end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance between
the first and third quartile as a share of the median, next to the bound in
BENCHMARK.json. A steady benchmark keeps every spread below a third of its
bound. Runs are sequential, one process at a time. `--out` writes the runs
and the summary as JSON, which serves as a BENCH baseline file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    report = {"python": platform.python_version(), "run_seconds": bench["run_seconds"],
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds(args.seeds):
            r = run_once(name, seed, bench["run_seconds"])
            runs.append({"seed": seed, **r})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{name} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {vals}", flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            summary[metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"  {metric:<24} median {s['median']:.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag, flush=True)
        raw = [json.loads(line.split("raw (unscaled) ", 1)[1])
               for r in runs for line in r["info"] if "raw (unscaled) " in line]
        for metric in raw[0] if raw else ():
            s = summarize([x[metric] for x in raw])
            print(f"  raw {metric:<20} median {s['median']:.6g} spread {s['spread']:.4f}")
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in runs)
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload compare-n12 --seeds 0-9
    python3 perfbench/sweep.py --workload all --seeds 0-9 --out perfbench/baseline

Runs perfbench/run.py once per seed, one run at a time, with
BENCHMARK.json's run_seconds.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over median) next to the metric's bound.  It also
pools the op times of all runs into the p50 and the tail: the highest
percentile with at least ten samples beyond it, with its sample count,
and gives the p50 of the uncorrected wall times next to them.
With ``--out DIR`` the summary is written to ``DIR/<workload>[-trace].json``.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> "list[int]":
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def pooled_tail(times):
    """(value, percentile, samples) of the highest percentile with at least
    ten samples beyond it; None when there are fewer than 11 samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("# provenance "):
            info["provenance"] = json.loads(line[len("# provenance "):])
        elif line.startswith("# op_times "):
            info["op_times"] = json.loads(line[len("# op_times "):])
        elif line.startswith("# op_wall_times "):
            info["op_wall_times"] = json.loads(line[len("# op_wall_times "):])
    return result, info


def summarise(workload, seeds, seconds, trace, bounds):
    runs = []
    for seed in seeds:
        result, info = run_once(workload, seed, seconds, trace)
        runs.append({"seed": seed, "result": result, **info})
        digest = str(info["provenance"]["output_sha256"])[:16]
        print(f"  seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"sha256={digest}", flush=True)
    summary = {"workload": workload, "trace": trace, "seconds": seconds,
               "seeds": seeds, "metrics": {}, "runs": runs}
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary["metrics"][name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bounds.get(name),
        }
    times = [t for r in runs for t in r.get("op_times", [])]
    if times:
        tail = pooled_tail(times)
        summary["pooled_op_s"] = {
            "samples": len(times),
            "p50": statistics.median(times),
            "tail": None if tail is None else {"value": tail[0], "percentile": tail[1]},
            "wall_p50": statistics.median(t for r in runs for t in r["op_wall_times"]),
        }
    return summary


def print_summary(summary):
    print(f"{summary['workload']} (trace {summary['trace']}, "
          f"{len(summary['seeds'])} seeds, {summary['seconds']} s per run)")
    for name, m in summary["metrics"].items():
        bound = m["bound"]
        flag = ""
        if bound is not None and m["spread"] > bound / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"  {name:32s} median {m['median']:.6g} {m['unit']:9s} "
              f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}"
              f"{'' if bound is None else f' bound {bound}'}{flag}")
    pooled = summary.get("pooled_op_s")
    if pooled:
        tail = pooled["tail"]
        tail_text = ("n/a" if tail is None
                     else f"{tail['value']:.6g} s at p{tail['percentile']:.1f}")
        print(f"  pooled op_s: p50 {pooled['p50']:.6g} s, tail {tail_text}, "
              f"{pooled['samples']} samples; wall-clock p50 {pooled['wall_p50']:.6g} s")
    bad = [r["seed"] for r in summary["runs"] if not r["result"]["correct"]]
    print(f"  runs not correct: {bad or 'none'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seeds", default="0-9", help="'a-b' or a comma list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="directory for the JSON summaries")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    for workload in names:
        summary = summarise(workload, parse_seeds(args.seeds), seconds, args.trace, bounds)
        print_summary(summary)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            suffix = "-trace" if args.trace else ""
            (out / f"{workload}{suffix}.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

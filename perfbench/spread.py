"""Run the benchmark over several seeds and report medians and quartile spreads.

    python3 perfbench/spread.py --seeds 1-10 [--out FILE]

For every workload in BENCHMARK.json, each run is ``run.py --workload W
--seed S --seconds <run_seconds> --trace 0``, one at a time. For every
end-to-end metric the spread is (q3 - q1) / median over the seeds, with
quartiles from ``statistics.quantiles(values, n=4)``; the check fails when
it exceeds the metric's bound in BENCHMARK.json. Each workload also gets
two traced runs on the first seed, whose counts must be identical, and
their per-layer metrics are kept. ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import TRACED

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    env = next(line for line in done.stdout.splitlines() if line.startswith("env "))
    result["env"] = json.loads(env[4:])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: incorrect output\n{done.stdout}{done.stderr}", file=sys.stderr)
    return result


def _counts(result: dict) -> dict:
    """Per-layer metrics that must repeat exactly: all but the seconds."""
    return {k: v["value"] for k, v in result["metrics"].items() if not k.endswith("_s")}


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    report = {
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "layer_map": {t.name: t.moves for t in TRACED},
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, bench["run_seconds"], 0))
            print(f"{name} seed {seed}: attempted {runs[-1]['attempted']}", file=sys.stderr, flush=True)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "env": runs[0]["env"],
            "host_scale": [r["env"]["host_scale"] for r in runs],
            "end_to_end": {},
        }
        ok = ok and entry["correct"]
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] <= bound / 3 else "  <-- above bound/3"
            ok = ok and stats["spread"] <= bound
            print(f"{name:22s} {metric:16s} median {stats['median']:.6g}  spread {stats['spread']:.4f}  bound {bound}{flag}")
        first, second = (run_once(name, seeds[0], bench["run_seconds"], 1) for _ in range(2))
        layer = {k: v["value"] for k, v in first["metrics"].items()}
        entry["trace_counts_repeat"] = _counts(first) == _counts(second)
        entry["per_layer"] = layer
        ok = ok and entry["trace_counts_repeat"] and first["correct"] and second["correct"]
        print(f"{name:22s} traced counts repeat across two runs: {entry['trace_counts_repeat']}; "
              f"overhead {layer['trace.overhead_s']:.3f} s of {layer['trace.untraced_s']:.3f} s")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("all spreads within bounds, all outputs correct" if ok else "SPREAD OR CORRECTNESS FAILURE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

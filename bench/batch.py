"""Run the benchmark over many seeds and record medians, quartiles and spreads.

    python3 bench/batch.py --seeds 0            # every metric once, with checks
    python3 bench/batch.py --seeds 1-10 --label ced0366 --out bench/baseline.json

For each seed it runs every workload once with ``--trace 0``, seed by
seed, so that a drift in machine speed during the batch falls on all
workloads alike instead of on whichever ran last.  Then it makes one
``--trace 1`` run per workload at seed 0 for the per-layer metrics and the
deterministic counts.  The spread of a metric is the distance between its
first and third quartiles over the seeds, as a share of its median; each
end-to-end metric's spread is printed next to its bound from BENCHMARK.json,
and ``wall_s`` also with the fewest and most calls one run's median was
taken over.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py invocation: its result line and its full record."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def show(title: str, result: dict) -> None:
    verdict = "checks passed" if result["correct"] else "CHECKS FAILED"
    print(f"{title}: {result['attempted'] - result['failed']}/{result['attempted']} "
          f"{verdict}")
    for k, v in result["metrics"].items():
        print(f"  {k:32s} {v['value']:>14.6g} {v['unit']}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", default="", help="commit the numbers belong to")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list] = {w: [] for w in WORKLOADS}
    machines = []
    ok = True
    for seed in parse_seeds(args.seeds):
        for w in WORKLOADS:
            result, record = run_once(w, seed, seconds, 0)
            ok &= result["correct"]
            machines.append(record["machine"])
            runs[w].append({"seed": seed, "correct": result["correct"],
                            "wall_s_samples": record["samples"]["wall_s"],
                            **{k: v["value"] for k, v in result["metrics"].items()}})
            show(f"{w} seed {seed}", result)

    summary = {"label": args.label, "run_seconds": seconds, "machine": machines[0],
               "loadavg_per_run": [m["loadavg_start"][0] for m in machines],
               "workloads": {}}
    for w in WORKLOADS:
        calls = [len(r["wall_s_samples"]) for r in runs[w]]
        entry = {"runs": runs[w], "end_to_end": {},
                 "wall_s_calls_per_run": [min(calls), max(calls)]}
        for name, bound in bounds.items():
            s = spread([r[name] for r in runs[w]])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] <= bound / 3 else "  (above a third of the bound)"
            n = f"  calls per run {min(calls)}-{max(calls)}" if name == "wall_s" else ""
            print(f"{w:15s} {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bound}{n}{flag}")
        result, _ = run_once(w, 0, seconds, 1)
        ok &= result["correct"]
        entry["per_layer_seed0"] = {k: v["value"] for k, v in result["metrics"].items()}
        show(f"{w} seed 0 traced", result)
        summary["workloads"][w] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""tiplab benchmark: time a workload end to end, or trace it layer by layer.

    python3 bench/run.py --workload crit-sn --seed 0 --seconds 60 --trace 0

Run from anywhere inside a source checkout; tiplab is imported from the
checkout's ``src/`` and nothing is installed.  Every measurement runs in a
fresh interpreter started by ``worker.py``:

* ``--trace 0`` starts ``SETUP_SAMPLES - 1`` set-up-only processes, then one
  process that repeats the workload call for ``--seconds`` seconds with no
  wrappers installed, moving a single-threaded call between the CPUs once a
  second.  It reports ``wall_s`` (median call), ``setup_s``
  (median time from process start to inputs built), ``peak_rss_mb`` (the
  timing process's high-water mark) and ``pass_frac`` (checks passed over
  checks attempted).
* ``--trace 1`` makes two untraced and two traced calls (span wrappers on
  every layer boundary) alternated in one process, then a unit-cost pass over
  single layer operations in another, and reports the per-layer metrics.

Lines before the last are human-readable; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
machine block included, goes to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5
# Every run must end well inside this many seconds.
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, draw  # noqa: E402


class BenchError(Exception):
    pass


def machine(versions: dict) -> dict:
    """Where and on what the numbers were taken."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions}


class Worker:
    """One ``worker.py`` process; ``ready_s`` is its set-up time."""

    def __init__(self, mode: str, workload: str, seed: int, *extra: str):
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), mode, "--workload", workload,
             "--seed", str(seed), "--out-dir", str(OUT_DIR), *extra],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        first = self.proc.stdout.readline()
        self.ready_s = perf_counter() - self.start
        if first.strip() != "READY":
            self.finish()
            raise BenchError(f"{mode} worker failed during set-up")

    def finish(self, timeout: float = DEADLINE_S) -> dict | None:
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("worker overran the run deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def _remaining(t_start: float) -> float:
    return max(1.0, DEADLINE_S - (perf_counter() - t_start))


def run_untraced(workload: str, seed: int, seconds: float, t_start: float) -> dict:
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker("setup", workload, seed)
        w.finish(_remaining(t_start))
        setup.append(w.ready_s)
    w = Worker("time", workload, seed, "--seconds", str(seconds))
    setup.append(w.ready_s)
    res = w.finish(_remaining(t_start))
    checks = res["checks"]
    passed = sum(1 for _, ok in checks if ok)
    metrics = {
        "wall_s": (statistics.median(res["reps"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "pass_frac": (passed / len(checks), "ratio"),
    }
    samples = {"wall_s": res["reps"], "setup_s": setup}
    return {"metrics": metrics, "checks": checks, "samples": samples,
            "versions": res["versions"]}


def run_traced(workload: str, seed: int, t_start: float) -> dict:
    traced = Worker("trace", workload, seed).finish(_remaining(t_start))
    units = Worker("layers", workload, seed).finish(_remaining(t_start))
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics.update({k: tuple(v) for k, v in units["layers"].items()})
    metrics["trace.overhead_s"] = (
        statistics.median(traced["reps_traced"]) - statistics.median(traced["reps"]), "s")
    samples = {"wall_s": traced["reps"], "wall_s_traced": traced["reps_traced"]}
    return {"metrics": metrics, "checks": traced["checks"], "samples": samples,
            "spans": traced["spans"], "versions": traced["versions"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = perf_counter()
    loadavg = list(os.getloadavg())
    if not (ROOT / "src" / "tiplab" / "__init__.py").is_file():
        print(f"error: no tiplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": draw(args.workload, args.seed)}
    try:
        if args.trace:
            record.update(run_traced(args.workload, args.seed, t_start))
        else:
            record.update(run_untraced(args.workload, args.seed, args.seconds, t_start))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["machine"] = machine(record.pop("versions"))
    record["machine"]["loadavg_start"] = loadavg

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    checks = record["checks"]
    failed = [name for name, ok in checks if not ok]
    print("machine: " + json.dumps(record["machine"]))
    print(f"workload {args.workload} seed {args.seed}: inputs "
          + json.dumps({k: v for k, v in record["inputs"].items() if k != "rates"}))
    for name, vals in record["samples"].items():
        print(f"  {name} samples ({len(vals)}): " + ", ".join(f"{v:.4f}" for v in vals))
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(f"  checks: {len(checks) - len(failed)}/{len(checks)} passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

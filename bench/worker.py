"""One benchmark process: set up a workload, then time, trace or unit-cost it.

Started by ``run.py`` as a fresh interpreter for each measurement, so set-up
cost and peak memory belong to one workload.  It prints ``READY`` once tiplab
is imported and the inputs are built, then one JSON line with its results.

    python3 bench/worker.py MODE --workload NAME --seed N [--seconds S] [--pairs P]

MODE is ``setup`` (exit after READY), ``time`` (untraced repetitions),
``trace`` (P pairs of one untraced and one traced call, alternated) or
``layers`` (the unit costs of single layer operations, no wrappers).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_tiplab():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tiplab

    if not Path(tiplab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"tiplab imported from {tiplab.__file__}, not from {SRC}")
    return tiplab


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _refuse_wrappers() -> None:
    from spans import installed

    if installed():
        raise RuntimeError("trace wrappers present in an untraced call")


# How long the timed thread of a single-threaded call stays on one CPU.  A
# move wakes the other virtual CPU, which can take milliseconds: moved every
# 0.05 s, crit-sn calls ran 20% slower than unmoved ones; every 1 s they won
# and lost about as often as unmoved ones.
SPREAD_PERIOD_S = 1.0


@contextlib.contextmanager
def spread_over_cpus(period: float = SPREAD_PERIOD_S):
    """Move the calling thread round-robin over this process's CPUs.

    On a shared host each virtual CPU slows down and speeds up on its own:
    on a 2-vCPU virtual machine (Intel Xeon, 2.1 GHz), the same pullback
    timed alternately on CPU 0 and on CPU 1 for three minutes gave times that
    correlated at 0.00.  A single-threaded call that
    stays on one CPU takes that CPU's slow stretches whole.  Moved every
    ``period`` seconds, its time averages the speeds of all the CPUs, as
    the two-thread sweep's does by itself.  A helper thread does the moving
    and sleeps in between.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        i = 0
        while not stop.wait(period):
            i = (i + 1) % len(cpus)
            os.sched_setaffinity(tid, {cpus[i]})

    mover = threading.Thread(target=rotate, daemon=True)
    if len(cpus) > 1:
        mover.start()
    try:
        yield
    finally:
        stop.set()
        if mover.is_alive():
            mover.join()
        os.sched_setaffinity(tid, cpus)


def time_reps(job, seconds: float) -> dict:
    """Repeat the workload call until the next one would overrun ``seconds``.

    A single-threaded call is spread over the CPUs (``spread_over_cpus``);
    a multi-threaded one is left to the scheduler.
    """
    _refuse_wrappers()
    reps, checks = [], []
    spread = spread_over_cpus() if job.threads == 1 else contextlib.nullcontext()
    with spread:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            result = job.run()
            reps.append(perf_counter() - t0)
            checks.extend(job.check(result))
            elapsed = perf_counter() - start
            if elapsed + statistics.median(reps) > seconds:
                break
    return {"reps": reps, "checks": checks, "peak_rss_mb": _peak_rss_mb()}


def trace_pairs(job, workload: str, seed: int, out_dir: Path, pairs: int) -> dict:
    """Untraced and traced calls in one process, in the order P T T P P T ...

    The order cancels a linear drift in machine speed out of the difference
    of their medians.  Layer metrics and spans come from the first traced
    call.
    """
    from spans import CLI, CRIT, Tracer, summarize

    name = CLI if workload == "sweep-cli" else CRIT
    plain, traced, checks, first = [], [], [], None
    for i in range(2 * pairs):
        if i % 4 in (0, 3):
            _refuse_wrappers()
            t0 = perf_counter()
            result = job.run()
            plain.append(perf_counter() - t0)
        else:
            tracer = Tracer()
            tracer.run_id = seed
            tracer.install()
            try:
                t0 = perf_counter()
                result = tracer.call(name, job.run)
                traced.append(perf_counter() - t0)
            finally:
                tracer.uninstall()
            first = first or tracer
        checks.extend(job.check(result))
    spans = first.spans()
    out_dir.mkdir(exist_ok=True)
    first.write(str(out_dir / f"spans-{workload}.npz"))
    layers = {k: list(v) for k, v in summarize(spans, job.threads).items()}
    return {"reps": plain, "reps_traced": traced, "checks": checks, "layers": layers,
            "spans": int(len(spans["sid"]))}


def _median_time(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def unit_costs(tl) -> dict:
    """Single-operation costs of each layer, on fixed inputs, no wrappers."""
    import numpy as np

    sn = tl.make_model("moving-sn", mu=0.5, r=0.03)
    pf = tl.make_model("moving-pitchfork", mu=1.0, r=0.5, p=1)
    cfg = tl.IntegratorConfig(escape_norm=sn.escape_norm)
    m = {}
    n = 20000
    for label, model in (("sn", sn), ("pitchfork", pf)):
        x = model.anchor_state(model.default_anchors[0], 0.0)
        fld = model.field
        m[f"models.rhs_us.{label}"] = [
            1e6 * _median_time(lambda: [fld(x, 0.5) for _ in range(n)], 5) / n, "us"]

    # One RK step with the RHS cost taken out: the RHS is counted by a
    # closure and its per-call cost measured on the same handle.
    calls = [0]

    def counted(x, t, p, f=sn.field.rhs):
        calls[0] += 1
        return f(x, t, p)

    h = tl.VectorFieldHandle(1, counted, sn.field.params)
    x0 = sn.anchor_state(sn.default_anchors[0], -256.0)
    samples = []
    for _ in range(3):
        calls[0] = 0
        t0 = perf_counter()
        traj = tl.integrate(h, x0, -256.0, 0.0, cfg)
        total = perf_counter() - t0
        ncalls, steps = calls[0], len(traj.times) - 1
        x = traj.final_state
        per_rhs = _median_time(lambda: [h(x, 0.0) for _ in range(n)], 3) / n
        samples.append((total - ncalls * per_rhs) / steps)
    m["integrate.step_us"] = [1e6 * statistics.median(samples), "us"]

    traj = tl.integrate(sn.field, sn.anchor_state(sn.default_anchors[0], 0.0), 0.0, 4.0, cfg)
    grid = np.linspace(0.0, 4.0, 201)
    m["integrate.eval201_us"] = [1e6 * _median_time(lambda: traj.eval(grid), 50), "us"]

    m["analysis.pullback_far_s"] = [_median_time(
        lambda: tl.estimate_pullback(sn, r=0.03, max_lookback=256.0), 3), "s"]
    m["analysis.pullback_near_s"] = [_median_time(
        lambda: tl.estimate_pullback(sn, r=0.0624, max_lookback=2048.0), 3), "s"]
    m["tipping.probe_s"] = [_median_time(
        lambda: tl.rate_diagnostics(sn, r=0.03, include_forward=False), 3), "s"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "time", "trace", "layers"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--pairs", type=int, default=2)
    ap.add_argument("--out-dir", default=str(ROOT / ".bench_out"))
    args = ap.parse_args(argv)

    tl = _import_tiplab()
    from workloads import draw, prepare

    job = prepare(tl, args.workload, draw(args.workload, args.seed))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "time":
        res = time_reps(job, args.seconds)
    elif args.mode == "trace":
        res = trace_pairs(job, args.workload, args.seed, Path(args.out_dir), args.pairs)
    else:
        res = {"layers": unit_costs(tl)}
    import numpy
    import scipy

    res["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process A/B timer: one benchmark workload on two source trees.

    python3 tools/ab.py A B --workload crit-sn --calls 60 [--seed 0]

A and B are source checkouts (each with ``src/tiplab``).  Both are imported
into one interpreter, as the packages ``tiplab_a`` and ``tiplab_b``, and the
workload comes from this checkout's ``bench/workloads.py``, read as it is.
Each tree's output must pass the workload's checks: when one fails, the script
names it and exits 1 before timing anything.  It then says whether the two
outputs are identical and prints, per tree, the ``Batch.advance`` calls and
member-steps (active members summed over those calls) of one workload call,
counted by wrapping the tree's ``Batch.advance`` from outside for that call
only, and the calls of each ``run_pullbacks`` batch of the tipping predicate
in order: each predicate call's batch (``scan`` and ``round 1``, ``round 2``,
... inside ``find_critical_rate``, else ``batch``), then its relaxed
``retry``.  It alternates calls, A-B and B-A in turn, and prints, per tree, the
median and quartiles of each call's process time, and the number of calls on
which B took less time than the A call it was paired with.  It exits 0 when
the outputs are identical and 1 when they differ, so a change that moves the
output, though both trees pass, is timed but not passed as a pure speed-up.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def load_module(name: str, path: Path, package: bool = False):
    """Import the module or package at ``path`` under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def prepare(workloads, tree: Path, name: str, workload: str, seed: int):
    """The workload's job on the tiplab of ``tree``, loaded as ``name``."""
    tl = load_module(name, tree / "src" / "tiplab", package=True)
    importlib.import_module(name + ".cli")
    # workloads.prepare imports ``tiplab.cli`` by that name
    saved = sys.modules.get("tiplab")
    sys.modules["tiplab"] = tl
    try:
        return workloads.prepare(tl, workload, workloads.draw(workload, seed))
    finally:
        if saved is None:
            del sys.modules["tiplab"]
        else:
            sys.modules["tiplab"] = saved


def output(result) -> str:
    """A result in a form two trees can be compared by."""
    return repr(result.to_dict() if hasattr(result, "to_dict") else result)


def counts(name: str, job) -> tuple[int, int, list[str]]:
    """``Batch.advance`` calls and member-steps of one call of ``job`` on the
    tiplab loaded as ``name``, and the calls of each ``run_pullbacks`` batch
    that a ``_diagnose_rates`` call makes (its batch, then its retry), each
    labelled as the module docstring says."""
    batch = sys.modules[name + ".integrate"].Batch
    tipping = sys.modules[name + ".tipping"]
    advance, diagnose_rates, probe_rates, run_pullbacks = (
        batch.advance, tipping._diagnose_rates, tipping._probe_rates, tipping.run_pullbacks)
    tally = [0, 0]
    groups: list[tuple[str, list[int]]] = []
    searching = [False]  # inside find_critical_rate's _probe_rates

    def counted(self):
        tally[0] += 1
        tally[1] += self.n_active
        return advance(self)

    def probe(*args):
        searching[0] = True
        try:
            return probe_rates(*args)
        finally:
            searching[0] = False

    def diagnose(*args):
        rounds = sum(label != "batch" for label, _ in groups)
        groups.append(("batch" if not searching[0] else f"round {rounds}" if rounds else "scan",
                       []))
        return diagnose_rates(*args)

    def batched(*args):
        before = tally[0]
        run_pullbacks(*args)
        groups[-1][1].append(tally[0] - before)

    with mock.patch.object(batch, "advance", counted), \
            mock.patch.object(tipping, "_probe_rates", probe), \
            mock.patch.object(tipping, "_diagnose_rates", diagnose), \
            mock.patch.object(tipping, "run_pullbacks", batched):
        job.run()
    return tally[0], tally[1], [f"{label} {' + retry '.join(map(str, calls))}"
                                for label, calls in groups]


def timed(job) -> float:
    start = time.process_time()
    job.run()
    return time.process_time() - start


def summary(label: str, times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"{label}: median {1e3 * q2:.2f} ms, quartiles {1e3 * q1:.2f} - {1e3 * q3:.2f} ms"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="source tree A (the base)")
    ap.add_argument("b", type=Path, help="source tree B (the change)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--calls", type=int, default=40, help="timed calls per tree")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.calls < 2:
        ap.error("--calls must be at least 2")

    workloads = load_module("_ab_workloads", ROOT / "bench" / "workloads.py")
    jobs = [prepare(workloads, tree.resolve(), name, args.workload, args.seed)
            for tree, name in ((args.a, "tiplab_a"), (args.b, "tiplab_b"))]
    results = [job.run() for job in jobs]
    failing = False
    for label, job, result in zip("AB", jobs, results):
        failed = [name for name, ok in job.check(result) if not ok]
        if failed:
            print(f"{label} fails checks: {failed}", file=sys.stderr)
            failing = True
    if failing:
        return 1

    same = output(results[0]) == output(results[1])
    print(f"{args.workload} seed {args.seed}: both pass the checks, "
          f"{'identical' if same else 'different'} outputs; {args.calls} calls each")
    for label, name, job in (("A", "tiplab_a", jobs[0]), ("B", "tiplab_b", jobs[1])):
        calls, steps, batches = counts(name, job)
        print(f"{label}: {calls:,} Batch.advance calls, {steps:,} member-steps; "
              f"per batch: {', '.join(batches)}")

    times: list[list[float]] = [[], []]
    for i in range(args.calls):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(timed(jobs[side]))
    won = sum(b < a for a, b in zip(*times))
    print(summary("A", times[0]))
    print(summary("B", times[1]))
    print(f"B won {won} of {args.calls} calls")
    if not same:
        print("outputs differ between A and B", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""In-process A/B timer: one benchmark workload on two source trees.

    python3 tools/ab.py A B --workload crit-sn --calls 60 [--seed 0]

A and B are source checkouts (each with ``src/tiplab``).  Both are imported
into one interpreter, as the packages ``tiplab_a`` and ``tiplab_b``, and the
workload comes from this checkout's ``bench/workloads.py``, read as it is.
The workload's output must be identical on both trees, else the script exits
1 before timing anything.  It prints, per tree, the ``Batch.advance`` calls
and member-steps (active members summed over those calls) of one workload
call, counted by wrapping the tree's ``Batch.advance`` from outside for that
call only.  It then alternates calls, A-B and B-A in turn, and prints, per
tree, the median and quartiles of each call's process time, and the number
of calls on which B took less time than the A call it was paired with.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

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


def counts(name: str, job) -> tuple[int, int]:
    """``Batch.advance`` calls and member-steps of one call of ``job`` on the
    tiplab loaded as ``name``."""
    batch = sys.modules[name + ".integrate"].Batch
    advance = batch.advance
    tally = [0, 0]

    def counted(self):
        tally[0] += 1
        tally[1] += self.n_active
        return advance(self)

    batch.advance = counted
    try:
        job.run()
    finally:
        batch.advance = advance
    return tally[0], tally[1]


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
    failed = [name for name, ok in jobs[1].check(results[1]) if not ok]
    if output(results[0]) != output(results[1]) or failed:
        print(f"outputs differ between A and B (B fails checks: {failed})", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: identical outputs; {args.calls} calls each")
    for label, name, job in (("A", "tiplab_a", jobs[0]), ("B", "tiplab_b", jobs[1])):
        calls, steps = counts(name, job)
        print(f"{label}: {calls:,} Batch.advance calls, {steps:,} member-steps")

    times: list[list[float]] = [[], []]
    for i in range(args.calls):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(timed(jobs[side]))
    won = sum(b < a for a, b in zip(*times))
    print(summary("A", times[0]))
    print(summary("B", times[1]))
    print(f"B won {won} of {args.calls} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark workloads: inputs drawn from a seed, the call into tiplab, checks.

Each workload is built in two steps.  ``draw`` turns (workload, seed) into
plain numbers without importing tiplab, so the inputs can be printed and
compared.  ``prepare`` builds the model or argv from those numbers and returns
a ``Job`` whose ``run`` makes the one timed call and whose ``check`` grades
the result against the closed-form critical rate.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable

WORKLOADS = ("crit-sn", "sweep-cli")

# Seed 0 reproduces the acceptance-test parameters exactly.
DEFAULT_SEED = 0

SWEEP_MU = 0.5
SWEEP_RATES = 48
SWEEP_RANGE = (0.01, 0.12)
# Rates this close to mu^2/4 are left out: their verdict is not decidable
# within the sweep's default lookback budget.
SWEEP_GAP = 0.002
SWEEP_THREADS = 2


def draw(workload: str, seed: int) -> dict:
    """The inputs of one workload, as plain numbers drawn from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "crit-sn":
        mu = 0.5 if seed == DEFAULT_SEED else rng.uniform(0.4, 0.6)
        rstar = mu * mu / 4.0
        return {"mu": mu, "rstar": rstar, "r_range": (0.1 * rstar, 3.0 * rstar),
                "resolution": 1e-4}
    if workload == "sweep-cli":
        # One rate in each of SWEEP_RATES equal slices of the range, so every
        # seed has the same mix of cheap rates and costly near-r* ones.  No
        # slice lies wholly inside the excluded gap, so each draw ends.
        rstar = SWEEP_MU * SWEEP_MU / 4.0
        lo, hi = SWEEP_RANGE
        width = (hi - lo) / SWEEP_RATES
        rates: list[float] = []
        for i in range(SWEEP_RATES):
            r = rstar
            while abs(r - rstar) < SWEEP_GAP:
                r = lo + (i + rng.random()) * width
            rates.append(r)
        return {"mu": SWEEP_MU, "rstar": rstar, "rates": rates,
                "threads": SWEEP_THREADS}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def sweep_argv(inputs: dict, threads: int | None = None) -> list[str]:
    """``tiplab sweep`` arguments; repr() keeps every rate bit-exact."""
    return [
        "sweep", "--model", "moving-sn", "--set", f"mu={inputs['mu']!r}",
        "--threads", str(threads or inputs["threads"]), "--format", "csv",
        "--rates", ",".join(repr(r) for r in inputs["rates"]),
    ]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` in-process and return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class Job:
    run: Callable[[], Any]
    check: Callable[[Any], list[tuple[str, bool]]]
    # Threads the call runs on at once.
    threads: int = 1


def _check_report(report, inputs: dict) -> list[tuple[str, bool]]:
    b = report.brackets
    one = len(b) == 1
    return [
        ("one_bracket", one),
        ("contains_rstar", one and b[0].lower <= inputs["rstar"] <= b[0].upper),
        ("width_le_resolution", one and b[0].width <= inputs["resolution"]),
        ("classification", one and b[0].classification == "saddle-node"),
        ("not_flagged", not report.flagged),
    ]


def _check_sweep(result: tuple[int, str], inputs: dict) -> list[tuple[str, bool]]:
    code, text = result
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    checks = [
        ("exit_code_0", code == 0),
        ("header", bool(lines) and lines[0] == "r,n_attractors,escaped,tipped"),
        ("row_count", len(rows) == len(inputs["rates"])),
    ]
    for i, r in enumerate(inputs["rates"]):
        row = rows[i] if i < len(rows) else None
        ok = (
            row is not None and len(row) == 4 and float(row[0]) == r
            and row[3] == str(int(r > inputs["rstar"]))
        )
        checks.append((f"tipped[{i}]", ok))
    return checks


def prepare(tl, workload: str, inputs: dict) -> Job:
    """Build the model or argv for one workload; nothing is integrated yet."""
    if workload == "crit-sn":
        model = tl.make_model("moving-sn", mu=inputs["mu"])
        return Job(
            run=lambda: tl.find_critical_rate(
                model, r_range=inputs["r_range"], resolution=inputs["resolution"]),
            check=lambda rep: _check_report(rep, inputs),
        )
    if workload == "sweep-cli":
        from tiplab import cli

        argv = sweep_argv(inputs)
        return Job(
            run=lambda: run_cli(cli, argv),
            check=lambda res: _check_sweep(res, inputs),
            threads=inputs["threads"],
        )
    raise ValueError(f"unknown workload {workload!r}")

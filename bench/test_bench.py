"""The benchmark's own tests (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py -q

They check what every timed run takes for granted: inputs repeat per seed,
traced runs repeat their counts exactly, the 2-thread sweep prints the same
bytes as a 1-thread one, spans from pool threads do not cross-parent, a
single-threaded timed call visits every CPU, and the benchmark refuses to run
without the sources.  The slow ones take about two
minutes together.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import WORKLOADS, draw, run_cli, sweep_argv  # noqa: E402

# Counts that must repeat exactly between runs of the same inputs.
COUNTS = (
    "tipping.probes", "tipping.retries", "integrate.calls", "integrate.steps",
    "models.rhs_calls", "integrate.escaped_calls", "integrate.eval_calls",
    "analysis.pullback_calls", "analysis.doublings",
)


def _traced(workload: str, seed: int, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "trace", "--workload", workload,
         "--seed", str(seed), "--out-dir", str(out_dir), "--pairs", "1"],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_inputs_repeat_per_seed():
    for w in WORKLOADS:
        assert draw(w, 7) == draw(w, 7)
    assert draw("crit-sn", 7) != draw("crit-sn", 8)
    assert draw("sweep-cli", 7) != draw("sweep-cli", 8)
    assert draw("crit-sn", 0)["mu"] == 0.5
    assert draw("crit-sn", 0)["r_range"] == (0.1 * 0.0625, 3.0 * 0.0625)
    rates = draw("sweep-cli", 5)["rates"]
    assert len(rates) == 48 and all(abs(r - 0.0625) >= 0.002 for r in rates)


def test_pool_spans_do_not_cross_parent():
    tracer = spans.Tracer()
    leaf = tracer.wrap(spans.RHS, lambda: None)
    mid = tracer.wrap(spans.INTEGRATE, lambda: [leaf() for _ in range(200)],
                      attrs=lambda args, kwargs, result: (100, False))
    task = tracer.wrap(spans.PROBE, lambda: [mid() for _ in range(5)])

    def pool():
        threads = [threading.Thread(target=task) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    tracer.call(spans.SWEEP, pool)
    sp = tracer.spans()
    by_id = {int(s): i for i, s in enumerate(sp["sid"])}
    for i, p in enumerate(sp["parent"]):
        if sp["name"][i] == spans.NAMES.index(spans.SWEEP):
            continue
        j = by_id[int(p)]
        if sp["name"][i] == spans.NAMES.index(spans.PROBE):
            assert sp["name"][j] == spans.NAMES.index(spans.SWEEP)
        else:
            assert sp["thread"][j] == sp["thread"][i]
            assert sp["t0"][j] <= sp["t0"][i] and sp["t1"][i] <= sp["t1"][j]
    m = spans.summarize(sp, threads=2)
    assert m["models.rhs_calls"][0] == 2000
    assert m["integrate.calls"][0] == 10
    assert m["integrate.steps"][0] == 1000
    assert m["tipping.probes"][0] == 0  # pool tasks are not critical-rate probes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    a = _traced(workload, 0, tmp_path)["layers"]
    b = _traced(workload, 0, tmp_path)["layers"]
    for key in COUNTS:
        assert a[key][0] == b[key][0], key
    assert a["models.rhs_calls"][0] > 0 and a["integrate.steps"][0] > 0


def test_spread_over_cpus_visits_each_cpu_and_restores():
    from worker import spread_over_cpus

    before = os.sched_getaffinity(0)
    masks = set()
    with spread_over_cpus(period=0.01):
        end = perf_counter() + 0.2
        while perf_counter() < end:
            masks.add(frozenset(os.sched_getaffinity(0)))
    assert os.sched_getaffinity(0) == before
    if len(before) > 1:
        assert {frozenset({c}) for c in before} <= masks


def test_sweep_two_threads_match_one_thread():
    from tiplab import cli

    inputs = draw("sweep-cli", 0)
    code2, out2 = run_cli(cli, sweep_argv(inputs, threads=2))
    code1, out1 = run_cli(cli, sweep_argv(inputs, threads=1))
    assert code1 == code2 == 0
    assert out2.encode() == out1.encode()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crit-sn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(strict=True, reason=(
    "known defect: with the range fixed at (0.3, 3), each of these mu puts a "
    "probe within 0.0003 of r* that stays undecidable after its retry, so the "
    "report is flagged although its bracket holds r*"))
@pytest.mark.parametrize("mu", [0.97, 1.02, 1.08])
def test_pitchfork_fixed_range_is_not_flagged(mu):
    import tiplab as tl

    rep = tl.find_critical_rate(tl.make_model("moving-pitchfork", mu=mu, p=1),
                                r_range=(0.3, 3.0), resolution=1e-2)
    assert len(rep.brackets) == 1 and rep.brackets[0].lower <= mu <= rep.brackets[0].upper
    assert not rep.flagged

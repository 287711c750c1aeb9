"""Regression tests for an unverified blow-up bracket, for the probe count
each critical-rate bracket reports, for non-finite times, ranges and
anchors, for finite-horizon tests given a bad horizon, for curve dedupe on
large curves, for the step count and convergence of deep pullbacks, for an
import and a core free of scipy, for every exported name, for the outputs
that stopping a diverging pullback at the co-moving box must leave as they
were, for the tipping predicate's known wrong answers, and for the report of
a failing property test."""
import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tiplab import tipping
from tiplab.analysis import (
    PullbackJob,
    _noise_floor,
    endpoint_tracking_test,
    estimate_pullback,
    forward_attraction_test,
    integrator_config,
    run_pullbacks,
)
from tiplab.cli import main
from tiplab.integrate import ESCAPED, Batch, VectorFieldHandle, integrate
from tiplab.models import make_model, oracle_curve
from tiplab.tipping import _scan_rates, find_critical_rate, rate_diagnostics

NAN, INF = float("nan"), float("inf")


class TestBlowUpVerification:
    def test_growth_without_blowup_is_unverified(self):
        # e^t crosses the escape norm at t = ln(1e6) but never blows up
        f = VectorFieldHandle(1, lambda x, t, p: x)
        traj = integrate(f, [1.0], 0.0, 200.0)
        assert traj.status == ESCAPED
        assert traj.bracket_verified is False
        assert abs(traj.escape_bracket[0] - math.log(1e6)) < 1e-6

    @pytest.mark.parametrize("sign,t1,t_sing", [(1.0, 5.0, 1.0), (-1.0, -5.0, -1.0)])
    def test_true_blowup_is_verified(self, sign, t1, t_sing):
        f = VectorFieldHandle(1, lambda x, t, p: sign * x * x)
        traj = integrate(f, [1.0], 0.0, t1)
        assert traj.status == ESCAPED
        assert traj.bracket_verified is True
        lo, hi = traj.escape_bracket
        assert lo <= t_sing <= hi

    def test_completed_run_carries_no_bracket(self):
        traj = integrate(VectorFieldHandle(1, lambda x, t, p: -x), [1.0], 0.0, 1.0)
        assert traj.escape_bracket is None and traj.bracket_verified is None


class TestBracketProbes:
    def test_each_bracket_counts_its_own_bisection(self):
        # two mirrored brackets; each must report only its own probes, not
        # the running total of the whole search
        m = make_model("moving-cubic", mu=1.0)
        report = find_critical_rate(m, r_range=(-1.2, 1.2), resolution=1e-2)
        n_scan = len(_scan_rates((-1.2, 1.2), 1e-2))
        assert len(report.brackets) == 2
        assert sum(b.probes for b in report.brackets) == report.probes - n_scan
        assert all(0 < b.probes < 10 for b in report.brackets)


class TestNonFiniteInput:
    # each used to hang, return a bogus verdict or raise OverflowError
    @pytest.mark.parametrize("t0,t1", [(0.0, NAN), (NAN, 1.0), (0.0, INF)])
    def test_integrate_rejects_non_finite_times(self, t0, t1):
        m = make_model("moving-sn", mu=0.5)
        with pytest.raises(ValueError, match="finite"):
            integrate(m.field, [0.0], t0, t1)

    @pytest.mark.parametrize("window", [(-INF, 0.0), (0.0, INF)])
    def test_pullback_rejects_non_finite_window(self, window):
        m = make_model("moving-sn", mu=0.5, r=0.03)
        with pytest.raises(ValueError, match="finite"):
            estimate_pullback(m, window=window)

    @pytest.mark.parametrize("r_range", [(0.01, INF), (-INF, 0.1)])
    def test_critical_rate_rejects_non_finite_range(self, r_range):
        m = make_model("moving-sn", mu=0.5)
        with pytest.raises(ValueError, match="finite"):
            find_critical_rate(m, r_range=r_range)

    # a non-finite anchor read as an escape, so as tipping
    @pytest.mark.parametrize("call", [
        lambda m: estimate_pullback(m, r=0.03, anchor=[NAN]),
        lambda m: rate_diagnostics(m, r=0.03, anchors=[[NAN]]),
        lambda m: find_critical_rate(m, r_range=(0.01, 0.1), anchors=[[INF]]),
    ], ids=["estimate_pullback", "rate_diagnostics", "find_critical_rate"])
    def test_non_finite_anchor_rejected(self, call):
        with pytest.raises(ValueError, match="anchor must be finite"):
            call(make_model("moving-sn", mu=0.5))


class TestHorizon:
    @pytest.fixture(scope="class")
    def estimate(self):
        return estimate_pullback(make_model("moving-sn", mu=0.5, r=0.03), window=(0.0, 4.0))

    # inf and nan used to fail on a NaN grid or pass as inconclusive, 0 on the
    # integrator's t1 check, and -2 integrated backward to a verdict
    @pytest.mark.parametrize("horizon", [INF, NAN, 0.0, -2.0])
    @pytest.mark.parametrize("kind", ["estimate", "callable"])
    @pytest.mark.parametrize("test", [forward_attraction_test, endpoint_tracking_test])
    def test_rejects_bad_horizon(self, estimate, test, kind, horizon):
        m = make_model("moving-sn", mu=0.5, r=0.03)
        curve = estimate if kind == "estimate" else (lambda t: [0.25 + 0.03 * t])
        if test is forward_attraction_test:
            call = lambda: test(m, candidate=curve, offsets=[0.01], horizon=horizon)
        else:
            qse = lambda t: oracle_curve(m, "qse_stable+", t)
            call = lambda: test(m, curve=curve, branch=qse, horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            call()


class TestDedupe:
    def test_gap_scales_with_curve_size(self):
        # both drift curves reach 1.2e7 and differ by 6.7e-4: one attractor
        diag = rate_diagnostics(make_model("drift"), r=4.5, anchors=[[1.0], [-1.0]],
                                include_forward=False)
        assert diag.n_attractors == 1


class TestOnePredicate:
    R = 0.06248775531580891  # undecided by the first pass, decided by the retry

    def test_only_diagnose_rates_integrates_and_diagnoses(self):
        tree = ast.parse(inspect.getsource(tipping))
        callers = {
            fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("run_pullbacks", "_diagnose")
        }
        assert callers == {"_diagnose_rates"}

    def test_every_view_reads_the_retried_verdict(self):
        m = make_model("moving-sn", mu=0.5)
        cfg = integrator_config(m)
        assert tipping.sweep(m, [self.R])[0]["tipped"] is False
        assert rate_diagnostics(m, r=self.R, include_forward=False).tipped is False
        ((verdict, _),) = tipping._probe_rates(m, [self.R], None, (0.0, 4.0), 1e-8, 4096.0, cfg)
        assert verdict is False

    def test_sweep_cli_exits_0(self, capsys):
        code = main(["sweep", "--model", "moving-sn", "--set", "mu=0.5",
                     "--rates", repr(self.R), "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "0"


class TestDeepPullback:
    def test_deep_lookback_takes_few_iterations(self, monkeypatch):
        # at r* the pullback never converges, so every doubling up to
        # lookback 4096 is integrated; a step cap of 1 on the approach leg
        # would need at least 4096 batch iterations for the deepest one
        calls = []
        advance = Batch.advance
        monkeypatch.setattr(Batch, "advance", lambda b: calls.append(1) or advance(b))
        est = estimate_pullback(make_model("moving-sn", mu=0.5), r=0.0625, tol=1e-4)
        assert est.status == "not_converged"
        assert est.start_times[-1] == -4096.0
        assert len(calls) < 4096 // 8

    def test_gaps_at_the_noise_floor_converge(self):
        # once converged, the curves differ only by integrator noise, which
        # need not fall monotonically from one doubling to the next, so a gap
        # below the tolerance within the floor decides even when it rose.  A
        # later gap that rose follows a smaller gap within the floor, which
        # decides first, so a rise decides only at the second gap: reached
        # here by anchoring on the closed-form attractor, where both gaps are
        # rounding, the second above the first
        model = make_model("moving-sn", mu=0.5)
        r = 0.01
        est = estimate_pullback(model, r=r, tol=1e-8, anchor=[math.sqrt(0.25**2 - r)])
        assert est.status == "converged"
        gaps = est.convergence_gaps
        floor = _noise_floor(integrator_config(model), float(np.abs(est.states).max()))
        assert len(gaps) == 2 and gaps[0] < gaps[1] <= floor

    def test_algebraic_decay_is_not_decided_by_one_gap(self):
        # at r* the curves close in on the degenerate attractor algebraically:
        # each gap is about half the one before, a constant ratio, so the
        # last gap below the tolerance (6.1e-5 < 1e-4, on the relaxed retry's
        # tolerance and lookback) decides nothing while the one before is not
        est = estimate_pullback(make_model("moving-sn", mu=0.5), r=0.0625, tol=1e-4,
                                max_lookback=16384.0)
        assert est.status == "not_converged"
        gaps = est.convergence_gaps
        assert gaps[-1] < 1e-4 < gaps[-2] and 0.49 < gaps[-1] / gaps[-2] < 0.51

    def test_pitchfork_bracket_within_a_call_bound(self, monkeypatch):
        # the planar pitchfork's search, within a bound that fails if each
        # pullback also waits for the gap after the one that decides it,
        # which measures only noise (4,660 calls)
        calls = []
        advance = Batch.advance
        monkeypatch.setattr(Batch, "advance", lambda b: calls.append(1) or advance(b))
        report = find_critical_rate(make_model("moving-pitchfork", mu=1.0, p=1),
                                    r_range=(0.3, 3.0), resolution=1e-2)
        (b,) = report.brackets
        assert (round(b.lower, 4), round(b.upper, 4)) == (0.9951, 1.0049)
        assert b.classification == "pitchfork" and not report.flagged
        assert len(calls) <= 2000


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tiplab, tiplab.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["tiplab", "tiplab.integrate", "tiplab.models",
                                  "tiplab.analysis", "tiplab.tipping"])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# Every path that once called scipy, run while any scipy import fails.
_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import numpy as np
import tiplab as tl
from tiplab.analysis import find_roots

for name in tl.MODEL_NAMES:
    assert tl.qse_continuation(tl.make_model(name)), name
m = tl.make_model("moving-sn", mu=0.5, r=3.0 / 32.0)
traj = tl.integrate(m.field, [0.25], 0.0, 20.0, tl.IntegratorConfig(escape_norm=m.escape_norm))
assert traj.status == "escaped" and traj.bracket_verified
assert tl.comoving_consistency_check(tl.make_model("moving-pitchfork"))["passed"]
assert len(find_roots(lambda x: np.array([x[0] ** 3 - x[0]]), [(-2.0, 2.0)])) == 3
f = lambda v: np.array([v[0] ** 2 - 1.0, v[1] + v[0]])
assert len(find_roots(f, [(-2.0, 2.0), (-2.0, 2.0)])) == 2
print("ok")
"""


def test_core_runs_with_scipy_blocked():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# The CSV of `tiplab sweep` on moving-sn (mu = 0.5) at 48 rates across r* =
# 0.0625 (the benchmark's seed-0 sweep); the rates are read back from its first
# column, whose 17 significant digits give each float exactly.
SWEEP_CSV = """r,n_attractors,escaped,tipped
0.010297456536151979,1,0,0
0.014259812498972116,1,0,0
0.015307245196574198,1,0,0
0.01703439580280032,1,0,0
0.020379661219427261,1,0,0
0.021707210782359307,1,0,0
0.025269870669562551,1,0,0
0.027050938837375582,1,0,0
0.028389439145206412,1,0,0
0.031335312996665553,1,0,0
0.035032136969982967,1,0,0
0.037128497398137179,1,0,0
0.03914671798125046,1,0,0
0.042038892144010014,1,0,0
0.043772369652719856,1,0,0
0.044504289582416541,1,0,0
0.047391268037170316,1,0,0
0.049474141082536678,1,0,0
0.05299009986453293,1,0,0
0.0541056753619105,1,0,0
0.056373160240455765,1,0,0
0.060383254758397939,1,0,0
0.060491139654493771,1,0,0
0.064841078327821308,0,1,1
0.065722005606359976,0,1,1
0.068732844527335829,0,1,1
0.070323724772967097,0,1,1
0.073016238817687859,0,1,1
0.075387770257617656,0,1,1
0.078548640705776648,0,1,1
0.080346844589600758,0,1,1
0.081724746846076765,0,1,1
0.085384549759557768,0,1,1
0.086203458763805127,0,1,1
0.089194633409802326,0,1,1
0.091834065331529671,0,1,1
0.093633346699881631,0,1,1
0.09672014444148494,0,1,1
0.098921588136671651,0,1,1
0.099413066852582194,0,1,1
0.10323688222434944,0,1,1
0.10480466963717995,0,1,1
0.10792431816232208,0,1,1
0.11026744071546103,0,1,1
0.11184295148349596,0,1,1
0.11490328558791001,0,1,1
0.11721601038696396,0,1,1
0.1198047952384793,0,1,1
"""


class TestComovingExit:
    """A tipped moving-sn member now stops once it leaves the co-moving box
    downward, where it provably diverges, not at the escape norm.  These are
    the outputs that the run to the escape norm gave, bit for bit."""

    # find_critical_rate(moving-sn(mu), (0.1 r*, 3 r*), resolution 1e-4):
    # (lower, upper, the bracket's probes, the report's probes, at most this
    # many Batch.advance calls; the run to the escape norm made 1065, 1038,
    # 1457, and bisection alone after a 40-per-decade scan 331, 322, 443)
    BRACKETS = {
        0.25: (0.015575999999734153, 0.015673999999734154, 5, 21, 260),
        0.5: (0.062451000005339506, 0.0625490000053395, 7, 23, 260),
        1.0: (0.24995100048298421, 0.25004900048298423, 9, 25, 260),
    }

    @staticmethod
    def search(monkeypatch, mu, anchors=None):
        """The report and ``Batch.advance`` calls of the search above."""
        calls = []
        advance = Batch.advance
        monkeypatch.setattr(Batch, "advance", lambda b: calls.append(1) or advance(b))
        rstar = mu * mu / 4.0
        report = find_critical_rate(make_model("moving-sn", mu=mu), anchors=anchors,
                                    r_range=(0.1 * rstar, 3.0 * rstar), resolution=1e-4)
        return report, len(calls)

    @pytest.mark.parametrize("mu", sorted(BRACKETS))
    def test_moving_sn_brackets(self, monkeypatch, mu):
        # anchored at mu, mu/2 above the stable QSE, so that these pins keep
        # testing a search whose members cross a transient to the attractor
        report, calls = self.search(monkeypatch, mu, anchors=[[mu]])
        (b,) = report.brackets
        lower, upper, probes, total, max_calls = self.BRACKETS[mu]
        assert (b.lower, b.upper, b.probes, report.probes) == (lower, upper, probes, total)
        assert b.classification == "saddle-node" and not report.flagged
        assert calls <= max_calls

    def test_moving_sn_bracket_from_the_default_anchor(self, monkeypatch):
        # the stable QSE anchor reads the same probes in fewer calls
        report, calls = self.search(monkeypatch, 0.5)
        (b,) = report.brackets
        _, _, probes, total, _ = self.BRACKETS[0.5]
        assert (b.probes, report.probes) == (probes, total)
        assert b.lower < 0.0625 < b.upper
        assert b.classification == "saddle-node" and not report.flagged
        assert calls <= 111

    def test_sweep_csv(self, monkeypatch, capsys):
        calls = []
        advance = Batch.advance
        monkeypatch.setattr(Batch, "advance", lambda b: calls.append(1) or advance(b))
        rates = [float(line.split(",")[0]) for line in SWEEP_CSV.splitlines()[1:]]
        code = main(["sweep", "--model", "moving-sn", "--set", "mu=0.5", "--threads", "2",
                     "--format", "csv", "--rates", ",".join(map(repr, rates))])
        assert code == 0
        assert capsys.readouterr().out == SWEEP_CSV
        assert len(calls) <= 64

    def test_tipped_and_untipped_rates_share_a_batch(self):
        # members that stop at the box and members that converge, in one
        # batch: each job's estimate equals its lone run bitwise
        model = make_model("moving-sn", mu=0.5)
        rates = [0.2, 0.03, 0.07, 0.0625, 0.05, 0.0651]
        anchor = model.default_anchors[0]
        jobs = [PullbackJob(model.with_rate(r), anchor, "attracting", (0.0, 4.0), 1e-8)
                for r in rates]
        run_pullbacks(jobs, integrator_config(model))
        statuses = set()
        for r, job in zip(rates, jobs):
            alone = estimate_pullback(model, r=r)
            est = job.estimate
            assert (est.status, est.start_times, est.convergence_gaps) == (
                alone.status, alone.start_times, alone.convergence_gaps)
            assert est.states.tobytes() == alone.states.tobytes()
            statuses.add(est.status)
        assert {"converged", "escaped_during_pullback"} <= statuses


class TestKnownWrongVerdicts:
    # Both stay wrong until the predicate itself is fixed; xfail_strict (in
    # pyproject.toml) turns the fix into a failing unexpected pass.
    @pytest.mark.xfail(reason=(
        "at r ~ 5.65 the pullback attractor e^{rt}/(1+r) crosses drift's escape "
        "norm inside the default window, and an escape counts as tipping"))
    def test_drift_scan_on_default_window_finds_no_bracket(self, capsys):
        code = main(["tip", "--model", "drift", "--r-range", "0.001,10",
                     "--resolution", "0.01", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["brackets"] == []

    @pytest.mark.xfail(reason=(
        "two anchors in one basin reach one attractor, and tipped is read as "
        "n_attractors < number of anchors"))
    def test_anchors_sharing_a_basin_do_not_tip(self):
        diag = rate_diagnostics(make_model("drift"), r=0.5, anchors=[[1.0], [-1.0]],
                                include_forward=False)
        assert diag.tipped is False


def test_failing_property_test_reports_a_failure(tmp_path):
    # hypothesis's failure report imports libcst, which warns of its own use
    # of a deprecated TypedDict; the suite's settings turn warnings into
    # errors, and that warning alone must not end the run in INTERNALERROR
    pytest.importorskip("hypothesis")
    (tmp_path / "test_always_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(n):\n"
        "    assert n != n\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         str(tmp_path / "test_always_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out and "INTERNALERROR" not in out, out

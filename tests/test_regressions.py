"""Regression tests for an unverified blow-up bracket, for the probe count
each critical-rate bracket reports, for non-finite times, ranges and
anchors, for finite-horizon tests given a bad horizon, for curve dedupe on
large curves, for the step count and convergence of deep pullbacks, for an
import and a core free of scipy, for every exported name, for the
tipping predicate's known wrong answers, and for the report of a failing
property test."""
import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tiplab import tipping
from tiplab.analysis import (
    endpoint_tracking_test,
    estimate_pullback,
    forward_attraction_test,
    integrator_config,
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
        assert tipping._probe_rates(m, [self.R], None, (0.0, 4.0), 1e-8, 4096.0, cfg) == [False]

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
        # need not fall monotonically from one doubling to the next
        est = estimate_pullback(make_model("moving-sn", mu=0.5), r=0.0103, tol=1e-8)
        assert est.status == "converged"
        assert len(est.start_times) == 9


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

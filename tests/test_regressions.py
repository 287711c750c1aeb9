"""Regression tests for an unverified blow-up bracket, for the probe count
each critical-rate bracket reports, and for non-finite times and ranges."""
import math

import pytest

from tiplab.analysis import estimate_pullback
from tiplab.integrate import ESCAPED, VectorFieldHandle, integrate
from tiplab.models import make_model
from tiplab.tipping import _scan_rates, find_critical_rate

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

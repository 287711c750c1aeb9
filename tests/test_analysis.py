import math

import numpy as np
import pytest

from tiplab.analysis import (
    CONVERGED,
    ESCAPED_DURING_PULLBACK,
    NOT_CONVERGED,
    comoving_consistency_check,
    endpoint_tracking_test,
    estimate_pullback,
    find_roots,
    forward_attraction_test,
    integrator_config,
    qse_continuation,
)
from tiplab.models import NoComovingFrame, TiplabError, make_model, oracle_curve
from tiplab.tipping import find_critical_rate


# True read as max_step=1.0, the string parsed as a number, and None raised
# TypeError: only the command line used to reject these
@pytest.mark.parametrize("overrides", [
    {"max_step": True}, {"abs_tol": None}, {"abs_tol": "1e-6"}, [("abs_tol", 1e-6)],
], ids=["bool", "none", "string", "non-mapping"])
def test_integrator_config_rejects_non_numbers(overrides):
    with pytest.raises(ValueError, match="must map setting names to numbers"):
        integrator_config(make_model("moving-sn"), overrides)


class TestEstimatePullback:
    def test_drift_matches_closed_form(self):
        m = make_model("drift", r=0.5)
        est = estimate_pullback(m, window=(0.0, 2.0))
        assert est.status == CONVERGED
        oracle = np.vstack([oracle_curve(m, "attractor+", t) for t in est.times])
        assert np.max(np.abs(est.states - oracle)) < 1e-6

    def test_rate_override(self):
        m = make_model("drift", r=0.5)
        est = estimate_pullback(m, r=1.0, window=(0.0, 1.0))
        oracle = math.exp(1.0) / 2.0
        assert abs(est.eval(1.0)[0] - oracle) < 1e-6

    def test_gaps_shrink(self):
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        est = estimate_pullback(m, window=(0.0, 2.0))
        gaps = est.convergence_gaps
        assert len(gaps) >= 2
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] < 1e-8 * max(1.0, float(np.max(np.abs(est.states))))

    def test_start_times_double_backward(self):
        m = make_model("drift", r=0.5)
        est = estimate_pullback(m, window=(0.0, 1.0))
        s = est.start_times
        assert s[0] == -1.0
        for a, b in zip(s, s[1:]):
            assert b < a  # receding into the past

    def test_repelling_sense_moving_sn(self):
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        est = estimate_pullback(m, window=(0.0, 2.0), sense="repelling")
        assert est.status == CONVERGED
        oracle = np.vstack([oracle_curve(m, "repeller", t) for t in est.times])
        assert np.max(np.abs(est.states - oracle)) < 1e-6
        # times come back in ascending original-time order
        assert np.all(np.diff(est.times) > 0)

    def test_escape_past_the_fold(self):
        m = make_model("moving-sn", mu=0.5, r=0.08)  # r > mu^2/4
        est = estimate_pullback(m, window=(0.0, 4.0))
        assert est.status == ESCAPED_DURING_PULLBACK

    def test_escape_on_the_first_doubling_leaves_no_samples(self):
        # far past the fold, doubling 0 escapes: no curve, so no times either
        est = estimate_pullback(make_model("moving-sn", mu=0.5, r=5.0))
        assert est.status == ESCAPED_DURING_PULLBACK and len(est.start_times) == 1
        assert est.times.shape == (0,) and est.states.shape == (0, 1)

    @pytest.mark.parametrize("name", ["drift", "bounded-ramp-sn"])
    def test_missing_default_repelling_anchor_is_a_value_error(self, name):
        with pytest.raises(ValueError, match="no default repelling anchor"):
            estimate_pullback(make_model(name), sense="repelling")

    def test_eval_requires_convergence(self):
        m = make_model("moving-sn", mu=0.5, r=0.08)
        est = estimate_pullback(m, window=(0.0, 4.0))
        with pytest.raises(TiplabError):
            est.eval(1.0)

    def test_not_converged_when_budget_tiny(self):
        m = make_model("drift", r=0.01)
        est = estimate_pullback(m, window=(0.0, 1.0), max_lookback=2.0, tol=1e-14)
        assert est.status == NOT_CONVERGED

    def test_bad_sense_rejected(self):
        m = make_model("drift")
        with pytest.raises(ValueError):
            estimate_pullback(m, sense="sideways")

    def test_bad_window_rejected(self):
        m = make_model("drift")
        with pytest.raises(ValueError):
            estimate_pullback(m, window=(2.0, 2.0))

    @pytest.mark.parametrize("max_lookback", [math.nan, -3.0, 0.5])
    def test_bad_max_lookback_rejected(self, max_lookback):
        m = make_model("moving-sn")
        with pytest.raises(ValueError):
            estimate_pullback(m, r=0.03, max_lookback=max_lookback)
        with pytest.raises(ValueError):
            find_critical_rate(m, r_range=(0.01, 0.1), resolution=1e-2,
                               max_lookback=max_lookback)


class TestForwardAttraction:
    def test_drift_holds(self):
        m = make_model("drift", r=0.5)
        est = estimate_pullback(m, window=(0.0, 20.0))
        diag = forward_attraction_test(
            m, candidate=est, offsets=[0.01, -0.01], horizon=15.0, eps=0.01
        )
        assert diag.verdict == "holds"

    def test_sn_fails_at_the_fold(self):
        mu = 0.5
        m = make_model("moving-sn", mu=mu, r=mu * mu / 4.0)
        curve = lambda t: oracle_curve(m, "attractor+", t)
        diag = forward_attraction_test(
            m, candidate=curve, offsets=[0.01, -0.01], horizon=40.0, eps=0.01
        )
        assert diag.verdict == "fails"

    def test_sn_holds_below_the_fold(self):
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        curve = lambda t: oracle_curve(m, "attractor+", t)
        diag = forward_attraction_test(
            m, candidate=curve, offsets=[0.01, -0.01], horizon=40.0, eps=0.01
        )
        assert diag.verdict == "holds"

    def test_escape_inside_basin_radius_fails(self):
        mu = 0.5
        m = make_model("moving-sn", mu=mu, r=0.05)
        curve = lambda t: oracle_curve(m, "repeller", t)
        diag = forward_attraction_test(
            m, candidate=curve, offsets=[-0.01], horizon=40.0, eps=0.01,
            basin_radius=0.05,
        )
        assert diag.verdict == "fails"
        assert diag.evidence["probes"][0]["escaped"]

    def test_zero_offset_rejected(self):
        m = make_model("drift")
        est = estimate_pullback(m, window=(0.0, 10.0))
        with pytest.raises(ValueError):
            forward_attraction_test(m, candidate=est, offsets=[0.0], horizon=5.0)

    def test_horizon_beyond_window_rejected(self):
        m = make_model("drift")
        est = estimate_pullback(m, window=(0.0, 2.0))
        with pytest.raises(TiplabError):
            forward_attraction_test(m, candidate=est, offsets=[0.01], horizon=5.0)


class TestEndpointTracking:
    def test_drift_never_tracks(self):
        m = make_model("drift", r=0.5)
        curve = lambda t: oracle_curve(m, "attractor+", t)
        branch = lambda t: oracle_curve(m, "qse_stable+", t)
        diag = endpoint_tracking_test(m, curve=curve, branch=branch,
                                      horizon=15.0, eps=0.01)
        assert diag.verdict == "fails"
        d = diag.evidence["distances"]
        assert d[-1] > d[0]

    def test_sn_constant_gap_counts_as_fails(self):
        # the attractor stays a constant mu/2 - rho short of the QSE
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        curve = lambda t: oracle_curve(m, "attractor+", t)
        branch = lambda t: oracle_curve(m, "qse_stable+", t)
        diag = endpoint_tracking_test(m, curve=curve, branch=branch,
                                      horizon=10.0, eps=0.01)
        assert diag.verdict == "fails"
        gap = 0.25 - math.sqrt(0.0625 - 1.0 / 32.0)
        assert np.max(np.abs(diag.evidence["distances"] - gap)) < 1e-12

    def test_bounded_ramp_tracks_after_the_ramp(self):
        m = make_model("bounded-ramp-sn", mu=0.5, r=0.05)
        est = estimate_pullback(m, window=(0.0, 45.0))
        branch = lambda t: oracle_curve(m, "qse_stable+", t)
        diag = endpoint_tracking_test(m, curve=est, branch=branch,
                                      horizon=45.0, eps=0.01)
        assert diag.verdict == "holds"

    def test_branch_object_accepted(self):
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        branches = qse_continuation(m, s_grid=np.linspace(0.0, 12.0, 25))
        stable = [b for b in branches if b.stability == "stable"][0]
        curve = lambda t: oracle_curve(m, "attractor+", t)
        diag = endpoint_tracking_test(m, curve=curve, branch=stable,
                                      horizon=10.0, eps=0.5)
        assert diag.verdict == "holds"  # eps above the constant gap


class TestFindRoots:
    def test_scalar_cubic(self):
        roots = find_roots(lambda x: np.array([x[0] ** 3 - x[0]]), [(-2.0, 2.0)])
        vals = sorted(r[0] for r in roots)
        assert np.max(np.abs(np.array(vals) - [-1.0, 0.0, 1.0])) < 1e-10

    def test_planar_system(self):
        f = lambda v: np.array([v[0] ** 2 - 1.0, v[1] + v[0]])
        roots = find_roots(f, [(-2.0, 2.0), (-2.0, 2.0)])
        assert len(roots) == 2

    def test_root_on_scan_point_found(self):
        roots = find_roots(lambda x: np.array([x[0]]), [(-2.0, 2.0)],
                           scan_points=41)  # 0 lies exactly on the scan grid
        assert len(roots) == 1


class TestQseContinuation:
    def test_moving_sn_two_branches(self):
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        branches = qse_continuation(m, s_grid=np.linspace(0.0, 4.0, 41))
        assert len(branches) == 2
        labels = sorted(b.stability for b in branches)
        assert labels == ["stable", "unstable"]
        for br in branches:
            assert len(br.samples) == 41
            key = "qse_stable+" if br.stability == "stable" else "qse_unstable"
            for s, x in zip(br.s_values, br.states):
                assert abs(x[0] - oracle_curve(m, key, s)[0]) < 1e-9

    def test_pitchfork_three_branches(self):
        m = make_model("moving-pitchfork", mu=1.0, r=0.5, p=1)
        branches = qse_continuation(m, s_grid=np.linspace(0.0, 3.0, 16))
        assert len(branches) == 3
        labels = sorted(b.stability for b in branches)
        assert labels == ["saddle", "stable", "stable"]

    def test_branch_order_ignores_last_bit_noise(self):
        # the -y and +y branches start at z = -2.4 up to rounding, so an
        # unrounded sort key let the solver's last bit decide their order
        m = make_model("moving-pitchfork", mu=1.0, r=1.2, p=3)
        branches = qse_continuation(m, s_grid=np.linspace(-20.0, 20.0, 81))
        keys = [tuple(np.round(br.samples[0].x, 9)) for br in branches]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_roots_go_to_the_nearest_branch(self):
        # the y = 0 root must continue the saddle branch, not a ±y branch that
        # comes first in list order
        m = make_model("moving-pitchfork", mu=0.5, r=1.2, p=2)
        branches = qse_continuation(m, s_grid=np.linspace(-20.0, 20.0, 81))
        assert "mixed" not in [br.stability for br in branches]
        (saddle,) = [br for br in branches if br.stability == "saddle"]
        assert (saddle.s_values[0], saddle.s_values[-1]) == (-0.5, 20.0)
        assert np.all(saddle.states[:, 1] == 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            qse_continuation(make_model("moving-sn"), s_grid=[])

    def test_branch_interpolation(self):
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        branches = qse_continuation(m, s_grid=np.linspace(0.0, 4.0, 41))
        stable = [b for b in branches if b.stability == "stable"][0]
        # the stable QSE is linear in s, so interpolation is exact
        assert abs(stable.eval(1.23)[0] - oracle_curve(m, "qse_stable+", 1.23)[0]) < 1e-9


class TestComovingConsistency:
    @pytest.mark.parametrize("name", ["drift", "moving-sn", "moving-cubic"])
    def test_scalar_models_pass(self, name):
        report = comoving_consistency_check(make_model(name))
        assert report["passed"], report

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_pitchfork_all_degrees_pass(self, p):
        m = make_model("moving-pitchfork", mu=1.0, r=0.5, p=p)
        report = comoving_consistency_check(m)
        assert report["algebraic"]["max_residual"] <= 1e-12
        assert report["dynamic"]["passed"]
        assert report["lift"]["max_residual"] <= 1e-10
        assert report["passed"]

    def test_pitchfork_lifts_the_saddle(self):
        # the saddle (r, 0) sits at the centre of the co-moving box, where
        # the even scan mesh has no point
        report = comoving_consistency_check(make_model("moving-pitchfork"))
        eq = sorted(tuple(e) for e in report["lift"]["equilibria"])
        s = math.sqrt(0.5)
        assert np.allclose(eq, [(0.5, -s), (0.5, 0.0), (0.5, s)], rtol=0, atol=1e-12)

    def test_no_frame_raises(self):
        with pytest.raises(NoComovingFrame):
            comoving_consistency_check(make_model("bounded-ramp-sn"))

import math

import numpy as np
import pytest

from tiplab.integrate import (
    COMPLETED,
    ESCAPED,
    STEP_UNDERFLOW,
    IntegratorConfig,
    VectorFieldHandle,
    integrate,
)
from tiplab.models import make_model


def linear_decay():
    return VectorFieldHandle(1, lambda x, t, p: -x)


class TestVectorFieldHandle:
    def test_calls_rhs(self):
        f = VectorFieldHandle(2, lambda x, t, p: np.array([x[1], -x[0]]))
        out = f(np.array([1.0, 2.0]), 0.0)
        assert out.tolist() == [2.0, -1.0]

    def test_params_passed(self):
        f = VectorFieldHandle(1, lambda x, t, p: p["a"] * x, params={"a": 3.0})
        assert f(np.array([2.0]), 0.0)[0] == 6.0

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            VectorFieldHandle(0, lambda x, t, p: x)

    def test_shape_mismatch_raises(self):
        f = VectorFieldHandle(2, lambda x, t, p: np.array([1.0]))
        with pytest.raises(ValueError):
            f(np.array([0.0, 0.0]), 0.0)


class TestIntegratorConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.abs_tol == 1e-9
        assert cfg.rel_tol == 1e-9
        assert cfg.max_step == 0.1
        assert cfg.min_step == 1e-13
        assert cfg.escape_norm == 1e6

    @pytest.mark.parametrize("kw", [
        {"abs_tol": 0.0}, {"rel_tol": -1.0}, {"max_step": float("inf")},
        {"escape_norm": 0.0}, {"min_step": 1.0, "max_step": 0.5},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)


class TestIntegrate:
    def test_exponential_decay_accuracy(self):
        traj = integrate(linear_decay(), [1.0], 0.0, 3.0)
        assert traj.status == COMPLETED
        assert abs(traj.final_state[0] - math.exp(-3.0)) < 1e-8

    def test_backward_integration(self):
        traj = integrate(linear_decay(), [1.0], 0.0, -2.0)
        assert traj.status == COMPLETED
        assert traj.direction == -1.0
        assert abs(traj.final_state[0] - math.exp(2.0)) < 1e-7

    def test_dense_output_matches_knots(self):
        traj = integrate(linear_decay(), [1.0], 0.0, 1.0)
        for t, x in zip(traj.times, traj.states):
            assert abs(traj.eval(t)[0] - x[0]) < 1e-12

    def test_dense_output_vectorized(self):
        traj = integrate(linear_decay(), [1.0], 0.0, 1.0)
        grid = np.linspace(0.0, 1.0, 11)
        vals = traj.eval(grid)
        assert vals.shape == (11, 1)
        assert np.max(np.abs(vals[:, 0] - np.exp(-grid))) < 1e-8

    def test_dense_output_backward(self):
        traj = integrate(linear_decay(), [1.0], 0.0, -1.0)
        grid = np.linspace(-1.0, 0.0, 7)
        vals = traj.eval(grid)
        assert np.max(np.abs(vals[:, 0] - np.exp(-grid))) < 1e-7

    def test_eval_out_of_range_raises(self):
        traj = integrate(linear_decay(), [1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            traj.eval(2.0)

    def test_zero_span_raises(self):
        with pytest.raises(ValueError):
            integrate(linear_decay(), [1.0], 1.0, 1.0)

    def test_nonfinite_x0_raises(self):
        with pytest.raises(ValueError):
            integrate(linear_decay(), [float("nan")], 0.0, 1.0)

    def test_immediate_escape(self):
        cfg = IntegratorConfig(escape_norm=10.0)
        traj = integrate(linear_decay(), [100.0], 0.0, 1.0, cfg)
        assert traj.status == ESCAPED
        assert traj.escape_bracket == (0.0, 0.0)

    def test_immediate_escape_in_the_plane(self):
        m = make_model("moving-pitchfork")
        traj = integrate(m.field, [1e13, 0.0], 0.0, 1.0, IntegratorConfig(escape_norm=1e12))
        assert traj.status == ESCAPED
        assert len(traj.times) == 1 and traj.states.shape == (1, 2)
        assert traj.escape_bracket == (0.0, 0.0)
        assert traj.bracket_verified is False
        assert traj.coeffs.shape == (0, 2, 4)
        with pytest.raises(ValueError):
            traj.eval(0.0)


class TestBlowUp:
    def test_quadratic_blowup_bracket(self):
        # dx/dt = x^2 from x0 = 1 blows up at exactly t = 1
        f = VectorFieldHandle(1, lambda x, t, p: x * x)
        traj = integrate(f, [1.0], 0.0, 5.0)
        assert traj.status == ESCAPED
        lo, hi = traj.escape_bracket
        assert lo <= 1.0 <= hi
        assert hi - lo < 1e-3

    def test_backward_blowup_bracket(self):
        # backward in time, dx/dt = -x^2 from x0 = 1 blows up at t = -1
        f = VectorFieldHandle(1, lambda x, t, p: -x * x)
        traj = integrate(f, [1.0], 0.0, -5.0)
        assert traj.status == ESCAPED
        lo, hi = traj.escape_bracket
        assert lo <= -1.0 <= hi
        assert hi - lo < 1e-3

    def test_bracket_is_ordered(self):
        f = VectorFieldHandle(1, lambda x, t, p: x * x)
        traj = integrate(f, [2.0], 0.0, 5.0)
        lo, hi = traj.escape_bracket
        assert lo <= hi

    def test_step_underflow_on_time_singularity(self):
        # x(t) = -log(1-t) grows too slowly to trip the escape norm, but the
        # rhs singularity at t=1 drives the step size to zero
        f = VectorFieldHandle(1, lambda x, t, p: np.array([1.0 / (1.0 - t)]))
        traj = integrate(f, [0.0], 0.0, 2.0)
        assert traj.status == STEP_UNDERFLOW
        assert traj.underflow_time is not None
        assert abs(traj.underflow_time - 1.0) < 1e-3


class TestToleranceScaling:
    def test_error_tracks_tolerance(self):
        errs = []
        for tol in (1e-5, 1e-8, 1e-11):
            cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol, max_step=5.0)
            traj = integrate(linear_decay(), [1.0], 0.0, 3.0, cfg)
            errs.append(abs(traj.final_state[0] - math.exp(-3.0)))
        assert errs[0] > errs[2]
        assert errs[2] < 1e-10

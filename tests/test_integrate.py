import math

import numpy as np
import pytest

from tiplab.integrate import (
    _A,
    _B,
    _C,
    _E,
    COMPLETED,
    ESCAPED,
    STEP_UNDERFLOW,
    Batch,
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

    @pytest.mark.parametrize("t1", [6.0, -6.0])
    def test_eval_at_knots_gives_recorded_states(self, t1):
        # at a knot, eval takes the step that starts there in integration
        # order, whose dense output there is the recorded state, bitwise
        traj = integrate(make_model("moving-sn", mu=0.5, r=0.03).field, [0.3], 0.0, t1)
        assert traj.status == COMPLETED and len(traj.times) > 50
        assert np.array_equal(traj.eval(traj.times), traj.states)

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


def _stage_sum(weights, K):
    """sum_j weights[j] * K[j] in Python floats, over the nonzero weights in
    stage order, the first term assigned."""
    terms = [(w, k) for w, k in zip(weights, K) if w]
    total = [terms[0][0] * v for v in terms[0][1]]
    for w, k in terms[1:]:
        total = [s + w * v for s, v in zip(total, k)]
    return total


def _dp5_attempt(rhs, y, t, h_abs, direction, r):
    """One Dormand–Prince 5(4) attempt from (t, y) by hand: (t_new, y_new,
    each stage's (state, time) after the first, the last stage)."""
    f = lambda Y, T: rhs(np.array([Y]), np.array([T]), np.array([r]))[0].tolist()
    t_new = t + h_abs * direction
    h = t_new - t
    K = [f(y, t)]
    inputs = []
    for j in range(1, 7):
        Y = [v + s * h for v, s in zip(y, _stage_sum(_A[j] if j < 6 else _B, K))]
        inputs.append((Y, t + _C[j] * h if j < 6 else t + h))
        K.append(f(*inputs[-1]))
    return t_new, Y, inputs, K[6]


@pytest.mark.parametrize("direction", [1.0, -1.0])
@pytest.mark.parametrize("name,params,x0,t0,h_abs", [
    # from a zero state each stage's state is its stage sum times h, bits
    # and all, so a sum added in another order shows
    ("moving-sn", {"mu": 0.5, "r": 0.03}, [0.0], -3.7, 0.3),
    ("moving-pitchfork", {"mu": 1.0, "p": 2, "r": 0.8}, [0.0, 0.0], -1.3, 0.05),
    ("moving-pitchfork", {"mu": 1.0, "p": 2, "r": 0.8}, [0.4, 0.9], -1.3, 0.05),
])
def test_batch_step_adds_stages_in_order(name, params, x0, t0, h_abs, direction):
    # a kept step size fixes the attempt, which must equal the hand-made one
    # bitwise, whether the member steps alone or between two others
    model = make_model(name, **params)
    r = model.rate
    t_new, y_new, inputs, f_new = _dp5_attempt(model.rhs, x0, t0, h_abs, direction, r)
    t1 = t0 + 10.0 * direction
    for x0s, member in (([x0], 0), ([[v + 0.1 for v in x0], x0, [v - 0.2 for v in x0]], 1)):
        seen = []

        def rhs(X, T, R):
            seen.append((X[member].tolist(), float(T[member])))
            return model.rhs(X, T, R)

        X = np.array(x0s)
        T0 = t0 + np.arange(len(X)) - member
        batch = Batch(rhs, X, T0, t1, r, 1e-5, 1e-5)
        batch.h_abs = np.full(len(X), h_abs)
        seen.clear()
        assert batch.advance() == []
        assert seen == inputs
        assert not batch.rejected[member]
        assert batch.t[member] == t_new
        assert batch.y[member].tolist() == y_new
        assert batch.f[member].tolist() == f_new

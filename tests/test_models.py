import math

import numpy as np
import pytest

from tiplab.models import (
    MODEL_NAMES,
    CurveUndefined,
    NoComovingFrame,
    RampDescriptor,
    TiplabError,
    comoving_transform,
    eval_rhs,
    make_model,
    oracle_curve,
)


def numerical_slope(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


class TestRamps:
    @pytest.mark.parametrize("kind,kw", [
        ("exponential", {}),
        ("linear", {}),
        ("polynomial", {"degree": 1}),
        ("polynomial", {"degree": 3}),
        ("bounded_tanh", {"scale": 1.5}),
    ])
    def test_slope_matches_numerical_derivative(self, kind, kw):
        ramp = RampDescriptor(kind, 0.37, **kw)
        for t in (-2.0, -0.5, 0.0, 1.3):
            assert abs(ramp.slope(t) - numerical_slope(ramp.value, t)) < 1e-6

    def test_polynomial_is_binomial_sum(self):
        # (1+rt)^p - 1 == sum_{k=1..p} C(p,k) (rt)^k
        ramp = RampDescriptor("polynomial", 0.2, degree=4)
        for t in (-1.0, 0.5, 2.0):
            rt = 0.2 * t
            explicit = sum(math.comb(4, k) * rt**k for k in range(1, 5))
            assert abs(ramp.value(t) - explicit) < 1e-12

    def test_bounded_tanh_limits(self):
        ramp = RampDescriptor("bounded_tanh", 1.0, scale=3.0)
        assert abs(ramp.value(-50.0)) < 1e-12
        assert abs(ramp.value(50.0) - 3.0) < 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RampDescriptor("sigmoid", 1.0)


class TestCatalog:
    def test_names(self):
        assert MODEL_NAMES == (
            "drift", "moving-sn", "moving-cubic", "moving-pitchfork",
            "bounded-ramp-sn",
        )

    def test_unknown_model_rejected(self):
        with pytest.raises(TiplabError):
            make_model("lorenz")

    def test_unknown_param_rejected(self):
        with pytest.raises(TiplabError):
            make_model("drift", sigma=10.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, r):
        with pytest.raises(ValueError):
            make_model("moving-sn", r=r)

    @pytest.mark.parametrize("name", ["moving-sn", "moving-cubic", "moving-pitchfork",
                                      "bounded-ramp-sn"])
    @pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -1.0])
    def test_mu_must_be_positive_and_finite(self, name, mu):
        with pytest.raises(ValueError, match="mu"):
            make_model(name, mu=mu)

    @pytest.mark.parametrize("lambda_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_max_rejected(self, lambda_max):
        with pytest.raises(ValueError, match="lambda_max"):
            make_model("bounded-ramp-sn", lambda_max=lambda_max)

    @pytest.mark.parametrize("p", [2.5, math.nan, math.inf])
    def test_ramp_degree_must_be_whole(self, p):
        with pytest.raises(ValueError, match="whole number"):
            make_model("moving-pitchfork", p=p)

    def test_whole_float_ramp_degree_accepted(self):
        assert make_model("moving-pitchfork", p=2.0).params["p"] == 2

    def test_with_rate_rebuilds(self):
        m = make_model("moving-sn", mu=0.5, r=0.01)
        m2 = m.with_rate(0.02)
        assert m2.rate == 0.02
        assert m2.params["mu"] == 0.5
        assert m.rate == 0.01  # original untouched

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_rhs_shape(self, name):
        m = make_model(name)
        x = np.zeros(m.dimension)
        out = eval_rhs(m, x, 0.3)
        assert out.shape == (m.dimension,)

    def test_rhs_values_moving_sn(self):
        m = make_model("moving-sn", mu=0.5, r=0.0)
        # -(x)(x-mu) at x=1: -(1)(0.5) = -0.5
        assert abs(eval_rhs(m, [1.0], 0.0)[0] + 0.5) < 1e-15


class TestOracles:
    @pytest.mark.parametrize("name,keys", [
        ("drift", ("attractor+",)),
        ("moving-sn", ("attractor+", "repeller")),
        ("moving-cubic", ("attractor+", "attractor-", "repeller")),
        ("moving-pitchfork", ("attractor+", "attractor-", "repeller")),
    ])
    def test_attractor_curves_solve_the_ode(self, name, keys):
        # every closed-form curve must satisfy dx/dt = f(x, t) exactly
        m = make_model(name)
        for key in keys:
            for t in (-1.0, 0.0, 0.7, 2.0):
                deriv = numerical_slope(lambda s: oracle_curve(m, key, s), t)
                resid = np.max(np.abs(eval_rhs(m, oracle_curve(m, key, t), t) - deriv))
                assert resid < 1e-6, (name, key, t)

    def test_qse_curves_are_frozen_roots(self):
        for name in ("moving-sn", "moving-cubic", "bounded-ramp-sn"):
            m = make_model(name)
            for t in (-1.0, 0.0, 2.0):
                for key in ("qse_stable+", "qse_unstable"):
                    resid = np.max(np.abs(eval_rhs(m, oracle_curve(m, key, t), t)))
                    assert resid < 1e-10, (name, key, t)

    def test_moving_sn_closed_forms(self):
        mu, r = 0.5, 1.0 / 32.0
        m = make_model("moving-sn", mu=mu, r=r)
        rho = math.sqrt(mu * mu / 4.0 - r)
        assert abs(oracle_curve(m, "attractor+", 0.0)[0] - (mu / 2 + rho)) < 1e-14
        assert abs(oracle_curve(m, "repeller", 0.0)[0] - (mu / 2 - rho)) < 1e-14
        assert m.critical_rates == (mu * mu / 4.0,)

    def test_moving_sn_curves_undefined_past_fold(self):
        m = make_model("moving-sn", mu=0.5, r=0.1)  # r > mu^2/4
        with pytest.raises(CurveUndefined):
            oracle_curve(m, "attractor+", 0.0)

    def test_cubic_roots_match_numpy(self):
        mu, r = 1.0, 0.2
        m = make_model("moving-cubic", mu=mu, r=r)
        roots = np.sort(np.roots([-1.0, 0.0, mu * mu, -r]).real)
        assert abs(oracle_curve(m, "attractor-", 0.0)[0] - roots[0]) < 1e-12
        assert abs(oracle_curve(m, "repeller", 0.0)[0] - roots[1]) < 1e-12
        assert abs(oracle_curve(m, "attractor+", 0.0)[0] - roots[2]) < 1e-12

    def test_cubic_critical_rates_mirrored(self):
        mu = 1.0
        m = make_model("moving-cubic", mu=mu)
        rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))
        assert m.critical_rates == (rstar, -rstar)
        with pytest.raises(CurveUndefined):
            oracle_curve(m.with_rate(rstar + 0.01), "attractor+", 0.0)
        # bottom attractor survives past the positive fold
        oracle_curve(m.with_rate(rstar + 0.01), "attractor-", 0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("mu", [0.5, 0.75, 1.0, 1.25, 1.5])
    def test_cubic_fold_is_one_degenerate_point(self, mu, sign):
        # at r = sign r* the repeller meets the attractor on that side at
        # u = sign mu / sqrt 3; the other attractor sits at -2 sign mu / sqrt 3
        tol = 1e-12 * max(1.0, mu)
        rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))
        r = sign * rstar
        fold, far = sign * mu / math.sqrt(3.0), -2.0 * sign * mu / math.sqrt(3.0)
        m = make_model("moving-cubic", mu=mu, r=r)
        eq = {label: float(u[0]) for u, label in m.comoving.equilibria()}
        assert len(m.comoving.equilibria()) == 2 and sorted(eq) == ["degenerate", "stable"]
        assert abs(eq["degenerate"] - fold) <= tol
        assert abs(eq["stable"] - far) <= tol
        near, other = ("attractor+", "attractor-") if sign > 0 else ("attractor-", "attractor+")
        for t in (0.0, 2.0):
            for key, u in ((near, fold), ("repeller", fold), (other, far)):
                assert abs(oracle_curve(m, key, t)[0] - (r * t + u)) <= tol, (key, t)
        beyond = m.with_rate(r * (1.0 + 1e-9))
        for key in (near, "repeller"):
            with pytest.raises(CurveUndefined):
                oracle_curve(beyond, key, 0.0)
        oracle_curve(beyond, other, 0.0)

    def test_pitchfork_attractor_pair(self):
        m = make_model("moving-pitchfork", mu=1.0, r=0.5, p=1)
        up = oracle_curve(m, "attractor+", 0.0)
        dn = oracle_curve(m, "attractor-", 0.0)
        assert abs(up[1] - math.sqrt(0.5)) < 1e-14
        assert abs(up[1] + dn[1]) < 1e-14
        assert abs(up[0] - dn[0]) < 1e-14

    def test_missing_curve_raises(self):
        m = make_model("drift")
        with pytest.raises(CurveUndefined):
            oracle_curve(m, "repeller", 0.0)


class TestComoving:
    @pytest.mark.parametrize("name", ["drift", "moving-sn", "moving-cubic",
                                      "moving-pitchfork"])
    def test_transform_roundtrip(self, name):
        m = make_model(name)
        x = np.linspace(0.3, 0.9, m.dimension)
        y = comoving_transform(m, x, 1.2, "to")
        back = comoving_transform(m, y, 1.2, "from")
        assert np.max(np.abs(back - x)) < 1e-14

    def test_no_frame_raises(self):
        m = make_model("bounded-ramp-sn")
        with pytest.raises(NoComovingFrame):
            comoving_transform(m, [0.5], 0.0)

    def test_equilibria_lift_to_solutions(self):
        # y* + v(t) must solve the nonautonomous system identically
        for name in ("drift", "moving-sn", "moving-cubic", "moving-pitchfork"):
            m = make_model(name)
            cm = m.comoving
            for ystar, _label in cm.equilibria():
                for t in (-2.0, 0.0, 1.5):
                    resid = eval_rhs(m, ystar + cm.translation(t), t) \
                        - cm.translation_rate(t)
                    assert np.max(np.abs(resid)) < 1e-10, (name, ystar, t)

    def test_gap_matches_closed_form(self):
        m = make_model("moving-sn", mu=0.5, r=1.0 / 32.0)
        rho = math.sqrt(0.0625 - 1.0 / 32.0)
        assert abs(m.attractor_repeller_gap() - 2.0 * rho) < 1e-14


class TestAnchors:
    def test_comoving_anchor_tracks_translation(self):
        m = make_model("moving-sn", mu=0.5, r=0.03)
        s = -7.0
        got = m.anchor_state([0.1], s)
        assert abs(got[0] - (0.03 * s + 0.25 + 0.1)) < 1e-14

    def test_ramp_anchor_tracks_ramp(self):
        m = make_model("bounded-ramp-sn", mu=0.5, r=0.1)
        s = 2.0
        assert abs(m.anchor_state([0.5], s)[0] - (m.ramp.value(s) + 0.5)) < 1e-14

    def test_anchor_shape_checked(self):
        m = make_model("moving-pitchfork")
        with pytest.raises(ValueError):
            m.anchor_state([1.0], 0.0)

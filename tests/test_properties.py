"""Property tests against the closed forms of the model catalog."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tiplab.integrate import ESCAPED, IntegratorConfig, integrate  # noqa: E402
from tiplab.models import make_model  # noqa: E402
from tiplab.tipping import find_critical_rate  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.25, 1.0),
    # r = mu^2/4 + frac * mu^2/2 spans (mu^2/4, 3 mu^2/4]; frac starts at 1%
    # so that the blow-up lies within a few hundred time units
    frac=st.floats(0.01, 1.0),
    x0=st.floats(-2.0, 2.0),
    t0=st.floats(-5.0, 5.0),
)
def test_moving_sn_blowup_time_in_bracket(mu, frac, x0, t0):
    # co-moving y = x - rt - mu/2 obeys dy/dt = -(y^2 + c) with c = r - mu^2/4
    r = mu * mu / 4.0 + frac * mu * mu / 2.0
    c = r - mu * mu / 4.0
    y0 = x0 - r * t0 - mu / 2.0
    t_sing = t0 + (math.atan(y0 / math.sqrt(c)) + math.pi / 2.0) / math.sqrt(c)
    m = make_model("moving-sn", mu=mu, r=r)
    traj = integrate(m.field, [x0], t0, t_sing + 10.0,
                     IntegratorConfig(escape_norm=m.escape_norm))
    assert traj.status == ESCAPED
    assert traj.bracket_verified is True
    lo, hi = traj.escape_bracket
    assert lo <= t_sing <= hi


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.25, 1.0),
    frac=st.floats(0.003, 1.0),
    x0=st.floats(-2.0, 2.0),
    t0=st.floats(-5.0, 5.0),
)
def test_moving_sn_blowup_is_not_at_the_bracket_end(mu, frac, x0, t0):
    # the upper end must leave a margin past the singularity, so that a
    # slightly less accurate continuation still brackets it
    r = mu * mu / 4.0 + frac * mu * mu / 2.0
    c = r - mu * mu / 4.0
    y0 = x0 - r * t0 - mu / 2.0
    t_sing = t0 + (math.atan(y0 / math.sqrt(c)) + math.pi / 2.0) / math.sqrt(c)
    m = make_model("moving-sn", mu=mu, r=r)
    traj = integrate(m.field, [x0], t0, t_sing + 10.0,
                     IntegratorConfig(escape_norm=m.escape_norm))
    lo, hi = traj.escape_bracket
    assert lo <= t_sing <= lo + 0.9 * (hi - lo)


def _assert_own_brackets(report, rates, resolution):
    """Each closed-form rate lies in its own narrow saddle-node bracket."""
    assert not report.flagged
    assert len(report.brackets) == len(rates)
    for r in rates:
        (b,) = [b for b in report.brackets if b.lower <= r <= b.upper]
        assert b.width <= resolution
        assert b.classification == "saddle-node"


@settings(max_examples=6, deadline=None)
@given(mu=st.floats(0.25, 1.0))
def test_moving_sn_critical_rate(mu):
    rstar = mu * mu / 4.0
    report = find_critical_rate(make_model("moving-sn", mu=mu),
                                r_range=(0.1 * rstar, 3.0 * rstar), resolution=0.01 * rstar)
    _assert_own_brackets(report, [rstar], 0.01 * rstar)


@settings(max_examples=4, deadline=None)
@given(mu=st.floats(0.5, 1.5))
def test_moving_cubic_critical_rates(mu):
    rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))
    report = find_critical_rate(make_model("moving-cubic", mu=mu),
                                r_range=(-3.0 * rstar, 3.0 * rstar), resolution=0.01 * rstar)
    _assert_own_brackets(report, [-rstar, rstar], 0.01 * rstar)

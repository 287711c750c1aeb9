"""Property tests against the closed forms of the model catalog."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from tiplab.analysis import qse_continuation  # noqa: E402
from tiplab.integrate import ESCAPED, IntegratorConfig, integrate  # noqa: E402
from tiplab.models import make_model, oracle_curve  # noqa: E402
from tiplab.tipping import _classify, find_critical_rate  # noqa: E402


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


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.25, 1.0),
    frac=st.floats(0.003, 1.0),
    x0=st.floats(-2.0, 2.0),
    t0=st.floats(-5.0, 5.0),
)
def test_moving_sn_bracket_starts_at_the_escape_crossing(mu, frac, x0, t0):
    # the norm grows by about 1e12 per unit time at the crossing, so one float
    # step of t moves it by 1e-9 to 1e-7 relative: the test asks instead that
    # it cross the escape norm within the bisection's last bracket around lo
    r = mu * mu / 4.0 + frac * mu * mu / 2.0
    c = r - mu * mu / 4.0
    y0 = x0 - r * t0 - mu / 2.0
    t_sing = t0 + (math.atan(y0 / math.sqrt(c)) + math.pi / 2.0) / math.sqrt(c)
    m = make_model("moving-sn", mu=mu, r=r)
    traj = integrate(m.field, [x0], t0, t_sing + 10.0,
                     IntegratorConfig(escape_norm=m.escape_norm))
    lo, _ = traj.escape_bracket
    norm = lambda t: float(np.linalg.norm(traj.eval(t)))
    width = 1e-14 + 2.0 * abs(np.spacing(lo))
    assert norm(lo - width) <= m.escape_norm <= norm(lo + width)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.25, 1.0),
    frac=st.floats(0.003, 1.0),
    x0=st.floats(-2.0, 2.0),
    t0=st.floats(-5.0, 5.0),
)
def test_moving_sn_backward_bracket_ends_at_the_escape_crossing(mu, frac, x0, t0):
    # backward in time y = x - rt - mu/2 blows up to +inf, at t0 - (pi/2 -
    # atan(y0/sqrt c))/sqrt c; the crossing is then the bracket's upper end
    r = mu * mu / 4.0 + frac * mu * mu / 2.0
    c = r - mu * mu / 4.0
    y0 = x0 - r * t0 - mu / 2.0
    t_sing = t0 - (math.pi / 2.0 - math.atan(y0 / math.sqrt(c))) / math.sqrt(c)
    m = make_model("moving-sn", mu=mu, r=r)
    traj = integrate(m.field, [x0], t0, t_sing - 10.0,
                     IntegratorConfig(escape_norm=m.escape_norm))
    _, hi = traj.escape_bracket
    norm = lambda t: float(np.linalg.norm(traj.eval(t)))
    width = 1e-14 + 2.0 * abs(np.spacing(hi))
    assert norm(hi + width) <= m.escape_norm <= norm(hi - width)


# Each QSE branch follows one frozen equilibrium of the catalog, with its label.
_QSE_LABELS = {
    "moving-cubic": {"qse_stable+": "stable", "qse_stable-": "stable",
                     "qse_unstable": "unstable"},
    "moving-pitchfork": {"qse_stable+": "stable", "qse_stable-": "stable",
                         "qse_unstable": "saddle"},
}


def _assert_branches_are_frozen_equilibria(m, s_grid):
    labels = _QSE_LABELS[m.name]
    branches = qse_continuation(m, s_grid=s_grid)
    assert len(branches) == len(labels)
    followed = set()
    for br in branches:
        assert not br.flagged
        assert list(br.s_values) == list(s_grid)
        key = min(labels, key=lambda k: np.linalg.norm(br.states[0] - oracle_curve(m, k, s_grid[0])))
        followed.add(key)
        assert br.stability == labels[key]
        for s, x in zip(br.s_values, br.states):
            exact = oracle_curve(m, key, s)
            assert np.max(np.abs(x - exact)) <= 1e-10 * max(1.0, np.max(np.abs(exact)))
    assert followed == set(labels)


@settings(max_examples=10, deadline=None)
@given(mu=st.floats(0.5, 1.5))
def test_moving_cubic_qse_branches_are_frozen_equilibria(mu):
    _assert_branches_are_frozen_equilibria(make_model("moving-cubic", mu=mu),
                                           np.linspace(0.0, 4.0, 41))


@settings(max_examples=6, deadline=None)
@given(mu=st.floats(0.5, 1.5), p=st.sampled_from([1, 2, 3]))
def test_moving_pitchfork_qse_branches_are_frozen_equilibria(mu, p):
    _assert_branches_are_frozen_equilibria(make_model("moving-pitchfork", mu=mu, p=p),
                                           np.linspace(0.0, 4.0, 41))


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


# ``_classify`` reads only the closed-form co-moving equilibria, so whole
# parameter ranges are cheap to check.
@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.1, 3.0), p=st.sampled_from([1, 2, 3]), frac=st.floats(1e-6, 0.5))
def test_pitchfork_brackets_are_classified_pitchfork(mu, p, frac):
    m = make_model("moving-pitchfork", mu=mu, p=p)
    assert _classify(m, mu - frac * mu, mu + frac * mu) == "pitchfork"


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.1, 3.0), frac=st.floats(1e-6, 0.5))
def test_fold_brackets_are_classified_saddle_node(mu, frac):
    rstar = mu * mu / 4.0
    m = make_model("moving-sn", mu=mu)
    assert _classify(m, rstar * (1 - frac), rstar * (1 + frac)) == "saddle-node"
    rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))
    m = make_model("moving-cubic", mu=mu)
    assert _classify(m, rstar * (1 - frac), rstar * (1 + frac)) == "saddle-node"
    assert _classify(m, -rstar * (1 + frac), -rstar * (1 - frac)) == "saddle-node"


@settings(max_examples=30, deadline=None)
@given(lo=st.floats(1e-3, 5.0), width=st.floats(1e-6, 5.0))
def test_models_without_a_fold_are_unclassified(lo, width):
    for m in (make_model("drift"), make_model("bounded-ramp-sn")):
        assert _classify(m, lo, lo + width) == "unclassified"

"""Property tests against the closed forms of the model catalog: blow-up
times, exit edges, QSE branches, critical-rate brackets and their classes,
and κ, the contraction rate along the pullback attractor; and of a gridded
batch against lone runs with no grid."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from tiplab.analysis import (  # noqa: E402
    _exit_bounds,
    find_roots,
    integrator_config,
    qse_continuation,
)
from tiplab.integrate import (  # noqa: E402
    ESCAPED,
    Batch,
    IntegratorConfig,
    integrate,
)
from tiplab.models import _cubic_comoving_roots, make_model, oracle_curve  # noqa: E402
from tiplab.tipping import _classify, _probe_rates, find_critical_rate  # noqa: E402


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


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.1, 2.0),
    frac=st.floats(0.0, 1.0),
    t0=st.floats(-10.0, 10.0),
    sense=st.sampled_from(["attracting", "repelling"]),
)
def test_moving_sn_exit_edge_leads_to_a_blowup(mu, frac, t0, sense):
    # A pullback member stops once its co-moving y passes an exit edge: the
    # lower edge of the box, -a with a = 2 mu + 1, or the upper edge +a
    # backward in time, where repelling pullbacks step.  There |y| >= a and
    # c = mu^2/4 - r <= a^2/16, so y moves away at a speed of at least
    # (15/16) y^2 and blows up within 16 / (15 a) time units.  A lone
    # integration from just past the edge must escape.  Past r* there is no
    # co-moving equilibrium, and the box is empty: every state lies past the
    # lower edge forward in time, past the upper one backward.
    r = frac * 0.75 * mu * mu
    m = make_model("moving-sn", mu=mu, r=r)
    a = 2.0 * mu + 1.0
    gain, lo, hi = _exit_bounds(m, sense)
    if r > mu * mu / 4.0:
        edge = math.inf if sense == "attracting" else -math.inf
        assert (gain, lo, hi) == (1.0, edge, edge)
        return
    if sense == "attracting":
        assert (lo, hi) == (-a + mu / 2.0, math.inf)
        u0, t1 = lo - 1e-9, t0 + 2.0
    else:
        assert (lo, hi) == (-math.inf, a + mu / 2.0)
        u0, t1 = hi + 1e-9, t0 - 2.0
    x0 = u0 + gain * m.ramp.value(t0)
    traj = integrate(m.field, [x0], t0, t1, IntegratorConfig(escape_norm=m.escape_norm))
    assert traj.status == ESCAPED
    # the bracket's end nearer t0 is where the norm crossed the escape norm
    if sense == "attracting":
        assert traj.escape_bracket[0] - t0 <= 16.0 / (15.0 * a)
    else:
        assert t0 - traj.escape_bracket[1] <= 16.0 / (15.0 * a)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.1, 2.0),
    # r = frac * r*: past r* from frac = 1.05 on, so that the ghost is
    # passed within a few hundred time units
    frac=st.one_of(st.floats(0.0, 1.0), st.floats(1.05, 3.0)),
    t0=st.floats(-10.0, 10.0),
    sense=st.sampled_from(["attracting", "repelling"]),
)
@example(mu=0.5, frac=1.0, t0=0.0, sense="attracting")
def test_moving_sn_has_no_equilibrium_exactly_past_rstar(mu, frac, t0, sense):
    # The premise of the empty exit box: past r* = mu^2/4 the co-moving field
    # g(y) = -(y^2 + c), c = r - r*, has no root, so a state from the default
    # anchor y0 diverges, down forward in time or up backward, and blows up
    # (pi/2 + s atan(y0 / sqrt c)) / sqrt c time units after its start, s the
    # sense's time direction.  A lone integration, with no exit box, must
    # cross the escape norm before then.
    rstar = mu * mu / 4.0
    r = frac * rstar
    m = make_model("moving-sn", mu=mu, r=r)
    cm = m.comoving
    assert (not cm.equilibria()) == (r > rstar)
    if not r > rstar:
        return
    a = 2.0 * mu + 1.0
    assert find_roots(cm.field, [(-100.0 * a, 100.0 * a)], seeds=[[0.0]]) == []
    s = 1.0 if sense == "attracting" else -1.0
    anchor = (m.default_anchors if s > 0 else m.repeller_anchors)[0]
    c = r - rstar
    y0 = float(anchor[0])
    t_blow = (math.pi / 2.0 + s * math.atan(y0 / math.sqrt(c))) / math.sqrt(c)
    x0 = m.anchor_state(anchor, t0)
    traj = integrate(m.field, x0, t0, t0 + s * (t_blow + 10.0),
                     IntegratorConfig(escape_norm=m.escape_norm))
    assert traj.status == ESCAPED
    lo, hi = traj.escape_bracket
    near = lo - t0 if s > 0 else t0 - hi
    assert 0.0 <= near <= t_blow


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.5, 1.5), frac=st.floats(-3.0, 3.0), r=st.floats(1e-3, 10.0))
def test_attracting_frames_have_no_exit_edge(mu, frac, r):
    # moving-cubic (|r| <= 3 r*) and drift point into the co-moving box on
    # both sides; the planar pitchfork and the frameless bounded ramp get no
    # edge at all
    rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))
    for m in (make_model("moving-cubic", mu=mu, r=frac * rstar), make_model("drift", r=r),
              make_model("moving-pitchfork", mu=mu, r=r), make_model("bounded-ramp-sn", r=r)):
        assert _exit_bounds(m, "attracting")[1:] == (-math.inf, math.inf)


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


def _assert_own_brackets(report, rates, resolution, classification="saddle-node"):
    """Each closed-form rate lies in its own narrow bracket of its class."""
    assert not report.flagged
    assert len(report.brackets) == len(rates)
    for r in rates:
        (b,) = [b for b in report.brackets if b.lower <= r <= b.upper]
        assert b.width <= resolution
        assert b.classification == classification
        assert not b.flagged


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


@settings(max_examples=3, deadline=None)
@given(mu=st.floats(0.5, 1.5))
def test_moving_pitchfork_critical_rate(mu):
    report = find_critical_rate(make_model("moving-pitchfork", mu=mu, p=1),
                                r_range=(0.3 * mu, 3.0 * mu), resolution=0.01 * mu)
    _assert_own_brackets(report, [mu], 0.01 * mu, "pitchfork")


def _contractions(name, rates, **params):
    """κ of the search's probes at each rate, at its default tolerance; all
    of the rates are untipped."""
    m = make_model(name, **params)
    probes = _probe_rates(m, rates, None, (0.0, 4.0), 1e-6, 4096.0, integrator_config(m))
    assert [verdict for verdict, _ in probes] == [False] * len(rates)
    return [kappa for _, kappa in probes]


# κ is -g'(y) at the closed-form co-moving attractor y, which the converged
# curve follows: several rates of one model are probed in one batch.
fractions = st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4)


@settings(max_examples=10, deadline=None)
@given(mu=st.floats(0.25, 1.0), fracs=fractions)
@example(mu=0.5, fracs=[0.48, 0.72, 0.88, 0.96, 0.992])  # r = 0.03 ... 0.062
def test_moving_sn_contraction(mu, fracs):
    rstar = mu * mu / 4.0
    rates = [f * rstar for f in fracs]
    for r, kappa in zip(rates, _contractions("moving-sn", rates, mu=mu)):
        assert kappa == pytest.approx(2.0 * math.sqrt(rstar - r), rel=1e-3)


@settings(max_examples=10, deadline=None)
@given(mu=st.floats(0.5, 1.5), fracs=fractions)
@example(mu=1.0, fracs=[0.5196, 0.9873])  # r = 0.2 and 0.38
def test_moving_cubic_contraction(mu, fracs):
    # 0 < r < r*: the top attractor, nearer its fold, contracts least
    rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))
    rates = [f * rstar for f in fracs]
    for r, kappa in zip(rates, _contractions("moving-cubic", rates, mu=mu)):
        u = _cubic_comoving_roots(mu, r, rstar)[-1]
        assert kappa == pytest.approx(3.0 * u * u - mu * mu, rel=1e-3)


@settings(max_examples=4, deadline=None)
@given(mu=st.floats(0.5, 1.5), p=st.sampled_from([1, 2, 3]),
       gaps=st.lists(st.floats(0.05, 0.45), min_size=1, max_size=3))
@example(mu=1.0, p=1, gaps=[0.05, 0.25, 0.45])
def test_moving_pitchfork_contraction(mu, p, gaps):
    # below r* = mu, Dg at the attractor pair has eigenvalues -1 and
    # -2 (mu - r); r = mu - gap keeps the second one the larger
    rates = [mu - gap for gap in gaps]
    for gap, kappa in zip(gaps, _contractions("moving-pitchfork", rates, mu=mu, p=p)):
        assert kappa == pytest.approx(2.0 * gap, rel=1e-3)


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


# A batch with a grid samples and logs each accepted step that ends past
# grid[0] or on t1.  Members start up to 8 before the grid, forward in time
# on the attracting anchor or backward on the repelling one (the planar
# pitchfork has none: it starts at the origin), under step caps from 0.005
# (several steps per grid point) to none.
_SAMPLING_CASES = {
    "moving-sn": ({"mu": 0.5, "r": 0.03}, [0.5], [0.0]),
    "moving-pitchfork": ({"mu": 1.0, "r": 0.5, "p": 2}, [1.0, 1.0], [0.0, 0.0]),
}


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(sorted(_SAMPLING_CASES)), forward=st.booleans(),
       offsets=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=3),
       max_step=st.floats(0.005, 2.0) | st.just(math.inf))
@example(name="moving-sn", forward=False, offsets=[0.0, 0.25], max_step=0.005)
def test_gridded_member_samples_and_logs_what_a_lone_run_gives(name, forward, offsets,
                                                               max_step):
    params, attracting, repelling = _SAMPLING_CASES[name]
    m = make_model(name, **params)
    cfg = integrator_config(m)
    s = 1.0 if forward else -1.0
    t1 = 4.0 * s
    grid = np.linspace(0.0, t1, 201)
    t0 = -s * np.array(offsets)
    x0 = m.anchor_state(np.array(attracting if forward else repelling), t0[:, None])

    def run(x0, t0, grid):
        batch = Batch(m.rhs, x0, t0, t1, m.rate, cfg.rel_tol, cfg.abs_tol, cfg.escape_norm,
                      cfg.min_step, max_step, grid)
        while batch.n_active:
            batch.advance()
        return batch

    together = run(x0, t0, grid)
    for i in range(len(offsets)):
        lone = run(x0[i:i + 1], t0[i], None)
        assert lone.final[0][0] == together.final[i][0] == "completed"
        full, window = lone.trajectory(0), together.trajectory(i)
        assert np.array_equal(together.samples[i], full.eval(grid))
        assert s * window.times[0] <= 0.0 < s * window.times[1]
        k = len(full.times) - len(window.times)
        assert np.array_equal(window.times, full.times[k:])
        assert np.array_equal(window.states, full.states[k:])
        assert np.array_equal(window.coeffs, full.coeffs[k:])

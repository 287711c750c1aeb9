"""Batched integration: a member's result does not depend on the batch it
runs in, a relaxed retry reuses the doublings already integrated, the
bisection rounds return what a one-probe-per-midpoint bisection returns,
and undecidable rates and extra flips shape the brackets as documented."""
import numpy as np
import pytest

from tiplab.analysis import (
    PullbackJob,
    _exit_bounds,
    estimate_pullback,
    forward_attraction_test,
    integrator_config,
    run_pullbacks,
)
from tiplab.integrate import Batch, integrate, integrate_members
from tiplab import tipping
from tiplab.models import make_model
from tiplab.tipping import (
    CriticalRateBracket,
    TippingReport,
    _classify,
    _probe_rates,
    _rate_jobs,
    _scan_rates,
    find_critical_rate,
)


def assert_same_estimate(a, b):
    assert a.status == b.status
    assert a.start_times == b.start_times
    assert a.convergence_gaps == b.convergence_gaps
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    if a.status == "converged":
        grid = np.linspace(a.window[0], a.window[1], 7)
        assert np.array_equal(a.eval(grid), b.eval(grid))


@pytest.mark.parametrize("name,params,r_range,resolution,rstar", [
    # the critical-rate scans of moving-sn (mu = 0.5) and the planar pitchfork
    ("moving-sn", {"mu": 0.5}, (0.1 * 0.0625, 3.0 * 0.0625), 1e-4, 0.0625),
    ("moving-pitchfork", {"mu": 1.0, "p": 1}, (0.3, 3.0), 1e-2, 1.0),
])
def test_scan_member_equals_lone_estimate(name, params, r_range, resolution, rstar):
    model = make_model(name, **params)
    rates = _scan_rates(r_range, resolution)
    jobs = _rate_jobs(model, rates, None, (0.0, 4.0), 1e-6, 4096.0)
    run_pullbacks([job for per_rate in jobs for job in per_rate], integrator_config(model))

    near = int(np.searchsorted(rates, rstar))
    picks = sorted(set(np.linspace(0, len(rates) - 1, 6).astype(int)) | {near - 1, near})
    statuses = set()
    for i in picks:
        for job in jobs[i]:
            alone = estimate_pullback(model, r=rates[i], anchor=job.anchor, tol=1e-6)
            assert_same_estimate(job.estimate, alone)
            statuses.add(alone.status)
    assert "converged" in statuses
    assert len(rates) == (16 if name == "moving-sn" else 11)


@pytest.mark.parametrize("r,tol,max_lookback,pending,integrated", [
    # the rate find_critical_rate retries for moving-sn mu = 0.5: the looser
    # tolerance converges within the doublings already integrated
    (0.06248775531580891, 1e-6, 4096.0, [13, 14], []),
    # a lookback too short at first: the retry integrates two more doublings
    (0.0624, 1e-6, 64.0, [7, 8], [7, 8]),
])
def test_relaxed_retry_reuses_doublings(r, tol, max_lookback, pending, integrated):
    model = make_model("moving-sn", mu=0.5)
    cfg = integrator_config(model)
    (jobs,) = _rate_jobs(model, [r], None, (0.0, 4.0), tol, max_lookback)
    run_pullbacks(jobs, cfg)
    (job,) = jobs
    assert job.estimate.status == "not_converged"
    kept = dict(job.outcomes)

    job.relax(tol * 100.0, max_lookback * 4.0)
    assert job.pending() == pending
    run_pullbacks(jobs, cfg)
    assert all(job.outcomes[k] is traj for k, traj in kept.items())
    assert sorted(set(job.outcomes) - set(kept)) == integrated

    fresh = estimate_pullback(model, r=r, tol=tol * 100.0, max_lookback=max_lookback * 4.0)
    assert_same_estimate(job.estimate, fresh)


def test_resolve_picks_up_where_it_stopped():
    # outcomes recorded deepest first: the doubling loop waits at doubling 0,
    # then reads every kept doubling once and matches the in-order estimate
    model = make_model("moving-sn", mu=0.5, r=0.03)
    cfg = integrator_config(model)
    job = lambda tol: PullbackJob(model, np.array([0.0]), "attracting", (0.0, 4.0), tol, 1024.0)
    ref = job(1e-12)
    run_pullbacks([ref], cfg)
    assert ref.estimate.status == "not_converged" and sorted(ref.outcomes) == list(range(11))

    late = job(1e-12)
    for k in sorted(ref.outcomes, reverse=True):
        late.record(k, ref.outcomes[k], ref._legs[k])
        assert late.resolve(cfg) == (k == 0)
    assert_same_estimate(late.estimate, ref.estimate)

    # relax starts the loop over: a looser tol converges on the kept doublings
    late.relax(1e-4, 1024.0)
    assert late.pending() == [] and late.resolve(cfg)
    fresh = estimate_pullback(model, anchor=[0.0], tol=1e-4, max_lookback=1024.0)
    assert fresh.status == "converged" and len(fresh.start_times) == 8
    assert_same_estimate(late.estimate, fresh)


def test_forward_probes_match_lone_integration():
    # the probes run as one batch; each must trace exactly what integrating
    # it alone traces, the escaping probe (below the repeller) included
    model = make_model("moving-sn", mu=0.5, r=0.03)
    cfg = integrator_config(model)
    est = estimate_pullback(model, tol=1e-8)
    offsets = [0.01, -0.01, -0.5]
    diag = forward_attraction_test(model, candidate=est, offsets=offsets, horizon=4.0, cfg=cfg)
    grid = diag.evidence["times"]
    probes = diag.evidence["probes"]
    assert [p["escaped"] for p in probes] == [False, False, True]
    for off, probe in zip(offsets, probes):
        alone = integrate(model.field, est.eval(0.0) + off, 0.0, 4.0, cfg)
        assert probe.get("status", "completed") == alone.status
        if not probe["escaped"]:
            d = np.linalg.norm(alone.eval(grid) - est.eval(grid), axis=1)
            assert np.array_equal(probe["distances"], d)


@pytest.mark.parametrize("name,params,x0s,t1", [
    # beyond r* = 0.0625 every solution escapes; in-range starts complete
    ("moving-sn", {"mu": 0.5, "r": 0.1}, [[0.3], [-1.0]], 30.0),
    ("moving-sn", {"mu": 0.5, "r": 0.03}, [[0.4], [0.2]], 8.0),
    ("moving-pitchfork", {"mu": 1.0, "r": 0.5, "p": 2}, [[1.0, 0.5], [0.5, -0.2]], 8.0),
])
def test_lone_member_steps_like_a_batched_one(name, params, x0s, t1):
    # a member steps bitwise alike alone and in a batch; a companion with an
    # earlier start time keeps the batch above one member to the end.  The
    # step cap is raised so that error control sets every step.
    model = make_model(name, **params)
    cfg = integrator_config(model, {"max_step": 100.0})

    def run(x0s, t0s):
        batch = Batch(model.rhs, np.array(x0s, dtype=float), t0s, t1, model.rate, cfg.rel_tol,
                      cfg.abs_tol, cfg.escape_norm, cfg.min_step, cfg.max_step)
        while batch.n_active:
            batch.advance()
        return [batch.trajectory(i) for i in range(len(x0s))]

    companion = [0.0] * model.dimension
    together = run(x0s + [companion], [0.0] * len(x0s) + [-9.0 * t1])
    for x0, batched in zip(x0s, together):
        (alone,) = run([x0], 0.0)
        assert alone.status == batched.status
        assert np.array_equal(alone.times, batched.times)
        assert np.array_equal(alone.states, batched.states)
        assert np.array_equal(alone.coeffs, batched.coeffs)
    assert {traj.status for traj in together[:-1]} <= {"completed", "escaped"}


@pytest.mark.parametrize("sense", ["attracting", "repelling"])
@pytest.mark.parametrize("max_step", [0.1, 0.35])
@pytest.mark.parametrize("name,params,starts", [
    ("moving-sn", {"mu": 0.5, "r": 0.03},
     {"attracting": [[0.9], [0.6], [0.75]], "repelling": [[0.1], [-0.2], [0.3]]}),
    ("moving-pitchfork", {"mu": 1.0, "r": 0.5, "p": 2},
     {"attracting": [[1.0, 0.9], [0.8, -0.9], [1.0, 1.1]],
      "repelling": [[0.1, 0.0], [0.05, 0.05], [0.2, -0.1]]}),
])
def test_sampled_curves_equal_dense_output(name, params, starts, max_step, sense):
    # a member sampled while it steps reads, bitwise, what its logged
    # trajectory's dense output gives on the batch's grid: batched and alone,
    # and what a lone run with no grid gives there.  A step cap of 0.35 spans
    # about 17 points of a 201-point grid over (0, 4), so one step writes
    # several points.  The repelling sense steps backward in time, on a grid
    # that runs from 0 down to -4.
    model = make_model(name, **params)
    cfg = integrator_config(model, {"max_step": max_step})
    x0s = starts[sense]
    t1 = 4.0 if sense == "attracting" else -4.0
    grid = np.linspace(0.0, t1, 201)

    def run(x0s, grid):
        batch = Batch(model.rhs, np.array(x0s, dtype=float), 0.0, t1, model.rate, cfg.rel_tol,
                      cfg.abs_tol, cfg.escape_norm, cfg.min_step, cfg.max_step, grid=grid)
        ids = range(len(x0s))
        while batch.n_active:
            batch.advance()
        assert all(batch.final[i][0] == "completed" for i in ids)
        return [(batch.samples.get(i), batch.trajectory(i)) for i in ids]

    together = run(x0s, grid)
    for i, (samples, traj) in enumerate(together):
        assert np.array_equal(samples, traj.eval(grid))
        assert len(traj.times) - 1 < 200  # steps span several grid points
        ((alone, alone_traj),) = run(x0s[i:i + 1], grid)
        assert np.array_equal(alone, alone_traj.eval(grid))
        assert np.array_equal(alone, samples)
        ((_, full),) = run(x0s[i:i + 1], None)
        assert np.array_equal(full.times, traj.times)
        assert np.array_equal(samples, full.eval(grid))


def test_samples_at_a_small_step_cap_equal_dense_output():
    # a step cap of 0.005 on a grid spaced 0.02 leaves most steps with no
    # grid point; what the others write is, bitwise, the dense output on the
    # grid of a lone run with no grid
    model = make_model("moving-sn", mu=0.5, r=0.03)
    grid = np.linspace(0.0, 4.0, 201)
    x0 = np.array([[0.9], [0.6]])
    batch = Batch(model.rhs, x0, 0.0, 4.0, model.rate, 1e-9, 1e-9, max_step=0.005, grid=grid)
    while batch.n_active:
        batch.advance()
    assert min(len(batch.trajectory(i).times) - 1 for i in (0, 1)) >= 800
    cfg = integrator_config(model, {"max_step": 0.005})
    for i in (0, 1):
        alone = integrate_members(model.rhs, x0[i:i + 1], 0.0, 4.0, cfg, model.rate).trajectory(0)
        assert np.array_equal(batch.samples[i], alone.eval(grid))


def test_exit_box_stops_only_its_own_member():
    # moving-sn members past the box's lower edge at r = 0.05 <= r* = 0.0625
    # diverge: with their exit box they stop on the first accepted step, far
    # below the escape norm; without it they crawl on to the norm.  A member
    # at r = 0.2 > r*, where the co-moving field has no equilibrium, gets an
    # empty box and stops on its first accepted step from inside the old
    # box.  A member at r = 0.03 on the attractor completes.  Each ends as it
    # does alone.
    model = make_model("moving-sn", mu=0.5)
    rates = np.array([0.05, 0.05, 0.03, 0.2])
    bounds = np.array([_exit_bounds(model.with_rate(r), "attracting") for r in rates])
    bounds[1] = (0.0, -np.inf, np.inf)
    assert bounds[0, 1] == -1.75 and bounds[2, 1] == -1.75
    assert tuple(bounds[3]) == (1.0, np.inf, np.inf)
    x0 = np.array([[-1.8], [-1.8], [0.5], [0.5]])

    def run(ids):
        batch = Batch(model.rhs, x0[ids], 0.0, 4.0, rates[ids], 1e-9, 1e-9, escape_norm=1e6,
                      max_step=0.1, frame=model.ramp.value, bounds=bounds[ids])
        advances = 0
        while batch.n_active:
            batch.advance()
            advances += 1
        return batch, advances

    together, _ = run(np.arange(4))
    final = together.final
    assert [final[i][0] for i in range(4)] == ["escaped", "escaped", "completed", "escaped"]
    assert abs(final[0][2][0]) < 2.0 and abs(final[1][2][0]) >= 1e6
    assert abs(final[3][2][0]) < 1.0
    for i in (0, 3):  # one accepted step, two logged times
        assert len(together.trajectory(i).times) == 2
    for i in range(4):
        alone, advances = run(np.array([i]))
        status, t, y = alone.final[0]
        assert (status, t, y.tobytes()) == (final[i][0], final[i][1], final[i][2].tobytes())
        if i in (0, 3):
            assert advances <= 2  # the first accepted step


@pytest.mark.parametrize("t0", [0.5, -1.0])
def test_member_ending_on_the_grid_must_start_at_or_before_it(t0):
    # a batch samples every member on its grid, which needs each to cover the
    # whole grid: one that starts after grid[0] is refused, one that starts
    # before it is sampled; a grid that ends off the end time is refused
    model = make_model("moving-sn", mu=0.5, r=0.03)
    grid = np.linspace(0.0, 4.0, 201)
    if t0 > 0.0:
        with pytest.raises(ValueError, match="grid\\[0\\] or before it"):
            Batch(model.rhs, [[0.5], [0.5]], [0.0, t0], 4.0, model.rate, 1e-9, 1e-9, grid=grid)
    else:
        batch = Batch(model.rhs, [[0.5]], t0, 4.0, model.rate, 1e-9, 1e-9, grid=grid)
        while batch.n_active:
            batch.advance()
        assert batch.final[0][0] == "completed"
        assert list(batch.samples) == [0]
        assert np.array_equal(batch.samples[0], batch.trajectory(0).eval(grid))
    with pytest.raises(ValueError, match="end on t1"):
        Batch(model.rhs, [[0.5]], t0, 3.0, model.rate, 1e-9, 1e-9, grid=grid)


@pytest.mark.parametrize("t0", [0.0, 8.0])
def test_one_point_grid_samples_the_end_state(t0):
    # a grid that is the single point t1 has no order of its own: forward
    # or backward, the batch samples its member's end state there
    model = make_model("moving-sn", mu=0.5, r=0.03)
    batch = Batch(model.rhs, [[0.5]], t0, 4.0, model.rate, 1e-9, 1e-9, grid=[4.0])
    while batch.n_active:
        batch.advance()
    assert batch.final[0][0] == "completed"
    assert np.array_equal(batch.samples[0], batch.trajectory(0).eval([4.0]))


@pytest.mark.parametrize("sense", ["attracting", "repelling"])
@pytest.mark.parametrize("name,params,starts", [
    ("moving-sn", {"mu": 0.5, "r": 0.03},
     {"attracting": [[0.9], [0.6], [0.75], [0.3]], "repelling": [[0.1], [-0.2], [0.3], [0.0]]}),
    ("moving-pitchfork", {"mu": 1.0, "r": 0.5, "p": 2},
     {"attracting": [[1.0, 0.9], [0.8, -0.9], [0.8, 1.0], [0.9, 1.0]],
      "repelling": [[0.1, 0.0], [0.05, 0.05], [0.2, -0.1], [0.1, 0.1]]}),
])
def test_members_completing_in_one_advance_each_get_their_own_curve(name, params, starts,
                                                                    sense):
    # the first three members start together on grid[0] and, under a step
    # cap, complete in the same advance; the fourth starts a unit earlier
    # and, in that same advance, leaves an exit box set on its first
    # coordinate inside the window.  Each completed member's samples are,
    # bitwise, its trajectory's dense output on the grid; the escaped
    # member, whose window steps are logged, has none.  A member makes one
    # step attempt per advance whatever else is in its batch, so lone runs
    # tell which advance each event falls on.
    model = make_model(name, **params)
    s = 1.0 if sense == "attracting" else -1.0
    t1 = 4.0 * s
    grid = np.linspace(0.0, t1, 201)
    x0 = np.array(starts[sense], dtype=float)
    t0 = np.array([0.0, 0.0, 0.0, -s])
    free = (0.0, -np.inf, np.inf)
    flat = lambda T, R: np.zeros_like(T)

    def run(ids, bounds):
        batch = Batch(model.rhs, x0[ids], t0[ids], t1, model.rate, 1e-9, 1e-9, max_step=0.05,
                      grid=grid, frame=flat, bounds=bounds)
        stopped, first = [], []
        while batch.n_active:
            stopped.append(batch.advance())
            first.append(batch.y[0, 0] if batch.n_active else np.nan)
        return batch, stopped, first

    ends = [len(run([i], free)[1]) for i in range(3)]
    assert len(set(ends)) == 1
    (c,) = set(ends)  # the advance the three complete in
    _, _, u = run([3], free)
    assert len(u) > c
    # an edge between the fourth member's first coordinate before and after
    # advance c, which no earlier advance has crossed
    edge = 0.5 * (u[c - 2] + u[c - 1])
    up = u[c - 1] > edge
    assert all((v > edge) != up for v in u[:c - 1])
    box = (0.0, -np.inf, edge) if up else (0.0, edge, np.inf)

    batch, stopped, _ = run([0, 1, 2, 3], np.array([free, free, free, box]))
    assert sorted(stopped[c - 1]) == [0, 1, 2, 3]
    assert [batch.final[i][0] for i in range(4)] == ["completed"] * 3 + ["escaped"]
    assert 0.0 < s * batch.final[3][1] < 4.0
    assert sorted(batch.samples) == [0, 1, 2]
    for i in range(3):
        assert np.array_equal(batch.samples[i], batch.trajectory(i).eval(grid))
    assert len(batch.trajectory(3).times) > 1
    assert not np.array_equal(batch.samples[0], batch.samples[1])


def test_step_log_handle_survives_the_log_growing():
    # 40 members with no grid log every accepted step; member 0, a short
    # leg, stops early, and the handle to its steps is taken then.  The log
    # grows through at least three doublings after that, and the handle
    # still builds, bitwise, what member 0 gives in a batch of its own, as
    # do the others.
    model = make_model("moving-sn", mu=0.5, r=0.03)
    x0 = np.linspace(0.2, 1.2, 40)[:, None]
    t0 = np.r_[3.9, np.zeros(39)]

    def run(ids):
        return Batch(model.rhs, x0[ids], t0[ids], 4.0, model.rate, 1e-9, 1e-9, max_step=0.1)

    batch = run(np.arange(40))
    while 0 not in batch.final:
        batch.advance()
    handle, early = batch.steps(0), len(batch._log.cols[0])
    while batch.n_active:
        batch.advance()
    assert len(batch._log.cols[0]) >= 8 * early
    for i, traj in [(0, handle())] + [(i, batch.trajectory(i)) for i in (1, 20, 39)]:
        lone = run([i])
        while lone.n_active:
            lone.advance()
        alone = lone.trajectory(0)
        assert traj.status == alone.status == "completed"
        assert np.array_equal(traj.times, alone.times)
        assert np.array_equal(traj.states, alone.states)
        assert np.array_equal(traj.coeffs, alone.coeffs)


@pytest.mark.parametrize("x0,t0,t1,grid,match", [
    # members on both sides of the end time, or one at it
    ([[0.5], [0.5]], [0.0, 5.0], 4.0, None, "same side of t1"),
    ([[0.5], [0.5]], [0.0, 4.0], 4.0, None, "same side of t1"),
    ([[0.5]], -4.0, -4.0, None, "same side of t1"),
    # a grid that ends off the end time, either way it runs
    ([[0.5]], 0.0, 4.0, np.linspace(0.0, 3.0, 31), "end on t1"),
    ([[0.5]], 0.0, -4.0, np.linspace(0.0, -3.0, 31), "end on t1"),
    # a grid that runs against the batch's direction of time
    ([[0.5]], 0.0, 4.0, np.linspace(8.0, 4.0, 41), "before it"),
    # no members
    (np.empty((0, 1)), 0.0, 4.0, None, "at least one member"),
    # a grid that turns back, or repeats a point, on its way to t1: its
    # samples would come from the wrong steps
    ([[0.5]], 0.0, 4.0, [0.0, 3.0, 2.0, 4.0], "strictly"),
    ([[0.5]], 0.0, -4.0, [0.0, -3.0, -2.0, -4.0], "strictly"),
    ([[0.5]], 0.0, 4.0, [0.0, 2.0, 2.0, 4.0], "strictly"),
    ([[0.5]], 0.0, -4.0, [0.0, -2.0, -2.0, -4.0], "strictly"),
])
def test_batch_refuses_what_is_not_one_integration(x0, t0, t1, grid, match):
    # a batch is one integration: at least one member, all toward one end
    # time from one side of it, on a grid, if any, that ends there
    model = make_model("moving-sn", mu=0.5, r=0.03)
    with pytest.raises(ValueError, match=match):
        Batch(model.rhs, x0, t0, t1, model.rate, 1e-9, 1e-9, grid=grid)


@pytest.mark.parametrize("sense", ["attracting", "repelling"])
@pytest.mark.parametrize("name,params,starts", [
    ("moving-sn", {"mu": 0.5, "r": 0.03},
     {"attracting": [[0.9], [0.6]], "repelling": [[0.1], [0.3]]}),
    ("moving-pitchfork", {"mu": 1.0, "r": 0.5, "p": 2},
     {"attracting": [[1.0, 0.9], [0.8, -0.9]], "repelling": [[0.1, 0.0], [0.2, -0.1]]}),
])
def test_member_starting_before_the_grid_samples_its_dense_output(name, params, starts, sense):
    # members that start 3 and 0.25 before a grid over (0, 4), forward or
    # backward, uncapped like a pullback leg: each samples, bitwise, what a
    # lone run with no grid gives on the grid, and the steps the gridded
    # batch logs for it, from its first step past grid[0], are the tail of
    # the lone run's steps
    model = make_model(name, **params)
    cfg = integrator_config(model)
    x0s = np.array(starts[sense], dtype=float)
    s = 1.0 if sense == "attracting" else -1.0
    t0s, t1 = -s * np.array([3.0, 0.25]), 4.0 * s
    grid = np.linspace(0.0, t1, 201)
    off_grid = s * np.linspace(0.013, 3.983, 37)

    def run(x0, t0, grid):
        batch = Batch(model.rhs, x0, t0, t1, model.rate, cfg.rel_tol, cfg.abs_tol,
                      cfg.escape_norm, cfg.min_step, grid=grid)
        while batch.n_active:
            batch.advance()
        assert all(batch.final[i][0] == "completed" for i in range(len(x0)))
        return batch

    together = run(x0s, t0s, grid)
    for i in (0, 1):
        traj = run(x0s[i:i + 1], t0s[i], None).trajectory(0)
        assert np.array_equal(together.samples[i], traj.eval(grid))
        assert np.array_equal(run(x0s[i:i + 1], t0s[i], grid).samples[0], together.samples[i])
        window = together.trajectory(i)
        assert s * window.times[0] <= 0.0 < s * window.times[1]
        assert np.array_equal(window.times, traj.times[-len(window.times):])
        assert np.array_equal(window.eval(grid), together.samples[i])
        assert np.array_equal(window.eval(off_grid), traj.eval(off_grid))


def test_pullback_batch_needs_one_window():
    model = make_model("moving-sn", mu=0.5)
    cfg = integrator_config(model)
    jobs = [job for window in [(0.0, 4.0), (0.0, 2.0)]
            for job in _rate_jobs(model, [0.03], None, window, 1e-6, 4096.0)[0]]
    with pytest.raises(ValueError, match="window"):
        run_pullbacks(jobs, cfg)


def test_batch_steps_through_overflow_without_warning():
    # the blow-up probe's settings, with no escape norm, from a start whose
    # rhs overflows at once: the batch ignores it (warnings are errors here)
    # and stops the member once its step underflows
    model = make_model("moving-sn", mu=0.5, r=0.1)
    batch = Batch(model.rhs, [[-1e150]], 0.0, 1.0, model.rate, 1e-3, 1.0)
    while batch.n_active:
        batch.advance()
    assert batch.final[0][0] == "step_underflow"


def test_pullback_member_starting_past_the_escape_norm():
    # p = 3 at r = 3: the doubling k = 12 starts at a norm of about 1.85e12,
    # past the model's escape norm of 1e12, so its Batch stops it before
    # any step; the estimate converges on 7 start times without it, exactly
    # as it does with a lookback where no member starts past the norm
    model = make_model("moving-pitchfork", p=3, r=3.0)
    assert model.escape_norm == 1e12
    deep, short = estimate_pullback(model), estimate_pullback(model, max_lookback=2048)
    assert deep.status == "converged" and len(deep.start_times) == 7
    assert_same_estimate(deep, short)
    for name in ("window", "anchor_note", "sense"):
        assert getattr(deep, name) == getattr(short, name)
    assert np.array_equal(deep.anchor, short.anchor)


@pytest.mark.parametrize("name,params,sense", [
    ("moving-sn", {"mu": 0.5, "r": 0.03}, "attracting"),
    ("moving-sn", {"mu": 0.5, "r": 0.03}, "repelling"),
    ("moving-pitchfork", {"mu": 1.0, "r": 0.5, "p": 1}, "attracting"),
])
def test_estimate_eval_reproduces_states(name, params, sense):
    # eval reads the deciding doubling's logged window steps; on the
    # estimate's own times it must give back the batch-sampled states
    est = estimate_pullback(make_model(name, **params), sense=sense)
    assert est.status == "converged"
    assert np.array_equal(est.eval(est.times), est.states)


def test_first_eval_integrates_only_the_window(monkeypatch):
    # eval reads the steps the pullback batch logged through the window, so
    # even its first call integrates nothing
    est = estimate_pullback(make_model("moving-pitchfork", mu=1.0, p=2, r=0.5))
    assert est.status == "converged"
    calls = []
    advance = Batch.advance
    monkeypatch.setattr(Batch, "advance", lambda b: calls.append(1) or advance(b))
    assert np.array_equal(est.eval(est.times), est.states)
    assert len(calls) == 0


@pytest.mark.parametrize("name,params,sense", [
    ("moving-sn", {"mu": 0.5, "r": 0.03}, "attracting"),
    ("moving-sn", {"mu": 0.5, "r": 0.03}, "repelling"),
    ("moving-cubic", {"mu": 1.0, "r": 0.1}, "attracting"),
    ("moving-cubic", {"mu": 1.0, "r": 0.1}, "repelling"),
    ("drift", {"r": 0.5}, "attracting"),
    ("moving-pitchfork", {"mu": 1.0, "r": 0.5, "p": 1}, "attracting"),
    ("moving-pitchfork", {"mu": 1.0, "r": 0.5, "p": 2}, "attracting"),
])
def test_eval_off_the_grid_equals_a_lone_run_of_the_deciding_doubling(name, params, sense):
    # between grid points eval is the dense output of the deciding doubling's
    # own steps: bitwise what a lone run of it gives, from its start
    # time and anchor to the window end
    model = make_model(name, **params)
    cfg = integrator_config(model)
    est = estimate_pullback(model, sense=sense)
    assert est.status == "converged"
    t0 = est.start_times[-1]
    t_a, t_b = est.window
    t1 = t_b if sense == "attracting" else t_a
    x0 = model.anchor_state(est.anchor, np.array([[t0]]))
    lone = Batch(model.rhs, x0, t0, t1, model.rate, cfg.rel_tol, cfg.abs_tol,
                 cfg.escape_norm, cfg.min_step)
    while lone.n_active:
        lone.advance()
    off_grid = np.linspace(t_a + 0.013, t_b - 0.017, 37)
    assert not np.isin(off_grid, est.times).any()
    assert np.array_equal(est.eval(off_grid), lone.trajectory(0).eval(off_grid))


@pytest.mark.parametrize("name,params,rates", [
    ("moving-sn", {"mu": 0.5}, [0.01, 0.03, 0.05, 0.0625, 0.07]),
    ("moving-cubic", {"mu": 1.0}, [-0.5, 0.1, 0.2, 0.5]),
])
def test_batched_repelling_jobs_equal_lone_estimates(name, params, rates):
    # repelling legs step backward in time; several rates in one batch each
    # give, bitwise, what their lone estimate gives, eval included
    model = make_model(name, **params)
    jobs = [PullbackJob(model.with_rate(r), np.array([0.0]), "repelling", (0.0, 4.0), 1e-8)
            for r in rates]
    run_pullbacks(jobs, integrator_config(model))
    for r, job in zip(rates, jobs):
        alone = estimate_pullback(model, r=r, anchor=[0.0], sense="repelling")
        assert_same_estimate(job.estimate, alone)
    assert "converged" in {job.estimate.status for job in jobs}


@pytest.mark.parametrize("name", ["drift", "moving-sn", "moving-cubic",
                                  "moving-pitchfork", "bounded-ramp-sn"])
def test_catalog_rhs_one_state_equals_stacked(name):
    # a model's ``field`` calls rhs(x[d], t, r); batches call rhs(X, T, R)
    model = make_model(name)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(16, model.dimension))
    T = rng.uniform(-5.0, 5.0, 16)
    R = rng.uniform(0.05, 1.0, 16)
    stacked = model.rhs(X, T, R)
    for i in range(16):
        assert np.array_equal(model.rhs(X[i], float(T[i]), float(R[i])), stacked[i])



def sequential_report(model, r_range, resolution, decide):
    """The search as one probe per bisection midpoint: the reference that
    find_critical_rate's rounds must reproduce exactly."""
    scan = [float(r) for r in _scan_rates(r_range, resolution)]
    cache = {}

    def predicate(r):
        if r not in cache:
            (cache[r],) = decide([r])
        return cache[r]

    cache.update(zip(scan, decide(scan)))
    raw, last = [], None
    for r in scan:
        if cache[r] is None:
            continue
        if last is not None and cache[last] != cache[r]:
            raw.append((last, r))
        last = r

    brackets = []
    for a, b in raw:
        before = len(cache)
        va = predicate(a)
        while b - a > resolution:
            mid = 0.5 * (a + b)
            if predicate(mid) == va:
                a = mid
            else:
                b = mid
        brackets.append(CriticalRateBracket(a, b, _classify(model, a, b), False,
                                            len(cache) - before))
    return TippingReport(model.name, dict(model.params), r_range, resolution, brackets,
                         len(cache), any(v is None for v in cache.values())).to_dict()


@pytest.mark.parametrize("name,params,r_range,resolution,batches", [
    # the crit-sn benchmark's seed-0 inputs: one scan batch, three rounds
    ("moving-sn", {"mu": 0.5}, (0.1 * 0.0625, 3.0 * 0.0625), 1e-4, 4),
    # two mirrored brackets bisected in the same rounds
    ("moving-cubic", {"mu": 1.0}, (-1.2, 1.2), 1e-2, 3),
])
def test_rounds_match_sequential_bisection(monkeypatch, name, params, r_range, resolution,
                                           batches):
    # with κ withheld, no secant probe is made: the rounds are bisection alone
    model = make_model(name, **params)
    cfg = integrator_config(model)
    calls = []

    def withheld(*args):
        calls.append(list(args[1]))
        return [(verdict, None) for verdict, _ in _probe_rates(*args)]

    monkeypatch.setattr(tipping, "_probe_rates", withheld)
    report = find_critical_rate(model, r_range=r_range, resolution=resolution).to_dict()
    assert len(calls) == batches
    assert calls[0] == [float(r) for r in _scan_rates(r_range, resolution)]
    decide = lambda rates: [v for v, _ in
                            _probe_rates(model, rates, None, (0.0, 4.0), 1e-6, 4096.0, cfg)]
    assert report == sequential_report(model, r_range, resolution, decide)


def test_secant_decides_crit_sn_in_one_round(monkeypatch):
    # the crit-sn benchmark's seed-0 inputs: κ² is linear in r at the fold, so
    # the round after the scan probes r̂ ± 0.49·resolution on either side of r*
    rstar = 0.0625
    calls, advances = [], []
    counted = lambda *args: calls.append(list(args[1])) or _probe_rates(*args)
    advance = Batch.advance
    monkeypatch.setattr(tipping, "_probe_rates", counted)
    monkeypatch.setattr(Batch, "advance", lambda b: advances.append(1) or advance(b))
    report = find_critical_rate(make_model("moving-sn", mu=0.5),
                                r_range=(0.1 * rstar, 3.0 * rstar), resolution=1e-4)
    (b,) = report.brackets
    assert len(calls) == 2
    assert b.lower <= rstar <= b.upper and b.width <= 1e-4
    assert abs(0.5 * (b.lower + b.upper) - rstar) < 1e-8
    assert b.classification == "saddle-node" and not report.flagged
    assert len(advances) <= 250


RSTAR = 0.0625  # moving-sn at mu = 0.5
R_RANGE = (0.01, 0.2)


def rstar_cell(resolution=1e-3):
    """The cell (a, b) of neighbouring scan rates over R_RANGE holding RSTAR."""
    scan = _scan_rates(R_RANGE, resolution)
    i = int(np.searchsorted(scan, RSTAR))
    return float(scan[i - 1]), float(scan[i])


def stubbed_search(monkeypatch, verdict, resolution=1e-3):
    """find_critical_rate on moving-sn over R_RANGE with ``verdict(r)`` in
    place of the tipping predicate and κ withheld, so that only bisection
    refines: the report and the rate batches decided."""
    calls = []

    def stub(model, rates, *rest):
        calls.append(list(rates))
        return [(verdict(r), None) for r in rates]

    monkeypatch.setattr(tipping, "_probe_rates", stub)
    report = find_critical_rate(make_model("moving-sn", mu=0.5), r_range=R_RANGE,
                                resolution=resolution)
    return report, calls


def test_undecidable_lookahead_flags_only_the_report(monkeypatch):
    # a level-2 midpoint on the side the bracket leaves reads None
    a, b = rstar_cell()
    mid = 0.5 * (a + b)
    far = 0.5 * (mid + b) if RSTAR < mid else 0.5 * (a + mid)
    clean, _ = stubbed_search(monkeypatch, lambda r: r > RSTAR)
    report, calls = stubbed_search(monkeypatch, lambda r: None if r == far else r > RSTAR)
    assert far in calls[1]
    assert report.brackets == clean.brackets
    assert not report.brackets[0].flagged
    assert not clean.flagged and report.flagged


def test_undecidable_midpoint_is_passed_by_its_neighbours(monkeypatch):
    a, b = rstar_cell()
    mid, nudge = 0.5 * (a + b), a + 0.4 * (b - a)
    report, calls = stubbed_search(monkeypatch, lambda r: None if r == mid else r > RSTAR)
    (bracket,) = report.brackets
    assert bracket.lower <= RSTAR <= bracket.upper and bracket.width <= 1e-3
    assert not bracket.flagged and report.flagged
    assert not any(nudge in rates for rates in calls)


def test_undecidable_neighbourhood_leaves_a_flagged_bracket(monkeypatch):
    report, calls = stubbed_search(
        monkeypatch, lambda r: None if abs(r - RSTAR) < 3e-3 else r > RSTAR)
    (bracket,) = report.brackets
    assert bracket.lower <= RSTAR <= bracket.upper and bracket.width > 1e-3
    assert bracket.flagged and report.flagged
    assert len(calls) < 10


def test_every_flip_the_lookahead_decides_is_a_bracket(monkeypatch):
    # within one scan cell (a, b), the verdict also flips on either side of
    # the level-2 midpoint q beyond r*; the first round decides q and its
    # level-3 neighbours, so all three flips are seen at once
    resolution = 1e-4
    a, b = rstar_cell(resolution)
    mid = 0.5 * (a + b)
    q = 0.5 * (mid + b) if RSTAR < mid else 0.5 * (a + mid)
    half = (b - a) / 16
    report, _ = stubbed_search(
        monkeypatch, lambda r: (r > RSTAR) != (abs(r - q) < half), resolution)
    assert len(report.brackets) == 3
    for flip, bracket in zip(sorted([RSTAR, q - half, q + half]), report.brackets):
        assert bracket.lower <= flip <= bracket.upper
        assert bracket.width <= resolution

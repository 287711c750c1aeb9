"""Batched integration: a member's result does not depend on the batch it
runs in, a relaxed retry reuses the doublings already integrated, and the
bisection rounds return what a one-probe-per-midpoint bisection returns."""
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
    assert len(rates) == (61 if name == "moving-sn" else 41)


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
    # a member steps bitwise alike alone and in a batch; a companion with a
    # later end time keeps the batch above one member to the end.  The step
    # cap is raised so that error control sets every step.
    model = make_model(name, **params)
    cfg = integrator_config(model, {"max_step": 100.0})

    def run(x0s, t1s):
        batch = Batch(model.rhs, model.dimension, cfg.rel_tol, cfg.abs_tol,
                      cfg.escape_norm, cfg.min_step, record=True)
        ids = np.arange(len(x0s))
        batch.start(ids, np.array(x0s, dtype=float), 0.0, t1s, model.rate, cfg.max_step)
        while batch.n_active:
            batch.advance()
        return [batch.trajectory(i) for i in ids]

    companion = [0.0] * model.dimension
    together = run(x0s + [companion], [t1] * len(x0s) + [10.0 * t1])
    for x0, batched in zip(x0s, together):
        (alone,) = run([x0], [t1])
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
    # a member sampled while it steps reads, bitwise, what its recorded
    # trajectory's dense output gives on the batch's grid: batched and alone.
    # A step cap of 0.35 spans about 17 points of a 201-point grid over
    # (0, 4), so one step writes several points.  The repelling sense steps
    # backward in time, on a grid that runs from 0 down to -4.
    model = make_model(name, **params)
    cfg = integrator_config(model, {"max_step": max_step})
    x0s = starts[sense]
    t1 = 4.0 if sense == "attracting" else -4.0
    grid = np.linspace(0.0, t1, 201)

    def run(x0s):
        batch = Batch(model.rhs, model.dimension, cfg.rel_tol, cfg.abs_tol,
                      cfg.escape_norm, cfg.min_step, grid=grid, record=True)
        ids = np.arange(len(x0s))
        batch.start(ids, np.array(x0s, dtype=float), 0.0, t1, model.rate, cfg.max_step)
        while batch.n_active:
            batch.advance()
        assert all(batch.final[i][0] == "completed" for i in ids)
        return [(batch.samples[i], batch.trajectory(i)) for i in ids]

    together = run(x0s)
    for i, (samples, traj) in enumerate(together):
        assert np.array_equal(samples, traj.eval(grid))
        assert len(traj.times) - 1 < 200  # steps span several grid points
        ((alone, alone_traj),) = run(x0s[i:i + 1])
        assert np.array_equal(alone, alone_traj.eval(grid))
        assert np.array_equal(alone, samples)


def test_sampling_skips_steps_that_cover_no_grid_point(monkeypatch):
    # a step cap of 0.005 on a grid spaced 0.02 leaves most steps with no
    # grid point; only the others are sampled, and what they write is the
    # dense output on the grid
    model = make_model("moving-sn", mu=0.5, r=0.03)
    grid = np.linspace(0.0, 4.0, 201)
    calls = []
    sample = Batch._sample

    def checked(batch, j, *args):
        before = batch.pos[j].copy()
        sample(batch, j, *args)
        assert np.all(batch.pos[j] > before)
        calls.append(len(j))

    monkeypatch.setattr(Batch, "_sample", checked)
    x0 = np.array([[0.9], [0.6]])
    batch = Batch(model.rhs, 1, 1e-9, 1e-9, grid=grid, record=True)
    batch.start([0, 1], x0, 0.0, 4.0, model.rate, 0.005)
    while batch.n_active:
        batch.advance()
    steps = [len(batch.trajectory(i).times) - 1 for i in (0, 1)]
    assert len(calls) < min(steps) and min(steps) >= 800
    cfg = integrator_config(model, {"max_step": 0.005})
    for i in (0, 1):
        alone = integrate_members(model.rhs, 1, x0[i:i + 1], 0.0, 4.0, cfg, model.rate,
                                  record=True).trajectory(0)
        assert np.array_equal(batch.samples[i], alone.eval(grid))


def test_exit_box_stops_only_its_own_member():
    # moving-sn members past the box's lower edge at r = 0.2 > r* diverge:
    # with their exit box they stop on the first accepted step, far below the
    # escape norm; without it they crawl on to the norm.  A member at
    # r = 0.03 on the attractor completes.  Each ends as it does alone.
    model = make_model("moving-sn", mu=0.5)
    rates = np.array([0.2, 0.2, 0.03])
    bounds = np.array([_exit_bounds(model.with_rate(r), "attracting") for r in rates])
    bounds[1] = (0.0, -np.inf, np.inf)
    assert bounds[0, 1] == -1.75 and bounds[2, 1] == -1.75
    x0 = np.array([[-1.8], [-1.8], [0.5]])

    def run(ids):
        batch = Batch(model.rhs, 1, 1e-9, 1e-9, escape_norm=1e6, frame=model.ramp.value)
        batch.start(ids, x0[ids], 0.0, 4.0, rates[ids], 0.1, bounds=bounds[ids])
        advances = 0
        while batch.n_active:
            batch.advance()
            advances += 1
        return batch.final, advances

    together, _ = run(np.arange(3))
    assert [together[i][0] for i in range(3)] == ["escaped", "escaped", "completed"]
    assert abs(together[0][2][0]) < 2.0 and abs(together[1][2][0]) >= 1e6
    for i in range(3):
        alone, advances = run(np.array([i]))
        status, t, y = alone[i]
        assert (status, t, y.tobytes()) == (together[i][0], together[i][1],
                                            together[i][2].tobytes())
        if i == 0:
            assert advances <= 2  # the first accepted step


@pytest.mark.parametrize("t0", [0.5, -1.0])
def test_member_ending_on_the_grid_must_start_at_or_before_it(t0):
    # a member that ends on the grid's last point is sampled, which needs it
    # to cover the whole grid: one that starts after grid[0] is refused, one
    # that starts before it is sampled; other end times are not sampled
    model = make_model("moving-sn", mu=0.5, r=0.03)
    batch = Batch(model.rhs, 1, 1e-9, 1e-9, grid=np.linspace(0.0, 4.0, 201))
    if t0 > 0.0:
        with pytest.raises(ValueError, match="last grid point"):
            batch.start([0, 1], [[0.5], [0.5]], [0.0, t0], 4.0, model.rate)
    else:
        batch.start([2], [[0.5]], t0, 4.0, model.rate)
        assert len(batch._curve) == 0  # no pool row before the grid
    batch.start([0], [[0.5]], t0, 3.0, model.rate)
    while batch.n_active:
        batch.advance()
    assert batch.final[0][0] == "completed"
    assert list(batch.samples) == ([] if t0 > 0.0 else [2])


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
    # lone recorded run gives on the grid, and one resumed alone from its
    # kept window entry takes the same steps through the window
    model = make_model(name, **params)
    cfg = integrator_config(model)
    x0s = np.array(starts[sense], dtype=float)
    s = 1.0 if sense == "attracting" else -1.0
    t0s, t1 = -s * np.array([3.0, 0.25]), 4.0 * s
    grid = np.linspace(0.0, t1, 201)

    def run(ids, x0, t0, **resume):
        batch = Batch(model.rhs, model.dimension, cfg.rel_tol, cfg.abs_tol,
                      cfg.escape_norm, cfg.min_step, grid=grid, record=True)
        batch.start(ids, x0, t0, t1, model.rate, **resume)
        while batch.n_active:
            batch.advance()
        assert all(batch.final[i][0] == "completed" for i in ids)
        return batch

    together = run([0, 1], x0s, t0s)
    for i in (0, 1):
        alone = run([i], x0s[i:i + 1], t0s[i])
        traj = alone.trajectory(i)
        assert np.array_equal(together.samples[i], traj.eval(grid))
        assert np.array_equal(alone.samples[i], together.samples[i])
        t, y, *resume = together.entries[i]
        assert s * t[0] <= 0.0 < s * traj.times[np.searchsorted(s * traj.times, s * t[0]) + 1]
        resumed = run([i], y, t, resume=resume).trajectory(i)
        assert np.array_equal(resumed.eval(grid), together.samples[i])
        tail = traj.times[-len(resumed.times):]
        assert np.array_equal(resumed.times, tail)


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
    batch = Batch(model.rhs, 1, 1e-3, 1.0)
    batch.start([0], [[-1e150]], 0.0, 1.0, model.rate)
    while batch.n_active:
        batch.advance()
    assert batch.final[0][0] == "step_underflow"


def test_pullback_member_starting_past_the_escape_norm():
    # p = 3 at r = 3: the doubling k = 12 starts at a norm of about 1.85e12,
    # past the model's escape norm of 1e12, so Batch.start stops it before
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
    # eval resumes the last doubling alone from its window entry; on the
    # estimate's own times it must give back the batch-sampled states
    est = estimate_pullback(make_model(name, **params), sense=sense)
    assert est.status == "converged"
    assert np.array_equal(est.eval(est.times), est.states)


def test_first_eval_integrates_only_the_window(monkeypatch):
    # eval resumes from the window entry, so its first call steps through the
    # window alone, not through the last doubling's 2**k lookback
    est = estimate_pullback(make_model("moving-pitchfork", mu=1.0, p=2, r=0.5))
    assert est.status == "converged"
    calls = []
    advance = Batch.advance
    monkeypatch.setattr(Batch, "advance", lambda b: calls.append(1) or advance(b))
    assert np.array_equal(est.eval(est.times), est.states)
    assert 0 < len(calls) < 100


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
        before, flagged, nudges = len(cache), False, 0
        va = predicate(a)
        while b - a > resolution:
            mid = 0.5 * (a + b)
            vm = predicate(mid)
            if vm is None:
                mid = a + (0.4 if nudges % 2 == 0 else 0.6) * (b - a)
                vm = predicate(mid)
                nudges += 1
                if vm is None:
                    flagged = True
                    break
            if vm == va:
                a = mid
            else:
                b = mid
        brackets.append(CriticalRateBracket(a, b, _classify(model, a, b), flagged,
                                            len(cache) - before))
    return TippingReport(model.name, dict(model.params), r_range, resolution, brackets,
                         len(cache), any(v is None for v in cache.values())).to_dict()


@pytest.mark.parametrize("name,params,r_range,resolution,batches", [
    # the crit-sn benchmark's seed-0 inputs: one scan batch, two rounds
    ("moving-sn", {"mu": 0.5}, (0.1 * 0.0625, 3.0 * 0.0625), 1e-4, 3),
    # two mirrored brackets bisected in the same rounds
    ("moving-cubic", {"mu": 1.0}, (-1.2, 1.2), 1e-2, 2),
])
def test_rounds_match_sequential_bisection(monkeypatch, name, params, r_range, resolution,
                                           batches):
    model = make_model(name, **params)
    cfg = integrator_config(model)
    calls = []

    def counted(*args):
        calls.append(list(args[1]))
        return _probe_rates(*args)

    monkeypatch.setattr(tipping, "_probe_rates", counted)
    report = find_critical_rate(model, r_range=r_range, resolution=resolution).to_dict()
    assert len(calls) == batches
    assert calls[0] == [float(r) for r in _scan_rates(r_range, resolution)]
    decide = lambda rates: _probe_rates(model, rates, None, (0.0, 4.0), 1e-6, 4096.0, cfg)
    assert report == sequential_report(model, r_range, resolution, decide)


@pytest.mark.parametrize("undecidable,flagged,bracket_flagged", [
    # a speculative midpoint on the side the walk leaves: decided, never read
    ("far", False, False),
    # the first midpoint: the walk nudges off it to a point probed alone
    ("mid", True, False),
    # the nudged point too: the bracket stops there, flagged
    ("mid+nudge", True, True),
])
def test_rounds_read_only_what_the_walk_reaches(monkeypatch, undecidable, flagged,
                                                bracket_flagged):
    model = make_model("moving-sn", mu=0.5)
    r_range, resolution, rstar = (0.01, 0.2), 1e-3, 0.0625
    scan = _scan_rates(r_range, resolution)
    i = int(np.searchsorted(scan, rstar))
    a, b = float(scan[i - 1]), float(scan[i])
    mid, nudge = 0.5 * (a + b), a + 0.4 * (b - a)
    far = 0.5 * (mid + b) if rstar < mid else 0.5 * (a + mid)
    bad = {"far": {far}, "mid": {mid}, "mid+nudge": {mid, nudge}}[undecidable]
    verdicts = lambda rates: [None if r in bad else r > rstar for r in rates]
    calls = []

    def stub(model, rates, *rest):
        calls.append(list(rates))
        return verdicts(rates)

    monkeypatch.setattr(tipping, "_probe_rates", stub)
    report = find_critical_rate(model, r_range=r_range, resolution=resolution).to_dict()
    assert report == sequential_report(model, r_range, resolution, verdicts)
    assert report["flagged"] is flagged
    assert report["brackets"][0]["flagged"] is bracket_flagged
    assert {mid, far} <= set(calls[1])
    assert ([nudge] in calls) is (undecidable != "far")

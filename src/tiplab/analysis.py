"""Numerical estimation of pullback attractors/repellers and nonautonomous
attraction diagnostics.

Pullback curves are estimated by pushing the start time geometrically far
into the past and integrating forward onto a fixed observation window; the
repelling sense reuses the same machinery on the time-reversed system.
Forward-attraction and end-point-tracking are finite-horizon tests that
emit the full distance trace alongside a three-way verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.optimize

from .integrate import (
    COMPLETED,
    Batch,
    IntegratorConfig,
    Trajectory,
    VectorFieldHandle,
    integrate,
    integrate_members,
)
from .models import ModelSpec, TiplabError

__all__ = [
    "PullbackEstimate",
    "QseSample",
    "QseBranch",
    "Diagnostic",
    "estimate_pullback",
    "integrator_config",
    "forward_attraction_test",
    "endpoint_tracking_test",
    "qse_continuation",
    "comoving_consistency_check",
]

CONVERGED = "converged"
ESCAPED_DURING_PULLBACK = "escaped_during_pullback"
NOT_CONVERGED = "not_converged"

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def integrator_config(model: ModelSpec, overrides: Mapping | None = None) -> IntegratorConfig:
    """Integrator settings for a model: the defaults with the model's escape
    norm, then the config fields given in ``overrides``; any other key in
    ``overrides`` is a ValueError."""
    kw = {"escape_norm": model.escape_norm, **(overrides or {})}
    known = [f.name for f in fields(IntegratorConfig)]
    unknown = sorted(set(kw) - set(known))
    if unknown:
        raise ValueError(f"unknown integrator setting(s) {', '.join(unknown)}; "
                         f"known: {', '.join(known)}")
    return IntegratorConfig(**{key: float(v) for key, v in kw.items()})


@dataclass
class PullbackEstimate:
    """Candidate pullback-attracting (or repelling) curve over a window."""

    window: tuple[float, float]
    times: np.ndarray
    states: np.ndarray
    anchor: np.ndarray
    anchor_note: str
    start_times: list[float]
    convergence_gaps: list[float]
    status: str
    sense: str = "attracting"
    _evaluator: Callable | None = field(default=None, repr=False)

    def eval(self, t):
        if self._evaluator is None:
            raise TiplabError(f"estimate with status {self.status!r} has no curve")
        return self._evaluator(t)

    def sup_gap(self, other: "PullbackEstimate") -> float:
        return float(np.max(np.abs(self.states - other.states)))


@dataclass
class Diagnostic:
    kind: str
    verdict: str
    evidence: dict


class PullbackJob:
    """One (rate, anchor) pullback estimate, built from lookback doublings.

    Doubling k starts at lookback ``delta * 2**k`` and integrates an
    approach leg to the window start, then the window leg.  Each doubling's
    outcome (its window-leg trajectory, or None when either leg escaped) is
    kept once integrated, so ``relax`` to a looser tolerance or a longer
    lookback reuses it: ``resolve`` replays the sequential doubling loop
    over the kept outcomes, and the tolerance enters only its convergence
    test.
    """

    def __init__(self, model: ModelSpec, anchor, sense: str, window: tuple[float, float],
                 tol: float, delta: float = 1.0, budget: int = 40,
                 max_lookback: float = 4096.0, grid_points: int = 201):
        self.model = model
        self.anchor = anchor
        self.sense = sense
        self.window = window
        self.tol = tol
        self.delta = delta
        self.budget = budget
        self.max_lookback = max_lookback
        t_a, t_b = window
        if not (math.isfinite(t_a) and math.isfinite(t_b)):
            raise ValueError("window must be finite")
        if not t_b > t_a:
            raise ValueError("window must have positive width")
        if not tol > 0:
            raise ValueError("tol must be positive")
        self.wa, self.wb = (t_a, t_b) if sense == "attracting" else (-t_b, -t_a)
        self.grid = np.linspace(self.wa, self.wb, grid_points)
        self.outcomes: dict[int, Trajectory | None] = {}
        self._curves: dict[int, np.ndarray] = {}
        self.estimate: PullbackEstimate | None = None

    def doublings(self) -> list[int]:
        ks = []
        for k in range(self.budget):
            if self.delta * 2.0**k > self.max_lookback:
                break
            ks.append(k)
        return ks

    def pending(self) -> list[int]:
        return [k for k in self.doublings() if k not in self.outcomes]

    def start_state(self, k: int) -> tuple[float, np.ndarray]:
        """Start time (in integration time) and state of doubling k."""
        s_k = self.wa - self.delta * 2.0**k
        t_model = s_k if self.sense == "attracting" else -s_k
        return s_k, self.model.anchor_state(self.anchor, t_model)

    def record(self, k: int, traj: Trajectory | None) -> None:
        self.outcomes[k] = traj
        if traj is not None:
            self._curves[k] = traj.eval(self.grid)

    def relax(self, tol: float, max_lookback: float) -> None:
        self.tol, self.max_lookback = tol, max_lookback
        self.estimate = None

    def resolve(self) -> bool:
        """Set ``estimate`` once the kept outcomes decide it; else False."""
        start_times: list[float] = []
        gaps: list[float] = []
        status = NOT_CONVERGED
        prev = None
        last: Trajectory | None = None
        for k in self.doublings():
            s_k = self.wa - self.delta * 2.0**k
            start_times.append(s_k if self.sense == "attracting" else -s_k)
            if k not in self.outcomes:
                return False
            traj = self.outcomes[k]
            if traj is None:
                status = ESCAPED_DURING_PULLBACK
                last = None
                break
            curve = self._curves[k]
            last = traj
            if prev is not None:
                gaps.append(float(np.max(np.abs(curve - prev))))
                tol_eff = self.tol * max(1.0, float(np.max(np.abs(curve))))
                if (
                    len(gaps) >= 2
                    and gaps[-1] < tol_eff
                    and gaps[-2] < tol_eff
                    and gaps[-1] <= gaps[-2]
                ):
                    status = CONVERGED
                    prev = curve
                    break
            prev = curve

        dim = self.model.dimension
        if self.sense == "attracting":
            times = self.grid
            states = prev if prev is not None else np.empty((0, dim))
            evaluator = (lambda t, tr=last: tr.eval(t)) if last is not None else None
        else:
            times = -self.grid[::-1]
            states = prev[::-1] if prev is not None else np.empty((0, dim))
            evaluator = (
                (lambda t, tr=last: tr.eval(-np.asarray(t))) if last is not None else None
            )
        note = f"{self.model.anchor_mode} anchor {self.anchor.tolist()} ({self.sense} sense)"
        self.estimate = PullbackEstimate(
            window=tuple(self.window),
            times=np.asarray(times),
            states=np.asarray(states),
            anchor=self.anchor,
            anchor_note=note,
            start_times=start_times,
            convergence_gaps=gaps,
            status=status,
            sense=self.sense,
            _evaluator=evaluator if status == CONVERGED else None,
        )
        return True


def run_pullbacks(jobs: Sequence[PullbackJob], cfg: IntegratorConfig) -> None:
    """Resolve pullback jobs, integrating their missing doublings as one batch.

    Every (job, doubling) pair is one member of a single Dormand–Prince
    batch.  A member runs its approach leg with the step cap raised to at
    least 1 (its error is contracted away by the attracting dynamics), then
    restarts on the window leg with a fresh initial step.  Each job resolves
    in doubling order and drops its remaining members once it converges or
    escapes.  All jobs must share one model family, sense and ``cfg``.
    """
    jobs = [job for job in jobs if not job.resolve()]
    if not jobs:
        return
    model, sense = jobs[0].model, jobs[0].sense
    family = lambda m: (m.name, {k: v for k, v in m.params.items() if k != "r"})
    if any(job.sense != sense or family(job.model) != family(model) for job in jobs):
        raise ValueError("a pullback batch needs one model family and one sense")
    rhs = model.rhs
    if sense == "repelling":
        rhs = lambda X, T, R, f=model.rhs: -f(X, -T, R)
    members = [(job, k) for job in jobs for k in job.pending()]
    ids_of = {}
    for i, (job, _) in enumerate(members):
        ids_of.setdefault(id(job), []).append(i)
    starts = [job.start_state(k) for job, k in members]
    rates = np.array([job.model.rate for job, _ in members])
    batch = Batch(rhs, model.dimension, cfg.rel_tol, cfg.abs_tol,
                  cfg.escape_norm, cfg.min_step)
    stopped = batch.start(
        np.arange(len(members)),
        np.array([x for _, x in starts]),
        [s for s, _ in starts],
        [job.wa for job, _ in members],
        rates,
        max_step=max(cfg.max_step, 1.0),
    )
    windowed = np.zeros(len(members), dtype=bool)
    while stopped or batch.n_active:
        restart = []
        for i in stopped:
            job, k = members[i]
            if job.estimate is not None:
                continue
            status = batch.final[i][0]
            if not windowed[i] and status == COMPLETED:
                restart.append(i)
                continue
            job.record(k, batch.trajectory(i) if status == COMPLETED else None)
            if job.resolve():
                batch.drop(ids_of[id(job)])
        restart = [i for i in restart if members[i][0].estimate is None]
        stopped = []
        if restart:
            windowed[restart] = True
            stopped = batch.start(
                restart,
                np.array([batch.final[i][2] for i in restart]),
                [members[i][0].wa for i in restart],
                [members[i][0].wb for i in restart],
                rates[restart],
                max_step=cfg.max_step,
                record=True,
            )
        if not stopped and batch.n_active:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                stopped = batch.advance()
    for job in jobs:
        if not job.resolve():
            raise RuntimeError("pullback batch ended with an unresolved job")


def estimate_pullback(
    model: ModelSpec,
    r: float | None = None,
    window: tuple[float, float] = (0.0, 4.0),
    anchor=None,
    sense: str = "attracting",
    tol: float = 1e-8,
    delta: float = 1.0,
    budget: int = 40,
    max_lookback: float = 4096.0,
    grid_points: int = 201,
    cfg: IntegratorConfig | None = None,
) -> PullbackEstimate:
    """Estimate a pullback attractor (or repeller, via time reversal).

    Start times recede as s_k = t_a - delta*2^k until two successive
    window-restricted curves agree to ``tol`` in sup norm (scaled by the
    curve magnitude when it exceeds unity).  The doublings are integrated
    together as members of one batch.
    """
    if r is not None:
        model = model.with_rate(r)
    if sense not in ("attracting", "repelling"):
        raise ValueError("sense must be 'attracting' or 'repelling'")
    cfg = cfg or integrator_config(model)
    if anchor is None:
        pool = model.default_anchors if sense == "attracting" else model.repeller_anchors
        if not pool:
            raise TiplabError(f"model {model.name!r} has no default {sense} anchor")
        anchor = pool[0]
    anchor = np.atleast_1d(np.asarray(anchor, dtype=float))
    job = PullbackJob(model, anchor, sense, (float(window[0]), float(window[1])), tol,
                      delta, budget, max_lookback, grid_points)
    run_pullbacks([job], cfg)
    return job.estimate


def _pointwise(f: Callable) -> Callable:
    """A grid evaluator, one state per row, from a callable t -> state."""
    return lambda ts: np.vstack([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in ts])


def _as_curve(candidate, t0: float | None, horizon: float):
    """Normalize a curve argument to (grid evaluator, t_start, t_end), and
    check that ``horizon`` is finite and positive."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    if isinstance(candidate, PullbackEstimate):
        if candidate.status != CONVERGED:
            raise TiplabError("candidate pullback estimate did not converge")
        return candidate.eval, candidate.window[0], candidate.window[1]
    if callable(candidate):
        start = 0.0 if t0 is None else float(t0)
        return _pointwise(candidate), start, math.inf
    raise TypeError("candidate must be a PullbackEstimate or a callable t -> state")


def _monotone(d: np.ndarray, sense: str, floor: float) -> bool:
    """Non-increasing / non-decreasing check with an absolute noise floor."""
    if sense == "dec":
        return bool(np.all(np.diff(d) <= floor))
    return bool(np.all(np.diff(d) >= -floor))


def forward_attraction_test(
    model: ModelSpec,
    r: float | None = None,
    candidate=None,
    offsets: Sequence = (),
    horizon: float = 20.0,
    eps: float = 0.01,
    t0: float | None = None,
    basin_radius: float | None = None,
    cfg: IntegratorConfig | None = None,
    grid_points: int = 201,
) -> Diagnostic:
    """Probe forward attraction of a candidate curve by perturbed reruns.

    Holds when every non-escaping probe ends within ``eps`` of the curve
    and is decaying over the final quarter of the horizon; fails on escape
    or sustained divergence of a probe started inside the basin radius.
    """
    if r is not None:
        model = model.with_rate(r)
    if candidate is None:
        raise ValueError("candidate curve required")
    cfg = cfg or integrator_config(model)
    curve, start, end = _as_curve(candidate, t0, horizon)
    t1 = start + horizon
    if t1 > end + 1e-12:
        raise TiplabError("candidate window too short for requested horizon")
    if basin_radius is None:
        gap = model.attractor_repeller_gap()
        basin_radius = 0.25 * gap if gap else 0.1

    grid = np.linspace(start, t1, grid_points)
    ref = curve(grid)
    iq = int(0.75 * (grid_points - 1))
    # distances below the integrator's own error are indistinguishable noise
    floor = 100.0 * (cfg.abs_tol + cfg.rel_tol * float(np.max(np.abs(ref))))

    offs = []
    for off in offsets:
        off = np.atleast_1d(np.asarray(off, dtype=float))
        if off.size == 1 and model.dimension == 1:
            off = off.reshape(1)
        if off.shape != (model.dimension,):
            raise ValueError(f"offset shape {off.shape} != ({model.dimension},)")
        if not np.any(off):
            raise ValueError("offsets must be nonzero")
        offs.append(off)
    x0 = ref[0] + np.reshape(offs, (-1, model.dimension))
    if not np.all(np.isfinite(x0)):
        raise ValueError("probe start states must be finite")
    # every probe is one member of a single batch
    trajs = (integrate_members(model.rhs, model.dimension, x0, start, t1, cfg, model.rate)
             if offs else [])

    traces = []
    any_fail = False
    holds_ok = []
    for off, traj in zip(offs, trajs):
        size = float(np.linalg.norm(off))
        in_radius = size <= basin_radius
        rec = {"offset": off.tolist(), "in_basin_radius": in_radius}
        if traj.status != COMPLETED:
            rec["escaped"] = True
            rec["status"] = traj.status
            if in_radius:
                any_fail = True
            traces.append(rec)
            continue
        d = np.linalg.norm(traj.eval(grid) - ref, axis=1)
        rec["escaped"] = False
        rec["distance_start"] = float(d[0])
        rec["distance_end"] = float(d[-1])
        rec["distances"] = d
        decaying = _monotone(d[iq:], "dec", floor)
        growing = _monotone(d[iq:], "inc", floor)
        if in_radius and d[-1] >= 10.0 * size:
            any_fail = True
        elif in_radius and growing and d[-1] >= eps and d[-1] >= 1.2 * size:
            # sustained monotone divergence: attraction is lost even though
            # the 10x factor is not yet reached on this horizon
            any_fail = True
        holds_ok.append(d[-1] < eps and decaying)
        traces.append(rec)

    if any_fail:
        verdict = FAILS
    elif holds_ok and all(holds_ok):
        verdict = HOLDS
    else:
        verdict = INCONCLUSIVE
    evidence = {
        "horizon": horizon,
        "eps": eps,
        "basin_radius": basin_radius,
        "times": grid,
        "probes": traces,
    }
    return Diagnostic(kind="forward_attraction", verdict=verdict, evidence=evidence)


# ---------------------------------------------------------------------------
# QSE continuation


@dataclass
class QseSample:
    s: float
    x: np.ndarray
    stability: str
    eigenvalues: np.ndarray


@dataclass
class QseBranch:
    samples: list[QseSample] = field(default_factory=list)
    flagged: bool = False

    @property
    def s_values(self) -> np.ndarray:
        return np.array([smp.s for smp in self.samples])

    @property
    def states(self) -> np.ndarray:
        return np.vstack([smp.x for smp in self.samples])

    @property
    def stability(self) -> str:
        labels = {smp.stability for smp in self.samples}
        return labels.pop() if len(labels) == 1 else "mixed"

    def eval(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        s = self.s_values
        xs = self.states
        out = np.vstack([np.interp(t_arr, s, xs[:, j]) for j in range(xs.shape[1])]).T
        return out[0] if np.ndim(t) == 0 else out


def _fd_jacobian(f, x, h=1e-6):
    n = x.size
    J = np.empty((n, n))
    for j in range(n):
        step = h * max(1.0, abs(x[j]))
        e = np.zeros(n)
        e[j] = step
        J[:, j] = (f(x + e) - f(x - e)) / (2.0 * step)
    return J


def _polish(f, x, steps=3):
    for _ in range(steps):
        fx = f(x)
        try:
            dx = np.linalg.solve(_fd_jacobian(f, x), -fx)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
    return x


def find_roots(f, box, seeds=(), tol=1e-12, scan_points=41):
    """All roots of f inside a box, by seeded quasi-Newton + grid scan."""
    box = [tuple(map(float, b)) for b in box]
    dim = len(box)
    all_seeds = [np.atleast_1d(np.asarray(s, dtype=float)) for s in seeds]
    if dim == 1:
        lo, hi = box[0]
        xs = np.linspace(lo, hi, scan_points)
        vals = np.array([f(np.array([x]))[0] for x in xs])
        for i, v in enumerate(vals):
            if v == 0.0:  # root sits exactly on a scan point
                all_seeds.append(np.array([xs[i]]))
        for i in range(len(xs) - 1):
            if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
                root = scipy.optimize.brentq(
                    lambda x: f(np.array([x]))[0], xs[i], xs[i + 1], xtol=1e-14
                )
                all_seeds.append(np.array([root]))
    else:
        n = max(5, int(round(scan_points ** (1.0 / dim))))
        axes = [np.linspace(lo, hi, n) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        all_seeds.extend(np.stack([m.ravel() for m in mesh], axis=1))

    roots = []
    span = max(hi - lo for lo, hi in box)
    for seed in all_seeds:
        sol = scipy.optimize.root(f, seed, method="hybr", tol=1e-12)
        x = _polish(f, sol.x)
        if not np.all(np.isfinite(x)):
            continue
        if float(np.max(np.abs(f(x)))) > tol:
            continue
        inside = all(lo - 0.05 * span <= xi <= hi + 0.05 * span for xi, (lo, hi) in zip(x, box))
        if not inside:
            continue
        if any(np.linalg.norm(x - rt) < 1e-7 * (1.0 + np.linalg.norm(rt)) for rt in roots):
            continue
        roots.append(x)
    roots.sort(key=lambda v: tuple(v))
    return roots


def _stability_label(eigs, margin=1e-9):
    re = np.real(eigs)
    if np.any(np.abs(re) <= margin):
        return "degenerate"
    if np.all(re < 0):
        return "stable"
    if np.all(re > 0):
        return "unstable"
    return "saddle"


def qse_continuation(
    model: ModelSpec,
    r: float | None = None,
    s_grid=None,
    tol: float = 1e-12,
    scan_points: int = 41,
    margin: float = 1e-9,
) -> list[QseBranch]:
    """Continue all frozen-system equilibria x_*(λ(rs)) over a time grid."""
    if r is not None:
        model = model.with_rate(r)
    if s_grid is None:
        s_grid = np.linspace(0.0, 4.0, 41)
    s_grid = np.asarray(s_grid, dtype=float)
    if model.state_box is None:
        raise TiplabError(f"model {model.name!r} defines no root-search box")

    active: list[QseBranch] = []
    done: list[QseBranch] = []
    prev_lam = model.ramp.value(s_grid[0])
    for i, s in enumerate(s_grid):
        frozen = lambda x, s=s: model.field(x, s)
        seeds = [br.samples[-1].x for br in active]
        roots = find_roots(frozen, model.state_box(s), seeds=seeds, tol=tol, scan_points=scan_points)
        lam = model.ramp.value(s)
        allowed = 4.0 * abs(lam - prev_lam) + 0.25
        prev_lam = lam

        samples = []
        for x in roots:
            eigs = np.linalg.eigvals(_fd_jacobian(frozen, x))
            samples.append(QseSample(float(s), x, _stability_label(eigs, margin), eigs))

        matched = [False] * len(samples)
        still_active = []
        for br in active:
            last = br.samples[-1].x
            best, best_d = None, math.inf
            for j, smp in enumerate(samples):
                if matched[j]:
                    continue
                d = float(np.linalg.norm(smp.x - last))
                if d < best_d:
                    best, best_d = j, d
            if best is not None and best_d <= allowed:
                matched[best] = True
                br.samples.append(samples[best])
                if samples[best].stability == "degenerate":
                    br.flagged = True
                still_active.append(br)
            else:
                done.append(br)  # branch death inside the grid
        for j, smp in enumerate(samples):
            if not matched[j]:
                br = QseBranch(samples=[smp], flagged=(smp.stability == "degenerate"))
                still_active.append(br)
        active = still_active

    done.extend(active)
    done.sort(key=lambda br: tuple(br.samples[0].x))
    return done


def endpoint_tracking_test(
    model: ModelSpec,
    r: float | None = None,
    curve=None,
    branch=None,
    horizon: float = 10.0,
    eps: float = 0.01,
    t0: float | None = None,
    grid_points: int = 201,
) -> Diagnostic:
    """Compare a solution curve against a QSE branch over a finite horizon.

    Emits the full distance trace d(s) = |curve(s) - Q(s)| and decides on
    end behavior plus monotonicity of the final quarter.
    """
    if r is not None:
        model = model.with_rate(r)
    if curve is None or branch is None:
        raise ValueError("curve and branch required")
    cfun, start, end = _as_curve(curve, t0, horizon)
    if isinstance(branch, QseBranch):
        bs = branch.s_values
        b_lo, b_hi = float(bs[0]), float(bs[-1])
        bfun = branch.eval
    elif callable(branch):
        b_lo, b_hi = -math.inf, math.inf
        bfun = _pointwise(branch)
    else:
        raise TypeError("branch must be a QseBranch or a callable")

    lo = max(start, b_lo)
    hi = lo + horizon
    if hi > min(end, b_hi) + 1e-12:
        raise TiplabError("branch or curve does not span the requested horizon")

    grid = np.linspace(lo, hi, grid_points)
    # a row-wise norm can differ in the last bit, so each point takes its own
    d = np.array([float(np.linalg.norm(c - b)) for c, b in zip(cfun(grid), bfun(grid))])
    iq = int(0.75 * (grid_points - 1))
    floor = 1e-7 * (1.0 + float(np.max(d)))
    if d[-1] < eps and _monotone(d[iq:], "dec", floor):
        verdict = HOLDS
    elif d[-1] >= eps and _monotone(d[iq:], "inc", floor):
        verdict = FAILS
    else:
        verdict = INCONCLUSIVE
    return Diagnostic(
        kind="endpoint_tracking",
        verdict=verdict,
        evidence={"times": grid, "distances": d, "eps": eps, "horizon": horizon},
    )


# ---------------------------------------------------------------------------
# co-moving correspondence


def comoving_consistency_check(
    model: ModelSpec,
    r: float | None = None,
    samples: int = 40,
    seed: int = 0,
    window: tuple[float, float] = (0.0, 3.0),
    cfg: IntegratorConfig | None = None,
) -> dict:
    """Verify the co-moving transform three ways.

    (a) algebraic: rhs(x,t) - dv/dt == g(x - v(t)) at randomized points;
    (b) dynamic: translated co-moving trajectories track the nonautonomous
        integration within 10x the integrator tolerance;
    (c) lift: each hyperbolic equilibrium of g, shifted by v(t), leaves a
        near-zero residual in the nonautonomous equation.
    """
    if r is not None:
        model = model.with_rate(r)
    cm = model.comoving
    if cm is None:
        from .models import NoComovingFrame

        raise NoComovingFrame(f"model {model.name!r} has no co-moving descriptor")
    cfg = cfg or integrator_config(model)
    rng = np.random.default_rng(seed)

    # (a) algebraic identity at randomized (x, t)
    alg = 0.0
    for _ in range(samples):
        t = float(rng.uniform(-3.0, 3.0))
        box = model.state_box(t) if model.state_box else [(-2.0, 2.0)] * model.dimension
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        res = model.field(x, t) - cm.translation_rate(t) - cm.field(x - cm.translation(t))
        alg = max(alg, float(np.max(np.abs(res))))
    algebraic_pass = alg <= 1e-12

    # (b) dynamic correspondence from matched initial conditions; some
    # draws sit in a blow-up basin, so retry until both runs complete
    t0, t1 = window
    gfield = VectorFieldHandle(model.dimension, lambda y, t, p: cm.field(y))
    tx = ty = None
    for _ in range(10):
        y0 = np.array([rng.uniform(lo, hi) for lo, hi in cm.box])
        x0 = y0 + cm.translation(t0)
        tx = integrate(model.field, x0, t0, t1, cfg)
        ty = integrate(gfield, y0, t0, t1, cfg)
        if tx.status == COMPLETED and ty.status == COMPLETED:
            break
    if tx.status == COMPLETED and ty.status == COMPLETED:
        grid = np.linspace(t0, t1, 101)
        xs = tx.eval(grid)
        ys = ty.eval(grid)
        vs = np.vstack([cm.translation(t) for t in grid])
        dyn = float(np.max(np.linalg.norm(xs - vs - ys, axis=1)))
        scale = float(np.max(np.linalg.norm(xs, axis=1)))
        dyn_bound = 10.0 * (cfg.abs_tol + cfg.rel_tol * scale)
        dynamic_pass = dyn <= dyn_bound
    else:
        dyn, dyn_bound, dynamic_pass = math.inf, 0.0, False

    # (c) equilibrium lift
    eq = find_roots(lambda y: cm.field(y), cm.box, tol=1e-12)
    lift = 0.0
    tgrid = np.linspace(-3.0, 3.0, 31)
    for ystar in eq:
        eigs = np.linalg.eigvals(_fd_jacobian(lambda y: cm.field(y), ystar))
        if np.any(np.abs(np.real(eigs)) <= 1e-9):
            continue  # not hyperbolic
        for t in tgrid:
            res = model.field(ystar + cm.translation(t), t) - cm.translation_rate(t)
            lift = max(lift, float(np.max(np.abs(res))))
    lift_pass = lift <= 1e-10

    return {
        "algebraic": {"max_residual": alg, "passed": algebraic_pass},
        "dynamic": {"max_mismatch": dyn, "bound": dyn_bound, "passed": dynamic_pass},
        "lift": {"max_residual": lift, "equilibria": [e.tolist() for e in eq], "passed": lift_pass},
        "passed": algebraic_pass and dynamic_pass and lift_pass,
    }

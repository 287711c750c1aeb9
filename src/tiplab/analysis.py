"""Numerical estimation of pullback attractors/repellers and nonautonomous
attraction diagnostics.

Pullback curves are estimated by pushing the start time geometrically far
into the past and integrating forward through a fixed observation window,
each start time as one error-controlled leg sampled on the window; the
repelling sense reuses the same machinery on the model's own field, starting
far in the future and stepping backward in time.
Forward-attraction and end-point-tracking are finite-horizon tests that
emit the full distance trace alongside a three-way verdict.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .integrate import (
    COMPLETED,
    Batch,
    IntegratorConfig,
    VectorFieldHandle,
    _zero_in,
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

# Deepest pullback lookback, in model time, unless a caller bounds it.
MAX_LOOKBACK = 4096.0
# Lookback doublings k = 0, 1, ... stop here even below MAX_LOOKBACK.
_MAX_DOUBLINGS = 40
# Samples of a curve over a window: pullback curves, forward-attraction and
# end-point-tracking distance traces.
GRID_POINTS = 201


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
        """The curve at time(s) t.  The first call resumes the last
        doubling alone from its state on entering the window, the controller
        state included, so that it integrates only the window and, by batch
        independence, ``eval(times)`` equals ``states``."""
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


def _noise_floor(cfg: IntegratorConfig, size: float) -> float:
    """Differences this small between two integrations of curves of sup
    norm ``size`` are the integrator's own error."""
    return 100.0 * (cfg.abs_tol + cfg.rel_tol * size)


def _window_leg(model: ModelSpec, wb: float, entry: tuple, cfg: IntegratorConfig) -> Callable:
    """An evaluator of a pullback member's steps through the window, resumed
    on its first call as a lone member from ``entry``, its (t, y, f, h_abs,
    rejected) before its first step onto the window grid."""
    t, y, *resume = entry

    @functools.cache
    def leg():
        batch = Batch(model.rhs, model.dimension, cfg.rel_tol, cfg.abs_tol,
                      cfg.escape_norm, cfg.min_step, record=True)
        batch.start([0], y, t, wb, model.rate, resume=resume)
        while batch.n_active:
            batch.advance()
        return batch.trajectory(0)

    return lambda t: leg().eval(t)


class PullbackJob:
    """One (rate, anchor) pullback estimate, built from lookback doublings.

    Doubling k starts ``2**k`` before the window start (after it, in the
    repelling sense, whose legs step backward in time) and integrates one
    leg to the window end, sampled on ``grid`` as it crosses the window.
    Each doubling's outcome (its curve on ``grid``, or None when it escaped)
    and its state on entering the window are kept once integrated, so
    ``relax`` to a looser tolerance or a longer lookback reuses them:
    ``resolve`` replays the sequential doubling
    loop over the kept outcomes, each gap computed once, and the tolerance
    enters only its convergence test: two successive sup gaps below
    ``tol * max(1, sup|curve|)``, the last no larger than the one before
    unless it lies within the integrator's noise floor ``_noise_floor``,
    where gaps stop falling.
    """

    def __init__(self, model: ModelSpec, anchor, sense: str, window: tuple[float, float],
                 tol: float, max_lookback: float = MAX_LOOKBACK):
        self.model = model
        self.anchor = anchor
        self.sense = sense
        self.window = window
        self.tol = tol
        self.max_lookback = max_lookback
        t_a, t_b = window
        if not (math.isfinite(t_a) and math.isfinite(t_b)):
            raise ValueError("window must be finite")
        if not t_b > t_a:
            raise ValueError("window must have positive width")
        if not tol > 0:
            raise ValueError("tol must be positive")
        if not np.all(np.isfinite(anchor)):
            raise ValueError(f"anchor must be finite, got {anchor}")
        if not max_lookback >= 1:  # the first doubling looks back 2**0
            raise ValueError(f"max_lookback must be at least 1, got {max_lookback}")
        # the window start and end, in the order the sense steps time
        self.wa, self.wb = (t_a, t_b) if sense == "attracting" else (t_b, t_a)
        self.grid = np.linspace(self.wa, self.wb, GRID_POINTS)
        self.outcomes: dict[int, np.ndarray | None] = {}
        self._entries: dict[int, tuple | None] = {}
        self._gaps: dict[int, tuple[float, float]] = {}
        self.relax(tol, max_lookback)

    def pending(self) -> list[int]:
        return [k for k in self.doublings if k not in self.outcomes]

    def start_time(self, k: int) -> float:
        """Doubling k's start time, 2**k before the window start as the sense
        steps time."""
        return self.wa - 2.0**k if self.sense == "attracting" else self.wa + 2.0**k

    def record(self, k: int, curve: np.ndarray | None, entry: tuple | None) -> None:
        """Keep doubling k's curve and its ``Batch.entries`` window entry."""
        self.outcomes[k] = curve
        self._entries[k] = entry

    def relax(self, tol: float, max_lookback: float) -> None:
        """Set the tolerance and the lookback; the doublings follow."""
        self.tol, self.max_lookback = tol, max_lookback
        self.doublings = [k for k in range(_MAX_DOUBLINGS) if 2.0**k <= max_lookback]
        self.estimate = None

    def resolve(self, cfg: IntegratorConfig) -> bool:
        """Set ``estimate`` once the kept outcomes decide it; else False."""
        start_times: list[float] = []
        gaps: list[float] = []
        status = NOT_CONVERGED
        prev = None  # the last doubling with a curve
        for k in self.doublings:
            start_times.append(self.start_time(k))
            if k not in self.outcomes:
                return False
            if self.outcomes[k] is None:
                status = ESCAPED_DURING_PULLBACK
                break
            if prev is not None:
                if k not in self._gaps:  # (sup gap to doubling k - 1, sup|curve|)
                    curve = self.outcomes[k]
                    self._gaps[k] = (float(np.max(np.abs(curve - self.outcomes[prev]))),
                                     float(np.max(np.abs(curve))))
                gap, size = self._gaps[k]
                gaps.append(gap)
                tol_eff = self.tol * max(1.0, size)
                if (
                    len(gaps) >= 2
                    and gaps[-1] < tol_eff
                    and gaps[-2] < tol_eff
                    and (gaps[-1] <= gaps[-2] or gaps[-1] <= _noise_floor(cfg, size))
                ):
                    status = CONVERGED
                    prev = k
                    break
            prev = k

        curve = np.empty((0, self.model.dimension)) if prev is None else self.outcomes[prev]
        step = 1 if self.sense == "attracting" else -1  # times ascend
        evaluator = None
        if status == CONVERGED:
            evaluator = _window_leg(self.model, self.wb, self._entries[prev], cfg)
        frame = "comoving" if self.model.comoving is not None else "ramp"
        note = f"{frame} anchor {self.anchor.tolist()} ({self.sense} sense)"
        self.estimate = PullbackEstimate(
            window=tuple(self.window),
            times=self.grid[::step],
            states=curve[::step],
            anchor=self.anchor,
            anchor_note=note,
            start_times=start_times,
            convergence_gaps=gaps,
            status=status,
            sense=self.sense,
            _evaluator=evaluator,
        )
        return True


def _exit_bounds(model: ModelSpec, sense: str) -> tuple[float, float, float]:
    """A pullback member's exit box (gain, lo, hi) in x - gain·λ(rt): the
    edges of ``comoving.box``, shifted by the co-moving offset, on the sides
    where the co-moving flow points away from the box as the sense steps
    time: g forward for the attracting sense, -g backward for the repelling
    one; -inf and inf elsewhere.

    Only a scalar model whose closed-form co-moving equilibria all lie
    strictly inside the box gets finite edges.  Then g keeps one sign beyond
    each edge, so a state past an edge where g points away moves away
    monotonically, with no equilibrium left to approach: it diverges and is
    never attracted.
    """
    cm = model.comoving
    if model.dimension != 1 or cm is None or cm.equilibria is None:
        return 0.0, -math.inf, math.inf
    ((a, b),) = cm.box
    if not all(a < y[0] < b for y, _ in cm.equilibria()):
        return 0.0, -math.inf, math.inf
    s = 1.0 if sense == "attracting" else -1.0
    g = lambda y: s * float(cm.field(np.array([y]))[0])
    off = float(cm.offset[0])
    return (float(cm.gain[0]), a + off if g(a) < 0 else -math.inf,
            b + off if g(b) > 0 else math.inf)


def run_pullbacks(jobs: Sequence[PullbackJob], cfg: IntegratorConfig) -> None:
    """Resolve pullback jobs, integrating their missing doublings as one batch.

    Every (job, doubling) pair is one member of a single Dormand–Prince
    batch.  A member runs from its start time to the window end as one leg
    with no step cap: error control sets each step, and the attracting
    dynamics contract that error away.  The leg is sampled onto the batch's
    curve grid, by dense output, as its steps cross the window; its state on
    entering the window is kept for ``PullbackEstimate.eval``.  Each job
    resolves in doubling order and drops its remaining members once it
    converges or escapes.  All jobs must share one model family, sense,
    window and ``cfg``.  A start state that overflows (a ramp such as
    exp(rt) far out) is infinite, and its member stops as escaped at start.

    A member escapes when its norm reaches ``cfg.escape_norm`` or, for a
    scalar model with a co-moving frame, once its co-moving state y = x -
    v(t) leaves ``comoving.box`` on a side where the co-moving field points
    away from the box and every closed-form co-moving equilibrium at its
    rate lies strictly inside the box.  Beyond every equilibrium a scalar
    autonomous flow moves monotonically away and is never attracted, so
    such a member diverges: the stop saves its crawl out to the escape
    norm.  Each rate's edges are read once from the catalog's closed forms
    (``_exit_bounds``) and each member is checked on its own, so its result
    still does not depend on its batch.
    """
    jobs = [job for job in jobs if not job.resolve(cfg)]
    if not jobs:
        return
    first = jobs[0]
    model, sense, wb = first.model, first.sense, first.wb
    family = lambda m: (m.name, {k: v for k, v in m.params.items() if k != "r"})
    if any(job.sense != sense or job.window != first.window or family(job.model) != family(model)
           for job in jobs):
        raise ValueError("a pullback batch needs one model family, sense and window")
    members = [(job, k) for job in jobs for k in job.pending()]
    ids_of = {}
    for i, (job, _) in enumerate(members):
        ids_of.setdefault(id(job), []).append(i)
    t0 = np.array([job.start_time(k) for job, k in members])
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = np.concatenate([job.model.anchor_state(job.anchor, t0[ids_of[id(job)], None])
                             for job in jobs])
    rates = np.array([job.model.rate for job, _ in members])
    models = {job.model.rate: job.model for job in jobs}
    edges = {r: _exit_bounds(m, sense) for r, m in models.items()}
    bounds = np.array([edges[r] for r in rates.tolist()])
    # the family's ramp kind; each member brings its rate
    frame = model.comoving.ramp.value if np.isfinite(bounds[:, 1:]).any() else None
    batch = Batch(model.rhs, model.dimension, cfg.rel_tol, cfg.abs_tol,
                  cfg.escape_norm, cfg.min_step, grid=first.grid, frame=frame)
    stopped = batch.start(np.arange(len(members)), x0, t0, wb, rates, bounds=bounds)
    while True:
        for i in stopped:
            job, k = members[i]
            if job.estimate is not None:
                continue
            job.record(k, batch.samples.pop(i, None), batch.entries.pop(i, None))
            if job.resolve(cfg):
                batch.drop(ids_of[id(job)])
        if not batch.n_active:
            break
        stopped = batch.advance()
    for job in jobs:
        if not job.resolve(cfg):
            raise RuntimeError("pullback batch ended with an unresolved job")


def estimate_pullback(
    model: ModelSpec,
    r: float | None = None,
    window: tuple[float, float] = (0.0, 4.0),
    anchor=None,
    sense: str = "attracting",
    tol: float = 1e-8,
    max_lookback: float = MAX_LOOKBACK,
    cfg: IntegratorConfig | None = None,
) -> PullbackEstimate:
    """Estimate a pullback attractor (or, with sense "repelling", a pullback
    repeller, stepped backward in time from the future).

    Start times move away as s_k = t_a - 2^k (s_k = t_b + 2^k for a repeller),
    at most ``max_lookback`` away, until two successive gaps between
    window-restricted curves are below ``tol`` in sup norm (scaled by the
    curve magnitude when it exceeds unity) and the last is no larger than the
    one before or within the integrator's error noise floor.  The doublings
    are integrated together as members of one batch.
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
                      max_lookback)
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

    grid = np.linspace(start, t1, GRID_POINTS)
    ref = curve(grid)
    iq = int(0.75 * (GRID_POINTS - 1))
    # distances below the integrator's own error are indistinguishable noise
    floor = _noise_floor(cfg, float(np.max(np.abs(ref))))

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
    # every probe is one member of a single batch, sampled on the grid
    probes = (integrate_members(model.rhs, model.dimension, x0, start, t1, cfg, model.rate,
                                grid=grid) if offs else None)

    traces = []
    any_fail = False
    holds_ok = []
    for j, off in enumerate(offs):
        size = float(np.linalg.norm(off))
        in_radius = size <= basin_radius
        rec = {"offset": off.tolist(), "in_basin_radius": in_radius}
        status = probes.final[j][0]
        if status != COMPLETED:
            rec["escaped"] = True
            rec["status"] = status
            if in_radius:
                any_fail = True
            traces.append(rec)
            continue
        d = np.linalg.norm(probes.samples[j] - ref, axis=1)
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
    J = np.empty((x.size, x.size))
    for j, e in enumerate(np.diag(h * np.maximum(1.0, np.abs(x)))):
        J[:, j] = (f(x + e) - f(x - e)) / (2.0 * e[j])
    return J


def _newton(f, x):
    """Damped Newton from x on the central-difference Jacobian.  A step is
    halved until the residual strictly falls.  Newton ends after a full step
    of at most 1e-9*max(1, |x|), which quadratic convergence leaves at
    rounding, or when the Jacobian is singular or no halving helps."""
    fx = f(x)
    for _ in range(50):
        try:
            dx = np.linalg.solve(_fd_jacobian(f, x), -fx)
        except np.linalg.LinAlgError:
            break
        done = np.abs(dx).max() <= 1e-9 * max(1.0, np.abs(x).max())
        res, lam = fx @ fx, 1.0
        while not (fx_new := f(x + lam * dx)) @ fx_new < res:  # a NaN residual fails too
            if done or lam < 1e-3:
                return x
            lam *= 0.5
        x, fx = x + lam * dx, fx_new
        if done:
            break
    return x


def find_roots(f, box, seeds=(), tol=1e-12, scan_points=41):
    """All roots of f inside a box, by damped Newton from the seeds and from a
    grid scan; in 1-D each sign change on the scan is bisected first."""
    box = [tuple(map(float, b)) for b in box]
    dim = len(box)
    all_seeds = [np.atleast_1d(np.asarray(s, dtype=float)) for s in seeds]
    if dim == 1:
        g = lambda x: f(np.array([x]))[0]
        xs = np.linspace(*box[0], scan_points)
        vals = [g(x) for x in xs]
        all_seeds += [np.array([x]) for x, v in zip(xs, vals) if v == 0.0]  # on the scan
        all_seeds += [np.array([_zero_in(g, a, b)])
                      for a, b, va, vb in zip(xs, xs[1:], vals, vals[1:])
                      if np.sign(va) * np.sign(vb) < 0]
    else:
        n = max(5, int(round(scan_points ** (1.0 / dim))))
        axes = [np.linspace(lo, hi, n) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        all_seeds.extend(np.stack([m.ravel() for m in mesh], axis=1))
        # an even mesh misses the centre, where a symmetric box tends to hold a root
        all_seeds.append(np.array([0.5 * (lo + hi) for lo, hi in box]))

    roots = []
    span = max(hi - lo for lo, hi in box)
    for seed in all_seeds:
        x = _newton(f, seed)
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
    roots.sort(key=lambda v: tuple(np.round(v, 9)))
    return roots


def _stability_label(eigs):
    re = np.real(eigs)
    if np.any(np.abs(re) <= 1e-9):
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
) -> list[QseBranch]:
    """Continue all frozen-system equilibria x_*(λ(rs)) over a time grid."""
    if r is not None:
        model = model.with_rate(r)
    if s_grid is None:
        s_grid = np.linspace(0.0, 4.0, 41)
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size == 0:
        raise ValueError("s_grid is empty")
    if model.state_box is None:
        raise TiplabError(f"model {model.name!r} defines no root-search box")

    active: list[QseBranch] = []
    done: list[QseBranch] = []
    prev_lam = model.ramp.value(s_grid[0])
    rate = model.rate
    for s in s_grid:
        frozen = lambda x, s=s: model.rhs(x, s, rate)  # model.field without its checks
        seeds = [br.samples[-1].x for br in active]
        roots = find_roots(frozen, model.state_box(s), seeds=seeds)
        lam = model.ramp.value(s)
        allowed = 4.0 * abs(lam - prev_lam) + 0.25
        prev_lam = lam

        samples = []
        for x in roots:
            eigs = np.linalg.eigvals(_fd_jacobian(frozen, x))
            samples.append(QseSample(float(s), x, _stability_label(eigs), eigs))

        # closest (branch, root) pair first, so a root goes to its nearest
        # branch whatever the branch order; ties go to the first branch
        match: dict[int, int] = {}
        for d, b, j in sorted((float(np.linalg.norm(smp.x - br.samples[-1].x)), b, j)
                              for b, br in enumerate(active) for j, smp in enumerate(samples)):
            if d <= allowed and b not in match and j not in match.values():
                match[b] = j
        still_active = []
        for b, br in enumerate(active):
            if b in match:
                br.samples.append(samples[match[b]])
                br.flagged |= samples[match[b]].stability == "degenerate"
                still_active.append(br)
            else:
                done.append(br)  # branch death inside the grid
        still_active += [QseBranch([smp], smp.stability == "degenerate")
                         for j, smp in enumerate(samples) if j not in match.values()]
        active = still_active

    done.extend(active)
    # rounded, so that last-bit noise cannot reorder branches that tie
    done.sort(key=lambda br: tuple(np.round(br.samples[0].x, 9)))
    return done


def endpoint_tracking_test(
    model: ModelSpec,
    r: float | None = None,
    curve=None,
    branch=None,
    horizon: float = 10.0,
    eps: float = 0.01,
    t0: float | None = None,
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

    grid = np.linspace(lo, hi, GRID_POINTS)
    # a row-wise norm can differ in the last bit, so each point takes its own
    d = np.array([float(np.linalg.norm(c - b)) for c, b in zip(cfun(grid), bfun(grid))])
    iq = int(0.75 * (GRID_POINTS - 1))
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

    # (a) algebraic identity at 40 randomized (x, t)
    alg = 0.0
    for _ in range(40):
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

"""Critical-rate detection and rate sweeps.

Tipping at a given rate is decided from pullback estimates alone: either
some anchored estimate escapes in finite time, or the number of distinct
pullback-attracting curves drops below the model's baseline count.  The
critical rate is then bracketed by a logarithmic scan plus bisection on
that qualitative predicate, and classified through the co-moving frozen
system on either side of the bracket.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .analysis import (  # noqa: F401  (estimate_pullback stays importable here)
    CONVERGED,
    ESCAPED_DURING_PULLBACK,
    MAX_LOOKBACK,
    Diagnostic,
    PullbackEstimate,
    PullbackJob,
    estimate_pullback,
    forward_attraction_test,
    integrator_config,
    run_pullbacks,
)
from .integrate import IntegratorConfig
from .models import ModelSpec, TiplabError

__all__ = [
    "RateDiagnostics",
    "CriticalRateBracket",
    "TippingReport",
    "rate_diagnostics",
    "find_critical_rate",
    "locality_probe",
    "sweep",
]

# Two pullback curves are the same curve when their sup-norm gap is below this
# times max(1, the larger curve's sup norm), scaled as a pullback's own tol is.
CURVE_DEDUPE_GAP = 1e-4

# The forward-attraction test of each distinct curve runs to at most this
# horizon past the window start, with this attraction threshold.
FORWARD_HORIZON = 20.0
FORWARD_EPS = 0.01

# Log-spaced probes per decade of |r| in the scan of ``find_critical_rate``.
_SCAN_PER_DECADE = 40


@dataclass
class RateDiagnostics:
    rate: float
    window: tuple[float, float]
    estimates: list[PullbackEstimate]
    groups: list[list[int]]
    n_attractors: int
    escaped: list[int]
    inconclusive: list[int]
    tipped: bool | None
    forward: list[Diagnostic] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "rate": self.rate,
            "window": list(self.window),
            "n_attractors": self.n_attractors,
            "statuses": [e.status for e in self.estimates],
            "escaped_anchors": self.escaped,
            "tipped": self.tipped,
            "forward_verdicts": [d.verdict for d in self.forward],
        }


def _dedupe(estimates: list[PullbackEstimate]) -> list[list[int]]:
    """Group converged estimates whose curves agree to CURVE_DEDUPE_GAP."""
    groups: list[list[int]] = []
    for i, est in enumerate(estimates):
        if est.status != CONVERGED:
            continue
        for g in groups:
            other = estimates[g[0]]
            size = max(1.0, np.max(np.abs(est.states)), np.max(np.abs(other.states)))
            if est.sup_gap(other) < CURVE_DEDUPE_GAP * size:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def _rate_jobs(
    model: ModelSpec,
    rates: Sequence[float],
    anchors: Sequence | None,
    window: tuple[float, float],
    tol: float,
    max_lookback: float,
) -> list[list[PullbackJob]]:
    """One attracting pullback job per (rate, anchor), grouped by rate."""
    out = []
    for r in rates:
        m = model.with_rate(r)
        pool = m.default_anchors if anchors is None else anchors
        if not pool:
            raise TiplabError(f"model {m.name!r} has no anchors to diagnose")
        out.append([
            PullbackJob(m, np.atleast_1d(np.asarray(a, dtype=float)), "attracting",
                        (float(window[0]), float(window[1])), tol,
                        max_lookback=max_lookback)
            for a in pool
        ])
    return out


def _diagnose(jobs: list[PullbackJob], window: tuple[float, float]) -> RateDiagnostics:
    """The per-rate picture from resolved jobs, without forward tests."""
    estimates = [job.estimate for job in jobs]
    escaped = [i for i, e in enumerate(estimates) if e.status == ESCAPED_DURING_PULLBACK]
    inconclusive = [
        i for i, e in enumerate(estimates)
        if e.status not in (CONVERGED, ESCAPED_DURING_PULLBACK)
    ]
    groups = _dedupe(estimates)
    n_att = len(groups)

    if escaped:
        tipped: bool | None = True
    elif inconclusive:
        tipped = None
    else:
        tipped = n_att < len(jobs)
    return RateDiagnostics(
        rate=jobs[0].model.rate,
        window=(float(window[0]), float(window[1])),
        estimates=estimates,
        groups=groups,
        n_attractors=n_att,
        escaped=escaped,
        inconclusive=inconclusive,
        tipped=tipped,
    )


def _diagnose_rates(model: ModelSpec, rates: Sequence[float], anchors: Sequence | None,
                    window: tuple[float, float], tol: float, max_lookback: float,
                    cfg: IntegratorConfig) -> list[RateDiagnostics]:
    """The tipping predicate at each rate, decided in one batch: the source
    of every verdict.  Undecided rates are retried together at ``tol * 100``
    and a four-fold lookback, reusing the doublings already integrated; a
    rate the retry cannot decide reads None."""
    jobs = _rate_jobs(model, rates, anchors, window, tol, max_lookback)
    run_pullbacks([job for per_rate in jobs for job in per_rate], cfg)
    diags = [_diagnose(per_rate, window) for per_rate in jobs]
    retry = [i for i, d in enumerate(diags) if d.tipped is None]
    for i in retry:
        for job in jobs[i]:
            job.relax(tol * 100.0, max_lookback * 4.0)
    run_pullbacks([job for i in retry for job in jobs[i]], cfg)
    for i in retry:
        diags[i] = _diagnose(jobs[i], window)
    return diags


def rate_diagnostics(
    model: ModelSpec,
    r: float | None = None,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-8,
    max_lookback: float = MAX_LOOKBACK,
    cfg: IntegratorConfig | None = None,
    include_forward: bool = True,
) -> RateDiagnostics:
    """Full per-rate picture: pullback curves, dedupe, forward attraction.

    ``tipped`` is True when an anchored estimate escapes or fewer distinct
    curves survive than the model's anchor count, False when all anchors
    converge with full multiplicity, and None when some estimate neither
    converged nor escaped, even on the batched predicate's relaxed retry.
    """
    if r is not None:
        model = model.with_rate(r)
    cfg = cfg or integrator_config(model)
    (diag,) = _diagnose_rates(model, [model.rate], anchors, window, tol, max_lookback, cfg)

    if include_forward:
        for g in diag.groups:
            est = diag.estimates[g[0]]
            offs = []
            for j in range(model.dimension):
                e = np.zeros(model.dimension)
                e[j] = 0.01
                offs.extend([e, -e])
            diag.forward.append(
                forward_attraction_test(
                    model,
                    candidate=est,
                    offsets=offs,
                    horizon=min(FORWARD_HORIZON, window[1] - window[0]),
                    eps=FORWARD_EPS,
                    cfg=cfg,
                )
            )
    return diag


@dataclass
class CriticalRateBracket:
    lower: float
    upper: float
    classification: str
    flagged: bool = False
    probes: int = 0

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "width": self.width,
            "classification": self.classification,
            "flagged": self.flagged,
            "probes": self.probes,
        }


@dataclass
class TippingReport:
    model: str
    params: dict
    r_range: tuple[float, float]
    resolution: float
    brackets: list[CriticalRateBracket]
    probes: int
    flagged: bool = False

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": self.params,
            "r_range": list(self.r_range),
            "resolution": self.resolution,
            "brackets": [b.to_dict() for b in self.brackets],
            "probes": self.probes,
            "flagged": self.flagged,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _classify(model: ModelSpec, lo: float, hi: float) -> str:
    """Name the bifurcation from the closed-form co-moving equilibria on
    either side of the bracket.  Two fewer is a saddle-node, or a pitchfork
    when the richer side holds three: a pair that mirrors into itself when
    one coordinate is negated, and one point on that mirror (to 1e-9)."""
    m_lo, m_hi = model.with_rate(lo), model.with_rate(hi)
    if m_lo.comoving is None or m_lo.comoving.equilibria is None:
        return "unclassified"
    sides = [[y for y, _ in m.comoving.equilibria()] for m in (m_lo, m_hi)]
    poor, rich = sorted(sides, key=len)
    if len(rich) - len(poor) != 2:
        return "unclassified"
    if len(rich) == 3:
        for j in range(model.dimension):
            flip = np.ones(model.dimension)
            flip[j] = -1.0
            for k in range(3):  # rich[k] on the mirror, the other two a mirror pair
                pair_gap = np.max(np.abs(rich[k - 1] - flip * rich[k - 2]))
                if abs(rich[k][j]) <= 1e-9 and pair_gap <= 1e-9:
                    return "pitchfork"
    return "saddle-node"


def _scan_rates(r_range: tuple[float, float], resolution: float) -> np.ndarray:
    """The log-spaced scan of ``find_critical_rate``: ``_SCAN_PER_DECADE``
    probes per decade of |r|, on both signs when the range straddles zero,
    keeping |r| >= max(resolution, 1e-6)."""
    lo, hi = float(r_range[0]), float(r_range[1])
    inner = max(resolution, 1e-6)

    def grid_of(a: float, b: float) -> np.ndarray:
        # log-spaced scan of a single-signed interval [a, b], 0 < a < b
        n = max(2, int(math.ceil(_SCAN_PER_DECADE * math.log10(b / a))) + 1)
        return np.geomspace(a, b, n)

    pieces = []
    if lo < 0:
        neg_hi = min(hi, -inner)
        if neg_hi > lo:
            pieces.append(-grid_of(-neg_hi, -lo)[::-1])
    if hi > 0:
        pos_lo = max(lo, inner)
        if hi > pos_lo:
            pieces.append(grid_of(pos_lo, hi))
    if not pieces:
        raise ValueError("r_range too narrow to scan at this resolution")
    return np.concatenate(pieces)


# Bisection levels decided per round: up to 2**3 - 1 = 7 midpoints of each
# open bracket in one batch.  A batch takes as long as its deepest lookback
# doubling, so deciding more levels at once saves few rounds and pays for
# midpoints the walk never reads (six levels ran slower on moving-cubic).
_ROUND_DEPTH = 3


def _probe_rates(model: ModelSpec, rates: Sequence[float], anchors: Sequence | None,
                 window: tuple[float, float], tol: float, max_lookback: float,
                 cfg: IntegratorConfig) -> list[bool | None]:
    """The verdicts alone of ``_diagnose_rates``."""
    return [d.tipped for d in
            _diagnose_rates(model, rates, anchors, window, tol, max_lookback, cfg)]


@dataclass
class _Walk:
    """One bracket's bisection: its current interval and what it has read."""
    a: float
    b: float
    va: bool
    nudges: int = 0
    probes: int = 0
    flagged: bool = False


def _midpoints(a: float, b: float, resolution: float, depth: int) -> list[float]:
    """The midpoints of the next ``depth`` bisection levels below (a, b),
    leaving out every interval no wider than ``resolution``."""
    if depth == 0 or not b - a > resolution:
        return []
    m = 0.5 * (a + b)
    return [m, *_midpoints(a, m, resolution, depth - 1),
            *_midpoints(m, b, resolution, depth - 1)]


def _bisect(
    brackets: Sequence[tuple[float, float]],
    resolution: float,
    verdicts: dict[float, bool | None],
    consulted: set[float],
    decide: Callable[[list[float]], list[bool | None]],
) -> list[_Walk]:
    """Bisect each bracket (a, b) down to ``resolution``, in rounds.

    ``verdicts`` holds the predicate at every rate decided so far, both ends
    of each bracket included; ``decide(rates)`` returns it at new rates, as
    one batch.  A round decides the midpoints of the next ``_ROUND_DEPTH``
    levels of every bracket whose next midpoint is undecided, all in one
    call.  Each bracket then walks through those verdicts as a bisection
    probing one midpoint at a time would: it keeps the half whose ends
    disagree.  At an undecidable midpoint it decides a point 40% (then 60%,
    alternating) of the way across on its own and moves there; when that is
    undecidable too, the bracket is flagged and stops.  Only rates a walk
    reads join ``consulted`` and count towards its ``probes``.
    """
    walks = [_Walk(a, b, verdicts[a]) for a, b in brackets]

    def read(w: _Walk, r: float) -> bool | None:
        if r not in verdicts:
            (verdicts[r],) = decide([r])
        if r not in consulted:
            consulted.add(r)
            w.probes += 1
        return verdicts[r]

    def walk(w: _Walk) -> bool:
        """Advance through decided midpoints; False at an undecided one."""
        while w.b - w.a > resolution:
            mid = 0.5 * (w.a + w.b)
            if mid not in verdicts:
                return False
            vm = read(w, mid)
            if vm is None:
                # step the probe off the undecidable point
                mid = w.a + (0.4 if w.nudges % 2 == 0 else 0.6) * (w.b - w.a)
                vm = read(w, mid)
                w.nudges += 1
                if vm is None:
                    w.flagged = True
                    break
            if vm == w.va:
                w.a = mid
            else:
                w.b = mid
        return True

    pending = [w for w in walks if not walk(w)]
    while pending:
        rates = [r for w in pending
                 for r in _midpoints(w.a, w.b, resolution, _ROUND_DEPTH)
                 if r not in verdicts]
        verdicts.update(zip(rates, decide(rates)))
        pending = [w for w in pending if not walk(w)]
    return walks


def find_critical_rate(
    model: ModelSpec,
    r_range: tuple[float, float] = (1e-3, 1.0),
    resolution: float = 1e-4,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-6,
    max_lookback: float = MAX_LOOKBACK,
    cfg: IntegratorConfig | None = None,
) -> TippingReport:
    """Bracket every critical rate in a range by scan + bisection.

    The scan places 40 log-spaced probes per decade of |r| (both signs
    when the range straddles zero) and decides them in one batch; each
    flip of the tipping predicate between neighboring probes seeds a
    bisection down to ``resolution``.  The bisection runs in
    rounds: one batch decides the midpoints of the next three levels of
    every open bracket, and each bracket then keeps the half whose ends
    disagree, level by level, as a one-midpoint-at-a-time bisection would.
    Inconclusive probes are retried with a relaxed convergence tolerance
    and a four-fold lookback.  An undecidable midpoint is stepped off once
    to a nearby point probed alone; if that is undecidable too, the bracket
    is flagged instead of silently narrowed.  ``probes`` and ``flagged``
    count only the rates the scan and the bisection read: a midpoint
    decided ahead but never reached adds nothing to either.
    """
    lo, hi = float(r_range[0]), float(r_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("r_range must be finite")
    if not hi > lo:
        raise ValueError("r_range must be increasing")
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    scan = [float(r) for r in _scan_rates(r_range, resolution)]
    cfg = cfg or integrator_config(model)

    def decide(rates: list[float]) -> list[bool | None]:
        return _probe_rates(model, rates, anchors, window, tol, max_lookback, cfg)

    verdicts = dict(zip(scan, decide(scan)))

    raw_brackets: list[tuple[float, float]] = []
    last = None
    for r in scan:
        if verdicts[r] is None:
            continue
        if last is not None and verdicts[last] != verdicts[r]:
            raw_brackets.append((last, r))
        last = r

    consulted = set(scan)
    walks = _bisect(raw_brackets, resolution, verdicts, consulted, decide)
    brackets = [
        CriticalRateBracket(w.a, w.b, _classify(model, w.a, w.b), flagged=w.flagged,
                            probes=w.probes)
        for w in walks
    ]
    return TippingReport(
        model=model.name,
        params=dict(model.params),
        r_range=(lo, hi),
        resolution=resolution,
        brackets=brackets,
        probes=len(consulted),
        flagged=any(verdicts[r] is None for r in consulted),
    )


def locality_probe(
    model: ModelSpec,
    r: float | None = None,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-8,
    cfg: IntegratorConfig | None = None,
) -> dict:
    """Check whether tipping at rate r is local: does some pullback
    attractor survive (and keep forward-attracting) while another is lost?

    An anchor is lost when its estimate escapes or its curve merged with a
    curve owned by a different anchor; a distinct curve survives when it
    also passes the forward-attraction test.  The curves are those
    ``rate_diagnostics`` reads its verdict from, relaxed retry included.
    """
    diag = rate_diagnostics(model, r=r, window=window, anchors=anchors, tol=tol, cfg=cfg)
    n_anchors = len(diag.estimates)
    survivors = [
        g[0] for g, fwd in zip(diag.groups, diag.forward) if fwd.verdict == "holds"
    ]
    lost = list(diag.escaped)
    for g in diag.groups:
        lost.extend(g[1:])  # merged duplicates: those anchors lost their own curve
    tipping_is_local = bool(survivors) and bool(lost)
    return {
        "rate": diag.rate,
        "n_anchors": n_anchors,
        "n_attractors": diag.n_attractors,
        "statuses": [e.status for e in diag.estimates],
        "survivors": survivors,
        "lost": sorted(set(lost)),
        "forward_verdicts": [d.verdict for d in diag.forward],
        "tipping_is_local": tipping_is_local,
    }


def sweep(
    model: ModelSpec,
    r_values: Sequence[float],
    threads: int = 1,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-8,
    cfg: IntegratorConfig | None = None,
) -> list[dict]:
    """Per-rate diagnostics over many rates, integrated as one batch.

    Each verdict comes from the batched predicate of ``find_critical_rate``,
    relaxed retry included.  Results come back in the order of ``r_values``.
    ``threads`` must be at least 1 (else ValueError) but starts no threads:
    every rate, anchor and lookback doubling is a member of one batch in the
    calling thread, and a member's result does not depend on the batch, so
    the output is identical at any worker count.
    """
    r_values = [float(r) for r in r_values]
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    cfg = cfg or integrator_config(model)
    return [d.summary() for d in
            _diagnose_rates(model, r_values, anchors, window, tol, MAX_LOOKBACK, cfg)]

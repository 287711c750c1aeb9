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
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import (  # noqa: F401  (estimate_pullback stays importable here)
    CONVERGED,
    ESCAPED_DURING_PULLBACK,
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
    "thread_count",
]

# Two pullback curves closer than this in sup norm count as the same curve.
CURVE_DEDUPE_GAP = 1e-4


def thread_count(threads: int | None = None) -> int:
    """Resolve a worker count from the argument or TIPLAB_THREADS."""
    if threads is None:
        raw = os.environ.get("TIPLAB_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise TiplabError(f"TIPLAB_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise TiplabError("thread count must be >= 1")
    return threads


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
            if est.sup_gap(estimates[g[0]]) < CURVE_DEDUPE_GAP:
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
        window=window,
        estimates=estimates,
        groups=groups,
        n_attractors=n_att,
        escaped=escaped,
        inconclusive=inconclusive,
        tipped=tipped,
    )


def rate_diagnostics(
    model: ModelSpec,
    r: float | None = None,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-8,
    max_lookback: float = 4096.0,
    cfg: IntegratorConfig | None = None,
    include_forward: bool = True,
    forward_horizon: float = 20.0,
    forward_eps: float = 0.01,
) -> RateDiagnostics:
    """Full per-rate picture: pullback curves, dedupe, forward attraction.

    ``tipped`` is True when an anchored estimate escapes or fewer distinct
    curves survive than the model's anchor count, False when all anchors
    converge with full multiplicity, and None when some estimate neither
    converged nor escaped within the lookback budget.
    """
    if r is not None:
        model = model.with_rate(r)
    cfg = cfg or integrator_config(model)
    (jobs,) = _rate_jobs(model, [model.rate], anchors, window, tol, max_lookback)
    run_pullbacks(jobs, cfg)
    diag = _diagnose(jobs, window)

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
                    horizon=min(forward_horizon, window[1] - window[0]),
                    eps=forward_eps,
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


def _odd_symmetry_ok(model: ModelSpec, axis: int, samples: int = 64) -> bool:
    """Numerically verify the co-moving field is odd in the given axis."""
    cm = model.comoving
    if cm is None:
        return False
    rng = np.random.default_rng(12345)
    for _ in range(samples):
        y = np.array([rng.uniform(lo, hi) for lo, hi in cm.box])
        yf = y.copy()
        yf[axis] = -yf[axis]
        g, gf = cm.field(y), cm.field(yf)
        gf_expect = g.copy()
        gf_expect[axis] = -gf_expect[axis]
        if float(np.max(np.abs(gf - gf_expect))) > 1e-10:
            return False
    return True


def _classify(model: ModelSpec, lo: float, hi: float) -> str:
    """Name the bifurcation from frozen co-moving equilibria counts."""
    try:
        m_lo, m_hi = model.with_rate(lo), model.with_rate(hi)
    except TiplabError:
        return "unclassified"
    if m_lo.comoving is None or m_lo.comoving.equilibria is None:
        return "unclassified"
    n_lo = len(m_lo.comoving.equilibria())
    n_hi = len(m_hi.comoving.equilibria())
    before, after = max(n_lo, n_hi), min(n_lo, n_hi)
    if before - after == 2:
        if before == 3 and all(_odd_symmetry_ok(m_lo, ax) for ax in model.odd_axes) \
                and model.odd_axes:
            return "pitchfork"
        return "saddle-node"
    return "unclassified"


def _scan_rates(
    r_range: tuple[float, float], resolution: float, scan_per_decade: int = 40
) -> np.ndarray:
    """The log-spaced scan of ``find_critical_rate``: ``scan_per_decade``
    probes per decade of |r|, on both signs when the range straddles zero,
    keeping |r| >= max(resolution, 1e-6)."""
    lo, hi = float(r_range[0]), float(r_range[1])
    inner = max(resolution, 1e-6)

    def grid_of(a: float, b: float) -> np.ndarray:
        # log-spaced scan of a single-signed interval [a, b], 0 < a < b
        n = max(2, int(math.ceil(scan_per_decade * math.log10(b / a))) + 1)
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


def find_critical_rate(
    model: ModelSpec,
    r_range: tuple[float, float] = (1e-3, 1.0),
    resolution: float = 1e-4,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-6,
    scan_per_decade: int = 40,
    max_lookback: float = 4096.0,
    cfg: IntegratorConfig | None = None,
) -> TippingReport:
    """Bracket every critical rate in a range by scan + bisection.

    The scan places ``scan_per_decade`` log-spaced probes per decade of |r|
    (both signs when the range straddles zero); each flip of the tipping
    predicate between neighboring probes seeds a bisection run down to
    ``resolution``.  Inconclusive probes are retried with a relaxed
    convergence tolerance and a four-fold lookback; if still undecidable
    the affected bracket is flagged instead of silently narrowed.
    """
    lo, hi = float(r_range[0]), float(r_range[1])
    if not hi > lo:
        raise ValueError("r_range must be increasing")
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    scan = _scan_rates(r_range, resolution, scan_per_decade)
    cfg = cfg or integrator_config(model)

    cache: dict[float, bool | None] = {}
    any_flag = False

    def probe(rates: Sequence[float]) -> None:
        """Decide the tipping predicate at new rates, in one batch.

        Inconclusive rates are retried together with a relaxed convergence
        tolerance and a four-fold lookback, reusing what was integrated.
        """
        nonlocal any_flag
        jobs = _rate_jobs(model, rates, anchors, window, tol, max_lookback)
        run_pullbacks([job for per_rate in jobs for job in per_rate], cfg)
        retry = []
        for r, per_rate in zip(rates, jobs):
            cache[r] = _diagnose(per_rate, window).tipped
            if cache[r] is None:
                retry.append((r, per_rate))
        for _, per_rate in retry:
            for job in per_rate:
                job.relax(tol * 100.0, max_lookback * 4.0)
        run_pullbacks([job for _, per_rate in retry for job in per_rate], cfg)
        for r, per_rate in retry:
            cache[r] = _diagnose(per_rate, window).tipped
            if cache[r] is None:
                any_flag = True

    def predicate(r: float) -> bool | None:
        if r not in cache:
            probe([r])
        return cache[r]

    probe([float(r) for r in scan])
    verdicts = [cache[float(r)] for r in scan]

    raw_brackets: list[tuple[float, float]] = []
    last_idx = None
    for i, v in enumerate(verdicts):
        if v is None:
            continue
        if last_idx is not None and verdicts[last_idx] != v:
            raw_brackets.append((float(scan[last_idx]), float(scan[i])))
        last_idx = i

    brackets = []
    for a, b in raw_brackets:
        before = len(cache)
        flagged = False
        va = predicate(a)
        nudges = 0
        while b - a > resolution:
            mid = 0.5 * (a + b)
            vm = predicate(mid)
            if vm is None:
                # step the probe off the undecidable point
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
        cls = _classify(model, a, b)
        brackets.append(
            CriticalRateBracket(a, b, cls, flagged=flagged, probes=len(cache) - before)
        )

    return TippingReport(
        model=model.name,
        params=dict(model.params),
        r_range=(lo, hi),
        resolution=resolution,
        brackets=brackets,
        probes=len(cache),
        flagged=any_flag or any(b.flagged for b in brackets),
    )


def locality_probe(
    model: ModelSpec,
    r: float | None = None,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-8,
    cfg: IntegratorConfig | None = None,
    forward_horizon: float = 20.0,
    forward_eps: float = 0.01,
) -> dict:
    """Check whether tipping at rate r is local: does some pullback
    attractor survive (and keep forward-attracting) while another is lost?

    An anchor is lost when its estimate escapes or its curve merged with a
    curve owned by a different anchor; a distinct curve survives when it
    also passes the forward-attraction test.
    """
    diag = rate_diagnostics(
        model, r=r, window=window, anchors=anchors, tol=tol, cfg=cfg,
        include_forward=True, forward_horizon=forward_horizon, forward_eps=forward_eps,
    )
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
    threads: int | None = None,
    window: tuple[float, float] = (0.0, 4.0),
    anchors: Sequence | None = None,
    tol: float = 1e-8,
    cfg: IntegratorConfig | None = None,
) -> list[dict]:
    """Per-rate diagnostics over many rates, integrated as one batch.

    Results come back in the order of ``r_values``.  ``threads`` (or
    ``TIPLAB_THREADS``) is validated but starts no threads: every rate,
    anchor and lookback doubling is a member of one batch in the calling
    thread, and a member's result does not depend on the batch, so the
    output is identical at any worker count.
    """
    r_values = [float(r) for r in r_values]
    thread_count(threads)
    if not r_values:
        return []
    cfg = cfg or integrator_config(model)
    jobs = _rate_jobs(model, r_values, anchors, window, tol, 4096.0)
    run_pullbacks([job for per_rate in jobs for job in per_rate], cfg)
    return [_diagnose(per_rate, window).summary() for per_rate in jobs]

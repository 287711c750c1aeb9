"""Critical-rate detection and rate sweeps.

Tipping at a given rate is decided from pullback estimates alone: either
some anchored estimate escapes in finite time, or the number of distinct
pullback-attracting curves drops below the model's baseline count.  The
critical rate is then bracketed by one refinement loop on that
qualitative predicate (a logarithmic scan, then rounds of bisection
midpoints and secant probes aimed by κ, the contraction rate along the
curves, between neighboring rates whose verdicts differ) and classified
through the co-moving frozen system on either side of the bracket.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import (  # noqa: F401  (estimate_pullback stays importable here)
    CONVERGED,
    ESCAPED_DURING_PULLBACK,
    MAX_LOOKBACK,
    Diagnostic,
    PullbackEstimate,
    PullbackJob,
    _fd_jacobian,
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
_SCAN_PER_DECADE = 10


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
# disagreeing pair in one batch.  A batch takes as long as its deepest lookback
# doubling, so deciding more levels at once saves few rounds and pays for
# midpoints that end up outside every bracket (six levels ran slower on
# moving-cubic).
_ROUND_DEPTH = 3


def _contraction(model: ModelSpec, diags: Sequence[RateDiagnostics]) -> list[float | None]:
    """κ at each rate, the rate at which nearby solutions close in on its
    curves: the minimum, over its converged curves, of -max Re eig of the
    window mean (trapezoid rule over the samples) of the Jacobian, taken by
    central differences (``_fd_jacobian``) at each sample.  For a scalar
    model it is -(1/w)∫ ∂f/∂x dt.  None for a rate with no converged curve."""
    curves = [(i, e) for i, d in enumerate(diags) for e in d.estimates if e.status == CONVERGED]
    out: list[float | None] = [None] * len(diags)
    if not curves:
        return out
    dim, n = model.dimension, len(curves[0][1].times)
    t = np.concatenate([e.times for _, e in curves])
    r = np.repeat([diags[i].rate for i, _ in curves], n)
    jac = _fd_jacobian(lambda x: model.rhs(x, t, r),
                       np.concatenate([e.states for _, e in curves]))
    jac = jac.reshape(len(curves), n, dim, dim)  # [curve, sample, i, j]: ∂f_i/∂x_j
    w = np.full(n, 1.0 / (n - 1))
    w[[0, -1]] *= 0.5
    mean = (jac * w[:, None, None]).sum(axis=1)
    top = mean[:, 0, 0] if dim == 1 else np.linalg.eigvals(mean).real.max(axis=1)
    for (i, _), kappa in zip(curves, (-top).tolist()):
        out[i] = kappa if out[i] is None else min(out[i], kappa)
    return out


def _probe_rates(model: ModelSpec, rates: Sequence[float], anchors: Sequence | None,
                 window: tuple[float, float], tol: float, max_lookback: float,
                 cfg: IntegratorConfig) -> list[tuple[bool | None, float | None]]:
    """The verdict of ``_diagnose_rates`` at each rate, with its κ
    (``_contraction``)."""
    diags = _diagnose_rates(model, rates, anchors, window, tol, max_lookback, cfg)
    return list(zip([d.tipped for d in diags], _contraction(model, diags)))


def _midpoints(a: float, b: float, resolution: float, depth: int) -> list[float]:
    """The midpoints of the next ``depth`` bisection levels below (a, b),
    leaving out every interval no wider than ``resolution``."""
    if depth == 0 or not b - a > resolution:
        return []
    m = 0.5 * (a + b)
    return [m, *_midpoints(a, m, resolution, depth - 1),
            *_midpoints(m, b, resolution, depth - 1)]


def _bisection(a: float, b: float, resolution: float, undecided: list[float]) -> list[float]:
    """The bisection probes of a disagreeing pair (a, b) of neighbouring
    decided rates: the midpoints of its next ``_ROUND_DEPTH`` levels.  When
    undecidable rates (``undecided``, ascending) lie inside it, they are
    those of the cells from each end of the pair to the nearest undecidable
    rate, down to cells of half the resolution, so that decided rates within
    the resolution of each other can pass a lone undecidable rate."""
    inside = undecided[bisect.bisect_right(undecided, a):bisect.bisect_left(undecided, b)]
    if not inside:
        return _midpoints(a, b, resolution, _ROUND_DEPTH)
    return [*_midpoints(a, inside[0], 0.5 * resolution, _ROUND_DEPTH),
            *_midpoints(inside[-1], b, 0.5 * resolution, _ROUND_DEPTH)]


# κ**power is linear in r near a critical rate of each class: κ goes like
# sqrt(r* - r) at a fold and like |r* - r| at a pitchfork.
_SECANT_POWER = {"saddle-node": 2, "pitchfork": 1}


def _secant(model: ModelSpec, a: float, b: float, resolution: float, decided: list[float],
            verdicts: dict, kappas: dict) -> list[float]:
    """The safeguarded secant probes of the disagreeing pair (a, b): r̂ ±
    0.49·resolution, each only where it lies strictly inside the pair (0.49,
    not 0.5, so that the two probes are nearer each other than the
    resolution, however they round).  r̂ is the zero of the line through
    κ**power (``_SECANT_POWER``) at the two nearest decided untipped rates
    on the pair's untipped side.  No probe for an unclassified pair, or
    without two such rates of known κ."""
    power = _SECANT_POWER.get(_classify(model, a, b))
    i = decided.index(a)
    near = (decided[i + 1:] if verdicts[a] else decided[i::-1])[:2]
    if power is None or len(near) < 2 or any(verdicts[r] or kappas[r] is None for r in near):
        return []
    (r1, r2), (q1, q2) = near, [kappas[r] ** power for r in near]
    if q1 == q2:
        return []
    guess = r1 - q1 * (r2 - r1) / (q2 - q1)
    return [r for r in (guess - 0.49 * resolution, guess + 0.49 * resolution) if a < r < b]


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
    """Bracket every critical rate in a range by a scan, then rounds of
    bisection and safeguarded secant probes.

    One loop refines a single map of verdicts, one batch per round.  The
    first round is the scan: 10 log-spaced rates per decade of |r| (both
    signs when the range straddles zero).  Each later round refines every
    pair of neighboring decided rates whose verdicts differ and that is
    wider than ``resolution``; undecidable rates (None) are skipped when
    pairing, so a cell of the scan whose ends agree is never split.  In
    one batch it decides, for each such pair:

    - the midpoints of its next three bisection levels; when undecidable
      rates lie inside the pair, those of the cells from each end to the
      nearest of them, down to half the resolution;
    - its secant probes r̂ ± 0.49·resolution, each only where it lies
      strictly inside the pair.  κ, the rate at which nearby solutions
      close in on a rate's pullback curves, goes to zero at the critical
      rate: like sqrt(r* - r) at a fold and like |r* - r| at a pitchfork.
      So r̂ is where a line through κ² (a ``saddle-node`` pair) or κ (a
      ``pitchfork`` pair) at the two nearest decided untipped rates on the
      pair's untipped side reaches zero.  An ``unclassified`` pair gets no
      secant probe.  Verdicts alone decide: κ only chooses where to probe,
      and the bisection midpoints keep each round's narrowing at least that
      of bisection (Brent's safeguard).

    The loop ends when a round adds no rate, and every such pair left is a
    bracket.  Inconclusive rates are retried with a relaxed convergence
    tolerance and a four-fold lookback before they read None.

    A bracket's ``probes`` is the number of bisection levels its narrowing
    is worth: log2 of the width of its cell of neighboring decided scan
    rates over its own, rounded.  Without secant probes that is the number
    of midpoints a one-at-a-time bisection decides.  The report's is the
    scan's size plus their sum.  A bracket is flagged when undecidable
    rates leave it wider than ``resolution``, and the report is flagged
    when any decided rate reads None.
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

    verdicts: dict[float, bool | None] = {}
    kappas: dict[float, float | None] = {}
    rates = scan
    while rates:
        for r, (verdict, kappa) in zip(rates, _probe_rates(model, rates, anchors, window, tol,
                                                           max_lookback, cfg)):
            verdicts[r], kappas[r] = verdict, kappa
        decided = sorted(r for r, v in verdicts.items() if v is not None)
        undecided = sorted(r for r, v in verdicts.items() if v is None)
        pairs = [(a, b) for a, b in zip(decided, decided[1:]) if verdicts[a] != verdicts[b]]
        rates = [r for a, b in pairs if b - a > resolution
                 for r in (*_bisection(a, b, resolution, undecided),
                           *_secant(model, a, b, resolution, decided, verdicts, kappas))
                 if r not in verdicts]

    cells = [r for r in scan if verdicts[r] is not None]
    brackets = []
    for a, b in pairs:
        i = bisect.bisect_right(cells, a)
        levels = round(math.log2((cells[i] - cells[i - 1]) / (b - a)))
        brackets.append(CriticalRateBracket(a, b, _classify(model, a, b),
                                            flagged=b - a > resolution, probes=levels))
    return TippingReport(
        model=model.name,
        params=dict(model.params),
        r_range=(lo, hi),
        resolution=resolution,
        brackets=brackets,
        probes=len(scan) + sum(b.probes for b in brackets),
        flagged=None in verdicts.values(),
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

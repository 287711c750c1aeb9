"""Adaptive explicit integration of nonautonomous ODEs, batched over members.

One in-house Dormand–Prince 5(4) stepper advances N independent members at
once.  Each member has its own time, step size, step cap, end time and
status, and steps forward or backward in time; every stage sum is added in
stage order (no BLAS products), so a member's result does not depend on how
many other members share its batch or which they are, a batch of one
included.  The tableau, the step-size controller and the initial-step
heuristic are those of Dormand & Prince, *J. Comput. Appl. Math.* 6 (1980),
and Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4–II.6; the quartic
dense output is Shampine's, *Math. Comp.* 46 (1986).  Every step runs one
code path: members that are retrying, clipped at their end time or rejected
are told apart by masks, not by branches.  A batch records the steps of all
its members or of none, samples those that cross its one time grid, which
may run either way, as their steps cross it (a member may start before the
grid, and a lone member resumed from its state on entering the grid takes
the same steps), and ignores their overflow on the way out.  A member that
starts past the escape norm, or not finite, stops in ``Batch.start``.
Given a co-moving frame, a scalar member also stops as escaped when it leaves
its own exit box, which pullbacks set where the flow is proven to diverge.

``integrate`` is the one-member case.  It records every accepted step for a
``Trajectory`` with dense output, stops with status ``escaped`` when the
state norm reaches an escape threshold (then brackets the blow-up time), and
with ``step_underflow`` when step control drives the step below ``min_step``
without an escape.  Pullback legs (backward in time for a repeller), one
uncapped leg per lookback doubling, and forward probes are sampled instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "COMPLETED",
    "ESCAPED",
    "STEP_UNDERFLOW",
    "VectorFieldHandle",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
]

COMPLETED = "completed"
ESCAPED = "escaped"
STEP_UNDERFLOW = "step_underflow"

# Step-attempt budget for the post-escape refinement of a blow-up time.
_REFINE_MAX_STEPS = 8000

# Dormand–Prince 5(4): nodes, stage coefficients, 5th-order weights, error
# weights (5th minus 4th order, over all seven stages) and the dense-output
# matrix for Shampine's quartic interpolant.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# Step-size control: safety factor, bounds on one change, error exponent.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 5.0


def _weights(coeffs):
    """(stage indices, weights[j, 1, 1]) of the nonzero coefficients."""
    idx = [j for j, c in enumerate(coeffs) if c]
    w = np.array([coeffs[j] for j in idx])[:, None, None]
    return (slice(0, len(idx)) if idx == list(range(len(idx))) else idx), w


_A_W = [None] + [_weights(a) for a in _A[1:]]
_B_W = _weights(_B)
_E_W = _weights(_E)
# Column 0 of _P is stage 0 alone, with weight 1; columns 1-3 share their
# nonzero stages, so one accumulation gives all three.
_P_IDX = [0, 2, 3, 4, 5, 6]
_P_W = np.array([_P[j][1:] for j in _P_IDX])[:, None, None, :]


def _wsum(K: np.ndarray, weights) -> np.ndarray:
    """sum_j w[j] * K[idx[j]] over the stage axis of K[s, n, d].

    ``np.add.accumulate`` adds strictly in stage order whatever n is, so a
    member's sum does not depend on the other members in K.
    """
    idx, w = weights
    return np.add.accumulate(K[idx] * w, axis=0)[-1]


def _coeffs(K: np.ndarray) -> np.ndarray:
    """Dense-output coefficients q[n, d, 4] of the steps with stages
    K[7, n, d]: column c is ``_wsum`` over column c of ``_P``, in stage order."""
    q = np.empty(K.shape[1:] + (4,))
    q[..., 0] = K[0]
    q[..., 1:] = np.add.accumulate(K[_P_IDX][..., None] * _P_W, axis=0)[-1]
    return q


def _dense(q, t_old, h, y_old, t):
    """Shampine's quartic of steps (t_old[i], t_old[i] + h[i]) from states
    y_old[i] with coefficients q[i, d, 4], at times t[i]."""
    x = ((t - t_old) / h)[:, None]
    x2 = x * x
    x3 = x2 * x
    s = q[:, :, 0] * x + q[:, :, 1] * x2 + q[:, :, 2] * x3 + q[:, :, 3] * (x3 * x)
    return s * h[:, None] + y_old


def _rms(q: np.ndarray) -> np.ndarray:
    """Per-row RMS norm of q[n, d]."""
    return _norm2(q) / math.sqrt(q.shape[1])


def _norm2(q: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norm of q[n, d], summed in fixed order."""
    d = q.shape[1]
    if d == 1:
        return np.abs(q[:, 0])
    acc = q[:, 0] * q[:, 0]
    for j in range(1, d):
        acc = acc + q[:, j] * q[:, j]
    return np.sqrt(acc)


@dataclass(frozen=True)
class VectorFieldHandle:
    """A right-hand side f(x, t, params) of fixed state dimension."""

    dimension: int
    rhs: Callable[[np.ndarray, float, Mapping], np.ndarray]
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self.rhs(x, t, self.params), dtype=float))
        if out.shape != (self.dimension,):
            raise ValueError(
                f"rhs returned shape {out.shape}, expected ({self.dimension},)"
            )
        return out


def _member_rhs(fld: VectorFieldHandle):
    """The stepper's rhs for a handle, which only ever steps one member,
    X[1, d] at T[1]; R is unused."""
    return lambda X, T, R: fld(X[0], T[0])[None, :]


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_step: float = 0.1
    min_step: float = 1e-13
    escape_norm: float = 1e6

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "max_step", "min_step", "escape_norm"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not self.min_step < self.max_step:
            raise ValueError("min_step must be smaller than max_step")


@dataclass
class Trajectory:
    """Densely sampled solution path with a termination status.

    ``times`` are strictly increasing for forward integration and strictly
    decreasing for backward integration.  When ``status == ESCAPED`` the
    ``escape_bracket`` is a time interval (in ascending order) whose end
    nearer ``t0`` (the lower end forward, the upper end backward) is the
    instant the state norm crossed the escape threshold.
    ``bracket_verified`` is True when integration past that instant found
    the singularity (the bracket then contains it), and False when it did
    not: the far end is then only as far as integration reached.
    ``coeffs[k]`` holds the dense-output polynomial of step k, as a [d, 4]
    array; a one-sample trajectory (escaped at its start) carries an empty
    [0, d, 4] ``coeffs`` and has no dense output.
    """

    times: np.ndarray
    states: np.ndarray
    status: str
    escape_bracket: tuple[float, float] | None = None
    underflow_time: float | None = None
    bracket_verified: bool | None = None
    coeffs: np.ndarray | None = field(default=None, repr=False)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def direction(self) -> float:
        return 1.0 if self.times[-1] >= self.times[0] else -1.0

    def _poly(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Step idx[i]'s dense-output polynomial at time t[i]."""
        t_old = self.times[idx]
        return _dense(self.coeffs[idx], t_old, self.times[idx + 1] - t_old,
                      self.states[idx], t)

    def eval(self, t):
        """Interpolated state at time(s) t inside the sampled range."""
        if self.coeffs is None or len(self.coeffs) == 0:
            raise ValueError("trajectory carries no dense output")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo = min(self.t0, self.t_end)
        hi = max(self.t0, self.t_end)
        if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
            raise ValueError(f"time out of sampled range [{lo}, {hi}]")
        n = len(self.coeffs)
        # at a knot, the step that starts there in integration order
        if self.direction > 0:
            idx = np.searchsorted(self.times, t_arr, side="right") - 1
        else:
            idx = n - np.searchsorted(self.times[::-1], t_arr, side="left")
        out = self._poly(np.clip(idx, 0, n - 1), t_arr)
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


# The per-member arrays of a Batch, one entry per active member.
_MEMBER_ARRAYS = ("ids", "t", "y", "f", "h_abs", "rejected", "t_bound",
                  "direction", "max_step", "rate", "slot", "pos", "next_t", "bounds")


class Batch:
    """Members of one ODE stepped together by the Dormand–Prince 5(4) pair.

    ``rhs(X, T, R)`` evaluates the field at states X[n, d], times T[n] and
    rates R[n].  ``start`` adds members with a fresh initial step, or with
    a kept one; ``advance`` makes one step attempt for every active member,
    all on one code path, and returns the ids of those
    that stopped, whose ``(status, t, y)`` then sit in ``final``.  Only
    ``start`` stops a member that starts at or past ``escape_norm`` (at t0,
    with no step), a lone ``integrate`` included.  A member stops
    when it reaches its end time (``completed``), when its state norm
    reaches ``escape_norm`` or stops being finite (``escaped``), or when its
    step underflows: below ten units in the last place of t on a retry, or
    below ``min_step`` away from the end time (``step_underflow``).  With
    ``record`` every member keeps every accepted step for ``trajectory``.
    On a ``grid`` that runs forward or backward, a member that ends on
    ``grid[-1]``, from a start on ``grid[0]`` or before it as the grid runs,
    gets, from each accepted step from t to t_new, the dense output at the
    grid points from t up to, not at, t_new, and from the step that reaches
    the end time at all points left: the step and arithmetic
    ``Trajectory.eval`` would use.  It takes a pool row on its first step
    onto the grid, keeps its (t, y, f, h_abs, rejected) from just before
    that step, as one-member arrays, in ``entries`` and, if it completes,
    leaves its curve in ``samples``.  Only the steps that cover a grid point
    are sampled: each sampled member keeps the time of its next grid point.

    With ``frame(T, R)``, the ramp λ at times T[n] and rates R[n], a scalar
    member that ``start`` gave ``bounds = (gain, lo, hi)`` also stops as
    ``escaped`` on an accepted step that leaves x - gain·λ outside (lo, hi).
    The caller keeps an edge at -inf or inf unless the flow beyond it is
    proven to diverge (see ``analysis.run_pullbacks``); each member is
    checked on its own, so the test does not tie it to its batch.  Members
    overflow on their way out; ``start`` and ``advance`` ignore it, so
    callers need no ``np.errstate``.
    """

    def __init__(self, rhs, dim: int, rtol: float, atol: float,
                 escape_norm: float = math.inf, min_step: float = 0.0,
                 grid=None, record: bool = False, frame=None):
        self.rhs = rhs
        self.dim = dim
        self.rtol = rtol
        self.atol = atol
        self.escape_norm = escape_norm
        self.min_step = min_step
        # the member arrays, empty (so shared) until ``start`` adds members
        self.ids = self.slot = self.pos = np.empty(0, dtype=np.intp)
        self.t = self.h_abs = self.t_bound = self.direction = np.empty(0)
        self.max_step = self.rate = self.next_t = np.empty(0)
        self.y, self.f = np.empty((0, dim)), np.empty((0, dim))
        self.rejected, self.bounds = np.empty(0, dtype=bool), np.empty((0, 3))
        self.frame = frame
        self.final: dict[int, tuple[str, float, np.ndarray]] = {}
        self.samples: dict[int, np.ndarray] = {}
        self.entries: dict[int, tuple] = {}
        self.grid = None if grid is None else np.asarray(grid, dtype=float)
        self._n = 0 if grid is None else len(self.grid)
        # a grid that runs backward is searched by -t, on its ascending -grid
        self._back = grid is not None and self.grid[-1] < self.grid[0]
        self._keys = -self.grid if self._back else self.grid
        # grid times by index, then the infinity past the grid's end: a
        # member's next grid time at pos, which is _n once it needs no more
        self._next_of = np.append(self.grid if self._n else [],
                                  -math.inf if self._back else math.inf)
        self.record = record
        # sample pool: samples by slot, and the free slots
        self._curve = np.empty((0, self._n, dim))
        self._free: list[int] = []
        # each member's start and accepted steps, when recording: (t, y, K)
        self._steps: dict[int, list[tuple]] = {}

    @property
    def n_active(self) -> int:
        return len(self.ids)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def start(self, ids, x0, t0, t1, rate=0.0, max_step=math.inf,
              bounds=(0.0, -math.inf, math.inf), resume=None) -> list[int]:
        """Start members ``ids`` at (t0, x0) toward t1 (all t1 != t0).

        A member that ends on the last grid point is sampled; it must start
        on the first or before it, as the grid runs.  ``bounds`` rows (gain,
        lo, hi) are the members' exit boxes when the batch has a ``frame``.
        ``resume``, the members' (f[n, d], h_abs[n], rejected[n]) as kept in
        ``entries``, stands in for the initial step, so that they step on as
        they did.  Returns the ids that stopped at once, their norm already
        at or above ``escape_norm``, or not finite.
        """
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        n = len(ids)
        x0 = np.asarray(x0, dtype=float).reshape(n, self.dim)
        t0, t1, rate, max_step = (
            np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
            for v in (t0, t1, rate, max_step)
        )
        bounds = np.broadcast_to(np.asarray(bounds, dtype=float), (n, 3))
        direction = np.where(t1 > t0, 1.0, -1.0)
        pos = np.full(n, self._n, dtype=np.intp)
        if self._n:
            sampled = t1 == self.grid[-1]
            if np.any(sampled & ((t0 < self.grid[0]) if self._back else (t0 > self.grid[0]))):
                raise ValueError("a member that ends on the last grid point must start "
                                 "on the first or before it")
            pos[sampled] = 0
        if self.record:
            for j in range(n):
                self._steps[int(ids[j])] = [(float(t0[j]), x0[j].copy(), None)]
        if resume is None:
            f0, h_abs = self._initial_step(x0, t0, t1, rate, max_step, direction)
            rejected = np.zeros(n, dtype=bool)
        else:
            f0, h_abs, rejected = resume
        out = ~(_norm2(x0) < self.escape_norm)
        for j in np.flatnonzero(out):
            self.final[int(ids[j])] = (ESCAPED, float(t0[j]), x0[j].copy())
        # a sampled member takes its pool row on its first step onto the grid
        new = (ids, t0, x0, f0, h_abs, rejected, t1, direction, max_step, rate,
               np.full(n, -1, dtype=np.intp), pos, self._next_of[pos], bounds)
        for name, values in zip(_MEMBER_ARRAYS, new):
            setattr(self, name, np.concatenate((getattr(self, name), values[~out])))
        return ids[out].tolist()

    def _slots(self, n: int) -> np.ndarray:
        """n free pool rows, the pool grown just enough: rows stay as few as
        active members."""
        more = n - len(self._free)
        if more > 0:
            old = len(self._curve)
            self._curve = np.concatenate((self._curve, np.empty((more,) + self._curve.shape[1:])))
            self._free.extend(range(old + more - 1, old - 1, -1))
        return np.array([self._free.pop() for _ in range(n)], dtype=np.intp)

    def _initial_step(self, y0, t0, t1, rate, max_step, direction):
        """First derivative and the Hairer–Nørsett–Wanner starting step."""
        f0 = self.rhs(y0, t0, rate)
        interval = np.abs(t1 - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, interval)
        y1 = y0 + (h0 * direction)[:, None] * f0
        f1 = self.rhs(y1, t0 + h0 * direction, rate)
        d2 = _rms((f1 - f0) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** 0.2,
        )
        return f0, np.minimum(np.minimum(np.minimum(100 * h0, h1), interval), max_step)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def advance(self) -> list[int]:
        """One step attempt for every active member; returns stopped ids."""
        t, y, f, d, rej = self.t, self.y, self.f, self.direction, self.rejected
        min_step = 10 * np.abs(np.nextafter(t, d * np.inf) - t)
        # a retry keeps its shrunk step, and fails once that is too small
        h_abs = np.where(rej, self.h_abs,
                         np.minimum(np.maximum(self.h_abs, min_step), self.max_step))
        fail = rej & (h_abs < min_step)
        if np.count_nonzero(fail):
            return self._stop(fail, STEP_UNDERFLOW)

        t_new = t + h_abs * d
        t_new = np.where(d * (t_new - self.t_bound) > 0, self.t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        H = h[:, None]
        R = self.rate
        T = t + np.multiply.outer(_C, h)
        K = np.empty((7, len(t), self.dim))
        K[0] = f
        for j in range(1, 6):
            K[j] = self.rhs(y + _wsum(K, _A_W[j]) * H, T[j], R)
        y_new = y + H * _wsum(K, _B_W)
        K[6] = self.rhs(y_new, t + h, R)
        err = _wsum(K, _E_W) * H
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err_norm = _rms(err / scale)
        factor = _SAFETY * err_norm ** _ERR_EXP
        ok = err_norm < 1
        # a step covers a grid point when it passes the next one or ends the
        # leg; it is sampled before the member's state moves on
        passed = (t_new < self.next_t) if self._back else (t_new > self.next_t)
        sampled = ok & (self.pos < self._n) & (passed | (t_new == self.t_bound))
        if np.count_nonzero(sampled):
            self._sample(np.flatnonzero(sampled), h, t_new, K)
        # factor is >= _SAFETY when accepted, <= _SAFETY or NaN when rejected:
        # one clip grows (by at most 1 after a rejection) or shrinks the step
        cap = np.where(rej, 1.0, _MAX_FACTOR)
        self.h_abs = h_abs * np.fmax(np.minimum(cap, factor), _MIN_FACTOR)
        okc = ok[:, None]
        self.t = np.where(ok, t_new, t)
        self.y = np.where(okc, y_new, y)
        self.f = np.where(okc, K[6], f)
        self.rejected = ~ok
        if self.record:
            for j in np.flatnonzero(ok):
                self._steps[int(self.ids[j])].append((t_new[j], y_new[j], K[:, j]))

        # An accepted step stops its member on an escape (past the escape
        # norm, or out of its exit box), else on a step underflow short of
        # t_bound, else when it ends at t_bound exactly.
        esc = ~(_norm2(y_new) < self.escape_norm)
        if self.frame is not None:
            gain, lo, hi = self.bounds.T
            u = y_new[:, 0] - gain * self.frame(t_new, R)
            esc |= (u < lo) | (u > hi)
        under = (self.h_abs < self.min_step) & (np.abs(self.t_bound - t_new) > self.min_step)
        stopped = ok & (esc | under | (t_new == self.t_bound))
        if not np.count_nonzero(stopped):
            return []
        status = np.where(esc, ESCAPED, np.where(under, STEP_UNDERFLOW, COMPLETED))
        return self._stop(stopped, status)

    def _sample(self, j, h, t_new, K) -> None:
        """Write the accepted steps of members j (h, t_new and K over all
        active members, from their current state) onto the sample grid."""
        entering = j[self.slot[j] < 0]
        self.slot[entering] = self._slots(len(entering))
        t, y = self.t, self.y
        for i in entering:
            k = slice(i, i + 1)
            self.entries[int(self.ids[i])] = (t[k].copy(), y[k].copy(), self.f[k].copy(),
                                              self.h_abs[k].copy(), self.rejected[k].copy())
        slot, pos, t_new = self.slot[j], self.pos[j], t_new[j]
        end = np.where(t_new == self.t_bound[j], self._n,
                       np.searchsorted(self._keys, -t_new if self._back else t_new))
        n = end - pos
        # row m[i] of j takes grid point p[i]: its points pos..end-1 in turn
        m = np.repeat(np.arange(len(j)), n)
        p = np.arange(len(m)) - np.repeat(np.cumsum(n) - n, n) + pos[m]
        q = _coeffs(K[:, j])
        jm, sm = j[m], slot[m]
        self._curve[sm, p] = _dense(q[m], t[jm], h[jm], y[jm], self.grid[p])
        self.pos[j] = end
        self.next_t[j] = self._next_of[end]

    def _stop(self, mask: np.ndarray, status) -> list[int]:
        status = np.broadcast_to(np.asarray(status), mask.shape)
        stopped = []
        for j in np.flatnonzero(mask):
            i, s = int(self.ids[j]), int(self.slot[j])
            self.final[i] = (str(status[j]), float(self.t[j]), self.y[j].copy())
            if s >= 0:
                if status[j] == COMPLETED:
                    self.samples[i] = self._curve[s].copy()
                self._free.append(s)
            stopped.append(i)
        self._compact(~mask)
        return stopped

    def _compact(self, keep: np.ndarray) -> None:
        for name in _MEMBER_ARRAYS:
            setattr(self, name, getattr(self, name)[keep])

    def drop(self, ids) -> None:
        """Remove members from the active set and forget what they kept."""
        ids = list(ids)
        for i in ids:
            self._steps.pop(i, None)
            self.samples.pop(i, None)
            self.entries.pop(i, None)
        if ids:
            gone = np.isin(self.ids, ids)
            self._free.extend(self.slot[gone & (self.slot >= 0)].tolist())
            self._compact(~gone)

    def trajectory(self, i: int) -> Trajectory:
        """The recorded path of stopped member i, with dense output."""
        status, t_end, _ = self.final[i]
        times, states, K = zip(*self._steps.pop(i))
        coeffs = (_coeffs(np.stack(K[1:], axis=1)) if len(K) > 1
                  else np.empty((0, self.dim, 4)))
        return Trajectory(
            np.array(times), np.array(states), status,
            underflow_time=t_end if status == STEP_UNDERFLOW else None,
            coeffs=coeffs,
        )


def _zero_in(g, a: float, b: float) -> float:
    """A zero of g in [a, b], where g(a) and g(b) differ in sign, by bisection
    to a bracket of 1e-14 or of two adjacent floats, whichever comes first."""
    neg_a, m = g(a) < 0, 0.5 * (a + b)
    while b - a > 1e-14 and a < m < b:  # from |t| = 64 on, floats are over 1e-14 apart
        a, b = (m, b) if (g(m) < 0) == neg_a else (a, m)
        m = 0.5 * (a + b)
    return m


def _escape_bracket(rhs, traj: Trajectory, cfg: IntegratorConfig, direction: float):
    """Bracket the blow-up time after the escape norm was crossed.

    The crossing instant inside the last accepted step, bisected on that
    step's dense output, gives the end nearer the start.  Integration then
    continues (escape check off) until the step size underflows or the state
    stops being finite, which pins the singularity on the near side; a guard
    of a quarter of the distance from the crossing to where the continuation
    stopped closes the bracket on the far side, so the singularity sits
    about 80% of the way along from the crossing, not at the very end.
    Returns the bracket and whether a singularity was found.
    """
    last = len(traj.coeffs) - 1
    seg = lambda t: traj._poly(np.array([last]), np.array([t]))[0]
    nrm = lambda t: float(np.linalg.norm(seg(t))) - cfg.escape_norm
    a, b = float(traj.times[-2]), float(traj.times[-1])  # in integration order
    if nrm(a) >= 0:
        t_cross = a
    elif nrm(b) <= 0:
        t_cross = b
    else:
        t_cross = _zero_in(nrm, *sorted((a, b)))

    # Loose tolerances here: only the blow-up *time* matters, and step-size
    # control still contracts geometrically toward the singularity.  Tight
    # tolerances would need tens of thousands of steps to reach overflow.
    t_esc = traj.t_end
    ext = max(10 * cfg.max_step, 1e3 * abs(t_esc - t_cross))
    probe = Batch(rhs, traj.states.shape[1], rtol=1e-3, atol=max(1.0, cfg.abs_tol))
    probe.start([0], traj.final_state, t_esc, t_esc + direction * ext, max_step=cfg.max_step)
    attempts = 0
    while probe.n_active and attempts < _REFINE_MAX_STEPS:
        probe.advance()
        attempts += 1
    if 0 in probe.final:
        status, t_reach, _ = probe.final[0]
    else:
        status, t_reach = None, float(probe.t[0])
    # An escape here means the state stopped being finite.
    singular = status in (ESCAPED, STEP_UNDERFLOW)
    if singular:
        guard = max(100 * abs(np.spacing(t_reach)), 0.25 * abs(t_reach - t_cross), cfg.min_step)
        upper = t_reach + direction * guard
    else:
        # No singularity found within the probe; report the verified extent.
        upper = t_reach
    lo, hi = sorted((float(t_cross), float(upper)))
    return (lo, hi), singular


def integrate_members(rhs, dim: int, x0: np.ndarray, t0: float, t1: float,
                      cfg: IntegratorConfig, rate: float = 0.0, record: bool = False,
                      grid=None) -> Batch:
    """Integrate the members x0[i] of one field from t0 to t1 (t1 != t0) as
    one batch.

    ``rhs`` is a ``Batch`` rhs, called with ``rate`` as R; ``grid`` and
    ``record`` are the batch's.  Returns the stopped batch: member i's
    ``final``, its ``samples`` on ``grid`` (running from t0 to t1) when it
    completed, or with ``record`` its ``trajectory``, whose dense output
    ends, on an escape, where it crossed ``cfg.escape_norm``.
    """
    batch = Batch(rhs, dim, cfg.rel_tol, cfg.abs_tol, cfg.escape_norm, cfg.min_step,
                  grid, record)
    batch.start(np.arange(len(x0)), x0, t0, t1, rate, cfg.max_step)
    while batch.n_active:
        batch.advance()
    return batch


def integrate(
    field: VectorFieldHandle,
    x0,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate dx/dt = f(x, t) from (x0, t0) to t1 (forward or backward).

    Terminates early with status ``escaped`` when the state norm reaches
    ``cfg.escape_norm`` (with a blow-up time bracket) or ``step_underflow``
    when step control drives the step below ``cfg.min_step`` without an
    escape event.  A start state already past the escape norm, which
    ``Batch.start`` stops, gives a one-sample ``escaped`` trajectory with
    bracket (t0, t0), ``bracket_verified`` False and no dense output.
    """
    cfg = cfg or IntegratorConfig()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (field.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({field.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
    if t1 == t0:
        raise ValueError("t1 must differ from t0")
    rhs = _member_rhs(field)
    traj = integrate_members(rhs, field.dimension, x0[None, :], t0, t1, cfg,
                             record=True).trajectory(0)
    if traj.status == ESCAPED and len(traj.times) == 1:  # started past the escape norm
        traj.escape_bracket, traj.bracket_verified = (t0, t0), False
    elif traj.status == ESCAPED:
        traj.escape_bracket, traj.bracket_verified = _escape_bracket(
            rhs, traj, cfg, 1.0 if t1 > t0 else -1.0
        )
    return traj

"""Adaptive explicit integration of nonautonomous ODEs, batched over members.

One in-house Dormand–Prince 5(4) stepper advances N independent members at
once as one integration: a ``Batch`` starts all its members when it is
built, and they run toward one end time, all from one side of it (forward
or backward in time), under one step cap; each member has its own start
time, rate, step size and status.  A step keeps its stage sums running,
each stage added in place into the sums that use it, so every sum is added
in stage order (no BLAS products) and a member's result does not depend on
how many other members share its batch or which they are, a batch of one
included.  The tableau, the step-size controller and the initial-step
heuristic are those of Dormand & Prince, *J. Comput. Appl. Math.* 6 (1980),
and Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4–II.6; the quartic
dense output is Shampine's, *Math. Comp.* 46 (1986).  Every step runs one
code path: members that are retrying, clipped at the end time or rejected
are told apart by masks, not by branches.  A batch with a time grid, which
ends on the end time and runs the batch's way, logs for dense output each
accepted step that ends past the grid's start (a member may start before
it) or on the end time, and writes a member's curve on the grid from its
logged steps when it completes; one with no grid logs every accepted step.
Overflow on the way out is ignored.  A member that starts past the
escape norm, or not finite, stops as the batch is built.
Given a co-moving frame, a scalar member also stops as escaped when it
leaves its own exit box, which pullbacks set where the flow is proven to
diverge.

``integrate`` is the one-member case, with no grid: it logs every accepted
step for a ``Trajectory`` with dense output, stops with status ``escaped``
when the state norm reaches an escape threshold (then brackets the blow-up
time), and with ``step_underflow`` when step control drives the step below
``min_step`` without an escape.  Pullback legs (backward in time for a
repeller), one uncapped leg per lookback doubling, and forward probes are
sampled on a grid.
"""
from __future__ import annotations

import functools
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

# Dormand–Prince 5(4): nodes, stage coefficients, 5th-order weights (stage 6
# is taken there), error weights (5th minus 4th order, over all seven stages)
# and the dense-output matrix for Shampine's quartic interpolant.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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


# A step's running sums: row i < 5 feeds stage i + 1, row 5 is the 5th-order
# sum, row 6 the error sum.  A stage's nonzero weights cover one run of rows,
# (rows, weights[m, 1]) in _STAGE_ROWS, into which it adds (stage 0 is
# assigned, so -0.0 survives); the zeros of _B and _E are skipped.
_SUMS = np.array([a + (0.0,) * (7 - len(a)) for a in _A[1:]] + [_B + (0.0,), _E])
_STAGE_ROWS = [(slice(i[0], i[-1] + 1), w[i[0]:i[-1] + 1, None])
               for w in _SUMS.T for i in [np.flatnonzero(w)]]
# Column 0 of _P is stage 0 alone, with weight 1; columns 1-3 share their
# nonzero stages, so one accumulation gives all three.
_P_IDX = np.array([0, 2, 3, 4, 5, 6])
_P_W = np.array([_P[j][1:] for j in _P_IDX])[:, None, None, :]


def _coeffs(K: np.ndarray) -> np.ndarray:
    """Dense-output coefficients q[n, d, 4] of the steps with stages
    K[7, n, d]: column c sums the stages, weighted by column c of ``_P``, in
    stage order (``np.add.accumulate`` adds strictly in order whatever n is)."""
    q = np.empty(K.shape[1:] + (4,))
    q[..., 0] = K[0]
    q[..., 1:] = np.add.accumulate(K.take(_P_IDX, axis=0)[..., None] * _P_W, axis=0)[-1]
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
_MEMBER_ARRAYS = ("ids", "t", "y", "f", "h_abs", "rejected", "rate", "bounds")


class _StepLog:
    """Logged steps in the order they were accepted, one row each: member
    id (of ``members``), t, y, t_new, y_new and stages K[·, 7, d], in arrays
    that grow by doubling and are filled in place."""

    def __init__(self, members: int, d: int):
        self.members = members
        self.n = 0
        self.cols = [np.empty((0,) + shape, dtype=dtype) for shape, dtype in
                     (((), np.intp), ((), float), ((d,), float), ((), float), ((d,), float),
                      ((7, d), float))]

    def append(self, *cols) -> None:
        n, m = self.n, self.n + len(cols[0])
        if m > len(self.cols[0]):
            cap = max(2 * len(self.cols[0]), m)
            grown = [np.empty((cap,) + c.shape[1:], c.dtype) for c in self.cols]
            for g, c in zip(grown, self.cols):
                g[:n] = c[:n]  # the rest is not written, so not yet resident
            self.cols = grown
        for c, v in zip(self.cols, cols):
            c[n:m] = v
        self.n = m

    def rows(self, ids: list[int]) -> list[np.ndarray]:
        """The columns of the logged steps of members ``ids``: member by
        member in ascending id order, each member's steps in log order."""
        logged = self.cols[0][:self.n]
        if len(ids) == 1:
            rows = (logged == ids[0]).nonzero()[0]
        else:
            wanted = np.zeros(self.members, dtype=bool)
            wanted[ids] = True
            rows = wanted[logged].nonzero()[0]
            rows = rows[np.argsort(logged[rows], kind="stable")]
        return [c.take(rows, axis=0) for c in self.cols]


class Batch:
    """One integration of the members of one ODE by the Dormand–Prince 5(4) pair.

    ``rhs(X, T, R)`` evaluates the field at states X[n, d], times T[n] and
    rates R[n].  The constructor starts every member: member i at (t0[i],
    x0[i]) with rate[i] (t0 and ``rate`` broadcast); all run toward the one
    end time t1, from one side of it, under one step cap ``max_step``.
    ``advance`` makes one step attempt for every active member, all on one
    code path, and returns the ids of those that stopped, whose ``(status,
    t, y)`` then sit in ``final``, as does, from construction, a member that
    starts at or past ``escape_norm`` or not finite.  A member stops when it
    reaches t1 (``completed``), when its state norm reaches ``escape_norm``
    or stops being finite (``escaped``), or when its step underflows: below
    ten units in the last place of t on a retry, or below ``min_step`` away
    from t1 (``step_underflow``).  A ``grid`` ends on t1, runs strictly the
    batch's way, and samples every member, which must start on ``grid[0]``
    or before it.  One mask keeps an accepted step from t to t_new for the
    step log, which ``trajectory`` and ``steps`` read: with a grid, one that
    ends past ``grid[0]`` or on t1; with none, every one.  When a member
    completes on a grid, its curve in ``samples`` is written from its logged
    steps: each step gives the dense output at the grid points from t up
    to, not at, t_new, and the step that reaches t1 at all points left: the
    step and arithmetic ``Trajectory.eval`` would use.

    With ``frame(T, R)``, the ramp λ at times T[n] and rates R[n], a scalar
    member whose ``bounds`` row is (gain, lo, hi) also stops as ``escaped``
    on an accepted step that leaves x - gain·λ outside (lo, hi).  The caller
    keeps an edge at -inf or inf unless the flow beyond it is proven to
    diverge (see ``analysis.run_pullbacks``); an empty box, lo = hi = inf
    or -inf, stops its member on its first accepted step.  Each member is
    checked on its own, so the test does not tie it to its batch.  Members
    overflow on their way out; the batch ignores it, so callers need no
    ``np.errstate``.
    A batch with no members, with members on both sides of t1 or at it, with
    a grid that does not end on t1 or does not run strictly the batch's way,
    or with a member that starts after ``grid[0]`` raises ``ValueError``.
    """

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __init__(self, rhs, x0, t0, t1: float, rate, rtol: float, atol: float,
                 escape_norm: float = math.inf, min_step: float = 0.0,
                 max_step: float = math.inf, grid=None, frame=None,
                 bounds=(0.0, -math.inf, math.inf)):
        x0 = np.asarray(x0, dtype=float)
        n = len(x0)
        if not n:
            raise ValueError("a batch needs at least one member")
        t0, rate = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (t0, rate))
        self.direction = 1.0 if t0[0] < t1 else -1.0
        if not np.all(self.direction * (t1 - t0) > 0):
            raise ValueError("every member must start on the same side of t1, not at it")
        self.rhs = rhs
        self.rtol = rtol
        self.atol = atol
        self.escape_norm = escape_norm
        self.min_step = min_step
        self.max_step = max_step
        self.t1 = t1
        self.frame = frame
        # the direction's ufuncs: the clip at t1 and "past" a time
        self._back = self.direction < 0
        self._clip, self._past = (np.maximum, np.less) if self._back else (np.minimum, np.greater)
        self.grid = np.asarray([] if grid is None else grid, dtype=float)
        self._n = len(self.grid)
        if self._n and self.grid[-1] != t1:
            raise ValueError("the grid must end on t1")
        if self._n and (np.any(self._past(t0, self.grid[0])) or self._past(self.grid[0], t1)):
            raise ValueError("every member must start on grid[0] or before it, "
                             "and grid[0] must not lie past t1")
        if not np.all(self.direction * np.diff(self.grid) > 0):
            raise ValueError("the grid must run strictly the batch's way")
        # a grid that runs backward is searched by -t, on its ascending -grid
        self._keys = -self.grid if self._back else self.grid
        self.final: dict[int, tuple[str, float, np.ndarray]] = {}
        self.samples: dict[int, np.ndarray] = {}
        self._log = _StepLog(n, x0.shape[1])
        self._retrying = False
        f0, h_abs = self._initial_step(x0, t0, rate)
        out = ~(_norm2(x0) < escape_norm)
        for j in np.flatnonzero(out).tolist():
            self.final[j] = (ESCAPED, float(t0[j]), x0[j].copy())
        new = (np.arange(n), t0, x0, f0, h_abs, np.zeros(n, dtype=bool), rate,
               np.broadcast_to(np.asarray(bounds, dtype=float), (n, 3)))
        for name, values in zip(_MEMBER_ARRAYS, new):
            setattr(self, name, values[~out])

    @property
    def n_active(self) -> int:
        return len(self.ids)

    def _initial_step(self, y0, t0, rate):
        """First derivative and the Hairer–Nørsett–Wanner starting step."""
        f0 = self.rhs(y0, t0, rate)
        interval = np.abs(self.t1 - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, interval)
        y1 = y0 + (h0 * self.direction)[:, None] * f0
        f1 = self.rhs(y1, t0 + h0 * self.direction, rate)
        d2 = _rms((f1 - f0) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** 0.2,
        )
        return f0, np.minimum(np.minimum(np.minimum(100 * h0, h1), interval), self.max_step)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def advance(self) -> list[int]:
        """One step attempt for every active member; returns stopped ids."""
        t, y, f, d = self.t, self.y, self.f, self.direction
        # a retry keeps its shrunk step, and fails once that is below ten
        # units in the last place of t toward t1 (not yet reached)
        min_step = 10 * np.abs(np.nextafter(t, self.t1) - t)
        h_abs = np.maximum(self.h_abs, min_step)
        if self.max_step < math.inf:
            h_abs = np.minimum(h_abs, self.max_step)
        if self._retrying:
            rej = self.rejected
            h_abs = np.where(rej, self.h_abs, h_abs)
            fail = rej & (h_abs < min_step)
            if np.count_nonzero(fail):
                j = fail.nonzero()[0]
                return self._stop(j, [STEP_UNDERFLOW] * len(j))

        t_new = self._clip(self.t1, t + h_abs * d)  # a tie keeps t_new
        h = t_new - t
        h_abs = np.abs(h)
        H = h[:, None]
        R = self.rate
        T = t + np.multiply.outer(_C, h)
        K = np.empty((7,) + y.shape)
        S = np.empty_like(K)
        K2, S2 = K.reshape(7, -1), S.reshape(7, -1)
        # each stage, once evaluated, is weighted into the sums it feeds
        K[0] = f
        np.multiply(_STAGE_ROWS[0][1], K2[0], out=S2)
        for j in range(1, 7):
            Y = y + S[j - 1] * H
            K[j] = self.rhs(Y, T[j], R)
            rows, w = _STAGE_ROWS[j]
            sums = S2[rows]  # a view, added into in place
            sums += w * K2[j]
        y_new = Y
        err = S[6] * H
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err_norm = _rms(err / scale)
        factor = _SAFETY * err_norm ** _ERR_EXP
        ok = err_norm < 1
        at_end = t_new == self.t1
        # with a grid, an accepted step that ends past grid[0] or on t1 is
        # logged; with none, every accepted step is
        kept = ok & (self._past(t_new, self.grid[0]) | at_end) if self._n else ok
        if np.count_nonzero(kept):
            j = kept.nonzero()[0]
            self._log.append(self.ids[j], t[j], y[j], t_new[j], y_new[j],
                             K[:, j].swapaxes(0, 1))
        # factor is >= _SAFETY when accepted, <= _SAFETY or NaN when rejected:
        # one clip grows (by at most 1 after a rejection) or shrinks the step
        cap = np.where(self.rejected, 1.0, _MAX_FACTOR) if self._retrying else _MAX_FACTOR
        self.h_abs = h_abs * np.fmax(np.minimum(cap, factor), _MIN_FACTOR)
        self.t, self.y, self.f = t_new, y_new, K[6]
        self._retrying = np.count_nonzero(ok) < len(ok)
        if self._retrying:  # a rejected member keeps its state
            okc = ok[:, None]
            self.t, self.y, self.f = (np.where(ok, t_new, t), np.where(okc, y_new, y),
                                      np.where(okc, K[6], f))
            self.rejected = ~ok

        # An accepted step stops its member on an escape (past the escape
        # norm, or out of its exit box), else on a step underflow short of
        # t1, else when it ends at t1 exactly.
        esc = ~(_norm2(y_new) < self.escape_norm)
        if self.frame is not None:
            gain, lo, hi = self.bounds.T
            u = y_new[:, 0] - gain * self.frame(t_new, R)
            esc |= (u < lo) | (u > hi)
        under = self.h_abs < self.min_step
        if np.count_nonzero(under):
            under &= np.abs(self.t1 - t_new) > self.min_step
        j = (ok & (esc | under | at_end)).nonzero()[0]
        if not len(j):
            return []
        return self._stop(j, [ESCAPED if e else STEP_UNDERFLOW if u else COMPLETED
                              for e, u in zip(esc[j].tolist(), under[j].tolist())])

    def _sample(self, done: list[int]) -> None:
        """Write the grid curves of members ``done``, which completed, from
        their logged steps."""
        done = sorted(done)
        _, t, y, t_new, _, K = self._log.rows(done)
        # a step takes the grid points from t up to, not at, t_new, and the
        # step that ends on t1 every point left: each member's steps, in
        # turn, take all its grid points in order
        span = np.array((t, t_new))
        pos, end = np.searchsorted(self._keys, -span if self._back else span)
        end[t_new == self.t1] = self._n
        n = end - pos
        curves = _dense(_coeffs(K.swapaxes(0, 1)).repeat(n, axis=0), t.repeat(n),
                        (t_new - t).repeat(n), y.repeat(n, axis=0), np.tile(self.grid, len(done)))
        self.samples.update(zip(done, curves.reshape(len(done), self._n, -1)))

    def _stop(self, j: np.ndarray, status: list[str]) -> list[int]:
        """Stop active members j, with a status each; on a grid, write the
        curves of those that completed."""
        ids = self.ids[j].tolist()
        self.final.update(zip(ids, zip(status, self.t[j].tolist(), self.y.take(j, axis=0))))
        if self._n:
            done = [i for i, st in zip(ids, status) if st == COMPLETED]
            # at most as many members at once as the grid has points, which
            # bounds the evaluation's temporaries
            for k in range(0, len(done), self._n):
                self._sample(done[k:k + self._n])
        keep = np.ones(len(self.ids), dtype=bool)
        keep[j] = False
        self._compact(keep)
        return ids

    def _compact(self, keep: np.ndarray) -> None:
        k = keep.nonzero()[0]
        for name in _MEMBER_ARRAYS:
            setattr(self, name, getattr(self, name).take(k, axis=0))

    def drop(self, ids) -> None:
        """Remove members from the active set and forget their samples."""
        ids = np.sort(np.asarray(list(ids), dtype=np.intp))
        for i in ids.tolist():
            self.samples.pop(i, None)
        if len(ids):
            # a binary search in the sorted ids, not np.isin over the active set
            k = np.searchsorted(ids, self.ids)
            self._compact(ids.take(np.minimum(k, len(ids) - 1)) != self.ids)

    def steps(self, i: int) -> Callable[[], Trajectory]:
        """A handle that builds ``trajectory(i)`` when called, holding the
        step log, not the batch."""
        return functools.partial(_logged_trajectory, self._log, i, self.final[i])

    def trajectory(self, i: int) -> Trajectory:
        """Stopped member i's logged steps, with dense output: all of them
        with no grid, else those from its first step past ``grid[0]``; with
        none, the one sample where it stopped."""
        return self.steps(i)()


def _logged_trajectory(log: _StepLog, i: int, final: tuple) -> Trajectory:
    """Member i's steps in a step log, as a ``Trajectory`` that ends with
    ``final``, its (status, t, y) on stopping."""
    status, t_end, y_end = final
    _, t, y, t_new, y_new, K = log.rows([i])
    times, states, coeffs = np.array([t_end]), np.array([y_end]), np.empty((0, len(y_end), 4))
    if len(t):
        times, states = np.concatenate((t[:1], t_new)), np.concatenate((y[:1], y_new))
        coeffs = _coeffs(K.swapaxes(0, 1))
    return Trajectory(times, states, status, coeffs=coeffs,
                      underflow_time=t_end if status == STEP_UNDERFLOW else None)


def _zero_in(g, a: float, b: float) -> float:
    """A zero of g in [a, b], where g(a) and g(b) differ in sign, by bisection
    to a bracket of 1e-14 or of two adjacent floats, whichever comes first."""
    neg_a, m = g(a) < 0, 0.5 * (a + b)
    while b - a > 1e-14 and a < m < b:  # from |t| = 64 on, floats are over 1e-14 apart
        a, b = (m, b) if (g(m) < 0) == neg_a else (a, m)
        m = 0.5 * (a + b)
    return m


def _escape_bracket(rhs, traj: Trajectory, cfg: IntegratorConfig):
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
    t_esc, direction = traj.t_end, traj.direction
    ext = max(10 * cfg.max_step, 1e3 * abs(t_esc - t_cross))
    probe = Batch(rhs, traj.states[-1:], t_esc, t_esc + direction * ext, 0.0, rtol=1e-3,
                  atol=max(1.0, cfg.abs_tol), max_step=cfg.max_step)
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


def integrate_members(rhs, x0: np.ndarray, t0: float, t1: float, cfg: IntegratorConfig,
                      rate: float = 0.0, grid=None) -> Batch:
    """Integrate the members x0[i] (x0[n, d], n >= 1) of one field from t0
    to t1 (t1 != t0) as one batch, under ``cfg``'s tolerances, escape norm,
    minimum step and step cap.

    ``rhs`` is a ``Batch`` rhs, called with ``rate`` as R; ``grid``, which
    runs from t0 to t1 and samples every member, is the batch's.  Returns
    the stopped batch: member i's ``final``, its ``samples`` on ``grid``
    when it completed, and its ``trajectory``, whose dense output ends, on
    an escape, where it crossed ``cfg.escape_norm``.
    """
    batch = Batch(rhs, x0, t0, t1, rate, cfg.rel_tol, cfg.abs_tol, cfg.escape_norm,
                  cfg.min_step, cfg.max_step, grid)
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
    escape event.  A start state already past the escape norm, which the
    ``Batch`` stops at construction, gives a one-sample ``escaped`` trajectory with
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
    traj = integrate_members(rhs, x0[None, :], t0, t1, cfg).trajectory(0)
    if traj.status == ESCAPED and len(traj.times) == 1:  # started past the escape norm
        traj.escape_bracket, traj.bracket_verified = (t0, t0), False
    elif traj.status == ESCAPED:
        traj.escape_bracket, traj.bracket_verified = _escape_bracket(rhs, traj, cfg)
    return traj

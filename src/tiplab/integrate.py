"""Adaptive explicit integration of nonautonomous ODEs, batched over members.

One in-house Dormand–Prince 5(4) stepper advances N independent members at
once.  Each member has its own time, step size, step cap, end time and
status, and every stage sum is added in stage order (no BLAS products), so
a member's result does not depend on how many other members share its
batch or which they are.  A lone member steps in Python floats through the
same operations in the same order, since at one member numpy's per-call
overhead would set the cost of a step.  The tableau, the step-size
controller and the initial-step heuristic are those of Dormand & Prince,
*J. Comput. Appl. Math.* 6 (1980), and Hairer, Nørsett & Wanner, *Solving
ODEs I*, §II.4–II.6; the quartic dense output is Shampine's, *Math. Comp.* 46
(1986).

``integrate`` is the one-member case.  It keeps dense output per accepted
step, stops with status ``escaped`` when the state norm reaches an escape
threshold (then brackets the blow-up time), and with ``step_underflow`` when
step control drives the step below ``min_step`` without an escape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "COMPLETED",
    "ESCAPED",
    "STEP_UNDERFLOW",
    "VectorFieldHandle",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "dense_eval",
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
_P_W = [_weights([p[c] for p in _P]) for c in range(4)]


def _wsum(K: np.ndarray, weights) -> np.ndarray:
    """sum_j w[j] * K[idx[j]] over the stage axis of K[s, n, d].

    ``np.add.accumulate`` adds strictly in stage order whatever n is, so a
    member's sum does not depend on the other members in K.
    """
    idx, w = weights
    return np.add.accumulate(K[idx] * w, axis=0)[-1]


# The stage nodes and nonzero weights as Python floats, for a lone member.
_C_F = _C.tolist()


def _float_weights(coeffs):
    """(first stage, its weight, the other (stage, weight) pairs) of the
    nonzero coefficients."""
    (j, w), *rest = [(j, float(c)) for j, c in enumerate(coeffs) if c]
    return j, w, tuple(rest)


_A_F = [None] + [_float_weights(a) for a in _A[1:]]
_B_F = _float_weights(_B)
_E_F = _float_weights(_E)


def _fsum(K: list, weights) -> list:
    """``_wsum`` for one member whose stages K[s] are lists of floats."""
    j0, w0, rest = weights
    out = []
    for c, v in enumerate(K[j0]):
        acc = v * w0
        for j, w in rest:
            acc = acc + K[j][c] * w
        out.append(acc)
    return out


def _fnorm(q: list) -> float:
    """``_norm2`` of one member's list of floats, in the same order."""
    if len(q) == 1:
        return abs(q[0])
    acc = q[0] * q[0]
    for v in q[1:]:
        acc = acc + v * v
    return math.sqrt(acc)


def _fmax(a: float, b: float) -> float:
    """np.maximum of two floats: NaN if either is NaN."""
    return a if (a >= b or a != a) else b


def _fmin(a: float, b: float) -> float:
    """np.minimum of two floats: NaN if either is NaN."""
    return a if (a <= b or a != a) else b


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
    """The stepper's rhs for a handle, which only ever steps one member:
    x[d] at time t while it steps, X[1, d] at T[1] when it starts; R is
    unused."""
    def rhs(X, T, R):
        if X.ndim == 1:
            return fld(X, T)
        return fld(X[0], T[0])[None, :]
    return rhs


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
    ``escape_bracket`` is a time interval (in ascending order) whose lower
    end is the instant the state norm crossed the escape threshold.
    ``bracket_verified`` is True when integration past that instant found
    the singularity (the bracket then contains it), and False when it did
    not: the upper end is then only as far as integration reached.
    ``coeffs[k]`` holds the dense-output polynomial of step k, as a [d, 4]
    array.
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
        h = self.times[idx + 1] - t_old
        q = self.coeffs[idx]
        x = ((t - t_old) / h)[:, None]
        x2 = x * x
        x3 = x2 * x
        s = q[:, :, 0] * x + q[:, :, 1] * x2 + q[:, :, 2] * x3 + q[:, :, 3] * (x3 * x)
        return s * h[:, None] + self.states[idx]

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
        knots = self.times if self.direction > 0 else self.times[::-1]
        idx = np.clip(np.searchsorted(knots, t_arr, side="right") - 1, 0, n - 1)
        if self.direction < 0:
            idx = n - 1 - idx
        out = self._poly(idx, t_arr)
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def dense_eval(traj: Trajectory, t):
    """Evaluate a trajectory's dense output at time(s) t."""
    return traj.eval(t)


# The per-member arrays of a Batch, one entry per active member.
_MEMBER_ARRAYS = ("ids", "t", "y", "f", "h_abs", "rejected", "t_bound",
                  "direction", "max_step", "rate", "record")


class Batch:
    """Members of one ODE stepped together by the Dormand–Prince 5(4) pair.

    ``rhs(X, T, R)`` evaluates the field at states X[n, d], times T[n] and
    rates R[n], and, for a lone member, at one state x[d], time t and rate
    r with the same arithmetic.  ``start`` adds members (or restarts stopped
    ones on a new leg) with a fresh initial step; ``advance`` makes one step
    attempt for every active member and returns the ids of those that
    stopped, whose ``(status, t, y)`` then sit in ``final``.  A member stops
    when it reaches its end time (``completed``), when its state norm
    reaches ``escape_norm`` or stops being finite (``escaped``), or when its
    step underflows: below ten units in the last place of t on a retry, or
    below ``min_step`` away from the end time (``step_underflow``).  Members
    started with ``record`` keep every accepted step for ``trajectory``;
    the others keep only their current state.
    """

    def __init__(self, rhs, dim: int, rtol: float, atol: float,
                 escape_norm: float = math.inf, min_step: float = 0.0):
        self.rhs = rhs
        self.dim = dim
        self.rtol = rtol
        self.atol = atol
        self.escape_norm = escape_norm
        self.min_step = min_step
        self.ids = np.empty(0, dtype=np.intp)
        self.t = np.empty(0)
        self.y = np.empty((0, dim))
        self.f = np.empty((0, dim))
        self.h_abs = np.empty(0)
        self.rejected = np.empty(0, dtype=bool)
        self.t_bound = np.empty(0)
        self.direction = np.empty(0)
        self.max_step = np.empty(0)
        self.rate = np.empty(0)
        self.record = np.empty(0, dtype=bool)
        self.final: dict[int, tuple[str, float, np.ndarray]] = {}
        self._origin: dict[int, tuple[float, np.ndarray]] = {}
        self._rows: dict[int, list[tuple[int, int]]] = {}
        self._log: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @property
    def n_active(self) -> int:
        return len(self.ids)

    def start(self, ids, x0, t0, t1, rate=0.0, max_step=math.inf,
              record=False) -> list[int]:
        """Start members ``ids`` at (t0, x0) toward t1 (all t1 != t0).

        Returns the ids that stopped at once, their norm already at or above
        ``escape_norm``.
        """
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        n = len(ids)
        x0 = np.asarray(x0, dtype=float).reshape(n, self.dim)
        t0, t1, rate, max_step = (
            np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
            for v in (t0, t1, rate, max_step)
        )
        direction = np.where(t1 > t0, 1.0, -1.0)
        rec = np.broadcast_to(np.asarray(record, dtype=bool), (n,)).copy()
        for j in np.flatnonzero(rec):
            i = int(ids[j])
            self._origin[i] = (float(t0[j]), x0[j].copy())
            self._rows[i] = []
        out = ~(_norm2(x0) < self.escape_norm)
        stopped = []
        if out.any():
            for j in np.flatnonzero(out):
                self.final[int(ids[j])] = (ESCAPED, float(t0[j]), x0[j].copy())
                stopped.append(int(ids[j]))
            keep = ~out
            ids, x0, t0, t1, rate, max_step, direction, rec = (
                v[keep] for v in (ids, x0, t0, t1, rate, max_step, direction, rec)
            )
        if not len(ids):
            return stopped
        f0, h_abs = self._initial_step(x0, t0, t1, rate, max_step, direction)
        new = (ids, t0, x0, f0, h_abs, np.zeros(len(ids), dtype=bool), t1,
               direction, max_step, rate, rec)
        for name, values in zip(_MEMBER_ARRAYS, new):
            setattr(self, name, np.concatenate((getattr(self, name), values)))
        return stopped

    def _initial_step(self, y0, t0, t1, rate, max_step, direction):
        """First derivative and the Hairer–Nørsett–Wanner starting step."""
        f0 = self.rhs(y0, t0, rate)
        interval = np.abs(t1 - t0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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

    def advance(self) -> list[int]:
        """One step attempt for every active member; returns stopped ids.

        Escaping members overflow on the way out: callers run this under
        ``np.errstate(over="ignore", invalid="ignore", divide="ignore")``.
        """
        if len(self.t) == 1:
            return self._advance_one()
        t, y, f, d = self.t, self.y, self.f, self.direction
        n = len(t)
        rej = self.rejected
        any_rej = np.count_nonzero(rej)
        min_step = 10 * np.abs(np.nextafter(t, d * np.inf) - t)
        h_abs = np.minimum(np.maximum(self.h_abs, min_step), self.max_step)
        if any_rej:
            # a retry keeps its shrunk step, and fails once that is too small
            h_abs = np.where(rej, self.h_abs, h_abs)
            fail = rej & (h_abs < min_step)
            if np.count_nonzero(fail):
                return self._stop(fail, STEP_UNDERFLOW)

        t_new = t + h_abs * d
        over = d * (t_new - self.t_bound) > 0
        if np.count_nonzero(over):
            t_new = np.where(over, self.t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        H = h[:, None]
        R = self.rate
        T = t + np.multiply.outer(_C, h)
        K = np.empty((7, n, self.dim))
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
        all_ok = np.count_nonzero(ok) == n
        grow = np.minimum(_MAX_FACTOR, factor)
        if any_rej:
            # no growth on the step that follows a rejection
            grow = np.where(rej, np.minimum(1.0, grow), grow)
        if all_ok:
            self.h_abs = h_abs * grow
            self.t, self.y, self.f = t_new, y_new, K[6]
            rec = self.record
        else:
            shrink = np.where(factor > _MIN_FACTOR, factor, _MIN_FACTOR)
            self.h_abs = h_abs * np.where(ok, grow, shrink)
            okc = ok[:, None]
            self.t = np.where(ok, t_new, t)
            self.y = np.where(okc, y_new, y)
            self.f = np.where(okc, K[6], f)
            rec = ok & self.record
        self.rejected = ~ok
        if np.count_nonzero(rec):
            self._keep(rec, t_new, y_new, K)

        # An accepted step ends at t_bound exactly when it reaches it.
        escaped = ~(_norm2(y_new) < self.escape_norm)
        check = escaped | (self.h_abs < self.min_step) | (t_new == self.t_bound)
        if not all_ok:
            check &= ok
        if not np.count_nonzero(check):
            return []
        esc = check & escaped
        under = (check & ~esc & (self.h_abs < self.min_step)
                 & (np.abs(self.t_bound - t_new) > self.min_step))
        done = check & ~esc & ~under & (t_new == self.t_bound)
        stopped = esc | under | done
        if not np.count_nonzero(stopped):
            return []
        status = np.where(esc, ESCAPED, np.where(under, STEP_UNDERFLOW, COMPLETED))
        return self._stop(stopped, status)

    def _advance_one(self) -> list[int]:
        """``advance`` for one active member, in Python floats.

        Every operation of the array path is made in the same order, and
        ``power`` goes through numpy (whose array loop can round differently
        from libm), so a member's result does not depend on which path ran.
        """
        one = np.ones(1, dtype=bool)
        t, d, t_bound = self.t.item(), self.direction.item(), self.t_bound.item()
        y, f = self.y[0].tolist(), self.f[0].tolist()
        rej = self.rejected.item()
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        if rej:
            # a retry keeps its shrunk step, and fails once that is too small
            h_abs = self.h_abs.item()
            if h_abs < min_step:
                return self._stop(one, STEP_UNDERFLOW)
        else:
            h_abs = _fmin(_fmax(self.h_abs.item(), min_step), self.max_step.item())

        t_new = t + h_abs * d
        if d * (t_new - t_bound) > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = abs(h)
        r = self.rate.item()

        def rhs(x, tj):
            return self.rhs(np.array(x), tj, r).tolist()

        K = [f]
        for j in range(1, 6):
            K.append(rhs([a + b * h for a, b in zip(y, _fsum(K, _A_F[j]))], t + _C_F[j] * h))
        y_new = [a + h * b for a, b in zip(y, _fsum(K, _B_F))]
        K.append(rhs(y_new, t + h))
        err = [b * h for b in _fsum(K, _E_F)]
        q = [e / (self.atol + _fmax(abs(a), abs(b)) * self.rtol)
             for e, a, b in zip(err, y, y_new)]
        err_norm = _fnorm(q) / math.sqrt(self.dim)
        factor = _SAFETY * float(np.power(np.array([err_norm]), _ERR_EXP)[0])
        ok = err_norm < 1
        if ok:
            grow = _fmin(_MAX_FACTOR, factor)
            if rej:
                # no growth on the step that follows a rejection
                grow = _fmin(1.0, grow)
            h_next = h_abs * grow
            self.t, self.y, self.f = np.array([t_new]), np.array([y_new]), np.array([K[6]])
            if self.record.item():
                self._keep(one, self.t, self.y, np.array(K)[:, None, :])
        else:
            h_next = h_abs * (factor if factor > _MIN_FACTOR else _MIN_FACTOR)
        self.h_abs = np.array([h_next])
        self.rejected = np.array([not ok])
        if not ok:
            return []

        # An accepted step ends at t_bound exactly when it reaches it.
        if not _fnorm(y_new) < self.escape_norm:
            status = ESCAPED
        elif h_next < self.min_step and abs(t_bound - t_new) > self.min_step:
            status = STEP_UNDERFLOW
        elif t_new == t_bound:
            status = COMPLETED
        else:
            return []
        return self._stop(one, status)

    def _keep(self, rec, t_new, y_new, K):
        """Log the accepted steps of recording members."""
        e = len(self._log)
        if np.count_nonzero(rec) == len(rec):
            self._log.append((t_new, y_new, K))
            ids = self.ids
        else:
            j = np.flatnonzero(rec)
            self._log.append((t_new[j], y_new[j], K[:, j]))
            ids = self.ids[j]
        if len(ids) == 1:
            self._rows[int(ids[0])].append((e, 0))
        else:
            for row, i in enumerate(ids.tolist()):
                self._rows[i].append((e, row))

    def _stop(self, mask: np.ndarray, status) -> list[int]:
        status = np.broadcast_to(np.asarray(status), mask.shape)
        stopped = []
        for j in np.flatnonzero(mask):
            i = int(self.ids[j])
            self.final[i] = (str(status[j]), float(self.t[j]), self.y[j].copy())
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
            self._origin.pop(i, None)
            self._rows.pop(i, None)
        if ids:
            self._compact(~np.isin(self.ids, ids))

    def trajectory(self, i: int) -> Trajectory:
        """The recorded path of stopped member i, with dense output."""
        status, t_end, _ = self.final[i]
        t0, x0 = self._origin.pop(i)
        rows = self._rows.pop(i)
        log = self._log
        times = np.array([t0] + [log[e][0][r] for e, r in rows])
        states = np.vstack([x0[None, :]] + [log[e][1][r][None, :] for e, r in rows])
        if rows:
            K = np.stack([log[e][2][:, r] for e, r in rows], axis=1)
            coeffs = np.stack([_wsum(K, w) for w in _P_W], axis=-1)
        else:
            coeffs = np.empty((0, self.dim, 4))
        return Trajectory(
            times, states, status,
            underflow_time=t_end if status == STEP_UNDERFLOW else None,
            coeffs=coeffs,
        )


def _escape_bracket(rhs, traj: Trajectory, cfg: IntegratorConfig, direction: float):
    """Bracket the blow-up time after the escape norm was crossed.

    The crossing instant inside the last accepted step gives the lower end.
    Integration then continues (escape check off) until the step size
    underflows or the state stops being finite, which pins the singularity
    from below; a small guard extrapolation closes the bracket from above.
    Returns the bracket and whether a singularity was found.
    """
    last = len(traj.coeffs) - 1
    seg = lambda t: traj._poly(np.array([last]), np.array([t]))[0]
    nrm = lambda t: float(np.linalg.norm(seg(t))) - cfg.escape_norm
    a, b = sorted((float(traj.times[-2]), float(traj.times[-1])))
    if nrm(a) >= 0:
        t_cross = a
    elif nrm(b) <= 0:
        t_cross = b
    else:
        t_cross = brentq(nrm, a, b, xtol=1e-14)

    # Loose tolerances here: only the blow-up *time* matters, and step-size
    # control still contracts geometrically toward the singularity.  Tight
    # tolerances would need tens of thousands of steps to reach overflow.
    t_esc = traj.t_end
    ext = max(10 * cfg.max_step, 1e3 * abs(t_esc - t_cross))
    probe = Batch(rhs, traj.states.shape[1], rtol=1e-3, atol=max(1.0, cfg.abs_tol))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        probe.start([0], traj.final_state, t_esc, t_esc + direction * ext,
                    max_step=cfg.max_step)
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
        guard = max(100 * abs(np.spacing(t_reach)), 0.01 * abs(t_reach - t_cross), cfg.min_step)
        upper = t_reach + direction * guard
    else:
        # No singularity found within the probe; report the verified extent.
        upper = t_reach
    lo, hi = sorted((float(t_cross), float(upper)))
    return (lo, hi), singular


def integrate_members(rhs, dim: int, x0: np.ndarray, t0: float, t1: float,
                      cfg: IntegratorConfig, rate: float = 0.0) -> list[Trajectory]:
    """Integrate the members x0[i] of one field from t0 to t1 as one batch.

    ``rhs`` takes both forms ``Batch`` calls, with ``rate`` as R.  Each
    trajectory keeps its dense output; an escaped one ends where it crossed
    ``cfg.escape_norm``, with no blow-up bracket.
    """
    if t1 == t0:
        raise ValueError("t1 must differ from t0")
    n = len(x0)
    batch = Batch(rhs, dim, cfg.rel_tol, cfg.abs_tol, cfg.escape_norm, cfg.min_step)
    batch.start(np.arange(n), x0, t0, t1, rate, cfg.max_step, record=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while batch.n_active:
            batch.advance()
    return [batch.trajectory(i) for i in range(n)]


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
    escape event.  A start state already past the escape norm gives a
    one-sample ``escaped`` trajectory with bracket (t0, t0) and no dense
    output.
    """
    cfg = cfg or IntegratorConfig()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (field.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({field.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if t1 == t0:
        raise ValueError("t1 must differ from t0")
    direction = 1.0 if t1 > t0 else -1.0

    if float(np.linalg.norm(x0)) >= cfg.escape_norm:
        return Trajectory(
            np.array([t0]), x0[None, :], ESCAPED, escape_bracket=(t0, t0),
            bracket_verified=False,
        )

    rhs = _member_rhs(field)
    (traj,) = integrate_members(rhs, field.dimension, x0[None, :], t0, t1, cfg)
    if traj.status == ESCAPED:
        traj.escape_bracket, traj.bracket_verified = _escape_bracket(
            rhs, traj, cfg, direction
        )
    return traj

"""Span tracing of tiplab's layers from outside the package.

``Tracer.install`` replaces the public functions each layer boundary goes
through with wrappers that record one span per call: name, start, end,
parent span and the id of the workload run.  The wrappers go on the names
callers actually look up (``tipping`` calls ``estimate_pullback`` through its
own module globals, ``cli`` calls ``tipping.sweep``), so nothing in tiplab is
edited.  Spans stay in memory, in one buffer per thread so that the sweep's
worker threads never cross-parent each other, and are written when the run
ends.  ``summarize`` turns them into the per-layer metrics.
"""
from __future__ import annotations

import itertools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

# Span names, one per traced boundary.  The first part names the layer.
RHS = "models.rhs"
INTEGRATE = "integrate.integrate"
EVAL = "integrate.eval"
PULLBACK = "analysis.pullback"
FORWARD = "analysis.forward"
PROBE = "tipping.probe"
SWEEP = "tipping.sweep"
CRIT = "tipping.find_critical_rate"
CLI = "cli.main"
NAMES = (RHS, INTEGRATE, EVAL, PULLBACK, FORWARD, PROBE, SWEEP, CRIT, CLI)
_CODE = {n: i for i, n in enumerate(NAMES)}


class _Buffer:
    """Spans recorded by one thread, as parallel typed arrays."""

    def __init__(self):
        self.sid = array("q")
        self.name = array("B")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.run = array("l")
        self.stack: list[int] = []
        self.attrs: dict[int, tuple] = {}


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        # Spans opened on a thread with an empty stack (the sweep's pool
        # workers) take the innermost open sweep span as their parent.
        self._pool_parent = -1
        self.run_id = 0

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped to record a ``name`` span per call.

        ``attrs(args, kwargs, result)`` may return a tuple kept with the span.
        """
        code = _CODE[name]
        is_sweep = name == SWEEP
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            sid = next(tracer._ids)
            stack = buf.stack
            parent = stack[-1] if stack else tracer._pool_parent
            if is_sweep:
                outer, tracer._pool_parent = tracer._pool_parent, sid
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_sweep:
                    tracer._pool_parent = outer
                buf.sid.append(sid)
                buf.name.append(code)
                buf.t0.append(t0)
                buf.t1.append(t1)
                buf.parent.append(parent)
                buf.run.append(tracer.run_id)
            if attrs is not None:
                buf.attrs[sid] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, attrs=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def install(self):
        """Wrap every layer boundary; ``uninstall`` puts the originals back."""
        for owner, attr, name, attrs in _boundaries():
            self._patch(owner, attr, name, attrs)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name`` (for the benchmark's own call)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def spans(self) -> dict:
        """All recorded spans as arrays sorted by span id."""
        bufs = list(self._buffers)
        cols = {}
        for key in ("sid", "name", "t0", "t1", "parent", "run"):
            cols[key] = np.concatenate([np.frombuffer(getattr(b, key),
                                                      dtype=getattr(b, key).typecode)
                                        for b in bufs]) if bufs else np.empty(0)
        order = np.argsort(cols["sid"], kind="stable")
        out = {k: v[order] for k, v in cols.items()}
        out["thread"] = np.concatenate(
            [np.full(len(b.sid), i, dtype=np.int16) for i, b in enumerate(bufs)]
        )[order] if bufs else np.empty(0, dtype=np.int16)
        attrs = {}
        for b in bufs:
            attrs.update(b.attrs)
        out["attrs"] = attrs
        return out

    def write(self, path: str) -> None:
        sp = self.spans()
        np.savez(path, names=np.array(NAMES), **{k: v for k, v in sp.items() if k != "attrs"})


def _eval_attrs(args, kwargs, result):
    return (int(np.size(args[1] if len(args) > 1 else kwargs["t"])),)


def _integrate_attrs(args, kwargs, traj):
    return (len(traj.times) - 1, traj.status == "escaped")


def _pullback_attrs(args, kwargs, est):
    window = kwargs.get("window", (0.0, 4.0))
    lookback = float(window[0]) - min(est.start_times) if est.start_times else 0.0
    return (len(est.start_times), lookback, est.status == "not_converged")


def _probe_attrs(args, kwargs, diag):
    return (float(diag.rate),)


# Every traced boundary: (module, class or None, attribute, span name, attrs).
# ``tiplab.integrate`` on the package is the function, so the module is
# looked up in ``sys.modules``.
BOUNDARIES = (
    ("tiplab.integrate", "VectorFieldHandle", "__call__", RHS, None),
    ("tiplab.integrate", "Trajectory", "eval", EVAL, _eval_attrs),
    ("tiplab.analysis", None, "integrate", INTEGRATE, _integrate_attrs),
    ("tiplab.tipping", None, "estimate_pullback", PULLBACK, _pullback_attrs),
    ("tiplab.tipping", None, "forward_attraction_test", FORWARD, None),
    ("tiplab.tipping", None, "rate_diagnostics", PROBE, _probe_attrs),
    ("tiplab.tipping", None, "sweep", SWEEP, None),
)


def _boundaries():
    """``BOUNDARIES`` with each (module, class) resolved to the object patched."""
    for module, cls, attr, name, attrs in BOUNDARIES:
        owner = sys.modules[module]
        if cls is not None:
            owner = getattr(owner, cls)
        yield owner, attr, name, attrs


def installed() -> bool:
    """True when any tiplab boundary currently carries a trace wrapper."""
    return any(hasattr(getattr(owner, attr), "__wrapped__")
               for owner, attr, _, _ in _boundaries())


def summarize(sp: dict, threads: int = 1) -> dict:
    """Per-layer metrics (value, unit) from the spans of one run."""
    name, t0, t1 = sp["name"], sp["t0"], sp["t1"]
    sid, parent, thread = sp["sid"], sp["parent"], sp["thread"]
    attrs = sp["attrs"]
    dur = t1 - t0
    # Self time: duration minus the children run on the same thread (the
    # sweep's pool tasks overlap their parent rather than block inside it).
    pos = np.clip(np.searchsorted(sid, parent), 0, max(len(sid) - 1, 0))
    linked = (parent >= 0) & (sid[pos] == parent) & (thread[pos] == thread)
    child_time = np.zeros(len(sid))
    np.add.at(child_time, pos[linked], dur[linked])
    self_t = dur - child_time

    def sel(n):
        return name == _CODE[n]

    def total(n):
        return float(dur[sel(n)].sum())

    def attr_col(n, j):
        return np.array([attrs[int(s)][j] for s in sid[sel(n)]], dtype=float)

    m = {}
    rhs_calls = int(sel(RHS).sum())
    m["models.rhs_calls"] = (rhs_calls, "count")
    m["models.rhs_s"] = (total(RHS), "s")

    steps = int(attr_col(INTEGRATE, 0).sum())
    escaped = attr_col(INTEGRATE, 1).astype(bool)
    integ_self = float(self_t[sel(INTEGRATE)].sum())
    m["integrate.calls"] = (int(sel(INTEGRATE).sum()), "count")
    m["integrate.steps"] = (steps, "count")
    m["integrate.rhs_per_step"] = (rhs_calls / steps if steps else 0.0, "ratio")
    m["integrate.self_s"] = (integ_self, "s")
    m["integrate.self_us_per_step"] = (1e6 * integ_self / steps if steps else 0.0, "us")
    m["integrate.escaped_calls"] = (int(escaped.sum()), "count")
    m["integrate.escaped_s"] = (float(dur[sel(INTEGRATE)][escaped].sum()), "s")
    m["integrate.eval_calls"] = (int(sel(EVAL).sum()), "count")
    m["integrate.eval_points"] = (int(attr_col(EVAL, 0).sum()), "count")
    m["integrate.eval_s"] = (total(EVAL), "s")

    lookbacks = attr_col(PULLBACK, 1)
    m["analysis.pullback_calls"] = (int(sel(PULLBACK).sum()), "count")
    m["analysis.pullback_s"] = (total(PULLBACK), "s")
    m["analysis.pullback_self_s"] = (float(self_t[sel(PULLBACK)].sum()), "s")
    m["analysis.doublings"] = (int(attr_col(PULLBACK, 0).sum()), "count")
    m["analysis.lookback_max"] = (float(lookbacks.max()) if lookbacks.size else 0.0,
                                  "model_time")
    m["analysis.not_converged"] = (int(attr_col(PULLBACK, 2).sum()), "count")
    m["analysis.forward_calls"] = (int(sel(FORWARD).sum()), "count")
    m["analysis.forward_s"] = (total(FORWARD), "s")

    # Probes made by find_critical_rate, in call order; the sweep's per-rate
    # tasks are counted apart.
    in_sweep = np.isin(parent, sid[sel(SWEEP)]) & sel(PROBE)
    crit = sel(PROBE) & ~in_sweep
    rates = [attrs[int(s)][0] for s in sid[crit]]
    durs = dur[crit]
    retries, scan_s, bisect_s = 0, 0.0, 0.0
    prev, scanning = None, True
    for r, d in zip(rates, durs):
        if r == prev:
            retries += 1  # a retry joins its probe's phase
        else:
            scanning = scanning and (prev is None or r > prev)
        if scanning:
            scan_s += d
        else:
            bisect_s += d
        prev = r
    m["tipping.probes"] = (len(rates) - retries, "count")
    m["tipping.retries"] = (retries, "count")
    m["tipping.scan_s"] = (scan_s, "s")
    m["tipping.bisect_s"] = (bisect_s, "s")
    sweep_s = total(SWEEP)
    m["tipping.sweep_s"] = (sweep_s, "s")
    task_s = float(dur[in_sweep].sum())
    m["tipping.parallel_eff"] = (task_s / (sweep_s * threads) if sweep_s else 0.0, "ratio")

    cli_s = total(CLI)
    m["cli.main_s"] = (cli_s, "s")
    m["cli.self_s"] = (cli_s - sweep_s if cli_s else 0.0, "s")
    return m

"""Catalog of nonautonomous example systems with closed-form reference curves.

Every model is a scalar or planar ODE driven by a parameter ramp evaluated
at rate r, together with (where they exist) a co-moving translation that
renders the system autonomous, closed-form attractor/repeller curves,
quasi-static equilibrium (QSE) curves, and known critical rates.  The
closed forms are the ground truth the numerical estimators are tested
against.
"""
from __future__ import annotations

import dataclasses
import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .integrate import VectorFieldHandle

__all__ = [
    "TiplabError",
    "CurveUndefined",
    "NoComovingFrame",
    "RampDescriptor",
    "ComovingDescriptor",
    "ModelSpec",
    "MODEL_NAMES",
    "make_model",
    "eval_rhs",
    "oracle_curve",
    "comoving_transform",
]


class TiplabError(Exception):
    """Base class for tiplab errors."""


class CurveUndefined(TiplabError):
    """Requested reference curve does not exist for this model/rate."""


class NoComovingFrame(TiplabError):
    """Model has no co-moving coordinate descriptor."""


@dataclass(frozen=True)
class RampDescriptor:
    """Parameter ramp λ(rt) and its exact time derivative.

    kinds:
      exponential   λ(rt) = exp(rt)
      linear        λ(rt) = rt
      polynomial    λ(rt) = Σ_{k=1..p} C(p,k)(rt)^k = (1+rt)^p - 1
      bounded_tanh  λ(rt) = scale·(tanh(rt)+1)/2
    """

    kind: str
    rate: float
    degree: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "linear", "polynomial", "bounded_tanh"):
            raise ValueError(f"unknown ramp kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial ramp needs degree >= 1")

    def value(self, t, rate=None):
        """λ(rt); ``t`` and ``rate`` (default: the ramp's) may be arrays."""
        rt = (self.rate if rate is None else rate) * t
        if self.kind == "exponential":
            return np.exp(rt)
        if self.kind == "linear":
            return rt
        if self.kind == "polynomial":
            return _ipow(1.0 + rt, self.degree) - 1.0
        return self.scale * (np.tanh(rt) + 1.0) / 2.0

    def slope(self, t, rate=None):
        """Exact dλ/dt; for the polynomial ramp this is the re-indexed
        closed form r·p·Σ_{k=0..p-1} C(p-1,k)(rt)^k = r·p·(1+rt)^(p-1)."""
        r = self.rate if rate is None else rate
        rt = r * t
        if self.kind == "exponential":
            return r * np.exp(rt)
        if self.kind == "linear":
            return r
        if self.kind == "polynomial":
            return r * self.degree * _ipow(1.0 + rt, self.degree - 1)
        c = np.cosh(rt)
        return self.scale * r / (2.0 * (c * c))


def _ipow(base, k: int):
    """base**k by repeated multiplication, so arrays and scalars agree bitwise."""
    if k == 0:
        return 1.0
    out = base
    for _ in range(k - 1):
        out = out * base
    return out


@dataclass(frozen=True)
class ComovingDescriptor:
    """Translation v(t) = gain·λ(rt) + offset and the autonomous field g.

    The transform y = x - v(t) takes the nonautonomous system to
    dy/dt = g(y), so equilibria of g lift to globally defined solutions
    y* + v(t) of the original system.
    """

    gain: np.ndarray
    offset: np.ndarray
    ramp: RampDescriptor
    rhs: Callable[[np.ndarray], np.ndarray]
    equilibria: Callable[[], list[tuple[np.ndarray, str]]] | None = None
    box: tuple[tuple[float, float], ...] = ()

    def translation(self, t: float) -> np.ndarray:
        return self.gain * self.ramp.value(t) + self.offset

    def translation_rate(self, t: float) -> np.ndarray:
        return self.gain * self.ramp.slope(t)

    def field(self, y: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.rhs(np.atleast_1d(y)), dtype=float))


@dataclass(frozen=True)
class ModelSpec:
    """A catalog model at one rate.

    ``rhs(X[N, d], T[N], R[N]) -> [N, d]`` is the model's one vectorized
    right-hand side, with the rate as an argument so that members at
    different rates share a batch.  It reads the components as ``X.T``, so
    it also takes one state x[d] with scalar t and r: ``field`` is the same
    function at this model's rate.  ``default_anchors`` (attracting) and
    ``repeller_anchors`` are ``anchor_state`` offsets on the frozen stable and
    unstable QSE where it is a constant offset from the translation; not on
    drift, whose translation is its attractor, nor on moving-pitchfork, whose
    QSE moves with dλ/dt.
    """

    name: str
    dimension: int
    params: Mapping[str, float]
    ramp: RampDescriptor
    rhs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    comoving: ComovingDescriptor | None = None
    oracles: Mapping[str, Callable[[float], np.ndarray]] = dataclasses.field(
        default_factory=dict
    )
    critical_rates: tuple[float, ...] = ()
    default_anchors: tuple = ()
    repeller_anchors: tuple = ()
    escape_norm: float = 1e6
    state_box: Callable[[float], list[tuple[float, float]]] | None = None
    field: VectorFieldHandle = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rhs, r = self.rhs, self.rate
        if not math.isfinite(r):
            raise ValueError(f"rate r must be finite, got {r}")
        object.__setattr__(self, "field", VectorFieldHandle(
            self.dimension,
            lambda x, t, p: rhs(np.asarray(x, dtype=float), t, r),
            self.params,
        ))

    @property
    def rate(self) -> float:
        return float(self.params["r"])

    def with_rate(self, r: float) -> "ModelSpec":
        if r == self.rate:
            return self
        kw = dict(self.params)
        kw["r"] = float(r)
        return make_model(self.name, **kw)

    def anchor_state(self, anchor, s: float) -> np.ndarray:
        """Resolve an anchor to a full initial state at start time s, or to
        one state per row for a column s[n, 1]: an offset from the co-moving
        translation v(s), or from the ramp λ(rs) with no co-moving frame."""
        a = np.atleast_1d(np.asarray(anchor, dtype=float))
        if a.shape != (self.dimension,):
            raise ValueError(f"anchor has shape {a.shape}, expected ({self.dimension},)")
        if self.comoving is not None:
            return self.comoving.translation(s) + a
        return a + self.ramp.value(s)

    def attractor_repeller_gap(self) -> float | None:
        """Smallest pairwise distance between co-moving equilibria."""
        if self.comoving is None or self.comoving.equilibria is None:
            return None
        eq = [loc for loc, _ in self.comoving.equilibria()]
        if len(eq) < 2:
            return None
        gaps = [
            float(np.linalg.norm(a - b)) for i, a in enumerate(eq) for b in eq[i + 1:]
        ]
        return min(gaps)


# ---------------------------------------------------------------------------
# catalog


def _scalar(fn):
    return lambda t: np.array([fn(t)])


def make_drift(r: float = 0.5) -> ModelSpec:
    """dx/dt = -(x - exp(rt)): drifts from its QSE but never tips.

    Its attractor e^{rt}/(1+r) and co-moving gain 1/(1+r) need r != -1."""
    if r == -1.0:
        raise ValueError("drift needs r != -1, where its attractor e^(rt)/(1+r) is undefined")
    ramp = RampDescriptor("exponential", r)

    def rhs(X, T, R):
        return (ramp.value(T, R) - X.T).T

    gamma = lambda t: math.exp(r * t) / (1.0 + r)
    comoving = ComovingDescriptor(
        gain=np.array([1.0 / (1.0 + r)]),
        offset=np.array([0.0]),
        ramp=ramp,
        rhs=lambda y: -y,
        equilibria=lambda: [(np.array([0.0]), "stable")],
        box=((-3.0, 3.0),),
    )
    return ModelSpec(
        name="drift",
        dimension=1,
        params={"r": r},
        ramp=ramp,
        rhs=rhs,
        comoving=comoving,
        oracles={
            "attractor+": _scalar(gamma),
            "qse_stable+": _scalar(lambda t: math.exp(r * t)),
        },
        default_anchors=(np.array([1.0]),),
        repeller_anchors=(),
        escape_norm=1e9,
        state_box=lambda s: [(math.exp(r * s) - 2.0, math.exp(r * s) + 2.0)],
    )


def make_moving_sn(mu: float = 0.5, r: float = 0.03125) -> ModelSpec:
    """dx/dt = -(x-rt)(x-rt-mu): moving saddle-node, tips at r = mu^2/4.

    Its anchors start on the frozen QSEs, stable x = rt + mu and unstable x = rt."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    ramp = RampDescriptor("linear", r)
    rstar = mu * mu / 4.0

    def rhs(X, T, R):
        u = X.T - R * T
        return (u * (mu - u)).T

    def rho():
        d = rstar - r
        if d < -1e-15:
            raise CurveUndefined(f"moving-sn curves need r <= mu^2/4 = {rstar}")
        return math.sqrt(max(d, 0.0))

    def equilibria():
        if r > rstar:
            return []
        p = rho()
        if p == 0.0:
            return [(np.array([0.0]), "degenerate")]
        return [(np.array([p]), "stable"), (np.array([-p]), "unstable")]

    comoving = ComovingDescriptor(
        gain=np.array([1.0]),
        offset=np.array([mu / 2.0]),
        ramp=ramp,
        rhs=lambda y: -y * y + (rstar - r),
        equilibria=equilibria,
        box=((-2.0 * mu - 1.0, 2.0 * mu + 1.0),),
    )
    return ModelSpec(
        name="moving-sn",
        dimension=1,
        params={"r": r, "mu": mu},
        ramp=ramp,
        rhs=rhs,
        comoving=comoving,
        oracles={
            "attractor+": _scalar(lambda t: r * t + mu / 2.0 + rho()),
            "repeller": _scalar(lambda t: r * t + mu / 2.0 - rho()),
            "qse_stable+": _scalar(lambda t: r * t + mu),
            "qse_unstable": _scalar(lambda t: r * t),
        },
        critical_rates=(rstar,),
        default_anchors=(np.array([mu / 2.0]),),
        repeller_anchors=(np.array([-mu / 2.0]),),
        state_box=lambda s: [(r * s - 2.0 * mu - 1.0, r * s + 2.0 * mu + 1.0)],
    )


def _cubic_comoving_roots(mu: float, r: float, rstar: float) -> np.ndarray:
    """Real roots of u^3 - mu^2 u + r = 0, ascending, in closed form.

    For |r| <= r* = 2 mu^3 / (3 sqrt 3) they are s cos(theta + 2 pi k / 3),
    k = -1, 0, 1, with s = 2 mu / sqrt 3 and theta = arccos(-r / r*) / 3.  At
    r = +/-r* the ratio is exactly -/+1 and the double root (the fold) comes
    out twice bit for bit, so it is listed once.  Beyond r* one root is left,
    -sign(r) s cosh(arccosh(|r| / r*) / 3).
    """
    s, c = 2.0 * mu / math.sqrt(3.0), -r / rstar
    if abs(c) > 1.0:
        return np.array([-math.copysign(s, r) * math.cosh(math.acosh(abs(c)) / 3.0)])
    theta = math.acos(c) / 3.0
    return np.unique([s * math.cos(theta + k * 2.0 * math.pi / 3.0) for k in (-1, 0, 1)])


def make_moving_cubic(mu: float = 1.0, r: float = 0.2) -> ModelSpec:
    """dx/dt = -(x-rt)(x-rt-mu)(x-rt+mu): two attractors, local tipping.

    The co-moving frame u = x - rt has frozen roots at 0 and +/-mu; the top
    attractor and the repeller annihilate at r = +2mu^3/(3*sqrt(3)), the
    bottom pair at the mirrored negative rate.  Its anchors start on the
    frozen QSEs x = rt ± mu (stable) and x = rt (unstable).
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    ramp = RampDescriptor("linear", r)
    rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))

    def rhs(X, T, R):
        u = X.T - R * T
        return (-u * (u - mu) * (u + mu)).T

    def roots_or_raise(which):
        roots = _cubic_comoving_roots(mu, r, rstar)
        if which == "attractor-":
            if r < -rstar:
                raise CurveUndefined("bottom attractor annihilated for r < -r*")
            return roots[0]
        if which == "attractor+":
            if r > rstar:
                raise CurveUndefined("top attractor annihilated for r > r*")
            return roots[-1]
        # repeller: the middle root, or the fold; the root nearest 0 either way
        if abs(r) > rstar:
            raise CurveUndefined("repeller annihilated for |r| > r*")
        return roots[np.argmin(np.abs(roots))]

    def stability_of(u):
        d = -3.0 * u * u + mu * mu
        if abs(d) <= 1e-9:
            return "degenerate"
        return "stable" if d < 0 else "unstable"

    def equilibria():
        return [(np.array([u]), stability_of(u)) for u in _cubic_comoving_roots(mu, r, rstar)]

    comoving = ComovingDescriptor(
        gain=np.array([1.0]),
        offset=np.array([0.0]),
        ramp=ramp,
        rhs=lambda y: -y**3 + mu * mu * y - r,
        equilibria=equilibria,
        box=((-2.0 * mu - 1.0, 2.0 * mu + 1.0),),
    )
    return ModelSpec(
        name="moving-cubic",
        dimension=1,
        params={"r": r, "mu": mu},
        ramp=ramp,
        rhs=rhs,
        comoving=comoving,
        oracles={
            "attractor+": _scalar(lambda t: r * t + roots_or_raise("attractor+")),
            "attractor-": _scalar(lambda t: r * t + roots_or_raise("attractor-")),
            "repeller": _scalar(lambda t: r * t + roots_or_raise("repeller")),
            "qse_stable+": _scalar(lambda t: r * t + mu),
            "qse_stable-": _scalar(lambda t: r * t - mu),
            "qse_unstable": _scalar(lambda t: r * t),
        },
        critical_rates=(rstar, -rstar),
        default_anchors=(np.array([mu]), np.array([-mu])),
        repeller_anchors=(np.array([0.0]),),
        state_box=lambda s: [(r * s - 2.0 * mu - 1.0, r * s + 2.0 * mu + 1.0)],
    )


def make_moving_pitchfork(mu: float = 1.0, r: float = 0.5, p: int = 1) -> ModelSpec:
    """Planar system whose co-moving frame (z, y) = (x + λ(rt), y) obeys
    dz/dt = -z + r, dy/dt = -y(z - mu + y^2); pitchfork at r = mu."""
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if not float(p).is_integer():
        raise ValueError(f"ramp degree p must be a whole number, got {p}")
    p = int(p)
    ramp = RampDescriptor("polynomial", r, degree=p)

    def rhs(X, T, R):
        x, y = X.T
        z = x + ramp.value(T, R)
        out = np.empty(X.shape)
        out.T[0] = -z + R - ramp.slope(T, R)
        out.T[1] = -y * (z - mu + y * y)
        return out

    def g(y):
        return np.array([-y[0] + r, -y[1] * (y[0] - mu + y[1] * y[1])])

    def equilibria():
        out = []
        d = mu - r
        if abs(d) <= 1e-9:
            out.append((np.array([r, 0.0]), "degenerate"))
            return out
        if d > 0:
            s = math.sqrt(d)
            out.append((np.array([r, s]), "stable"))
            out.append((np.array([r, -s]), "stable"))
            out.append((np.array([r, 0.0]), "saddle"))
        else:
            out.append((np.array([r, 0.0]), "stable"))
        return out

    def att(sign):
        def curve(t):
            d = mu - r
            if d < -1e-15:
                raise CurveUndefined("pitchfork attractor pair needs r <= mu")
            return np.array([r - ramp.value(t), sign * math.sqrt(max(d, 0.0))])
        return curve

    def qse(sign):
        def curve(t):
            dl = ramp.slope(t)
            d = dl - r + mu
            if d < -1e-15:
                raise CurveUndefined("stable QSE pair undefined where dλ/dt - r + mu < 0")
            return np.array([-ramp.value(t) - dl + r, sign * math.sqrt(max(d, 0.0))])
        return curve

    ybound = math.sqrt(mu + abs(r) + 1.0) + 1.0

    def state_box(s):
        lam = ramp.value(s)
        dl = ramp.slope(s)
        c = -lam - dl + r
        # wide enough for the stable QSE pair at ±sqrt(dλ/dt - r + mu)
        yb = math.sqrt(max(mu + abs(r), dl - r + mu) + 1.0) + 1.0
        return [(c - 2.0, c + 2.0), (-yb, yb)]

    return ModelSpec(
        name="moving-pitchfork",
        dimension=2,
        params={"r": r, "mu": mu, "p": p},
        ramp=ramp,
        rhs=rhs,
        comoving=ComovingDescriptor(
            gain=np.array([-1.0, 0.0]),
            offset=np.array([0.0, 0.0]),
            ramp=ramp,
            rhs=g,
            equilibria=equilibria,
            box=((r - 2.0, r + 2.0), (-ybound, ybound)),
        ),
        oracles={
            "attractor+": att(+1.0),
            "attractor-": att(-1.0),
            "repeller": lambda t: np.array([r - ramp.value(t), 0.0]),
            "qse_stable+": qse(+1.0),
            "qse_stable-": qse(-1.0),
            "qse_unstable": lambda t: np.array(
                [-ramp.value(t) - ramp.slope(t) + r, 0.0]
            ),
        },
        critical_rates=(mu,),
        default_anchors=(np.array([1.0, 1.0]), np.array([1.0, -1.0])),
        repeller_anchors=(),
        escape_norm=1e12,
        state_box=state_box,
    )


def make_bounded_ramp_sn(mu: float = 0.5, r: float = 0.05, lambda_max: float | None = None) -> ModelSpec:
    """dx/dt = -(x-λ)(x-λ-mu) with the bounded shift λ = λmax(tanh(rt)+1)/2.

    Asymptotically constant parameter change; tips at a finite rate with no
    closed-form critical value.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if lambda_max is None:
        lambda_max = 3.0 * mu
    if not math.isfinite(lambda_max):
        raise ValueError(f"lambda_max must be finite, got {lambda_max}")
    ramp = RampDescriptor("bounded_tanh", r, scale=lambda_max)

    def rhs(X, T, R):
        u = X.T - ramp.value(T, R)
        return (-u * (u - mu)).T

    return ModelSpec(
        name="bounded-ramp-sn",
        dimension=1,
        params={"r": r, "mu": mu, "lambda_max": lambda_max},
        ramp=ramp,
        rhs=rhs,
        oracles={
            "qse_stable+": _scalar(lambda t: ramp.value(t) + mu),
            "qse_unstable": _scalar(lambda t: ramp.value(t)),
        },
        default_anchors=(np.array([mu]),),
        repeller_anchors=(),
        state_box=lambda s: [(ramp.value(s) - mu - 1.0, ramp.value(s) + 2.0 * mu + 1.0)],
    )


_FACTORIES = {
    "drift": make_drift,
    "moving-sn": make_moving_sn,
    "moving-cubic": make_moving_cubic,
    "moving-pitchfork": make_moving_pitchfork,
    "bounded-ramp-sn": make_bounded_ramp_sn,
}

MODEL_NAMES = tuple(_FACTORIES)
# each factory's parameter names, read from its signature once
_PARAMS = {name: frozenset(inspect.signature(f).parameters) for name, f in _FACTORIES.items()}


def make_model(name: str, **params) -> ModelSpec:
    """Build a catalog model by name with parameter assignments, each a
    real number (not a bool, a string or None)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise TiplabError(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}") from None
    unknown = set(params) - _PARAMS[name]
    if unknown:
        raise TiplabError(f"unknown parameter(s) for {name}: {sorted(unknown)}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TiplabError(f"parameter {key!r} of {name} must be a number, got {value!r}")
    return factory(**params)


# ---------------------------------------------------------------------------
# operations


def eval_rhs(model: ModelSpec, x, t: float) -> np.ndarray:
    """Exact right-hand-side evaluation at (x, t)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.dimension,):
        raise ValueError(f"state has shape {x.shape}, expected ({model.dimension},)")
    return model.field(x, t)


def oracle_curve(model: ModelSpec, which: str, t: float) -> np.ndarray:
    """Closed-form reference curve value at time t."""
    try:
        curve = model.oracles[which]
    except KeyError:
        raise CurveUndefined(
            f"model {model.name!r} has no {which!r} curve; has {sorted(model.oracles)}"
        ) from None
    return np.atleast_1d(np.asarray(curve(t), dtype=float))


def comoving_transform(model: ModelSpec, x, t: float, direction: str = "to") -> np.ndarray:
    """Translate between original (x) and co-moving (y = x - v(t)) coordinates."""
    if model.comoving is None:
        raise NoComovingFrame(f"model {model.name!r} has no co-moving descriptor")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = model.comoving.translation(t)
    if direction == "to":
        return x - v
    if direction == "from":
        return x + v
    raise ValueError("direction must be 'to' or 'from'")

"""Command-line front end.

Subcommands: simulate, pullback, qse, tip, sweep, figure.  Options may come
from a JSON config file (--config) with shape
{"model": ..., "params": {...}, "analysis": {...}, "output": {...}};
explicit flags override config values.  An option of several numbers is a
comma string ("0,4") as a flag, and a comma string or a JSON list in the
config.  ``analysis.integrator`` may set ``abs_tol``, ``rel_tol``,
``max_step``, ``min_step`` and ``escape_norm``.  Exit codes: 0 success, 1
the analysis ran but could not produce a conclusive result (a ``pullback``
that did not converge, an escaped one included), 2 usage or configuration
error, including any invalid option value.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, models, tipping
from .integrate import IntegratorConfig, integrate
from .models import ModelSpec, TiplabError, make_model

__all__ = ["main"]

# 17 significant digits round-trip IEEE doubles exactly.
FLOAT_FMT = "%.17g"


class CliError(Exception):
    """Usage or configuration problem (exit code 2)."""


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return FLOAT_FMT % v
    return str(v)


def _write(out, fmt: str, header: list[str], rows, payload) -> None:
    """Write ``rows`` as CSV under ``header``, or ``payload`` as JSON, to the
    file ``out`` or, when it is None, to stdout."""
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from None


def _coerce(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    for section in ("params", "analysis", "output"):
        if not isinstance(cfg.get(section, {}), dict):
            raise CliError(f"config {section!r} must be a JSON object")
    return cfg


def _build_model(args, config: dict) -> ModelSpec:
    name = args.model or config.get("model")
    if not name:
        raise CliError("no model given (use --model or a config file)")
    params = dict(config.get("params", {}))
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        params[key.strip()] = _coerce(val.strip())
    try:
        return make_model(name, **params)
    except (TiplabError, ValueError, TypeError) as exc:
        raise CliError(str(exc)) from None


def _opt(args, config: dict, key: str, default=None, kind=None, n: int | None = None):
    """One analysis option: the flag, else ``config["analysis"][key]``, else
    ``default``.  ``kind`` converts a single number, which for ``int`` must
    be whole.  With a count ``n`` (0 for one or more) the option is a list of
    numbers: a comma string is parsed, and a list or a bare number must hold
    ``n`` numbers.  Numbers must be finite; booleans and, for a single
    number, strings are not numbers."""
    raw = getattr(args, key.replace("-", "_"), None)
    if raw is None:
        raw = config.get("analysis", {}).get(key, default)
    if raw is None or (kind is None and n is None):
        return raw
    try:
        if n is None:
            vals = [kind(raw)]
            # a boolean, a config string (flags arrive converted), or a fraction cut by int
            if isinstance(raw, (bool, str)) or float(raw) != vals[0]:
                raise ValueError(raw)
        elif isinstance(raw, str):
            vals = [float(v) for v in raw.split(",") if v.strip() != ""]
        else:
            vals = list(raw) if isinstance(raw, (list, tuple)) else [raw]
        if ((len(vals) == n if n else len(vals) > 0)
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) for v in vals)):
            return vals[0] if n is None else vals
    except (TypeError, ValueError, OverflowError):
        pass
    want = (f"{n or 'one or more comma-separated'} finite numbers" if n is not None
            else "a finite whole number" if kind is int else "a finite number")
    raise CliError(f"{key} expects {want}, got {raw!r}")


def _grid(args, config: dict, key: str, default: str) -> np.ndarray:
    """An ``a,b,n`` option as ``np.linspace(a, b, n)``, for a whole n >= 1."""
    a, b, n = _opt(args, config, key, default, n=3)
    if n < 1 or n != int(n):
        raise CliError(f"{key} expects a whole number of points >= 1, got {n!r}")
    return np.linspace(a, b, int(n))


def _integrator(model: ModelSpec, config: dict) -> IntegratorConfig:
    """The model's integrator settings with the overrides in
    ``config["analysis"]["integrator"]``."""
    return analysis.integrator_config(model, config.get("analysis", {}).get("integrator"))


def _output_target(args, config: dict):
    out = args.out or config.get("output", {}).get("path")
    fmt = args.format or config.get("output", {}).get("format") or "json"
    if fmt not in ("json", "csv"):
        raise CliError(f"unknown format {fmt!r} (use json or csv)")
    return out, fmt


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    t0 = _opt(args, config, "t0", 0.0, float)
    t1 = _opt(args, config, "t1", 4.0, float)
    n = _opt(args, config, "samples", 201, int)
    if n < 1:
        raise CliError(f"samples expects a whole number >= 1, got {n}")
    x0 = _opt(args, config, "x0", n=model.dimension)
    if x0 is None:
        x0 = model.anchor_state(model.default_anchors[0], t0)
    cfg = _integrator(model, config)
    header = ["t"] + [f"x{i}" for i in range(model.dimension)]
    payload = {"model": model.name, "params": dict(model.params)}

    if t1 == t0:
        # zero-length time range: report an empty sample section
        _write(out, fmt, header, [],
               {**payload, "status": "completed", "samples": {"t": [], "x": []}})
        return 0

    traj = integrate(model.field, x0, t0, t1, cfg)
    if len(traj.times) == 1:
        # the start state is already past the escape norm
        grid, states = traj.times, traj.states
    else:
        grid = np.linspace(traj.t0, traj.t_end, n)
        states = traj.eval(grid)
    _write(out, fmt, header, [[t, *row] for t, row in zip(grid, states)], {
        **payload,
        "status": traj.status,
        "escape_bracket": list(traj.escape_bracket) if traj.escape_bracket else None,
        "samples": {"t": grid.tolist(), "x": states.tolist()},
    })
    return 0


def _cmd_pullback(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    sense = _opt(args, config, "sense", "attracting")
    est = analysis.estimate_pullback(
        model, window=tuple(_opt(args, config, "window", (0.0, 4.0), n=2)),
        anchor=_opt(args, config, "anchor", n=model.dimension), sense=sense,
        tol=_opt(args, config, "tol", 1e-8, float), cfg=_integrator(model, config),
    )
    header = ["t"] + [f"x{i}" for i in range(model.dimension)]
    _write(out, fmt, header, [[t, *row] for t, row in zip(est.times, est.states)], {
        "model": model.name,
        "params": dict(model.params),
        "sense": sense,
        "status": est.status,
        "anchor": est.anchor.tolist(),
        "start_times": est.start_times,
        "convergence_gaps": est.convergence_gaps,
        "samples": {"t": est.times.tolist(), "x": est.states.tolist()},
    })
    return 0 if est.status == analysis.CONVERGED else 1


def _cmd_qse(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    branches = analysis.qse_continuation(model, s_grid=_grid(args, config, "s-grid", "0,4,41"))
    header = ["branch", "s"] + [f"x{i}" for i in range(model.dimension)] + ["stability"]
    rows = [[bi, smp.s, *smp.x, smp.stability]
            for bi, br in enumerate(branches) for smp in br.samples]
    _write(out, fmt, header, rows, {
        "model": model.name,
        "params": dict(model.params),
        "branches": [
            {
                "s": br.s_values.tolist(),
                "x": br.states.tolist(),
                "stability": br.stability,
                "flagged": br.flagged,
            }
            for br in branches
        ],
    })
    return 0


def _cmd_tip(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    lo, hi = _opt(args, config, "r-range", "0.001,1", n=2)
    report = tipping.find_critical_rate(
        model, r_range=(lo, hi), resolution=_opt(args, config, "resolution", 1e-4, float),
        window=tuple(_opt(args, config, "window", (0.0, 4.0), n=2)),
        cfg=_integrator(model, config),
    )
    rows = [[b.lower, b.upper, b.width, b.classification, int(b.flagged)]
            for b in report.brackets]
    _write(out, fmt, ["lower", "upper", "width", "classification", "flagged"], rows,
           report.to_dict())
    return 1 if report.flagged else 0


def _cmd_sweep(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    rates = _opt(args, config, "rates", n=0)
    if rates is None:
        rates = _grid(args, config, "r-range", "0.01,1,10").tolist()
    results = tipping.sweep(
        model, rates, threads=args.threads,
        window=tuple(_opt(args, config, "window", (0.0, 4.0), n=2)),
        cfg=_integrator(model, config),
    )
    rows = [[s["rate"], s["n_attractors"], len(s["escaped_anchors"]),
             "" if s["tipped"] is None else int(s["tipped"])] for s in results]
    _write(out, fmt, ["r", "n_attractors", "escaped", "tipped"], rows,
           {"model": model.name, "params": dict(model.params), "sweep": results})
    return 1 if any(s["tipped"] is None for s in results) else 0


# Oracle-curve figures: model, parameters, rates, and column -> catalog curve.
_ORACLE_FIGURES = {
    "fig1": ("drift", {}, (0.1, 0.5, 1.0, 2.0),
             {"pullback": "attractor+", "qse": "qse_stable+"}),
    "fig2": ("moving-sn", {"mu": 0.5}, (1.0 / 32.0, 1.0 / 16.0, 3.0 / 32.0),
             {"attractor": "attractor+", "repeller": "repeller",
              "qse_stable": "qse_stable+", "qse_unstable": "qse_unstable"}),
    # mu = 1 straddles the moving-cubic critical rate 2 mu^3 / (3 sqrt 3)
    "fig3": ("moving-cubic", {"mu": 1.0},
             tuple(2.0 / (3.0 * np.sqrt(3.0)) + dr for dr in (-0.1, 0.0, 0.1)),
             {"attractor_top": "attractor+", "attractor_bottom": "attractor-",
              "repeller": "repeller"}),
}


def _oracle_value(m, key: str, t: float) -> float:
    """The first coordinate of a catalog curve at t, NaN where it is undefined."""
    try:
        return models.oracle_curve(m, key, t)[0]
    except models.CurveUndefined:
        return float("nan")


def _figure_rows(which: str):
    """Reference data tables behind the library's standard figures."""
    if which in _ORACLE_FIGURES:
        name, params, rates, columns = _ORACLE_FIGURES[which]
        grid = np.linspace(0.0, 4.0, 161)
        rows = []
        for r in rates:
            m = make_model(name, **params, r=r)
            rows.extend([t, r, *(_oracle_value(m, key, t) for key in columns.values())]
                        for t in grid)
        return ["t", "r", *columns], rows
    if which == "fig4":
        # co-moving nullclines of the planar system: z = r, y = 0, z = mu - y^2
        mu = 1.0
        header = ["r", "y", "z_nullcline_z", "y_nullcline_parabola"]
        ys = np.linspace(-2.0, 2.0, 161)
        rows = []
        for r in (-0.5, 1.0, 1.5):
            for y in ys:
                rows.append([r, y, r, mu - y * y])
        return header, rows
    if which == "fig5":
        header = ["t", "r", "x", "y"]
        rows = []
        for r in (-0.5, 1.0, 5.0):
            m = make_model("moving-pitchfork", mu=1.0, r=r, p=1)
            est = analysis.estimate_pullback(m, window=(0.0, 4.0))
            for t, x in zip(est.times, est.states):
                rows.append([t, r, x[0], x[1]])
        return header, rows
    raise CliError(f"unknown figure {which!r} (fig1..fig5)")


def _cmd_figure(args, config) -> int:
    which = _opt(args, config, "which")
    if not which:
        raise CliError("figure needs --which figN")
    out, fmt = _output_target(args, config)
    header, rows = _figure_rows(which)
    _write(out, fmt, header, rows, {
        "figure": which, "columns": header,
        "rows": [[float(v) if not isinstance(v, str) else v for v in row] for row in rows],
    })
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tiplab",
        description="Pullback attractors, QSE continuation, and critical-rate "
                    "detection for nonautonomous ODE models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--model", help="model name", choices=models.MODEL_NAMES)
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a model parameter (repeatable)")
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), help="output format")

    sp = sub.add_parser("simulate", help="integrate one trajectory")
    common(sp)
    sp.add_argument("--x0", help="initial state, comma separated")
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float)
    sp.add_argument("--samples", type=int)

    sp = sub.add_parser("pullback", help="estimate a pullback attractor/repeller")
    common(sp)
    sp.add_argument("--window", help="observation window a,b")
    sp.add_argument("--anchor", help="anchor, comma separated")
    sp.add_argument("--sense", choices=("attracting", "repelling"))
    sp.add_argument("--tol", type=float)

    sp = sub.add_parser("qse", help="continue quasi-static equilibria")
    common(sp)
    sp.add_argument("--s-grid", dest="s_grid", help="a,b,n")

    sp = sub.add_parser("tip", help="bracket critical rates")
    common(sp)
    sp.add_argument("--r-range", dest="r_range", help="a,b")
    sp.add_argument("--resolution", type=float)
    sp.add_argument("--window", help="observation window a,b")

    sp = sub.add_parser("sweep", help="per-rate diagnostics over many rates")
    common(sp)
    sp.add_argument("--rates", help="comma-separated rates")
    sp.add_argument("--r-range", dest="r_range", help="a,b,n (linear grid)")
    sp.add_argument("--window", help="observation window a,b")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker count, checked to be >= 1 but starting no threads: "
                    "the sweep runs as one batch (default: 1)")

    sp = sub.add_parser("figure", help="emit data tables for standard figures")
    common(sp)
    sp.add_argument("--which", help="fig1..fig5")

    return p


_COMMANDS = {
    "simulate": _cmd_simulate,
    "pullback": _cmd_pullback,
    "qse": _cmd_qse,
    "tip": _cmd_tip,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except (CliError, ValueError) as exc:
        # the library raises ValueError for an argument value it rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TiplabError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

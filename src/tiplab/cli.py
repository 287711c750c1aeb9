"""Command-line front end.

Subcommands: simulate, pullback, qse, tip, sweep, figure.  Options may come
from a JSON config file (--config) with shape
{"model": ..., "params": {...}, "analysis": {...}, "output": {...}};
explicit flags override config values.  Exit codes: 0 success, 1 the
analysis ran but could not produce a conclusive result, 2 usage or
configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, models, tipping
from .integrate import integrate
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


def _write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_floats(text: str, n: int | None = None) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(f"expected comma-separated numbers, got {text!r}") from None
    if n is not None and len(vals) != n:
        raise CliError(f"expected {n} comma-separated numbers, got {text!r}")
    return vals


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


def _analysis_opt(args, config: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    return config.get("analysis", {}).get(key, default)


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
    t0 = float(_analysis_opt(args, config, "t0", 0.0))
    t1 = float(_analysis_opt(args, config, "t1", 4.0))
    x0_raw = _analysis_opt(args, config, "x0")
    if x0_raw is None:
        x0 = model.anchor_state(model.default_anchors[0], t0)
    elif isinstance(x0_raw, str):
        x0 = np.array(_parse_floats(x0_raw, model.dimension))
    else:
        x0 = np.atleast_1d(np.asarray(x0_raw, dtype=float))
    cfg = analysis.integrator_config(
        model, config.get("analysis", {}).get("integrator"))

    if t1 == t0:
        # zero-length time range: report an empty sample section
        if fmt == "csv":
            _write_csv(out, ["t"] + [f"x{i}" for i in range(model.dimension)], [])
        else:
            _write_json(out, {
                "model": model.name, "params": dict(model.params),
                "status": "completed", "samples": {"t": [], "x": []},
            })
        return 0

    n = int(_analysis_opt(args, config, "samples", 201))
    traj = integrate(model.field, x0, t0, t1, cfg)
    grid = np.linspace(traj.t0, traj.t_end, n)
    states = traj.eval(grid)
    if fmt == "csv":
        rows = [[t, *row] for t, row in zip(grid, states)]
        _write_csv(out, ["t"] + [f"x{i}" for i in range(model.dimension)], rows)
    else:
        _write_json(out, {
            "model": model.name,
            "params": dict(model.params),
            "status": traj.status,
            "escape_bracket": list(traj.escape_bracket) if traj.escape_bracket else None,
            "samples": {"t": grid.tolist(), "x": states.tolist()},
        })
    return 0


def _cmd_pullback(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    window = _analysis_opt(args, config, "window", (0.0, 4.0))
    if isinstance(window, str):
        window = tuple(_parse_floats(window, 2))
    sense = _analysis_opt(args, config, "sense", "attracting")
    tol = float(_analysis_opt(args, config, "tol", 1e-8))
    anchor = _analysis_opt(args, config, "anchor")
    if isinstance(anchor, str):
        anchor = np.array(_parse_floats(anchor, model.dimension))
    cfg = analysis.integrator_config(
        model, config.get("analysis", {}).get("integrator"))
    est = analysis.estimate_pullback(
        model, window=tuple(window), anchor=anchor, sense=sense, tol=tol, cfg=cfg
    )
    if fmt == "csv":
        rows = [[t, *row] for t, row in zip(est.times, est.states)]
        _write_csv(out, ["t"] + [f"x{i}" for i in range(model.dimension)], rows)
    else:
        _write_json(out, {
            "model": model.name,
            "params": dict(model.params),
            "sense": sense,
            "status": est.status,
            "anchor": est.anchor.tolist(),
            "start_times": est.start_times,
            "convergence_gaps": est.convergence_gaps,
            "samples": {"t": est.times.tolist(), "x": est.states.tolist()},
        })
    return 0 if est.status != analysis.NOT_CONVERGED else 1


def _cmd_qse(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    sg = _analysis_opt(args, config, "s-grid", "0,4,41")
    if isinstance(sg, str):
        a, b, n = _parse_floats(sg, 3)
    else:
        a, b, n = sg
    branches = analysis.qse_continuation(model, s_grid=np.linspace(a, b, int(n)))
    if fmt == "csv":
        rows = []
        for bi, br in enumerate(branches):
            for smp in br.samples:
                rows.append([bi, smp.s, *smp.x, smp.stability])
        _write_csv(out, ["branch", "s"] + [f"x{i}" for i in range(model.dimension)]
                   + ["stability"], rows)
    else:
        _write_json(out, {
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
    rr = _analysis_opt(args, config, "r-range", "0.001,1")
    if isinstance(rr, str):
        rr = _parse_floats(rr, 2)
    resolution = float(_analysis_opt(args, config, "resolution", 1e-4))
    window = _analysis_opt(args, config, "window", (0.0, 4.0))
    if isinstance(window, str):
        window = tuple(_parse_floats(window, 2))
    cfg = analysis.integrator_config(
        model, config.get("analysis", {}).get("integrator"))
    report = tipping.find_critical_rate(
        model, r_range=(rr[0], rr[1]), resolution=resolution,
        window=tuple(window), cfg=cfg,
    )
    if fmt == "csv":
        rows = [
            [b.lower, b.upper, b.width, b.classification, int(b.flagged)]
            for b in report.brackets
        ]
        _write_csv(out, ["lower", "upper", "width", "classification", "flagged"], rows)
    else:
        _write_json(out, report.to_dict())
    return 1 if report.flagged else 0


def _cmd_sweep(args, config) -> int:
    model = _build_model(args, config)
    out, fmt = _output_target(args, config)
    rates = _analysis_opt(args, config, "rates")
    if rates is None:
        rr = _analysis_opt(args, config, "r-range", "0.01,1,10")
        if isinstance(rr, str):
            a, b, n = _parse_floats(rr, 3)
        else:
            a, b, n = rr
        rates = np.linspace(a, b, int(n)).tolist()
    elif isinstance(rates, str):
        rates = _parse_floats(rates)
    window = _analysis_opt(args, config, "window", (0.0, 4.0))
    if isinstance(window, str):
        window = tuple(_parse_floats(window, 2))
    cfg = analysis.integrator_config(
        model, config.get("analysis", {}).get("integrator"))
    results = tipping.sweep(
        model, rates, threads=args.threads, window=tuple(window), cfg=cfg
    )
    if fmt == "csv":
        rows = [
            [s["rate"], s["n_attractors"], len(s["escaped_anchors"]),
             "" if s["tipped"] is None else int(s["tipped"])]
            for s in results
        ]
        _write_csv(out, ["r", "n_attractors", "escaped", "tipped"], rows)
    else:
        _write_json(out, {"model": model.name, "params": dict(model.params),
                          "sweep": results})
    if any(s["tipped"] is None for s in results):
        return 1
    return 0


def _figure_rows(which: str):
    """Reference data tables behind the library's standard figures."""
    grid = np.linspace(0.0, 4.0, 161)
    if which == "fig1":
        header = ["t", "r", "pullback", "qse"]
        rows = []
        for r in (0.1, 0.5, 1.0, 2.0):
            m = make_model("drift", r=r)
            for t in grid:
                rows.append([t, r, models.oracle_curve(m, "attractor+", t)[0],
                             models.oracle_curve(m, "qse_stable+", t)[0]])
        return header, rows
    if which == "fig2":
        header = ["t", "r", "attractor", "repeller", "qse_stable", "qse_unstable"]
        rows = []
        for r in (1.0 / 32.0, 1.0 / 16.0, 3.0 / 32.0):
            m = make_model("moving-sn", mu=0.5, r=r)
            for t in grid:
                try:
                    att = models.oracle_curve(m, "attractor+", t)[0]
                    rep = models.oracle_curve(m, "repeller", t)[0]
                except models.CurveUndefined:
                    att = rep = float("nan")
                rows.append([t, r, att, rep,
                             models.oracle_curve(m, "qse_stable+", t)[0],
                             models.oracle_curve(m, "qse_unstable", t)[0]])
        return header, rows
    if which == "fig3":
        mu = 1.0
        rstar = 2.0 * mu**3 / (3.0 * np.sqrt(3.0))
        header = ["t", "r", "attractor_top", "attractor_bottom", "repeller"]
        rows = []
        for r in (rstar - 0.1, rstar, rstar + 0.1):
            m = make_model("moving-cubic", mu=mu, r=r)
            for t in grid:
                vals = []
                for key in ("attractor+", "attractor-", "repeller"):
                    try:
                        vals.append(models.oracle_curve(m, key, t)[0])
                    except models.CurveUndefined:
                        vals.append(float("nan"))
                rows.append([t, r, *vals])
        return header, rows
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
    which = args.which or config.get("analysis", {}).get("which")
    if not which:
        raise CliError("figure needs --which figN")
    out, fmt = _output_target(args, config)
    header, rows = _figure_rows(which)
    if fmt == "json":
        _write_json(out, {"figure": which, "columns": header,
                          "rows": [[float(v) if not isinstance(v, str) else v
                                    for v in row] for row in rows]})
    else:
        _write_csv(out, header, rows)
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
    sp.add_argument("--threads", type=int, help="worker count, validated only: "
                    "the sweep runs as one batch (default: TIPLAB_THREADS or 1)")

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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TiplabError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

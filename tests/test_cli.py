import json
import re
import warnings

import numpy as np
import pytest

from tiplab.analysis import estimate_pullback
from tiplab.cli import main
from tiplab.models import make_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSimulate:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", "moving-sn", "--set", "mu=0.5",
            "--set", "r=0.03125", "--t0", "0", "--t1", "1", "--samples", "3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x0"
        assert len(lines) == 4

    def test_csv_uses_17_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", "drift", "--set", "r=0.5",
            "--t0", "0", "--t1", "1", "--samples", "2", "--format", "csv",
        )
        assert code == 0
        value = out.strip().splitlines()[-1].split(",")[1]
        # round-trips exactly through repr
        assert float(value) == float(repr(float(value)))
        assert re.match(r"-?\d", value)
        digits = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(digits) >= 15

    def test_json_output_with_file(self, capsys, tmp_path):
        out_file = tmp_path / "sim.json"
        code, out, _ = run(
            capsys, "simulate", "--model", "drift", "--t0", "0", "--t1", "1",
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["status"] == "completed"
        assert len(payload["samples"]["t"]) == len(payload["samples"]["x"])

    def test_zero_length_range_empty_samples(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", "drift", "--t0", "1", "--t1", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == {"t": [], "x": []}

    def test_escape_reported(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", "moving-sn", "--set", "mu=0.5",
            "--set", "r=0.09375", "--x0", "0.25", "--t0", "0", "--t1", "20",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "escaped"
        lo, hi = payload["escape_bracket"]
        assert lo < hi


class TestPullback:
    def test_json_converged(self, capsys):
        code, out, _ = run(
            capsys, "pullback", "--model", "drift", "--set", "r=0.5",
            "--window", "0,2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "converged"
        assert payload["convergence_gaps"][-1] < 1e-8 * 10

    def test_repelling_sense(self, capsys):
        code, out, _ = run(
            capsys, "pullback", "--model", "moving-sn", "--set", "mu=0.5",
            "--set", "r=0.03125", "--window", "0,2", "--sense", "repelling",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,x0"

    @pytest.mark.parametrize("name", ["drift", "moving-sn", "moving-cubic",
                                      "moving-pitchfork", "bounded-ramp-sn"])
    def test_repelling_time_labels_ascend_with_an_unsigned_zero(self, capsys, name):
        # a repeller's rows ascend in time like an attractor's; t = 0 reads
        # "0", not "-0", and each row holds the estimate's states.  drift's
        # deepest start times, up to 4099, overflow its ramp exp(t / 2): those
        # members start at an infinite state and stop there, with no warning
        # (warnings are errors here).  drift and moving-pitchfork escape
        # during the pullback and exit 1; their curve up to the escape prints.
        model = make_model(name)
        anchor = [0.0] * model.dimension
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "pullback", "--model", name, "--sense", "repelling",
                               "--window=-1,3", "--anchor", ",".join(map(str, anchor)),
                               "--format", "csv")
            est = estimate_pullback(model, window=(-1.0, 3.0), anchor=anchor,
                                    sense="repelling")
        assert code == (0 if est.status == "converged" else 1)
        assert (est.status == "converged") is (name not in ("drift", "moving-pitchfork"))
        rows = [line.split(",") for line in out.splitlines()[1:]]
        labels = [row[0] for row in rows]
        assert "0" in labels and "-0" not in labels
        assert [float(t) for t in labels] == est.times.tolist()
        assert np.array_equal([[float(x) for x in row[1:]] for row in rows], est.states)


    def test_escaped_estimate_exits_1(self, capsys):
        # the repelling moving-pitchfork pullback escapes: the curve before
        # the escape prints, and the exit status says it did not converge
        code, out, _ = run(capsys, "pullback", "--model", "moving-pitchfork",
                           "--sense", "repelling", "--anchor", "0,0", "--format", "csv")
        assert code == 1
        est = estimate_pullback(make_model("moving-pitchfork"), anchor=[0.0, 0.0],
                                sense="repelling")
        assert est.status == "escaped_during_pullback"
        rows = out.splitlines()
        assert rows[0] == "t,x0,x1" and len(rows) == 202


class TestQse:
    def test_csv_branches(self, capsys):
        code, out, _ = run(
            capsys, "qse", "--model", "moving-sn", "--set", "mu=0.5",
            "--set", "r=0.03125", "--s-grid", "0,2,5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "branch,s,x0,stability"
        assert len(lines) == 11  # 2 branches x 5 samples


class TestTip:
    def test_drift_zero_brackets(self, capsys):
        code, out, _ = run(
            capsys, "tip", "--model", "drift", "--r-range", "0.5,2",
            "--window", "0,1", "--resolution", "0.001",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["brackets"] == []

    def test_sn_bracket_csv(self, capsys):
        code, out, _ = run(
            capsys, "tip", "--model", "moving-sn", "--set", "mu=0.5",
            "--r-range", "0.02,0.2", "--resolution", "0.005", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lower,upper,width,classification,flagged"
        lo, hi = float(lines[1].split(",")[0]), float(lines[1].split(",")[1])
        assert lo <= 0.0625 <= hi


class TestSweep:
    def test_thread_count_leaves_output_unchanged(self, capsys):
        outs = []
        for threads in ("1", "2"):
            code, out, _ = run(
                capsys, "sweep", "--model", "drift", "--rates", "0.1,0.5",
                "--window", "0,2", "--format", "csv", "--threads", threads,
            )
            assert code == 0
            outs.append(out)
        lines = outs[0].strip().splitlines()
        assert lines[0] == "r,n_attractors,escaped,tipped"
        assert len(lines) == 3
        assert outs[1] == outs[0]


class TestFigure:
    @pytest.mark.parametrize("which", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_all_figures_emit_csv(self, capsys, tmp_path, which):
        out_file = tmp_path / f"{which}.csv"
        code, _, _ = run(
            capsys, "figure", "--which", which, "--format", "csv",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) > 10

    def test_unknown_figure_is_usage_error(self, capsys):
        code, _, err = run(capsys, "figure", "--which", "fig9")
        assert code == 2
        assert "fig9" in err


class TestConfigAndErrors:
    def test_config_file_supplies_model(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "moving-sn",
            "params": {"mu": 0.5, "r": 0.03125},
            "analysis": {"t0": 0.0, "t1": 1.0, "samples": 3},
            "output": {"format": "csv"},
        }))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "t,x0"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "drift", "params": {"r": 0.5}}))
        code, out, _ = run(
            capsys, "simulate", "--config", str(cfg), "--set", "r=1.0",
            "--t0", "0", "--t1", "1",
        )
        assert code == 0
        assert json.loads(out)["params"]["r"] == 1.0

    def test_missing_model_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate")
        assert code == 2
        assert "model" in err

    def test_bad_config_path_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--config", "/nonexistent.json")
        assert code == 2

    def test_bad_set_syntax_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--model", "drift", "--set", "r0.5")
        assert code == 2

    def test_unknown_param_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--model", "drift", "--set", "zeta=1")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


class TestInvalidInput:
    @pytest.mark.parametrize("argv,analysis", [
        (["pullback", "--model", "drift", "--window", "2,1"], None),
        (["tip", "--model", "drift", "--window", "2,1", "--r-range", "0.5,2"], None),
        (["sweep", "--model", "drift", "--window", "2,1", "--rates", "0.5"], None),
        (["tip", "--model", "moving-sn", "--r-range", "1,0.5"], None),
        (["tip", "--model", "moving-sn", "--r-range", "0.00001,0.00002"], None),
        (["simulate", "--model", "drift", "--samples", "-1"], None),
        (["simulate", "--model", "drift"], {"integrator": {"abs_tol": 0}}),
        (["simulate", "--model", "drift"], {"integrator": {"rtol": 1e-3}}),
        (["simulate", "--model", "drift"], {"integrator": {"max_step": "big"}}),
        (["simulate", "--model", "moving-sn"], {"integrator": {"max_step": True}}),
        (["pullback", "--model", "drift"], {"window": [0.0, 1.0, 2.0]}),
        (["simulate", "--model", "moving-pitchfork"], {"x0": [0.5]}),
        (["simulate", "--model", "drift"], {"t0": [1.0]}),
        (["simulate", "--model", "drift", "--t1", "inf"], None),
        (["qse", "--model", "drift", "--s-grid", "0,4,inf"], None),
        (["sweep", "--model", "drift", "--rates", "0.5,nan"], None),
        (["tip", "--model", "drift", "--r-range", "0.5,2", "--resolution", "0"], None),
        (["pullback", "--model", "drift", "--tol", "0"], None),
        (["qse", "--model", "drift", "--s-grid", "0,4,0"], None),
        (["qse", "--model", "drift", "--s-grid", "0,4,-3"], None),
        (["qse", "--model", "drift", "--s-grid", "0,4,2.5"], None),
        (["sweep", "--model", "drift", "--r-range", "0.01,1,2.5"], None),
        (["sweep", "--model", "drift", "--r-range", "0.01,1,0"], None),
        (["qse", "--model", "drift"], {"s-grid": [0.0, 4.0, 0.0]}),
        (["sweep", "--model", "drift", "--rates", "0.5", "--threads", "0"], None),
        (["sweep", "--model", "drift", "--rates", "0.5", "--threads", "-3"], None),
        (["qse", "--model", "drift", "--set", "r=nan"], None),
        (["simulate", "--model", "moving-sn", "--set", "r=inf"], None),
        (["qse", "--model", "moving-sn", "--set", "mu=inf"], None),
        (["simulate", "--model", "moving-sn", "--set", "mu=nan"], None),
        (["simulate", "--model", "bounded-ramp-sn", "--set", "lambda_max=nan"], None),
        (["simulate", "--model", "moving-pitchfork", "--set", "p=2.5"], None),
        (["simulate", "--model", "drift"], {"samples": 2.5}),
        (["simulate", "--model", "drift"], {"samples": True}),
        (["pullback", "--model", "drift"], {"window": [True, 4]}),
        (["tip", "--model", "drift", "--r-range", "0.5,2"], {"resolution": True}),
        (["simulate", "--model", "drift", "--samples", "0"], None),
    ], ids=["pullback-window", "tip-window", "sweep-window", "tip-r-range-order",
            "tip-r-range-narrow", "samples", "integrator-value", "integrator-key",
            "integrator-type", "integrator-bool", "config-window-length", "config-x0-length",
            "config-t0", "t1-infinite", "s-grid-count-infinite", "rates-nan", "resolution", "tol",
            "s-grid-count-zero", "s-grid-count-negative", "s-grid-count-fraction",
            "r-range-count-fraction", "r-range-count-zero", "config-s-grid-count-zero",
            "threads-zero", "threads-negative", "rate-nan", "rate-infinite",
            "mu-infinite", "mu-nan", "lambda-max-nan", "degree-fraction",
            "config-samples-fraction", "config-samples-bool", "config-window-bool",
            "config-resolution-bool", "samples-zero"])
    def test_exit_2_with_error_line(self, capsys, tmp_path, argv, analysis):
        if analysis is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"analysis": analysis}))
            argv = argv + ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure", "--which", "fig4",
                           "--out", str(tmp_path / "missing" / "fig4.json"))
        assert code == 2
        assert err.startswith("error: ")


class TestStartPastEscapeNorm:
    def test_json_reports_escape_at_t0(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "moving-sn", "--x0", "2e6",
                           "--t0", "-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "escaped"
        assert payload["escape_bracket"] == [-1.0, -1.0]
        assert payload["samples"] == {"t": [-1.0], "x": [[2e6]]}

    def test_csv_has_the_one_sample(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "moving-sn", "--x0", "2e6",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["t,x0", "0,2000000"]


# Options of several numbers, as comma-string flags and as JSON config lists.
# The lists hold floats; test_config_integer_window_matches_flag covers a JSON
# integer list.
LIST_OPTIONS = {
    "simulate-1d": (["simulate", "--model", "moving-sn", "--t1", "1", "--samples", "5"],
                    {"x0": [0.2]}),
    "simulate-2d": (["simulate", "--model", "moving-pitchfork", "--t1", "1",
                     "--samples", "5", "--format", "csv"], {"x0": [0.5, 0.2]}),
    "pullback": (["pullback", "--model", "moving-sn", "--format", "csv"],
                 {"window": [0.0, 2.0], "anchor": [0.3]}),
    "qse": (["qse", "--model", "moving-sn"], {"s-grid": [0.0, 2.0, 5.0]}),
    "tip": (["tip", "--model", "drift", "--resolution", "0.001"],
            {"r-range": [0.5, 2.0], "window": [0.0, 1.0]}),
    "sweep-rates": (["sweep", "--model", "drift"],
                    {"rates": [0.1, 0.5], "window": [0.0, 2.0]}),
    "sweep-r-range": (["sweep", "--model", "drift", "--format", "csv"],
                      {"r-range": [0.1, 0.5, 3.0]}),
}


@pytest.mark.parametrize("name", sorted(LIST_OPTIONS))
def test_config_lists_match_flags(capsys, tmp_path, name):
    base, options = LIST_OPTIONS[name]
    flags = [arg for key, vals in options.items()
             for arg in (f"--{key}", ",".join(repr(v) for v in vals))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"analysis": options}))
    by_flags = run(capsys, *base, *flags)
    by_config = run(capsys, *base, "--config", str(cfg))
    assert by_flags[0] == 0
    assert by_config == by_flags


def test_config_integer_window_matches_flag(capsys, tmp_path):
    # the sweep echoes its window; a JSON integer list prints as floats too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"analysis": {"window": [0, 2]}}))
    base = ["sweep", "--model", "drift", "--rates", "0.5"]
    by_flag = run(capsys, *base, "--window", "0,2")
    by_config = run(capsys, *base, "--config", str(cfg))
    assert by_flag[0] == 0
    assert by_config == by_flag
    window = json.loads(by_flag[1])["sweep"][0]["window"]
    assert window == [0.0, 2.0] and all(isinstance(t, float) for t in window)

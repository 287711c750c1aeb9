import json
import math

import numpy as np
import pytest

from tiplab.models import make_model
from tiplab.tipping import (
    find_critical_rate,
    locality_probe,
    rate_diagnostics,
    sweep,
)


class TestRateDiagnostics:
    def test_drift_never_tips(self):
        m = make_model("drift")
        diag = rate_diagnostics(m, r=0.5, window=(0.0, 2.0))
        assert diag.tipped is False
        assert diag.n_attractors == 1
        assert diag.escaped == []
        assert diag.forward[0].verdict == "holds"

    def test_pitchfork_two_attractors_below(self):
        m = make_model("moving-pitchfork", mu=1.0)
        diag = rate_diagnostics(m, r=0.5, include_forward=False)
        assert diag.n_attractors == 2
        assert diag.tipped is False

    def test_pitchfork_curves_merge_above(self):
        m = make_model("moving-pitchfork", mu=1.0)
        diag = rate_diagnostics(m, r=1.5, include_forward=False)
        assert diag.n_attractors == 1
        assert diag.tipped is True
        assert diag.escaped == []  # tipping without blow-up

    def test_sn_escape_counts_as_tipped(self):
        m = make_model("moving-sn", mu=0.5)
        diag = rate_diagnostics(m, r=0.1, include_forward=False)  # > mu^2/4
        assert diag.tipped is True
        assert diag.escaped == [0]

    def test_summary_is_json_ready(self):
        m = make_model("drift")
        diag = rate_diagnostics(m, r=0.5, window=(0.0, 2.0), include_forward=False)
        text = json.dumps(diag.summary())
        assert "n_attractors" in text


class TestFindCriticalRate:
    def test_moving_sn_bracket(self):
        mu = 0.5
        m = make_model("moving-sn", mu=mu)
        report = find_critical_rate(m, r_range=(0.01, 0.2), resolution=1e-3)
        assert len(report.brackets) == 1
        b = report.brackets[0]
        assert b.lower <= mu * mu / 4.0 <= b.upper
        assert b.width <= 1e-3
        assert b.classification == "saddle-node"
        assert not report.flagged

    def test_report_roundtrip(self):
        m = make_model("moving-sn", mu=0.5)
        report = find_critical_rate(m, r_range=(0.01, 0.2), resolution=5e-3)
        payload = json.loads(report.to_json())
        assert payload["model"] == "moving-sn"
        assert payload["brackets"][0]["lower"] < payload["brackets"][0]["upper"]

    def test_bounded_ramp_regression(self):
        # no closed form exists; the bracket below is a frozen regression value
        m = make_model("bounded-ramp-sn", mu=0.5)
        report = find_critical_rate(m, r_range=(0.05, 0.5), resolution=1e-3,
                                    window=(-5.0, 5.0))
        assert len(report.brackets) == 1
        b = report.brackets[0]
        assert b.lower <= 0.1727 <= b.upper
        assert b.classification == "unclassified"  # no co-moving frame

    def test_invalid_range_rejected(self):
        m = make_model("drift")
        with pytest.raises(ValueError):
            find_critical_rate(m, r_range=(1.0, 1.0))


class TestLocalityProbe:
    def test_cubic_tipping_is_local(self):
        mu = 1.0
        rstar = 2.0 * mu**3 / (3.0 * math.sqrt(3.0))
        m = make_model("moving-cubic", mu=mu)
        probe = locality_probe(m, r=rstar + 0.1)
        assert probe["tipping_is_local"]
        assert probe["n_attractors"] == 1
        assert probe["survivors"] == [0]
        assert probe["lost"] == [1]

    def test_cubic_no_tipping_below(self):
        m = make_model("moving-cubic", mu=1.0)
        probe = locality_probe(m, r=0.1)
        assert probe["n_attractors"] == 2
        assert not probe["tipping_is_local"]


class TestSweep:
    def test_order_preserved(self):
        m = make_model("drift")
        rates = [0.5, 0.1, 0.3]
        out = sweep(m, rates, threads=1, window=(0.0, 2.0))
        assert [s["rate"] for s in out] == rates

    def test_parallel_matches_sequential_bitwise(self):
        m = make_model("moving-sn", mu=0.5)
        rates = np.linspace(0.01, 0.05, 4).tolist()
        seq = json.dumps(sweep(m, rates, threads=1, window=(0.0, 2.0)))
        par = json.dumps(sweep(m, rates, threads=4, window=(0.0, 2.0)))
        assert seq == par

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, r):
        with pytest.raises(ValueError):
            sweep(make_model("moving-sn"), [r])

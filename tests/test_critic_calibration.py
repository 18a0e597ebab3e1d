"""tools/critic_calibration.py, the critic's estimate scored against the
realized discounted cost: synthetic traces with known scores."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from boosthdp.sim import Trace, write_trace_csv

ROOT = Path(__file__).parents[1]


def _load_tool():
    path = ROOT / "tools" / "critic_calibration.py"
    spec = importlib.util.spec_from_file_location("critic_calibration", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calibration_tool = _load_tool()
GAMMA = 0.85


def utilities(n=1000):
    """A decaying startup cost with a small ripple, like an HDP run's `u`."""
    k = np.arange(n)
    return (2.0 * np.exp(-k / 80.0) + 0.02 * (1.0 + np.sin(k / 7.0))).tolist()


def write_trace(path, u, j_est):
    n = len(u)
    write_trace_csv(path, Trace(
        [k * 5e-05 for k in range(n)], [200.0] * n, [5.0] * n, [0.7] * n, u, j_est,
        ["SWITCH_ON"] * n, [200.0] * n, [60.0] * n, [80.0] * n,
    ))


class TestRealizedCost:
    def test_recursion_and_end(self):
        g = calibration_tool.realized_cost(np.array([1.0, 2.0, 4.0]), 0.5)
        assert g.tolist() == [1.0 + 0.5 * (2.0 + 0.5 * 4.0), 2.0 + 0.5 * 4.0, 4.0]

    def test_constant_cost_tends_to_its_geometric_sum(self):
        g = calibration_tool.realized_cost(np.full(400, 0.3), GAMMA)
        assert g[0] == pytest.approx(0.3 / (1.0 - GAMMA))


class TestCalibration:
    def test_an_estimate_that_is_its_own_cost_scores_0_1_0(self):
        u = utilities()
        g = calibration_tool.realized_cost(np.array(u), GAMMA).tolist()
        score, start, bias = calibration_tool.calibration(u, g, GAMMA)
        assert (score, start, bias) == (0.0, 1.0, 0.0)

    def test_an_offset_estimate_has_that_mean_late_error(self):
        u = utilities()
        g = calibration_tool.realized_cost(np.array(u), GAMMA)
        score, start, bias = calibration_tool.calibration(u, (g + 0.25).tolist(), GAMMA)
        assert bias == pytest.approx(0.25, rel=1e-12)
        kept = g[:-calibration_tool.TAIL]
        assert score == pytest.approx(0.25 / math.sqrt(np.mean(kept * kept)), rel=1e-12)
        assert start == pytest.approx((g[0] + 0.25) / g[0], rel=1e-12)

    def test_a_trace_no_longer_than_the_tail_is_refused(self):
        u = utilities(calibration_tool.TAIL)
        with pytest.raises(ValueError, match="keep none"):
            calibration_tool.calibration(u, u, GAMMA)


class TestMain:
    def test_one_line_per_hdp_trace_in_scenario_order(self, tmp_path, capsys):
        u = utilities()
        g = calibration_tool.realized_cost(np.array(u), GAMMA)
        write_trace(tmp_path / "load_change_HDP.csv", u, (g + 0.25).tolist())
        write_trace(tmp_path / "startup_HDP-frozen.csv", u, g.tolist())
        write_trace(tmp_path / "startup_PI.csv", u, [math.nan] * len(u))
        assert calibration_tool.main([str(tmp_path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[:2] == ["scenario", "controller"]
        assert [row.split()[:2] for row in rows] == [
            ["startup", "HDP-frozen"], ["load_change", "HDP"]
        ]
        assert rows[0].split()[2:] == ["0.000", "1.000", "0.000"]
        assert rows[1].split()[4] == "0.250"

    def test_gamma_comes_from_the_config(self, tmp_path, capsys):
        u = utilities()
        g = calibration_tool.realized_cost(np.array(u), 0.5).tolist()
        write_trace(tmp_path / "startup_HDP.csv", u, g)
        config = tmp_path / "run.ini"
        config.write_text("[hdp]\ngamma = 0.5\n")
        assert calibration_tool.main([str(tmp_path), "--config", str(config)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[2:] == ["0.000", "1.000", "0.000"]

    def test_no_hdp_trace_exits_1(self, tmp_path, capsys):
        write_trace(tmp_path / "startup_PI.csv", utilities(), [math.nan] * 1000)
        assert calibration_tool.main([str(tmp_path)]) == 1
        assert "no HDP trace" in capsys.readouterr().err

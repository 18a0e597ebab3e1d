"""Tests for the command-line front end: config handling, subcommands,
artifacts, and exit codes."""

import csv
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from boosthdp import cli, plant
from boosthdp.baseline import PiController
from boosthdp.cli import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
)
from boosthdp.hdp import HdpConfig, make_action, make_critic
from boosthdp.mlp import Mlp
from boosthdp.plant import PlantParams, PlantState
from boosthdp.sim import SCENARIO_NAMES
from forking import CALLER, exit_in_a_worker, needs_a_worker, no_children, wait_for
from trace_io import read_trace_csv

# `python -m boosthdp.cli` in a child process imports this checkout's package
MODULE_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
}

FLOAT_KEYS = [
    (section, key)
    for section, keys in cli._SCHEMA.items()
    for key, (typ, _) in keys.items()
    if typ is float
]

# deliberately tiny pipeline so CLI tests stay cheap; the resulting
# controller is poor but stable, which is all these tests need
FAST_PRETRAIN = """\
[pretrain]
n_episodes = 1
n_holds = 3
max_epochs = 8
clone_epochs = 3
"""


# upserts 40 distinct rows into metrics.csv (argv[1]) named <argv[2]><k>,
# starting when a line arrives on stdin, so two children start together
UPSERT_CHILD = """\
import sys
from pathlib import Path
from boosthdp import cli, sim
metrics = sim.Metrics(0.001, 1.0, 0.0, 0.01, 2.0, False, False)
print("ready", flush=True)
sys.stdin.readline()
for k in range(40):
    cli._upsert_metrics(Path(sys.argv[1]), f"{sys.argv[2]}{k}", "PI", metrics, {})
"""


# metrics.csv contents that are not a boosthdp metrics file
FOREIGN_METRICS = {
    "other-header": b"a,b\n1,2\n",
    "stale-column": (",".join((*cli.METRICS_FIELDS, "extra")) + "\n").encode(),
    "short-row": (",".join(cli.METRICS_FIELDS) + "\nstartup,PI,0.1\n").encode(),
    "not-utf8": b"\xff\xfescenario,controller\n",
}


@pytest.fixture(scope="module")
def fast_snapshots(tmp_path_factory):
    """One low-budget pretrain shared by the run/compare tests."""
    out = tmp_path_factory.mktemp("snapshots")
    config = out / "fast.ini"
    config.write_text(FAST_PRETRAIN)
    rc = cli.main(
        ["pretrain", "--config", str(config), "--out", str(out), "--seed", "0"]
    )
    assert rc == 0
    return out


class TestConfigParsing:
    def test_empty_config_is_all_defaults(self):
        cfg, defaulted = parse_config("")
        assert cfg.plant == PlantParams()
        assert cfg.hdp == HdpConfig()
        assert cfg.scenarios == ("startup", "load_change", "input_change")
        assert cfg.out_dir == "out"
        assert cfg.seed == 0
        # every key in the schema was defaulted
        n_keys = sum(len(keys) for keys in cli._SCHEMA.values())
        print(f"schema keys: {n_keys}, defaulted: {len(defaulted)}")
        assert len(defaulted) == n_keys

    def test_file_values_override_defaults(self):
        cfg, defaulted = parse_config("[plant]\nv_s = 57.0\n\n[run]\nseed = 3\n")
        assert cfg.plant.v_s == 57.0
        assert cfg.seed == 3
        keys = {(s, k) for s, k, _ in defaulted}
        assert ("plant", "v_s") not in keys
        assert ("run", "seed") not in keys
        assert ("plant", "r_load") in keys

    def test_round_trip_is_identity(self):
        cfg, _ = parse_config("[hdp]\ngamma = 0.9\n\n[pi]\nkp = 0.0005\n")
        text = dump_config(cfg)
        cfg2, defaulted2 = parse_config(text)
        assert cfg2 == cfg
        # a dumped config is fully explicit: nothing defaults on reload
        assert defaulted2 == []

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'rload'"):
            parse_config("[plant]\nrload = 80\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[controller\]"):
            parse_config("[controller]\nkp = 1\n")

    def test_unparsable_value_names_key(self):
        with pytest.raises(ConfigError, match=r"\[plant\] dt: cannot parse"):
            parse_config("[plant]\ndt = fast\n")

    def test_integer_key_rejects_float_literal(self):
        with pytest.raises(ConfigError, match=r"\[run\] seed"):
            parse_config("[run]\nseed = 1.5\n")

    def test_module_validators_run_at_parse_time(self):
        # dt must divide the switching period; the plant raises, the
        # parser converts it into a config error
        with pytest.raises(ConfigError, match="does not divide"):
            parse_config("[plant]\ndt = 3e-7\n")
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("[hdp]\ngamma = 1.5\n")

    def test_non_finite_plant_value_rejected(self):
        with pytest.raises(ConfigError, match="l_ind must be finite"):
            parse_config("[plant]\nl_ind = nan\n")

    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, section, key):
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"^{key} must be finite$"):
                parse_config(f"[{section}]\n{key} = {raw}\n")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        positive = st.floats(min_value=1e-9, max_value=1e9)
        non_negative = st.floats(min_value=0.0, max_value=1e9)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        count = st.integers(min_value=1, max_value=10**6)
        f_sw = data.draw(positive)
        values = {
            "plant": {
                "r_load": data.draw(positive),
                "l_ind": data.draw(positive),
                "c_out": data.draw(positive),
                "r_l": data.draw(non_negative),
                "v_s": data.draw(finite),
                "f_sw": f_sw,
                "dt": 1.0 / f_sw / data.draw(st.integers(min_value=1, max_value=1000)),
            },
            "hdp": {
                "gamma": data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                "lr_critic": data.draw(non_negative),
                "lr_action": data.draw(non_negative),
            },
            "pi": {
                "kp": data.draw(non_negative),
                "ki": data.draw(non_negative),
                "duty_ff": data.draw(st.floats(0.0, 1.0)),
            },
            "pretrain": {
                "n_episodes": data.draw(count),
                "n_holds": data.draw(count),
                "max_epochs": data.draw(count),
                "learning_rate": data.draw(positive),
                "clone_epochs": data.draw(count),
                "clone_learning_rate": data.draw(positive),
            },
            "run": {
                "scenarios": " ".join(
                    data.draw(st.lists(st.sampled_from(SCENARIO_NAMES), min_size=1,
                                       unique=True))
                ),
                "out": data.draw(st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)),
                "seed": data.draw(st.integers(min_value=0, max_value=2**63)),
            },
        }
        # every schema key gets a drawn value
        assert {s: set(k) for s, k in values.items()} == {
            s: set(k) for s, k in cli._SCHEMA.items()
        }
        text = "".join(
            f"[{section}]\n"
            + "".join(f"{key} = {values[section][key]!s}\n" for key in keys)
            + "\n"
            for section, keys in cli._SCHEMA.items()
        )
        cfg, defaulted = parse_config(text)
        assert defaulted == []
        assert dump_config(cfg) == text
        assert parse_config(dump_config(cfg)) == (cfg, [])

    def test_unknown_scenario_in_list_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario 'warp'"):
            parse_config("[run]\nscenarios = startup warp\n")

    def test_scenario_list_accepts_commas(self):
        cfg, _ = parse_config("[run]\nscenarios = startup, load_change\n")
        assert cfg.scenarios == ("startup", "load_change")

    @pytest.mark.parametrize("listed", ["startup startup", "startup, load_change, startup"])
    def test_scenario_listed_twice_rejected(self, listed):
        with pytest.raises(ConfigError, match="scenario 'startup' listed twice"):
            parse_config(f"[run]\nscenarios = {listed}\n")

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.ini"
        with pytest.raises(ConfigError, match=str(missing)):
            load_config(str(missing))

    def test_non_utf8_file_rejected(self, tmp_path):
        config = tmp_path / "utf16.ini"
        config.write_bytes(b"\xff\xfe[plant]\n")
        with pytest.raises(ConfigError, match=f"config file {config} is not UTF-8 text"):
            load_config(str(config))

    def test_load_none_equals_empty(self):
        cfg, _ = load_config(None)
        assert cfg == parse_config("")[0]


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "pretrain" in out and "compare" in out

    def test_non_utf8_config_exits_1_with_one_line(self, tmp_path, caplog):
        config = tmp_path / "utf16.ini"
        config.write_bytes(b"\xff\xfe[plant]\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "PI", "--config", str(config),
                           "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"config file {config} is not UTF-8 text"]
        assert not (tmp_path / "startup_PI.csv").exists()

    def test_missing_config_file_exits_1(self, tmp_path):
        rc = cli.main(["run", "startup", "PI", "--config", str(tmp_path / "x.ini")])
        assert rc == 1

    @pytest.mark.parametrize("command, out, reason", [
        (["pretrain"], "afile", "File exists"),
        (["run", "startup", "PI"], "afile/x", "Not a directory"),
        (["compare"], "afile/x", "Not a directory"),
    ], ids=["pretrain", "run", "compare"])
    def test_uncreatable_output_dir_exits_1(
        self, tmp_path, caplog, capsys, command, out, reason
    ):
        (tmp_path / "afile").write_text("a regular file\n")
        out = tmp_path / out
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(command + ["--out", str(out)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"cannot create output directory {out}: {reason}"]
        assert capsys.readouterr().out == ""  # compare prints no table
        assert (tmp_path / "afile").read_text() == "a regular file\n"

    @pytest.mark.parametrize("command, artifact", [
        (["pretrain"], "critic.mlp"),
        (["run", "startup", "PI"], "metrics.csv"),
        (["run", "startup", "PI"], "startup_PI.csv"),
        (["compare"], "startup_HDP.csv"),
    ], ids=["pretrain", "run-metrics", "run-trace", "compare"])
    def test_directory_in_an_artifacts_place_exits_1(
        self, fast_snapshots, tmp_path, caplog, capsys, command, artifact
    ):
        if command != ["pretrain"]:
            _copy_snapshots(tmp_path, fast_snapshots)
        (tmp_path / artifact).mkdir()
        config = tmp_path / "cell.ini"
        config.write_text(FAST_PRETRAIN + "\n[run]\nscenarios = startup\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(command + ["--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"cannot write {tmp_path / artifact}: Is a directory"]
        assert (tmp_path / artifact).is_dir()
        if command == ["compare"]:
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            assert [row.split()[2:] for row in rows] == [
                rows[0].split()[2:], ["-"] * 3
            ]
            assert "-" not in rows[0].split()

    @pytest.mark.parametrize("command", [["run", "startup", "PI"], ["compare"]],
                             ids=["run", "compare"])
    def test_unopenable_lock_file_exits_1_with_one_line(
        self, fast_snapshots, tmp_path, caplog, capsys, command
    ):
        # a directory where the metrics file's lock file goes
        _copy_snapshots(tmp_path, fast_snapshots)
        lock = tmp_path / ".metrics.csv.lock"
        lock.mkdir()
        config = tmp_path / "cell.ini"
        config.write_text("[run]\nscenarios = startup\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(command + ["--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        cells = 2 if command == ["compare"] else 1
        assert _error_lines(caplog) == [f"cannot open lock file {lock}: Is a directory"] * cells
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".metrics.csv.lock", "action.mlp", "cell.ini", "critic.mlp"
        ]
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        if command == ["compare"]:
            assert [row.split() for row in out.out.strip().splitlines()[1:]] == [
                ["startup", tag, "-", "-", "-"] for tag in ("PI", "HDP")
            ]

    def test_too_many_substeps_exits_1_with_one_line(self, tmp_path, caplog, monkeypatch):
        # 10^6 sub-steps per period: refused before any propagator is built
        def no_propagator(*args):
            raise AssertionError("a propagator was built")

        monkeypatch.setattr(plant, "_Propagator", no_propagator)
        config = tmp_path / "fine.ini"
        config.write_text("[plant]\ndt = 5e-11\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "PI", "--config", str(config),
                           "--out", str(tmp_path)])
        assert rc == 1
        assert _error_lines(caplog) == [
            "dt=5e-11 makes 1000000 sub-steps per switching period; at most 1000"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fine.ini"]

    @pytest.mark.parametrize("command, artifact", [
        (["pretrain"], "critic.mlp"),
        (["pretrain"], "action.mlp"),
        (["pretrain"], "pretrain_residuals.csv"),
        (["run", "startup", "PI"], "startup_PI.csv"),
        (["run", "startup", "PI"], "metrics.csv"),
    ], ids=["pretrain-critic", "pretrain-action", "pretrain-residuals",
            "run-trace", "run-metrics"])
    def test_failed_write_leaves_every_artifact_as_it_was(
        self, fast_snapshots, tmp_path, command, artifact
    ):
        # the artifacts of an earlier pretrain (seed 0) and run, one of them
        # replaced by a directory; a failed command writes none of the rest
        earlier = {
            name: (fast_snapshots / name).read_bytes()
            for name in ("critic.mlp", "action.mlp", "pretrain_residuals.csv")
        }
        earlier["startup_PI.csv"] = b"an earlier trace\n"
        earlier["metrics.csv"] = (",".join(cli.METRICS_FIELDS) + "\n").encode()
        for name, data in earlier.items():
            if name != artifact:
                (tmp_path / name).write_bytes(data)
        (tmp_path / artifact).mkdir()
        config = tmp_path / "cell.ini"
        config.write_text(FAST_PRETRAIN)
        before = _files(tmp_path)
        rc = cli.main(command + ["--config", str(config), "--out", str(tmp_path),
                                 "--seed", "1"])
        assert rc == 1
        assert _files(tmp_path) == before

    # a 0.1 s switching period: no whole period in a 50 ms scenario, and one
    # (no transition) in a 10 ms excitation hold
    LONG_PERIOD = "[plant]\nf_sw = 10.0\ndt = 0.001\n\n[run]\nscenarios = startup\n"
    NO_HOLD = ("[plant] switching period 0.1 s leaves fewer than 2 periods in "
               "the 0.01 s excitation hold")
    NO_SCENARIO = ("[plant] switching period 0.1 s leaves no whole period in "
                   "the 0.05 s startup scenario")

    def test_long_switching_period_pretrain_exits_1(self, tmp_path, caplog):
        config = tmp_path / "long.ini"
        config.write_text(self.LONG_PERIOD)
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [self.NO_HOLD]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.ini"]

    def test_source_above_the_setpoint_pretrain_exits_1(self, tmp_path, caplog):
        # a boost converter cannot hold 200 V below a 250 V source
        config = tmp_path / "buck.ini"
        config.write_text("[plant]\nv_s = 250.0\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(out)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["[plant] no boost solution for v_set=200.0, v_s=250.0"]
        assert list(out.iterdir()) == []

    def test_long_switching_period_run_exits_1(self, tmp_path, caplog):
        config = tmp_path / "long.ini"
        config.write_text(self.LONG_PERIOD)
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "PI", "--config", str(config),
                           "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [self.NO_SCENARIO]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.ini"]

    def test_long_switching_period_compare_shows_failed_cells(
        self, fast_snapshots, tmp_path, caplog, capsys
    ):
        _copy_snapshots(tmp_path, fast_snapshots)
        config = tmp_path / "long.ini"
        config.write_text(self.LONG_PERIOD)
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [self.NO_SCENARIO] * 2
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split() for row in rows] == [
            ["startup", tag, "-", "-", "-"] for tag in ("PI", "HDP")
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "action.mlp", "critic.mlp", "long.ini"
        ]

    # a 0.5 ns switching period at one sub-step: 10^8 periods in a 50 ms
    # scenario and 2 * 10^7 in a 10 ms excitation hold
    SHORT_PERIOD = "[plant]\nf_sw = 2e9\ndt = 5e-10\n\n[run]\nscenarios = startup\n"
    HOLD_TOO_LONG = ("[plant] switching period 5e-10 s makes 20000000 periods per "
                     "0.01 s excitation hold and 800000000 in [pretrain] n_episodes x "
                     "n_holds = 4 x 10 holds; at most 100000")
    SCENARIO_TOO_LONG = ("[plant] switching period 5e-10 s makes 100000000 periods in "
                         "the 0.05 s startup scenario; at most 100000")

    @pytest.mark.parametrize("command", [["pretrain"], ["run", "startup", "PI"],
                                         ["run", "startup", "HDP"], ["compare"]],
                             ids=["pretrain", "run-PI", "run-HDP", "compare"])
    def test_too_many_periods_exits_1_before_any_period(
        self, fast_snapshots, tmp_path, caplog, capsys, monkeypatch, command
    ):
        def no_period(*args):
            raise AssertionError("a period was simulated")

        monkeypatch.setattr(cli.sim, "step", no_period)
        if command != ["pretrain"]:
            _copy_snapshots(tmp_path, fast_snapshots)
        config = tmp_path / "short.ini"
        config.write_text(self.SHORT_PERIOD)
        before = _files(tmp_path)
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(command + ["--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        cells = 2 if command == ["compare"] else 1
        message = self.HOLD_TOO_LONG if command == ["pretrain"] else self.SCENARIO_TOO_LONG
        assert _error_lines(caplog) == [message] * cells
        assert _files(tmp_path) == before
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        if command == ["compare"]:
            assert [row.split() for row in out.out.strip().splitlines()[1:]] == [
                ["startup", tag, "-", "-", "-"] for tag in ("PI", "HDP")
            ]

    def test_excitation_log_too_long_pretrain_exits_1_before_any_period(
        self, tmp_path, caplog, monkeypatch
    ):
        # 10^6 episodes of 10 holds of 200 periods at the shipped f_sw
        def no_period(*args):
            raise AssertionError("a period was simulated")

        monkeypatch.setattr(cli.sim, "step", no_period)
        config = tmp_path / "long_log.ini"
        config.write_text("[pretrain]\nn_episodes = 1000000\n")
        before = _files(tmp_path)
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        assert _error_lines(caplog) == [
            "[plant] switching period 5e-05 s makes 200 periods per 0.01 s excitation "
            "hold and 2000000000 in [pretrain] n_episodes x n_holds = 1000000 x 10 "
            "holds; at most 100000"
        ]
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("line", ["l_ind = nan", "c_out = inf", "v_s = -inf"])
    def test_non_finite_plant_value_exits_1(self, tmp_path, caplog, line):
        config = tmp_path / "bad.ini"
        config.write_text(f"[plant]\n{line}\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(
                ["run", "startup", "PI", "--config", str(config), "--out", str(tmp_path)]
            )
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"{line.split()[0]} must be finite"]
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("section, line, message", [
        ("pi", "kp = nan", "kp must be finite"),
        ("pi", "kp = -1.0", "kp must be >= 0"),
        ("plant", "v_s = 70.0", "[plant] v_s schedule leaves the 54-66 V range"),
    ], ids=["kp-nan", "kp-negative", "v_s-off-nameplate"])
    def test_bad_value_exits_1_with_one_line(self, tmp_path, caplog, section, line, message):
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{line}\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(
                ["run", "startup", "PI", "--config", str(config), "--out", str(tmp_path)]
            )
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [message]
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("line, scenario, message", [
        ("r_load = 200.0", "load_change",
         "[plant] load_change step at 0.025 s changes neither "
         "v_s (60 V) nor r_load (200 ohm)"),
        ("v_s = 54.0", "input_change",
         "[plant] input_change step at 0.025 s changes neither "
         "v_s (54 V) nor r_load (80 ohm)"),
    ], ids=["load_change", "input_change"])
    def test_nominal_point_on_the_step_edge_exits_1(
        self, tmp_path, caplog, line, scenario, message
    ):
        config = tmp_path / "edge.ini"
        config.write_text(f"[plant]\n{line}\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(
                ["run", scenario, "PI", "--config", str(config), "--out", str(tmp_path)]
            )
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [message]
        assert not (tmp_path / f"{scenario}_PI.csv").exists()
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("line", ["r_load = 200.0", "v_s = 54.0"])
    def test_startup_at_the_nameplate_edge_runs(self, tmp_path, line):
        config = tmp_path / "edge.ini"
        config.write_text(f"[plant]\n{line}\n")
        rc = cli.main(
            ["run", "startup", "PI", "--config", str(config), "--out", str(tmp_path)]
        )
        assert rc == 0

    def test_unknown_scenario_exits_1_and_lists_names(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "warp", "PI", "--out", str(tmp_path)])
        assert rc == 1
        assert "startup" in caplog.text and "input_change" in caplog.text

    def test_unknown_controller_exits_1_and_lists_tags(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "LQR", "--out", str(tmp_path)])
        assert rc == 1
        assert "PI" in caplog.text and "HDP-frozen" in caplog.text

    def test_removed_inner_epoch_key_exits_1(self, tmp_path, caplog):
        config = tmp_path / "old.ini"
        config.write_text("[hdp]\nepochs_critic = 1\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "PI", "--config", str(config)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith("unknown key 'epochs_critic' in [hdp]; valid: ")

    # the nets' scales, the duty window and the utility's weights are
    # constants, not config keys
    @pytest.mark.parametrize("key", ["norm_v_o", "norm_i_l", "norm_e_v", "norm_e_i",
                                     "norm_duty", "duty_min", "duty_max", "k_v", "k_i"])
    def test_removed_scale_and_window_keys_exit_1(self, tmp_path, caplog, key):
        config = tmp_path / "old.ini"
        config.write_text(f"[hdp]\n{key} = 0.5\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "PI", "--config", str(config),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert _error_lines(caplog) == [
            f"unknown key {key!r} in [hdp]; valid: gamma lr_critic lr_action"
        ]

    def test_scenario_listed_twice_exits_1_with_one_line(self, tmp_path, caplog, capsys):
        config = tmp_path / "twice.ini"
        config.write_text("[run]\nscenarios = startup load_change startup\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["compare", "--config", str(config), "--out", str(out)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["scenario 'startup' listed twice in [run] scenarios"]
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_bad_config_key_exits_1(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[plant]\nvolts = 60\n")
        rc = cli.main(["run", "startup", "PI", "--config", str(config)])
        assert rc == 1

    def test_defaults_echoed_to_log(self, tmp_path, caplog):
        config = tmp_path / "partial.ini"
        config.write_text("[plant]\nv_s = 60.0\n")
        with caplog.at_level(logging.INFO, logger="boosthdp.cli"):
            cli.main(["run", "warp", "PI", "--config", str(config)])
        # the explicit key is not echoed; an untouched one is, with value
        assert "default [plant] v_s" not in caplog.text
        assert "default [hdp] gamma = 0.85" in caplog.text
        assert "default [run] seed = 0" in caplog.text

    def test_seed_flag_suppresses_seed_echo(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="boosthdp.cli"):
            cli.main(["run", "warp", "PI", "--seed", "5", "--out", str(tmp_path)])
        assert "default [run] seed" not in caplog.text
        assert "default [run] out" not in caplog.text


# the budget of the exit-code property: 1 episode of 2 holds, 6 TD epochs
# and 2 clone epochs
TINY_PRETRAIN = {
    ("pretrain", "n_episodes"): 1, ("pretrain", "n_holds"): 2,
    ("pretrain", "max_epochs"): 6, ("pretrain", "clone_epochs"): 2,
}
PROPERTY_COMMANDS = (["pretrain"], ["run", "startup", "HDP"],
                     ["run", "load_change", "PI"], ["compare"])


@st.composite
def edge_configs(draw):
    """1 to 3 float keys, each at an edge value: 0, the negated default,
    the smallest and largest magnitudes, or the default scaled."""
    keys = draw(st.lists(st.sampled_from(FLOAT_KEYS), min_size=1, max_size=3, unique=True))
    values = {}
    for section, key in keys:
        default = cli._SCHEMA[section][key][1]
        values[section, key] = draw(st.sampled_from(
            [0.0, -default, 1e-300, 1e300, 5e-324]
            + [default * factor for factor in (1e-3, 0.5, 2.0, 1e3)]
        ))
    return values


def _config_text(values):
    sections = {}
    for (section, key), value in {**TINY_PRETRAIN, **values}.items():
        text = repr(value) if isinstance(value, float) else str(value)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(
        f"[{section}]\n" + "".join(line + "\n" for line in lines) + "\n"
        for section, lines in sections.items()
    )


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Write a warning to stderr, where a command run alone prints it."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


class TestExitCodeProperty:
    """Whatever the config, every command ends in a documented exit code,
    and prints no traceback and no warning."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # each example a config that once ended in a traceback, a wrong exit
    # code or unbounded work
    @example({("plant", "v_s"): 250.0})
    @example({("plant", "c_out"): 1e-12})
    @example({("plant", "dt"): 5e-11})
    @example({("run", "scenarios"): "startup startup"})
    @example({("plant", "f_sw"): 2e9, ("plant", "dt"): 5e-10})
    @example({("plant", "f_sw"): 5e-324})
    @example({("plant", "dt"): 5e-324})
    @given(values=edge_configs())
    def test_every_command_exits_0_1_or_2(self, tmp_path_factory, capfd, caplog, values):
        out = tmp_path_factory.mktemp("edge")
        config = out / "edge.ini"
        config.write_text(_config_text(values))
        capfd.readouterr()
        caplog.clear()
        with warnings.catch_warnings():
            # forked workers inherit this, so theirs reach stderr too
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            codes = [
                cli.main(command + ["--config", str(config), "--out", str(out)])
                for command in PROPERTY_COMMANDS
            ]
        assert set(codes) <= {0, 1, 2}
        captured = capfd.readouterr()
        for text in (captured.out, captured.err, caplog.text):
            assert "Traceback" not in text and "Warning" not in text


class TestPretrainCommand:
    def test_writes_snapshots_and_residuals(self, fast_snapshots):
        for name in ("critic.mlp", "action.mlp", "pretrain_residuals.csv"):
            path = fast_snapshots / name
            assert path.is_file(), name
            print(f"{name}: {path.stat().st_size} bytes")

    def test_residual_csv_shape(self, fast_snapshots):
        with open(fast_snapshots / "pretrain_residuals.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_squared_residual"]
        body = rows[1:]
        # epoch 0 is the untrained residual; at most max_epochs sweeps follow
        assert [r[0] for r in body] == [str(i) for i in range(len(body))]
        assert 2 <= len(body) <= 9
        values = [float(r[1]) for r in body]
        assert values[-1] < values[0]

    @pytest.mark.parametrize("epochs, reason", [(3, "plateau"), (8, "epoch cap")])
    def test_log_names_why_training_stopped(
        self, tmp_path, caplog, monkeypatch, epochs, reason
    ):
        def fake_pretrain_critic(*args, **kwargs):
            return make_critic(), [1.0 / (1 + e) for e in range(epochs + 1)]

        monkeypatch.setattr(cli.sim, "pretrain_critic", fake_pretrain_critic)
        config = tmp_path / "fast.ini"
        config.write_text(FAST_PRETRAIN)  # max_epochs = 8
        with caplog.at_level(logging.INFO, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 0
        assert f"critic: {epochs} epochs (stopped by {reason})" in caplog.text

    def test_same_seed_same_bytes(self, tmp_path):
        config = tmp_path / "fast.ini"
        config.write_text(FAST_PRETRAIN)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = cli.main(
                ["pretrain", "--config", str(config), "--out", str(out), "--seed", "9"]
            )
            assert rc == 0
            outs.append(out)
        for name in ("critic.mlp", "action.mlp", "pretrain_residuals.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical seeded runs"

    def test_different_seed_different_critic(self, tmp_path, fast_snapshots):
        config = tmp_path / "fast.ini"
        config.write_text(FAST_PRETRAIN)
        out = tmp_path / "s1"
        rc = cli.main(
            ["pretrain", "--config", str(config), "--out", str(out), "--seed", "1"]
        )
        assert rc == 0
        assert (out / "critic.mlp").read_bytes() != (
            fast_snapshots / "critic.mlp"
        ).read_bytes()


    def test_non_finite_update_exits_2_with_one_line(self, tmp_path):
        config = tmp_path / "huge_rate.ini"
        config.write_text("[pretrain]\nlearning_rate = 1e200\nn_episodes = 1\nn_holds = 2\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "boosthdp.cli", "pretrain",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=MODULE_ENV,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert [ln for ln in lines if "failed" in ln] == [lines[-1]]
        assert lines[-1] == (
            "pretraining failed: update would produce non-finite parameters"
        )
        assert list(out.iterdir()) == []


    def test_clone_no_better_than_a_constant_exits_2_with_one_line(
        self, tmp_path, caplog
    ):
        config = tmp_path / "huge_clone_rate.ini"
        config.write_text(
            "[pretrain]\nclone_learning_rate = 1e200\nn_episodes = 1\n"
            "n_holds = 2\nmax_epochs = 2\n"
        )
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(out)])
        assert rc == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith("pretraining failed: behavior cloning failed")
        assert list(out.iterdir()) == []

    def test_runaway_excitation_exits_2_with_one_line(self, tmp_path, caplog):
        # a picofarad output capacitor: the excitation's first period sends
        # v_o to NaN, which the teacher's duty would carry into the plant
        config = tmp_path / "runaway.ini"
        config.write_text("[plant]\nc_out = 1e-12\n" + FAST_PRETRAIN)
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(out)])
        assert rc == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            "pretraining failed: excitation episode 0, hold 0: "
            "v_o=nan V exceeded 2x setpoint 200.0 V"
        ]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_1_with_one_line(self, tmp_path, caplog, where):
        argv = ["pretrain", "--out", str(tmp_path / "out")]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            config = tmp_path / "seed.ini"
            config.write_text("[run]\nseed = -1\n")
            argv += ["--config", str(config)]
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(argv)
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["seed must be >= 0"]
        assert not (tmp_path / "out").exists()


class TestRunCommand:
    def test_pi_run_writes_trace_and_metrics(self, tmp_path):
        rc = cli.main(["run", "startup", "PI", "--out", str(tmp_path)])
        assert rc == 0
        trace = read_trace_csv(tmp_path / "startup_PI.csv")
        assert len(trace) == 1000
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert (rows[0]["scenario"], rows[0]["controller"]) == ("startup", "PI")
        print("metrics row:", rows[0])

    def test_rerun_replaces_metrics_row(self, tmp_path):
        for _ in range(2):
            assert cli.main(["run", "startup", "PI", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_metrics_accumulate_per_pair(self, fast_snapshots, tmp_path):
        config = fast_snapshots / "fast.ini"
        for scenario in ("startup", "load_change"):
            rc = cli.main(
                ["run", scenario, "PI", "--config", str(config), "--out", str(tmp_path)]
            )
            assert rc == 0
        with open(tmp_path / "metrics.csv", newline="") as fh:
            pairs = [(r["scenario"], r["controller"]) for r in csv.DictReader(fh)]
        assert pairs == [("startup", "PI"), ("load_change", "PI")]

    @pytest.mark.parametrize("content", FOREIGN_METRICS.values(), ids=FOREIGN_METRICS)
    def test_foreign_metrics_file_exits_1_with_one_line(self, tmp_path, caplog, content):
        path = tmp_path / "metrics.csv"
        path.write_bytes(content)
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "PI", "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"cannot update {path}: not a boosthdp metrics file"]
        assert path.read_bytes() == content
        assert not (tmp_path / "startup_PI.csv").exists()  # nor the trace

    def test_empty_metrics_file_has_no_rows(self, tmp_path):
        (tmp_path / "metrics.csv").write_text("")
        assert cli.main(["run", "startup", "PI", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "metrics.csv", newline="") as fh:
            pairs = [(r["scenario"], r["controller"]) for r in csv.DictReader(fh)]
        assert pairs == [("startup", "PI")]

    def test_concurrent_upserts_keep_every_row(self, tmp_path):
        path = tmp_path / "metrics.csv"
        children = [
            subprocess.Popen(
                [sys.executable, "-c", UPSERT_CHILD, str(path), prefix],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=MODULE_ENV,
            )
            for prefix in ("a", "b")
        ]
        try:
            for child in children:
                assert child.stdout.readline() == "ready\n"
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
            for child in children:
                child.communicate(timeout=120)
                assert child.returncode == 0
        finally:
            for child in children:
                child.kill()
                child.communicate()
        with open(path, newline="") as fh:
            names = sorted(r["scenario"] for r in csv.DictReader(fh))
        assert names == sorted(f"{p}{k}" for p in "ab" for k in range(40))

    @pytest.mark.parametrize("command, artifacts", [
        (["pretrain"], ["critic.mlp", "action.mlp", "pretrain_residuals.csv"]),
        (["run", "startup", "PI"], ["startup_PI.csv", "metrics.csv"]),
    ], ids=["pretrain", "run"])
    def test_each_artifact_renamed_once(self, tmp_path, monkeypatch, command, artifacts):
        # a set's writers write the temporary files they are given in place
        replace = os.replace
        targets = []

        def recording_replace(src, dst):
            targets.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        config = tmp_path / "fast.ini"
        config.write_text(FAST_PRETRAIN)
        out = tmp_path / "out"
        assert cli.main(command + ["--config", str(config), "--out", str(out)]) == 0
        assert targets == artifacts
        assert sorted(p.name for p in out.iterdir() if p.suffix != ".lock") == sorted(artifacts)

    def test_trace_bytes_reproducible(self, tmp_path):
        names = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["run", "startup", "PI", "--out", str(out)]) == 0
            names.append(out / "startup_PI.csv")
        assert names[0].read_bytes() == names[1].read_bytes()

    def test_load_change_trace_schedule(self, fast_snapshots, tmp_path):
        config = fast_snapshots / "fast.ini"
        rc = cli.main(
            ["run", "load_change", "PI", "--config", str(config), "--out", str(tmp_path)]
        )
        assert rc == 0
        trace = read_trace_csv(tmp_path / "load_change_PI.csv")
        before = [r.r_load for r in trace if r.t < 0.025]
        after = [r.r_load for r in trace if r.t >= 0.025]
        assert set(before) == {80.0} and set(after) == {200.0}

    def test_plant_values_set_the_nominal_point(self, tmp_path):
        # the README's example [plant] values: every scenario starts at
        # 57 V / 100 ohm, and the steps go to the nameplate edges
        config = tmp_path / "readme.ini"
        config.write_text("[plant]\nv_s = 57.0\nr_load = 100.0\n")
        assert cli.main(["run", "startup", "PI", "--out", str(tmp_path / "nominal")]) == 0
        traces = {}
        for scenario in ("startup", "load_change", "input_change"):
            rc = cli.main(["run", scenario, "PI", "--config", str(config),
                           "--out", str(tmp_path)])
            assert rc == 0
            traces[scenario] = read_trace_csv(tmp_path / f"{scenario}_PI.csv")
        assert (tmp_path / "startup_PI.csv").read_bytes() != (
            tmp_path / "nominal" / "startup_PI.csv"
        ).read_bytes()
        startup = traces["startup"]
        assert {r.v_s for r in startup} == {57.0} and {r.r_load for r in startup} == {100.0}
        for scenario, column, after in (("load_change", "r_load", 200.0),
                                        ("input_change", "v_s", 54.0)):
            values = [(r.t < 0.025, getattr(r, column)) for r in traces[scenario]]
            assert {v for pre, v in values if pre} == {getattr(startup[0], column)}
            assert {v for pre, v in values if not pre} == {after}

    def test_hdp_without_snapshots_says_pretrain_first(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "HDP", "--out", str(tmp_path)])
        assert rc == 1
        assert "pretrain first" in caplog.text
        assert not (tmp_path / "metrics.csv").exists()

    def test_hdp_run_from_snapshots(self, fast_snapshots, tmp_path):
        config = fast_snapshots / "fast.ini"
        # snapshots live in the module fixture dir; write traces there too
        rc = cli.main(
            ["run", "load_change", "HDP-frozen", "--config", str(config),
             "--out", str(fast_snapshots)]
        )
        assert rc == 0
        assert (fast_snapshots / "load_change_HDP-frozen.csv").is_file()

    def test_corrupt_snapshot_exits_1(self, tmp_path, caplog):
        make_action().save(tmp_path / "action.mlp")
        (tmp_path / "critic.mlp").write_text(make_critic().dumps()[:60])
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "HDP-frozen", "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert "corrupt network snapshot" in errors[0] and "critic.mlp" in errors[0]
        assert not (tmp_path / "metrics.csv").exists()

    def test_wrong_topology_snapshot_exits_1(self, tmp_path, caplog):
        Mlp.init([4, 5, 1], "linear", seed=0).save(tmp_path / "critic.mlp")
        make_action().save(tmp_path / "action.mlp")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", "HDP-frozen", "--out", str(tmp_path)])
        assert rc == 1
        assert "critic must map 5 -> 1" in caplog.text

    def test_non_finite_update_exits_2(self, fast_snapshots, tmp_path, caplog):
        for name in ("critic.mlp", "action.mlp"):
            (tmp_path / name).write_bytes((fast_snapshots / name).read_bytes())
        config = tmp_path / "huge_rate.ini"
        config.write_text("[hdp]\nlr_critic = 1e300\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(
                ["run", "startup", "HDP", "--config", str(config), "--out", str(tmp_path)]
            )
        assert rc == 2
        assert "non-finite" in caplog.text
        assert not (tmp_path / "metrics.csv").exists()

    def test_refused_update_prints_no_numpy_warning(self, fast_snapshots, tmp_path):
        for name in ("critic.mlp", "action.mlp"):
            (tmp_path / name).write_bytes((fast_snapshots / name).read_bytes())
        config = tmp_path / "huge_rate.ini"
        config.write_text("[hdp]\nlr_critic = 1e300\n")
        proc = subprocess.run(
            [sys.executable, "-m", "boosthdp.cli", "run", "startup", "HDP",
             "--config", str(config), "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=MODULE_ENV,
        )
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_divergence_exits_2(self, tmp_path, caplog):
        config = tmp_path / "div.ini"
        # duty pinned high open-loop charges the inductor until the output
        # blows through the divergence guard
        config.write_text("[pi]\nkp = 0.0\nki = 0.0\nduty_ff = 0.93\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(
                ["run", "startup", "PI", "--config", str(config), "--out", str(tmp_path)]
            )
        assert rc == 2
        assert "diverged" in caplog.text

    @pytest.mark.parametrize("tag", ["PI", "HDP"])
    def test_nan_inductor_current_exits_2(
        self, fast_snapshots, tmp_path, monkeypatch, caplog, tag
    ):
        # a NaN current, with the voltage in range, ends the run as a
        # divergence: neither a trace of NaN rows nor an unmapped error
        _copy_snapshots(tmp_path, fast_snapshots)
        monkeypatch.setattr(
            cli.sim, "step", lambda state, duty, params: PlantState(i_l=math.nan, v_o=200.0)
        )
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["run", "startup", tag, "--out", str(tmp_path)])
        assert rc == 2
        assert _error_lines(caplog) == [
            f"startup {tag} diverged: startup/{tag}: i_l=nan A exceeded the "
            f"1320.0 A current limit at t=0.000050 s"
        ]
        assert not (tmp_path / "metrics.csv").exists()


class TestCompareCommand:
    def test_table_and_exit_code(self, fast_snapshots, capsys):
        config = fast_snapshots / "fast2.ini"
        config.write_text(FAST_PRETRAIN + "\n[run]\nscenarios = startup load_change\n")
        rc = cli.main(
            ["compare", "--config", str(config), "--out", str(fast_snapshots)]
        )
        out = capsys.readouterr().out
        print(out)
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 2 scenarios x 2 controllers
        assert "settling_ms" in lines[0]
        for scenario in ("startup", "load_change"):
            tags = [ln.split()[1] for ln in lines[1:] if ln.startswith(scenario)]
            assert tags == ["PI", "HDP"]

    def test_partial_table_without_snapshots(self, tmp_path, capsys, caplog):
        config = tmp_path / "one.ini"
        config.write_text("[run]\nscenarios = startup\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        print(out)
        # PI cell succeeds, HDP cell fails but is still reported
        assert rc == 1
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "-" in lines[2].split()
        assert "pretrain first" in caplog.text
        with open(tmp_path / "metrics.csv", newline="") as fh:
            pairs = [(r["scenario"], r["controller"]) for r in csv.DictReader(fh)]
        assert pairs == [("startup", "PI")]

    def test_divergent_cell_reported_and_skipped(self, fast_snapshots, capsys):
        config = fast_snapshots / "div.ini"
        config.write_text(
            "[pi]\nkp = 0.0\nki = 0.0\nduty_ff = 0.93\n\n[run]\nscenarios = startup\n"
        )
        rc = cli.main(
            ["compare", "--config", str(config), "--out", str(fast_snapshots)]
        )
        out = capsys.readouterr().out
        assert rc == 2
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "-" in lines[1].split()      # PI cell failed
        assert "-" not in lines[2].split()  # HDP cell still ran

    def test_corrupt_snapshot_cell_reported(self, tmp_path, capsys):
        make_action().save(tmp_path / "action.mlp")
        (tmp_path / "critic.mlp").write_text("mlp v1\n5 5 5 1\ntanh linear\n0.1 0.2\n")
        config = tmp_path / "one.ini"
        config.write_text("[run]\nscenarios = startup\n")
        rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(lines) == 3
        assert "-" not in lines[1].split()  # PI cell ran
        assert "-" in lines[2].split()      # HDP cell could not load its critic

    def test_step_that_does_not_step_cells_reported(self, tmp_path, capsys):
        config = tmp_path / "edge.ini"
        config.write_text(
            "[plant]\nr_load = 200.0\n\n[run]\nscenarios = startup load_change\n"
        )
        rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        assert len(lines) == 5
        assert "-" not in lines[1].split()  # startup PI ran at the edge
        assert lines[3].split()[2:] == ["-"] * 3
        assert lines[4].split()[2:] == ["-"] * 3
        assert not (tmp_path / "load_change_PI.csv").exists()

    def test_non_finite_update_cell_reported(self, fast_snapshots, capsys):
        config = fast_snapshots / "huge_rate.ini"
        config.write_text("[hdp]\nlr_critic = 1e300\n\n[run]\nscenarios = startup\n")
        rc = cli.main(
            ["compare", "--config", str(config), "--out", str(fast_snapshots)]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 2
        assert len(lines) == 3
        assert "-" not in lines[1].split()
        assert "-" in lines[2].split()

    @pytest.mark.parametrize("content", FOREIGN_METRICS.values(), ids=FOREIGN_METRICS)
    def test_foreign_metrics_file_cells_reported(
        self, fast_snapshots, tmp_path, caplog, capsys, content
    ):
        _copy_snapshots(tmp_path, fast_snapshots)
        path = tmp_path / "metrics.csv"
        path.write_bytes(content)
        config = tmp_path / "one.ini"
        config.write_text("[run]\nscenarios = startup\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"cannot update {path}: not a boosthdp metrics file"] * 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[2:] for line in lines[1:]] == [["-"] * 3] * 2
        assert path.read_bytes() == content

    def test_compare_is_deterministic(self, fast_snapshots, capsys):
        config = fast_snapshots / "fast3.ini"
        config.write_text(FAST_PRETRAIN + "\n[run]\nscenarios = startup\n")
        outs = []
        for _ in range(2):
            rc = cli.main(
                ["compare", "--config", str(config), "--out", str(fast_snapshots)]
            )
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


# the failures below each write their files into out and return the config
# text that completes them


def _files(out):
    """Name -> bytes of every file in out but the metrics lock's sidecar."""
    return {
        path.name: path.read_bytes()
        for path in out.iterdir()
        if path.is_file() and path.name != ".metrics.csv.lock"
    }


def _copy_snapshots(out, fast_snapshots):
    for name in ("critic.mlp", "action.mlp"):
        (out / name).write_bytes((fast_snapshots / name).read_bytes())


def _corrupt_critic(out, fast_snapshots):
    make_action().save(out / "action.mlp")
    (out / "critic.mlp").write_text(make_critic().dumps()[:60])
    return ""


def _wide_critic(out, fast_snapshots):
    # a well-formed 5 -> 1 snapshot with a layer a few thousand units wide:
    # too large for the per-sample kernels
    make_action().save(out / "action.mlp")
    Mlp.init([5, 4000, 1], "linear", seed=0).save(out / "critic.mlp")
    return ""


def _runaway_pi(out, fast_snapshots):
    _copy_snapshots(out, fast_snapshots)
    return "[pi]\nkp = 0.0\nki = 0.0\nduty_ff = 0.93\n"


def _huge_critic_rate(out, fast_snapshots):
    _copy_snapshots(out, fast_snapshots)
    return "[hdp]\nlr_critic = 1e300\n"


class TestFailureMap:
    """run and compare map one cell's failure to the same line and code."""

    @pytest.mark.parametrize("setup, tag, code, reason", [
        (_corrupt_critic, "HDP", 1, "corrupt network snapshot"),
        (_wide_critic, "HDP", 1, "5-4000-1 net has 28001 parameters"),
        (_runaway_pi, "PI", 2, "diverged"),
        (_huge_critic_rate, "HDP", 2, "non-finite"),
    ], ids=["corrupt-snapshot", "wide-snapshot", "divergence", "non-finite-update"])
    def test_run_and_compare_agree(
        self, fast_snapshots, tmp_path, caplog, capsys, setup, tag, code, reason
    ):
        config = tmp_path / "cell.ini"
        config.write_text(setup(tmp_path, fast_snapshots) + "\n[run]\nscenarios = startup\n")
        errors = {}
        for command in (["run", "startup", tag], ["compare"]):
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
                rc = cli.main(command + ["--config", str(config), "--out", str(tmp_path)])
            assert rc == code, command
            errors[command[0]] = [
                r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR
            ]
        assert errors["run"] == errors["compare"]
        assert len(errors["run"]) == 1 and "\n" not in errors["run"][0]
        assert reason in errors["run"][0]
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        cells = {tuple(row.split()[:2]): row.split()[2:] for row in rows}
        assert cells.pop(("startup", tag)) == ["-"] * 3
        assert all("-" not in values for values in cells.values())


def _rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _error_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


class TestWorkerProcesses:
    """compare's groups of cells and pretrain's critic and clone run as jobs
    in the command's process and in forked workers; every effect stays in
    the command's process, in table order."""

    def test_compare_matches_serial_runs(self, fast_snapshots, tmp_path, capsys):
        config = tmp_path / "fast.ini"
        config.write_text(FAST_PRETRAIN)
        serial, forked = tmp_path / "serial", tmp_path / "forked"
        for out in (serial, forked):
            out.mkdir()
            _copy_snapshots(out, fast_snapshots)
        cells = [(s, tag) for s in SCENARIO_NAMES for tag in ("PI", "HDP")]
        for scenario, tag in cells:
            assert cli.main(["run", scenario, tag, "--config", str(config),
                             "--out", str(serial)]) == 0
        capsys.readouterr()
        assert cli.main(["compare", "--config", str(config), "--out", str(forked)]) == 0
        table = capsys.readouterr().out
        assert _files(forked) == _files(serial)
        assert len(_files(forked)) == 2 + 1 + 6  # snapshots, metrics.csv, traces
        # the table the serial runs' metrics give
        header, *rows = _rows_of(serial / "metrics.csv")
        expected = [table.splitlines()[0]]
        for row in rows:
            values = dict(zip(header, row))
            metrics = cli.sim.Metrics(*(
                value == "True" if value in ("True", "False") else float(value)
                for value in row[2:]
            ))
            expected.append(cli._table_row(values["scenario"], values["controller"], metrics))
        assert table == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("command", ["compare", "pretrain"])
    def test_same_bytes_on_one_cpu_as_on_all(self, fast_snapshots, tmp_path, capsys, command):
        # which process runs a job depends on the CPU count; the output does not
        config = tmp_path / "fast.ini"
        config.write_text(FAST_PRETRAIN)
        cpus = os.sched_getaffinity(0)
        files, stdout = [], []
        for name, pinned in (("all", cpus), ("one", {min(cpus)})):
            out = tmp_path / name
            out.mkdir()
            if command == "compare":
                _copy_snapshots(out, fast_snapshots)
            os.sched_setaffinity(0, pinned)
            try:
                assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
            finally:
                os.sched_setaffinity(0, cpus)
            files.append(_files(out))
            stdout.append(capsys.readouterr().out)
        assert sorted(files[0]) == sorted(files[1])
        assert [name for name in files[0] if files[0][name] != files[1][name]] == []
        assert stdout[0] == stdout[1]

    def test_failures_logged_in_cell_order(self, fast_snapshots, tmp_path, caplog):
        # every cell fails, PI by divergence and HDP by a refused update, in
        # workers that finish in no particular order
        _copy_snapshots(tmp_path, fast_snapshots)
        config = tmp_path / "cells.ini"
        config.write_text(_runaway_pi(tmp_path, fast_snapshots)
                          + _huge_critic_rate(tmp_path, fast_snapshots))
        errors = {}
        for command in [["run", s, tag] for s in SCENARIO_NAMES for tag in ("PI", "HDP")]:
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
                assert cli.main(command + ["--config", str(config), "--out", str(tmp_path)]) == 2
            errors[tuple(command[1:])] = _error_lines(caplog)
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            assert cli.main(["compare", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert _error_lines(caplog) == [line for lines in errors.values() for line in lines]
        assert len(_error_lines(caplog)) == 6

    @staticmethod
    def _lose_the_last_job(fast_snapshots, tmp_path, monkeypatch, caplog, capfd,
                           scenarios, lost):
        """compare with the worker of its last job (PI groups go after HDP
        groups, and a group of two cells before one of one) dying: the
        caller's first job waits until a worker has claimed the last, so
        every other group has a result, and every cell of the lost group
        shows - and logs the worker-lost line."""
        run_scenarios = cli.sim.run_scenarios
        started = tmp_path / "started"

        def dies_on_the_lost_group(specs, controller, *args):
            if os.getpid() == CALLER:
                wait_for(started)
            elif isinstance(controller, PiController) and specs[-1].name == lost[-1][0]:
                started.touch()
                exit_in_a_worker(1)
            return run_scenarios(specs, controller, *args)

        monkeypatch.setattr(cli.sim, "run_scenarios", dies_on_the_lost_group)
        _copy_snapshots(tmp_path, fast_snapshots)
        config = tmp_path / "cells.ini"
        config.write_text(f"[run]\nscenarios = {scenarios}\n")
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["compare", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 2
        errors = _error_lines(caplog)
        assert len(errors) == len(lost)
        for (scenario, tag), error in zip(lost, errors):
            assert re.fullmatch(
                rf"{scenario} {tag}: worker process ended without a result "
                r"\(exit codes (0, )*1(, 0)*\)", error
            )
        captured = capfd.readouterr()
        rows = {tuple(row.split()[:2]): row.split()[2:]
                for row in captured.out.strip().splitlines()[1:]}
        for cell in lost:
            assert rows.pop(cell) == ["-"] * 3
            assert not (tmp_path / f"{cell[0]}_{cell[1]}.csv").exists()
        assert len(rows) == 2 * len(scenarios.split()) - len(lost)
        assert all("-" not in values for values in rows.values())
        assert "Traceback" not in captured.err
        assert no_children()

    @needs_a_worker
    def test_lost_worker_in_compare(self, fast_snapshots, tmp_path, monkeypatch, caplog, capfd):
        self._lose_the_last_job(
            fast_snapshots, tmp_path, monkeypatch, caplog, capfd,
            "load_change input_change", [("load_change", "PI"), ("input_change", "PI")],
        )

    @needs_a_worker
    def test_lost_worker_of_a_one_cell_job_in_compare(
        self, fast_snapshots, tmp_path, monkeypatch, caplog, capfd
    ):
        self._lose_the_last_job(
            fast_snapshots, tmp_path, monkeypatch, caplog, capfd,
            "startup load_change input_change", [("startup", "PI")],
        )

    @needs_a_worker
    def test_lost_worker_in_pretrain(self, tmp_path, monkeypatch, caplog, capfd):
        # the critic, the caller's job, waits until a worker has claimed the clone
        pretrain_critic, started = cli.sim.pretrain_critic, tmp_path / "started"

        def waits(*args, **kwargs):
            wait_for(started)
            return pretrain_critic(*args, **kwargs)

        def dies(*args, **kwargs):
            started.touch()
            exit_in_a_worker(1)

        monkeypatch.setattr(cli.sim, "pretrain_critic", waits)
        monkeypatch.setattr(cli.sim, "clone_action", dies)
        config = tmp_path / "fast.ini"
        config.write_text(FAST_PRETRAIN)
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert _error_lines(caplog) == [
            "pretraining failed: worker process ended without a result (exit codes 1)"
        ]
        assert list(out.iterdir()) == []
        assert "Traceback" not in capfd.readouterr().err
        assert no_children()

    @staticmethod
    def _failing_critic(*args, **kwargs):
        raise cli.sim.PretrainingError("critic residual did not decrease")

    @pytest.mark.parametrize("critic_fails, clone_fails, reason", [
        (True, False, "critic residual did not decrease"),
        (False, True, "behavior cloning failed"),
        (True, True, "critic residual did not decrease"),
    ], ids=["critic", "clone", "both"])
    def test_pretrain_failure_reported(
        self, tmp_path, monkeypatch, caplog, critic_fails, clone_fails, reason
    ):
        if critic_fails:
            monkeypatch.setattr(cli.sim, "pretrain_critic", self._failing_critic)
        config = tmp_path / "fail.ini"
        config.write_text(
            "[pretrain]\nn_episodes = 1\nn_holds = 2\nmax_epochs = 2\n"
            + ("clone_learning_rate = 1e200\n" if clone_fails else "")
        )
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="boosthdp.cli"):
            rc = cli.main(["pretrain", "--config", str(config), "--out", str(out)])
        assert rc == 2
        errors = _error_lines(caplog)
        assert len(errors) == 1 and errors[0].startswith(f"pretraining failed: {reason}")
        assert list(out.iterdir()) == []

    # a cell whose simulation overflows in numpy (a RuntimeWarning unless
    # ignored) and then refuses the update, as a non-finite one would be; in
    # compare on more than one CPU the caller's job waits until a forked
    # worker has started the other, which then creates the file $STARTED
    OVERFLOWING_CELL = """\
import os
import sys
from pathlib import Path
import numpy as np
from boosthdp import cli, mlp
from forking import wait_for

caller, started = os.getpid(), Path(os.environ["STARTED"])

def overflowing(*args):
    if os.getpid() != caller:
        started.touch()
    elif sys.argv[1] == "compare" and len(os.sched_getaffinity(0)) > 1:
        wait_for(started)
    np.float64(1e300) * 1e300
    raise mlp.NonFiniteUpdateError("update would produce non-finite parameters")

cli.sim.run_scenario = cli.sim.run_scenarios = overflowing
sys.exit(cli.main(sys.argv[1:]))
"""

    def test_a_worker_inherits_mains_numpy_errstate(self, fast_snapshots, tmp_path):
        # compare runs the PI cell in a worker (on more than one CPU), run in
        # main's own process; both overflow in numpy and then refuse the update
        _copy_snapshots(tmp_path, fast_snapshots)
        config = tmp_path / "one.ini"
        config.write_text("[run]\nscenarios = startup\n")
        started = tmp_path / "started"
        # the child imports `forking` from this directory
        path = os.pathsep.join((MODULE_ENV["PYTHONPATH"], str(Path(__file__).parent)))
        env = {**MODULE_ENV, "PYTHONPATH": path, "STARTED": str(started)}
        for command, tags in ((["compare"], ("PI", "HDP")), (["run", "startup", "HDP"], ("HDP",))):
            proc = subprocess.run(
                [sys.executable, "-c", self.OVERFLOWING_CELL, *command,
                 "--config", str(config), "--out", str(tmp_path)],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 2, command
            errors = [ln for ln in proc.stderr.splitlines() if not ln.startswith("default ")]
            assert errors == [
                f"startup {tag} diverged: update would produce non-finite parameters"
                for tag in tags
            ], command
        assert started.exists() == (len(os.sched_getaffinity(0)) > 1)

    def test_run_loads_no_pool_machinery(self, tmp_path):
        code = (
            "import sys\nfrom boosthdp import cli\n"
            f"assert cli.main(['run', 'startup', 'PI', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=MODULE_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestConsoleEntry:
    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "boosthdp.cli", "--help"],
            capture_output=True, text=True, timeout=60, env=MODULE_ENV,
        )
        assert proc.returncode == 0
        assert "pretrain" in proc.stdout

    def test_module_invocation_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "boosthdp.cli", "run"],
            capture_output=True, text=True, timeout=60, env=MODULE_ENV,
        )
        assert proc.returncode == 1

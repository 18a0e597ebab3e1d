"""tools/diff_outputs.py, the check that only bits moved: two output
directories compared artifact by artifact."""

import csv
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from boosthdp import cli
from boosthdp.hdp import make_critic

ROOT = Path(__file__).parents[1]


def _load_tool():
    path = ROOT / "tools" / "diff_outputs.py"
    spec = importlib.util.spec_from_file_location("diff_outputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["diff_outputs"] = module
    spec.loader.exec_module(module)
    return module


diff_outputs = _load_tool()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A directory with one artifact of each kind."""
    out = tmp_path_factory.mktemp("reference")
    assert cli.main(["run", "startup", "PI", "--out", str(out)]) == 0
    make_critic(seed=0).save(out / "critic.mlp")
    (out / "pretrain_residuals.csv").write_text(
        "epoch,mean_squared_residual\n0,0.17551234567\n1,0.0086123456\n"
    )
    return out


@pytest.fixture
def copy(reference, tmp_path):
    out = tmp_path / "copy"
    shutil.copytree(reference, out)
    return out


def edit_csv(path, row, column, edit):
    """Replace one cell of a CSV file by edit(old cell)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row][col] = edit(rows[row][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def scaled(factor):
    return lambda cell: repr(float(cell) * factor)


def report(a, b):
    lines, failed = diff_outputs.compare(a, b)
    return dict(line.split(": ", 1) for line in lines), failed


def test_identical_directories(reference, copy, capsys):
    lines, failed = report(reference, copy)
    assert not failed
    assert lines.pop("printed values") == "equal"
    assert sorted(lines) == [
        "critic.mlp", "metrics.csv", "pretrain_residuals.csv", "startup_PI.csv"
    ]
    assert set(lines.values()) == {"bytes identical"}
    assert diff_outputs.main([str(reference), str(copy)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "printed values: equal"


def test_bits_that_move_below_printed_precision(reference, copy):
    edit_csv(copy / "startup_PI.csv", 500, "v_o", scaled(1.0 + 1e-13))
    edit_csv(copy / "startup_PI.csv", 10, "mode", lambda mode: "SWITCH_OFF_BLOCKED")
    edit_csv(copy / "pretrain_residuals.csv", 1, "mean_squared_residual", lambda _: "0.17551299")
    edit_csv(copy / "metrics.csv", 1, "iae", scaled(1.0 + 1e-9))
    critic = make_critic(seed=0)
    critic.params[3] *= 1.0 + 1e-15
    critic.save(copy / "critic.mlp")
    lines, failed = report(reference, copy)
    assert not failed
    trace = lines["startup_PI.csv"]
    assert trace.startswith("bytes differ; largest deviation ")
    assert trace.endswith(" of a column's maximum (v_o), 1 mode mismatches")
    assert 0.0 < float(trace.split()[4]) <= 1e-13
    assert lines["pretrain_residuals.csv"] == (
        "bytes differ; residual curve equal at %.4g (2 entries)"
    )
    assert lines["metrics.csv"] == "bytes differ; printed metrics equal"
    assert lines["critic.mlp"] == "bytes differ"
    assert lines["printed values"] == "equal"


@pytest.mark.parametrize("artifact, column, edit, line", [
    ("metrics.csv", "iae", scaled(1.001),
     "bytes differ; printed metrics differ in startup PI"),
    ("pretrain_residuals.csv", "mean_squared_residual", lambda _: "0.1756",
     "bytes differ; residual curve differs at %.4g in 1 of 2 entries"),
], ids=["metrics", "residuals"])
def test_printed_value_that_moves_exits_1(reference, copy, artifact, column, edit, line):
    edit_csv(copy / artifact, 1, column, edit)
    lines, failed = report(reference, copy)
    assert failed
    assert lines[artifact] == line
    assert lines["printed values"] == "differ"
    assert diff_outputs.main([str(reference), str(copy)]) == 1


def test_missing_artifact_exits_1(reference, copy):
    (copy / "startup_PI.csv").unlink()
    lines, failed = report(reference, copy)
    assert failed
    assert lines["startup_PI.csv"] == f"missing in {copy}"

"""tools/hash_outputs.py, the side-by-side bit-identity check: one in-process
run at the benchmark's reduced [pretrain] budget."""

import importlib.util
import re
import sys
from pathlib import Path

from boosthdp.sim import CONTROLLER_TAGS, SCENARIO_NAMES

ROOT = Path(__file__).parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_command_exits_0_and_every_artifact_is_hashed(tmp_path, capsys):
    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    hash_outputs = _load(ROOT / "tools" / "hash_outputs.py", "hash_outputs")
    config = tmp_path / "budget.ini"
    config.write_text(workloads.PRETRAIN_BUDGET)
    assert hash_outputs.main(["--config", str(config), "--seed", "0"]) == 0
    # each command's line, then one digest line per file it wrote
    blocks = []
    for line in capsys.readouterr().out.splitlines():
        if re.fullmatch("[0-9a-f]{64}  [^ ]+", line):
            digest, name = line.split("  ")
            blocks[-1][1][name] = digest
        else:
            blocks.append((line, {}))
    cells = [(s, t) for s in SCENARIO_NAMES for t in CONTROLLER_TAGS]
    commands = ["pretrain", "compare"] + [f"run {s} {t}" for s, t in cells]
    assert [line.split(":")[0] for line, _ in blocks] == commands
    assert all(": exit 0" in line for line, _ in blocks)
    assert re.fullmatch(r"compare: exit 0, table [0-9a-f]{64}", blocks[1][0])
    written = [sorted(files) for _, files in blocks]
    assert written[0] == sorted(["critic.mlp", "action.mlp", "pretrain_residuals.csv"])
    assert written[1] == sorted(
        ["metrics.csv"] + [f"{s}_{t}.csv" for s in SCENARIO_NAMES for t in ("PI", "HDP")]
    )
    assert written[2:] == [sorted(["metrics.csv", f"{s}_{t}.csv"]) for s, t in cells]
    # a run rewrites the trace compare wrote for its cell, with the same bytes
    compare = blocks[1][1]
    for (s, t), (_, files) in zip(cells, blocks[2:]):
        if t != "HDP-frozen":
            assert files[f"{s}_{t}.csv"] == compare[f"{s}_{t}.csv"]

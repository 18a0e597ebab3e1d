"""tools/bench_pairs.py: the paired-run summary on synthetic numbers, and
the alternation of its runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_pairs"] = module
    spec.loader.exec_module(module)
    return module


def result(wall_s, rate, failed=0, attempted=5):
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}},
    }


def test_summary_of_paired_runs(bench_pairs):
    parent_wall = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change_wall = [0.75 * w for w in parent_wall]
    change_wall[9] = 1.9  # a tie counts for neither side
    parent = [result(w, 10.0) for w in parent_wall]
    change = [result(w, 10.0) for w in change_wall]
    s = bench_pairs.summarize(parent, change, METRICS)
    wall = s["wall_s"]
    assert wall["parent"] == pytest.approx(
        {"q1": 1.225, "median": 1.45, "q3": 1.675, "iqr": 0.45}
    )
    assert wall["change"]["median"] == pytest.approx(0.75 * 1.45)
    assert wall["change_vs_parent_median"] == pytest.approx(-0.25)
    assert wall["change_better_pairs"] == "9/10"
    assert wall["median_gap_exceeds_parent_iqr"] is False  # 0.3625 < 0.45
    assert wall["within_bound"] is True
    assert wall["parent_runs"] == parent_wall and wall["change_runs"] == change_wall
    assert s["rate"]["change_better_pairs"] == "0/10"
    assert s["parent"] == s["change"] == {"failed": 0, "attempted": 50}


def test_direction_bound_and_failures(bench_pairs):
    parent = [result(1.0 + 0.01 * i, 10.0 + 0.01 * i) for i in range(4)]
    # slower by 30% (past the 25% bound), and a higher rate, which is better
    change = [result(1.3 * (1.0 + 0.01 * i), 12.0 + 0.01 * i, failed=i % 2) for i in range(4)]
    s = bench_pairs.summarize(parent, change, METRICS)
    assert s["wall_s"]["change_better_pairs"] == "0/4"
    assert s["wall_s"]["within_bound"] is False
    assert s["rate"]["change_better_pairs"] == "4/4"
    assert s["rate"]["median_gap_exceeds_parent_iqr"] is True
    assert s["change"] == {"failed": 2, "attempted": 20}
    text = bench_pairs.report(s, METRICS)
    assert "wall_s" in text and "+30.0%" in text
    assert "change: 2 of 20 invocations failed" in text


def test_main_alternates_sides_and_fails_on_a_failed_invocation(
    bench_pairs, tmp_path, monkeypatch, capsys
):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        return result(1.0, 1.0, failed=int(checkout.name == "p" and len(calls) == 5))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    rc = bench_pairs.main([str(tmp_path / "p"), str(tmp_path), "--workload", "pretrain",
                           "--pairs", "3", "--seconds", "1"])
    assert calls == ["p", tmp_path.name, tmp_path.name, "p", "p", tmp_path.name]
    assert rc == 1
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["workload"] == "pretrain" and summary["parent"]["failed"] == 1

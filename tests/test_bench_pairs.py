"""tools/bench_pairs.py: the paired-run summary on synthetic numbers, and
the alternation of its runs."""

import importlib.util
import json
import subprocess
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


def result(wall_s, rate, failed=0, attempted=5, nproc=2):
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}},
        "nproc": nproc,
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
    assert wall["claim_met"] is False  # 9/10 pairs, but inside the parent's IQR
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
    assert s["rate"]["claim_met"] is True and s["wall_s"]["claim_met"] is False
    assert s["change"] == {"failed": 2, "attempted": 20}
    text = bench_pairs.report(s, METRICS)
    assert "wall_s" in text and "+30.0%" in text
    assert "claim_met" in text.splitlines()[0] and "within_bound" in text.splitlines()[0]
    assert text.splitlines()[1].split()[-2:] == ["False", "False"]
    assert text.splitlines()[2].split()[-2:] == ["True", "True"]
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


def test_claim_needs_nine_of_ten_pairs(bench_pairs):
    parent = [result(1.0 + 0.01 * i, 1.0) for i in range(10)]
    # far below the parent in 8 pairs, above it in 2
    change = [result(0.5 if i < 8 else 2.0, 1.0) for i in range(10)]
    s = bench_pairs.summarize(parent, change, METRICS)["wall_s"]
    assert s["change_better_pairs"] == "8/10" and s["median_gap_exceeds_parent_iqr"] is True
    assert s["claim_met"] is False
    change[8] = result(0.5, 1.0)
    assert bench_pairs.summarize(parent, change, METRICS)["wall_s"]["claim_met"] is True


def test_main_alternates_the_pairs_of_every_workload(
    bench_pairs, tmp_path, monkeypatch, capsys
):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, "parent" if checkout.name == "p" else "change"))
        return result(1.0 if checkout.name == "p" else 0.5, 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    rc = bench_pairs.main([str(tmp_path / "p"), str(tmp_path), "--workload", "pretrain",
                           "--workload", "compare", "--pairs", "2", "--seconds", "1"])
    assert rc == 0
    assert calls == [
        ("pretrain", "parent"), ("pretrain", "change"),
        ("compare", "parent"), ("compare", "change"),
        ("pretrain", "change"), ("pretrain", "parent"),
        ("compare", "change"), ("compare", "parent"),
    ]
    lines = capsys.readouterr().out.splitlines()
    summaries = [json.loads(line) for line in lines[-2:]]
    assert [s["workload"] for s in summaries] == ["pretrain", "compare"]
    assert all(s["wall_s"]["change_better_pairs"] == "2/2" for s in summaries)
    assert "pretrain, seed 0:" in lines and "compare, seed 0:" in lines


def test_run_once_reads_the_environment_and_result_lines(bench_pairs, monkeypatch, tmp_path):
    details = {"environment": {"workload": "compare", "nproc": 3}, "fidelity": {}}
    line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    stdout = "\n".join(["a stray line", json.dumps(details), json.dumps(line)]) + "\n"
    seen = {}

    def fake_run(argv, cwd, env, **kwargs):
        seen.update(argv=argv, cwd=cwd, env=env)
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(tmp_path, "compare", 1, 30.0) == {**line, "nproc": 3}
    assert seen["cwd"] == tmp_path and seen["argv"][1:] == [
        "perfbench/run.py", "--workload", "compare", "--seed", "1",
        "--seconds", "30.0", "--trace", "0",
    ]
    # the bytecode cache is off, as on the benchmark host
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_main_refuses_a_checkout_with_a_bytecode_cache(
    bench_pairs, tmp_path, monkeypatch, capsys, side
):
    checkouts = {name: tmp_path / name for name in ("parent", "change")}
    for checkout in checkouts.values():
        (checkout / "src" / "boosthdp").mkdir(parents=True)
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    (checkouts[side] / "src" / "boosthdp" / "__pycache__").mkdir()
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: calls.append(a))
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main([str(checkouts["parent"]), str(checkouts["change"]),
                          "--workload", "pretrain", "--pairs", "1"])
    assert exit_.value.code == 2 and calls == []
    assert f"{checkouts[side]} holds src/boosthdp/__pycache__" in capsys.readouterr().err


def test_core_counts_per_side_and_the_pairs_that_differ(bench_pairs):
    parent = [result(1.0, 1.0, nproc=2) for _ in range(4)]
    change = [result(0.9, 1.0, nproc=1 if i in (1, 3) else 2) for i in range(4)]
    s = bench_pairs.summarize(parent, change, METRICS)
    assert s["nproc"] == {
        "parent": [2, 2, 2, 2], "change": [2, 1, 2, 1], "mismatched_pairs": [2, 4],
    }
    lines = bench_pairs.report(s, METRICS).splitlines()
    assert lines[-2:] == [
        "nproc: parent 2, change 1/2",
        "the sides saw different CPU counts in pairs 2, 4",
    ]
    same = bench_pairs.summarize(parent, parent, METRICS)
    assert same["nproc"]["mismatched_pairs"] == []
    assert bench_pairs.report(same, METRICS).splitlines()[-1] == "nproc: parent 2, change 2"

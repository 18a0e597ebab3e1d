"""The three benchmark workloads, run through `boosthdp.cli.main`.

Each workload has a set-up (done before timing) and a unit (one timed
repetition).  Both return `Invocation`s: one per CLI call, with the call's
wall time, exit code, the outputs the fidelity gate compares at printed
precision, and sha256 digests of the files it wrote (information only).

- `pretrain` runs `boosthdp pretrain` with a reduced [pretrain] budget that
  keeps the shipped 3:1 ratio of TD epochs to clone epochs.
- `compare` runs `boosthdp compare` at shipped defaults on snapshots the
  set-up wrote with the same reduced budget.
- `evaluate_frozen` runs `boosthdp run <scenario> PI` and
  `boosthdp run <scenario> HDP-frozen` for every scenario on those snapshots.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# 1 episode x 10 holds; 9 TD epochs to 3 clone epochs keeps the shipped
# 3:1 ratio (120:40), so the unit has the stage mix of a full pretrain.
PRETRAIN_BUDGET = """\
[pretrain]
n_episodes = 1
n_holds = 10
max_epochs = 9
clone_epochs = 3
"""

SCENARIOS = ("startup", "load_change", "input_change")
METRIC_FLOATS = ("settling_time", "overshoot", "steady_state_error", "iae", "peak_deviation")


@dataclass
class Invocation:
    section: str               # workload whose reference outputs apply
    expects: tuple[str, ...]   # output keys the call must produce
    seconds: float
    rc: int | str              # exit code, or a description of the exception raised
    outputs: dict[str, object] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _g4(value: str) -> str:
    return "%.4g" % float(value)


class Workload:
    """Shared plumbing: a work directory with the budget config and an
    output directory that every CLI call of the workload writes to."""

    name = ""

    def __init__(self, cli, work: Path, seed: int) -> None:
        self.cli = cli
        self.seed = seed
        self.out = work / self.name
        self.config = work / "budget.ini"

    def _invoke(self, *args: str) -> tuple[float, int | str, str]:
        argv = [*args, "--config", str(self.config), "--out", str(self.out),
                "--seed", str(self.seed)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed invocation, not a crash
                traceback.print_exc()
                rc = f"raised {type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        return seconds, rc, stdout.getvalue()

    def _prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.config.write_text(PRETRAIN_BUDGET)

    def _pretrain(self) -> Invocation:
        seconds, rc, _ = self._invoke("pretrain")
        inv = Invocation("pretrain", ("residuals", "epochs"), seconds, rc)
        if rc == 0:
            with open(self.out / "pretrain_residuals.csv", newline="") as fh:
                history = [row["mean_squared_residual"] for row in csv.DictReader(fh)]
            inv.outputs = {
                "residuals": [_g4(v) for v in history],
                "epochs": len(history) - 1,
            }
            inv.sha256 = {f: _sha256(self.out / f) for f in ("critic.mlp", "action.mlp")}
        return inv

    def _clear_run_outputs(self) -> None:
        """Remove metrics.csv and traces so every unit does identical work."""
        for path in self.out.glob("*.csv"):
            if path.name != "pretrain_residuals.csv":
                path.unlink()

    def setup(self) -> list[Invocation]:
        raise NotImplementedError

    def unit(self) -> list[Invocation]:
        raise NotImplementedError


class Pretrain(Workload):
    name = "pretrain"

    def setup(self) -> list[Invocation]:
        self._prepare()
        return []

    def unit(self) -> list[Invocation]:
        return [self._pretrain()]


class Compare(Workload):
    name = "compare"

    def setup(self) -> list[Invocation]:
        self._prepare()
        return [self._pretrain()]

    def unit(self) -> list[Invocation]:
        self._clear_run_outputs()
        seconds, rc, stdout = self._invoke("compare")
        cells = tuple(f"{s} {tag}" for s in SCENARIOS for tag in ("PI", "HDP"))
        inv = Invocation("compare", ("header",) + cells, seconds, rc)
        lines = stdout.splitlines()
        if lines:
            inv.outputs["header"] = lines[0]
        for line in lines[1:]:
            inv.outputs[" ".join(line.split()[:2])] = line
        for scenario in SCENARIOS:
            for tag in ("PI", "HDP"):
                trace = self.out / f"{scenario}_{tag}.csv"
                if trace.is_file():
                    inv.sha256[trace.name] = _sha256(trace)
        return [inv]


class EvaluateFrozen(Workload):
    name = "evaluate_frozen"

    def setup(self) -> list[Invocation]:
        self._prepare()
        return [self._pretrain()]

    def unit(self) -> list[Invocation]:
        self._clear_run_outputs()
        invocations = []
        for scenario in SCENARIOS:
            for tag in ("PI", "HDP-frozen"):
                cell = f"{scenario} {tag}"
                seconds, rc, _ = self._invoke("run", scenario, tag)
                inv = Invocation("evaluate_frozen", (cell,), seconds, rc)
                if rc == 0:
                    inv.outputs[cell] = self._metrics_row(scenario, tag)
                    trace = self.out / f"{scenario}_{tag}.csv"
                    inv.sha256[trace.name] = _sha256(trace)
                invocations.append(inv)
        return invocations

    def _metrics_row(self, scenario: str, tag: str) -> list[str] | None:
        with open(self.out / "metrics.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if (row["scenario"], row["controller"]) == (scenario, tag):
                    return [_g4(row[k]) for k in METRIC_FLOATS] + [
                        row["oscillation"], row["unsettled"]
                    ]
        return None


WORKLOADS = {w.name: w for w in (Pretrain, Compare, EvaluateFrozen)}


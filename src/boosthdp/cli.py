"""Command-line front end: pretrain the networks, run scenarios, compare.

Configuration is a flat key-value file with INI-style sections mirroring the
module boundaries ([plant], [hdp], [pi], [pretrain], [run]).  The keys and
defaults of [plant], [hdp], [pi] and [pretrain] are the fields of
PlantParams, HdpConfig, PiGains and sim.PretrainSettings and their default
instances, one key per field.  Every key has a default; keys absent from
the file are echoed to the log once so a run's effective configuration is
always visible.  Unknown sections or keys, non-finite floats and a
scenario listed twice are rejected rather than ignored -- a typo should
fail loudly, not silently run the nominal setup.  [plant] v_s and r_load
are the nominal point the scenarios start from.

`compare` and `pretrain` run their jobs in their own process and in one
forked worker process per further available CPU (boosthdp.workers), none
on one CPU: `compare` simulates each group of cells that share a
controller tag and a start as one job, running the periods the group's
cells share once (the load and input steps share their first half), and
`pretrain` trains the critic and clones the action net as two.  The
workers only compute; every log line, artifact and printed row comes from
the command's own process, in the order a serial run gives, so the output
is the same bytes whatever the CPU count.  `run` starts no worker.

Exit codes: 0 on success, 1 for usage, configuration, or missing or corrupt
snapshot errors and for an output directory or an artifact that cannot be
written, 2 when a simulation diverges, an online network update would turn
a parameter non-finite, pretraining fails to converge or clones an action
net no better than a constant, or a forked worker process ends (killed,
say) before it returns a job's result: each `compare` cell of that job's
group then shows `-`, and `pretrain` writes no snapshot.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import fcntl
import io
import logging
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .atomic import atomic_write_set
from .baseline import DEFAULT_PI_GAINS, PiGains
from .hdp import HdpConfig, HdpController, make_action, make_critic
from .mlp import Mlp, MlpFormatError, NonFiniteUpdateError
from .plant import PlantParams
from .workers import WorkerLost, run_jobs
from . import sim

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "dump_config",
    "cmd_pretrain",
    "cmd_run",
    "cmd_compare",
    "main",
]

log = logging.getLogger("boosthdp.cli")

# columns of metrics.csv: the run's key, then one per Metrics field
METRICS_FIELDS = ("scenario", "controller") + tuple(
    f.name for f in fields(sim.Metrics)
)


class ConfigError(Exception):
    """Bad configuration file, bad value, or bad command-line argument."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, validated at parse time."""

    plant: PlantParams
    hdp: HdpConfig
    pi: PiGains
    pretrain: sim.PretrainSettings
    scenarios: tuple[str, ...]
    out_dir: str
    seed: int

    def __post_init__(self) -> None:
        # numpy's generators take no negative seed
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


# the dataclass sections: RunConfig attribute and section name -> default
_SECTION_DEFAULTS = {
    "plant": PlantParams(),
    "hdp": HdpConfig(),
    "pi": DEFAULT_PI_GAINS,
    "pretrain": sim.PretrainSettings(),
}


# section -> key -> (python type, default)
_SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    section: {key: (type(value), value) for key, value in asdict(default).items()}
    for section, default in _SECTION_DEFAULTS.items()
}
_SCHEMA["run"] = {
    "scenarios": (str, " ".join(sim.SCENARIO_NAMES)),
    "out": (str, "out"),
    "seed": (int, 0),
}


def _convert(section: str, key: str, raw: str, typ: type):
    try:
        if typ is int:
            return int(raw, 10)
        if typ is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite")
            return value
        return raw.strip()
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}"
        ) from None


def parse_config(text: str) -> tuple[RunConfig, list[tuple[str, str, object]]]:
    """Parse config text into a validated RunConfig.

    Returns the config plus the list of (section, key, value) entries that
    fell back to defaults, so the caller can echo them.
    """
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=("#",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    values: dict[str, dict[str, object]] = {}
    defaulted: list[tuple[str, str, object]] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; valid: "
                + " ".join(f"[{s}]" for s in _SCHEMA)
            )
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; valid: "
                    + " ".join(_SCHEMA[section])
                )
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (typ, default) in keys.items():
            if parser.has_option(section, key):
                values[section][key] = _convert(
                    section, key, parser.get(section, key), typ
                )
            else:
                values[section][key] = default
                defaulted.append((section, key, default))

    r = values["run"]
    scenarios = tuple(r["scenarios"].replace(",", " ").split())
    for i, name in enumerate(scenarios):
        if name not in sim.SCENARIO_NAMES:
            raise ConfigError(
                f"unknown scenario {name!r} in [run] scenarios; valid: "
                + " ".join(sim.SCENARIO_NAMES)
            )
        if name in scenarios[:i]:
            raise ConfigError(f"scenario {name!r} listed twice in [run] scenarios")
    if not scenarios:
        raise ConfigError("[run] scenarios must list at least one scenario")
    try:
        cfg = RunConfig(
            **{
                section: type(default)(**values[section])
                for section, default in _SECTION_DEFAULTS.items()
            },
            scenarios=scenarios,
            out_dir=r["out"],
            seed=r["seed"],
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg, defaulted


def load_config(path: str | None) -> tuple[RunConfig, list[tuple[str, str, object]]]:
    """Load a config file, or the all-defaults config when path is None."""
    if path is None:
        return parse_config("")
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    return parse_config(text)


def _fmt(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(cfg: RunConfig) -> str:
    """Render the effective configuration; parsing it back reproduces cfg."""
    sections = {section: asdict(getattr(cfg, section)) for section in _SECTION_DEFAULTS}
    sections["run"] = {
        "scenarios": " ".join(cfg.scenarios), "out": cfg.out_dir, "seed": cfg.seed
    }
    out = io.StringIO()
    for section, keys in sections.items():
        out.write(f"[{section}]\n")
        for key, value in keys.items():
            out.write(f"{key} = {_fmt(value)}\n")
        out.write("\n")
    return out.getvalue()


def _echo_defaults(defaulted: list[tuple[str, str, object]]) -> None:
    for section, key, value in defaulted:
        log.info("default [%s] %s = %s", section, key, _fmt(value))


# ---------------------------------------------------------------------------
# subcommands


def _snapshot_paths(cfg: RunConfig) -> tuple[Path, Path]:
    out = Path(cfg.out_dir)
    return out / "critic.mlp", out / "action.mlp"


def _write_artifacts(writers: dict[Path, Callable[[Path], None]]) -> None:
    """Write a command's artifacts as one set (atomic_write_set), turning an
    OSError (a directory in an artifact's place, no permission) into
    ConfigError naming the artifact.  Each writer writes the temporary file
    it is given in place, so each artifact is renamed once."""
    try:
        atomic_write_set(writers)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from None


def _make_out_dir(cfg: RunConfig) -> Path:
    """The output directory, created if missing, or ConfigError."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path component is a file, or no permission
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def cmd_pretrain(cfg: RunConfig) -> int:
    """Run the offline pipeline and write network snapshots plus residuals.

    The critic's TD sweep and the behaviour clone are two jobs, which only
    read the excitation log: the critic runs in this process, the clone in
    a worker beside it, or after it on one CPU."""
    out = _make_out_dir(cfg)
    pt = cfg.pretrain
    try:
        teacher = sim.make_reference_law(cfg.plant)
        log.info(
            "excitation log: %d episodes x %d holds under duty_ff=%.4f teacher",
            pt.n_episodes, pt.n_holds, teacher.duty_ff,
        )
        transitions = sim.generate_excitation_log(
            teacher, cfg.plant, seed=cfg.seed,
            n_episodes=pt.n_episodes, n_holds=pt.n_holds,
        )
    except ValueError as exc:  # no boost operating point, a hold too short, a log too long
        raise ConfigError(f"[plant] {exc}") from None
    except sim.SimulationDiverged as exc:
        log.error("pretraining failed: %s", exc)
        return 2
    critic, action = make_critic(seed=cfg.seed), make_action(seed=cfg.seed)

    # each job returns its net's parameters as plain data: an Mlp's views do
    # not survive a pickle
    def train_critic() -> tuple[list[float], list[float]]:
        trained, history = sim.pretrain_critic(
            transitions, cfg.hdp.gamma, seed=cfg.seed,
            max_epochs=pt.max_epochs, learning_rate=pt.learning_rate,
        )
        return trained.params.tolist(), history

    def clone() -> tuple[list[float], float]:
        mse = sim.clone_action(
            action, transitions, seed=cfg.seed + 2,
            epochs=pt.clone_epochs, learning_rate=pt.clone_learning_rate,
        )
        return action.params.tolist(), mse

    try:
        trained, cloned = run_jobs([train_critic, clone])
        # raised in submission order, so a critic failure is the one reported
        critic.params[:], history = trained()
        action.params[:], clone_mse = cloned()
    except (sim.PretrainingError, NonFiniteUpdateError, WorkerLost) as exc:
        log.error("pretraining failed: %s", exc)
        return 2
    critic_path, action_path = _snapshot_paths(cfg)
    residuals_path = out / "pretrain_residuals.csv"

    def write_residuals(path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_squared_residual"])
            for epoch, value in enumerate(history):
                writer.writerow([epoch, repr(value)])

    # a pair of nets and their residuals, or none of them
    _write_artifacts({
        critic_path: critic.save, action_path: action.save, residuals_path: write_residuals,
    })
    epochs = len(history) - 1
    log.info(
        "critic: %d epochs (stopped by %s), residual %.4g -> %.4g (ratio %.1f); "
        "clone mse %.3g",
        epochs, "plateau" if epochs < pt.max_epochs else "epoch cap",
        history[0], history[-1],
        history[0] / history[-1] if history[-1] > 0.0 else float("inf"),
        clone_mse,
    )
    log.info("wrote %s, %s, %s", critic_path, action_path, residuals_path)
    return 0


def _load_networks(cfg: RunConfig) -> tuple[Mlp, Mlp]:
    critic_path, action_path = _snapshot_paths(cfg)
    if not critic_path.is_file() or not action_path.is_file():
        raise ConfigError(
            f"no network snapshots in {cfg.out_dir}/ "
            "(critic.mlp, action.mlp): pretrain first"
        )
    try:
        return Mlp.load(critic_path), Mlp.load(action_path)
    except MlpFormatError as exc:
        raise ConfigError(f"corrupt network snapshot {exc}") from None


def _build_spec(cfg: RunConfig, scenario: str, tag: str) -> sim.ScenarioSpec:
    """The scenario spec of a cell, or ConfigError."""
    try:
        return sim.builtin_scenario(scenario, tag, cfg.plant)
    except ValueError as exc:  # nominal point off the nameplate or on the step edge
        raise ConfigError(f"[plant] {exc}") from None


def _build_controller(cfg: RunConfig, spec: sim.ScenarioSpec):
    """A fresh controller for the spec, or ConfigError."""
    if spec.controller_tag == "PI":
        return sim.baseline_for_scenario(spec, cfg.plant, cfg.pi)
    critic, action = _load_networks(cfg)
    try:
        return HdpController(critic=critic, action=action, config=cfg.hdp)
    except ValueError as exc:  # well-formed snapshots of the wrong topology
        raise ConfigError(f"network snapshots in {cfg.out_dir}/: {exc}") from None


def _read_metrics(path: Path) -> list[list[str]]:
    """The data rows of an existing metrics file; an empty file has none.
    ConfigError if the file is not one `_upsert_metrics` writes."""
    fields = list(METRICS_FIELDS)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = [row for row in csv.reader(fh) if row] or [fields]
    except (UnicodeDecodeError, csv.Error):
        header = None
    if header != fields or any(len(row) != len(fields) for row in rows):
        raise ConfigError(f"cannot update {path}: not a boosthdp metrics file")
    return rows


def _upsert_metrics(
    path: Path, scenario: str, tag: str, m: sim.Metrics,
    artifacts: dict[Path, Callable[[Path], None]],
) -> None:
    """One row per (scenario, controller); a rerun replaces its old row.
    A lock on a sidecar file keeps concurrent runs from losing rows.  The
    file is written in one set with `artifacts` (target -> writer, as
    atomic_write_set takes them): ConfigError, with none of them written,
    if the file holds something else, or it, its lock file or one of them
    cannot be written."""
    lock_path = path.with_name(f".{path.name}.lock")
    try:
        lock = open(lock_path, "a")
    except OSError as exc:  # a directory in its place, or no permission
        raise ConfigError(f"cannot open lock file {lock_path}: {exc.strerror}") from None
    with lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        rows = _read_metrics(path) if path.is_file() else []
        rows = [row for row in rows if row[:2] != [scenario, tag]]
        rows.append([scenario, tag, *(_fmt(value) for value in asdict(m).values())])

        def write_metrics(tmp: Path) -> None:
            with open(tmp, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(METRICS_FIELDS)
                writer.writerows(rows)

        _write_artifacts({**artifacts, path: write_metrics})


def _simulate(cfg: RunConfig, spec: sim.ScenarioSpec, controller):
    """A built cell's trace and metrics; ConfigError for a switching period
    that fits the scenario badly."""
    try:
        return sim.run_scenario(spec, controller, cfg.plant)
    except ValueError as exc:
        raise ConfigError(f"[plant] {exc}") from None


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _simulate_group(cfg: RunConfig, specs: list[sim.ScenarioSpec], controller) -> list:
    """The cells of a group as a `compare` job runs them, in one
    `sim.run_scenarios` call: per cell a writer of its trace (given a path)
    and its metrics, or the exception that ended it, ConfigError for a
    switching period that fits the scenario badly.  The trace comes back as
    CSV text, ready to write, which pickles smaller than its columns; the
    rows the cells share are formatted once."""
    shared, outcomes = sim.run_scenarios(specs, controller, cfg.plant)
    texts = iter(sim.trace_csv_texts(
        [outcome[0] for outcome in outcomes if not isinstance(outcome, Exception)], shared
    ))
    results = []
    for outcome in outcomes:
        if isinstance(outcome, ValueError):
            outcome = ConfigError(f"[plant] {outcome}")
        elif not isinstance(outcome, Exception):
            outcome = partial(_write_text, text=next(texts)), outcome[1]
        results.append(outcome)
    return results


def _cell(job_outcome: Callable[[], list], i: int):
    """Cell i of a group job: its result, or the exception that ended it
    raised, or the job's own exception raised (a lost worker, say)."""
    result = job_outcome()[i]
    if isinstance(result, Exception):
        raise result
    return result


def _run_cell(
    cfg: RunConfig, scenario: str, tag: str, simulated: Callable[[], tuple]
) -> tuple[int, sim.Metrics | None]:
    """Write the artifacts of one (scenario, controller) pair.

    `simulated()` builds and simulates the cell, or hands over the outcome
    of a worker that did: it returns a writer of the trace (given a path)
    and the metrics.  Returns (exit code, metrics): (0, metrics) on
    success; a failure is logged as one line and gives (1, None) for a
    configuration or snapshot error or an artifact that cannot be written,
    (2, None) for a divergence, a non-finite network update or a lost
    worker.
    """
    try:
        write_trace, metrics = simulated()
        out = _make_out_dir(cfg)
        _upsert_metrics(out / "metrics.csv", scenario, tag, metrics, {
            out / f"{scenario}_{tag}.csv": write_trace,
        })
    except ConfigError as exc:
        log.error("%s", exc)
        return 1, None
    except (sim.SimulationDiverged, NonFiniteUpdateError) as exc:
        log.error("%s %s diverged: %s", scenario, tag, exc)
        return 2, None
    except WorkerLost as exc:
        log.error("%s %s: %s", scenario, tag, exc)
        return 2, None
    return 0, metrics


def cmd_run(cfg: RunConfig, scenario: str, tag: str) -> int:
    """Run one scenario with one controller; write trace and metrics row."""
    if scenario not in sim.SCENARIO_NAMES:
        log.error(
            "unknown scenario %r; valid: %s", scenario, " ".join(sim.SCENARIO_NAMES)
        )
        return 1
    if tag not in sim.CONTROLLER_TAGS:
        log.error(
            "unknown controller %r; valid: %s", tag, " ".join(sim.CONTROLLER_TAGS)
        )
        return 1

    def simulated():
        spec = _build_spec(cfg, scenario, tag)
        trace, metrics = _simulate(cfg, spec, _build_controller(cfg, spec))
        return (lambda tmp: sim.write_trace_csv(tmp, trace)), metrics

    rc, m = _run_cell(cfg, scenario, tag, simulated)
    if m is None:
        return rc
    log.info("%s", _run_line(scenario, tag, m))
    return 0


def _run_line(scenario: str, tag: str, m: sim.Metrics) -> str:
    """The metrics line `run` logs for one cell."""
    return (
        f"{scenario} {tag}: settling {m.settling_time * 1e3:.2f} ms, "
        f"overshoot {m.overshoot:.2f}%, iae {m.iae:.4f}, "
        f"peak {m.peak_deviation:.2f} V, oscillation {m.oscillation}, "
        f"unsettled {m.unsettled}"
    )


def _table_row(scenario: str, tag: str, m: sim.Metrics | None) -> str:
    """The row of `compare`'s table for one cell; a failed cell shows -."""
    if m is None:
        return f"{scenario:<14} {tag:<10} {'-':>12} {'-':>12} {'-':>10}"
    return (
        f"{scenario:<14} {tag:<10} {m.settling_time * 1e3:>12.2f} "
        f"{m.overshoot:>12.2f} {m.iae:>10.4f}"
    )


def _raise(exc: Exception):
    raise exc


def cmd_compare(cfg: RunConfig) -> int:
    """Run every configured scenario under PI and HDP and print the table.

    The cells are built here and grouped by controller tag and start
    (`sim.ScenarioSpec.shared_start`): the load and input steps start from
    one equilibrium, so at the shipped scenarios the six cells make four
    groups.  Each group's controller is built once, from snapshots loaded
    once, and the group is simulated as one job (`sim.run_scenarios`, which
    runs the periods its cells share once), the groups likeliest to take
    longest first: HDP before PI, then more cells before fewer.  This
    process runs the first job, and forked workers run others beside it
    (boosthdp.workers).  The failures, log lines, artifacts and table then
    follow in table order, so the output does not depend on which process
    finishes first.  A failed cell is reported and skipped; the remaining
    cells still run and the exit code reflects the worst failure
    (divergence wins over missing snapshots).  A worker lost before it
    returns a job's result blanks every cell of that job's group.  An output
    directory that cannot be created ends the command before any cell runs.
    """
    _make_out_dir(cfg)
    cells = [(scenario, tag) for scenario in cfg.scenarios for tag in ("PI", "HDP")]
    simulated, groups = {}, {}
    for cell in cells:
        try:
            spec = _build_spec(cfg, *cell)
        except ConfigError as exc:
            simulated[cell] = partial(_raise, exc)
        else:
            groups.setdefault(spec.shared_start, []).append(spec)
    jobs = []
    for specs in sorted(groups.values(),
                        key=lambda specs: (specs[0].controller_tag != "HDP", -len(specs))):
        group = [(spec.name, spec.controller_tag) for spec in specs]
        try:
            jobs.append((group, partial(_simulate_group, cfg, specs,
                                        _build_controller(cfg, specs[0]))))
        except ConfigError as exc:
            simulated.update(dict.fromkeys(group, partial(_raise, exc)))
    for (group, _), outcome in zip(jobs, run_jobs([job for _, job in jobs])):
        simulated.update((cell, partial(_cell, outcome, i)) for i, cell in enumerate(group))
    worst = 0
    lines = [
        f"{'scenario':<14} {'controller':<10} {'settling_ms':>12} "
        f"{'overshoot_%':>12} {'iae':>10}"
    ]
    for scenario, tag in cells:
        rc, m = _run_cell(cfg, scenario, tag, simulated[scenario, tag])
        worst = max(worst, rc)
        lines.append(_table_row(scenario, tag, m))
    print("\n".join(lines))
    return worst


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file")
    common.add_argument("--out", metavar="DIR", help="output directory override")
    common.add_argument("--seed", metavar="N", type=int, help="global seed override")
    parser = argparse.ArgumentParser(
        prog="boosthdp",
        description="Boost-converter neuro-controller: pretrain, run, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pretrain", parents=[common],
                   help="train network snapshots from the built-in teacher")
    p_run = sub.add_parser("run", parents=[common],
                           help="simulate one scenario with one controller")
    p_run.add_argument("scenario", help=" | ".join(sim.SCENARIO_NAMES))
    p_run.add_argument("controller", help=" | ".join(sim.CONTROLLER_TAGS))
    sub.add_parser("compare", parents=[common],
                   help="PI-vs-HDP metric table over the configured scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code == 0 else 1
    try:
        cfg, defaulted = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
            defaulted = [d for d in defaulted if d[:2] != ("run", "out")]
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
            defaulted = [d for d in defaulted if d[:2] != ("run", "seed")]
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    _echo_defaults(defaulted)
    # A numpy overflow (say the batched residual pass at huge finite weights)
    # ends, like any failure, in one line and its exit code; numpy's own
    # warning would only precede it.  Forked workers inherit this state.
    # The generated kernels work in plain floats and warn of nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if args.command == "pretrain":
                return cmd_pretrain(cfg)
            if args.command == "run":
                return cmd_run(cfg, args.scenario, args.controller)
            return cmd_compare(cfg)
        except ConfigError as exc:  # raised before a command writes anything
            log.error("%s", exc)
            return 1


if __name__ == "__main__":
    sys.exit(main())

"""Score an HDP run's critic against the discounted cost the run incurred.

    PYTHONPATH=src python tools/critic_calibration.py OUT [--config PATH]

For each HDP and HDP-frozen trace in the run directory OUT
(`<scenario>_<controller>.csv`, as `boosthdp run` and `compare` write
them), in scenario order, it computes the realized discounted cost

    G_k = u_k + gamma * G_{k+1},  G past the last period = 0,

from the trace's per-period utility `u`, with gamma the `[hdp] gamma` of
the config (the shipped default without --config).  The critic is trained
toward J(x_k) = U_k + gamma * J(x_{k+1}) with U_k at the period-start
errors, the same `u` the trace records, so its estimate `j_est` should
track G.  The cut-off biases the last periods' G low (gamma^60 is 6e-5 at
the default 0.85), so the last 60 periods are dropped.  Over the kept
periods it prints one line per trace:

    scenario  controller  rms(J-G)/rms(G)  J0/G0  mean(J-G) over the last 200

A critic whose estimate is the realized cost scores 0, 1 and 0.  It exits
1 if OUT holds no HDP trace or a trace keeps no period.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from boosthdp import cli
from boosthdp.sim import SCENARIO_NAMES

# periods dropped at the end, and the late window of the bias column
TAIL = 60
LATE = 200


def realized_cost(u: np.ndarray, gamma: float) -> np.ndarray:
    """G_k = u_k + gamma * G_{k+1}, with G zero past the last period."""
    g = np.empty(len(u))
    acc = 0.0
    for k in range(len(u) - 1, -1, -1):
        acc = u[k] + gamma * acc
        g[k] = acc
    return g


def calibration(u, j_est, gamma: float) -> tuple[float, float, float]:
    """(rms(J-G) / rms(G), J_0 / G_0, mean(J-G) over the last LATE kept
    periods) of one trace, after dropping its last TAIL periods."""
    n = len(u) - TAIL
    if n < 1:
        raise ValueError(f"{len(u)} periods keep none after dropping the last {TAIL}")
    g = realized_cost(np.asarray(u, dtype=float), gamma)[:n]
    j = np.asarray(j_est, dtype=float)[:n]
    err = j - g
    rms = lambda x: float(np.sqrt(np.mean(x * x)))
    return rms(err) / rms(g), float(j[0] / g[0]), float(np.mean(err[-LATE:]))


def _columns(path: Path) -> tuple[list[float], list[float]]:
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        u, j_est = zip(*((float(row["u"]), float(row["j_est"])) for row in rows))
    return list(u), list(j_est)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="run directory holding the traces")
    parser.add_argument("--config", metavar="PATH", help="the run's configuration file")
    args = parser.parse_args(argv)
    try:
        cfg, _ = cli.load_config(args.config)
    except cli.ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    cells = [
        (scenario, tag, args.out / f"{scenario}_{tag}.csv")
        for scenario in SCENARIO_NAMES for tag in ("HDP", "HDP-frozen")
    ]
    cells = [cell for cell in cells if cell[2].is_file()]
    if not cells:
        print(f"no HDP trace in {args.out}", file=sys.stderr)
        return 1
    print(f"{'scenario':<14} {'controller':<10} {'rms(J-G)/rms(G)':>16} "
          f"{'J0/G0':>8} {'mean(J-G) late':>15}")
    for scenario, tag, path in cells:
        try:
            score, start, bias = calibration(*_columns(path), cfg.hdp.gamma)
        except ValueError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
        print(f"{scenario:<14} {tag:<10} {score:>16.3f} {start:>8.3f} {bias:>15.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

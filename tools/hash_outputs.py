"""Print the sha256 of every artifact boosthdp writes, for bit-identity checks.

Runs `pretrain`, `compare`, and `run <scenario> <controller>` for every
scenario and controller tag (PI, HDP, HDP-frozen) through
`boosthdp.cli.main`, at one config and seed, into a fresh output
directory, then prints one line per command (its exit code and, for
`compare`, the sha256 of the printed table, which also goes to stderr) and
one line per file written (`sha256  name`).  Two checkouts produce the
same bits when the outputs of

    PYTHONPATH=src python tools/hash_outputs.py --seed 0 > a.txt

run in each are identical under `diff`.  Nothing in the output depends on
timing or on the output directory's path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from boosthdp import cli
from boosthdp.sim import CONTROLLER_TAGS, SCENARIO_NAMES


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH", help="boosthdp configuration file")
    parser.add_argument("--seed", type=int, default=0, help="boosthdp seed (default 0)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        common = ["--out", str(out), "--seed", str(args.seed)]
        if args.config is not None:
            common += ["--config", args.config]
        commands = [["pretrain"], ["compare"]] + [
            ["run", scenario, tag]
            for scenario in SCENARIO_NAMES
            for tag in CONTROLLER_TAGS
        ]
        worst = 0
        for command in commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(command + common)
            worst = max(worst, rc)
            line = f"{' '.join(command)}: exit {rc}"
            if command == ["compare"]:
                line += f", table {_sha256(stdout.getvalue().encode())}"
                sys.stderr.write(stdout.getvalue())
            print(line)
        for path in sorted(out.iterdir()):
            if path.is_file() and not path.name.startswith("."):
                print(f"{_sha256(path.read_bytes())}  {path.name}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

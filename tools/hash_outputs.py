"""Print the sha256 of every artifact boosthdp writes, for bit-identity checks.

Runs `pretrain`, `compare`, and `run <scenario> <controller>` for every
scenario and controller tag (PI, HDP, HDP-frozen) through
`boosthdp.cli.main`, at one config and seed, into a fresh output
directory.  After each command it prints one line for the command (its
exit code and, for `compare`, the sha256 of the printed table, which also
goes to stderr), then one line per file the command wrote
(`sha256  name`, by name), read before the next command can overwrite it:
so `compare`'s traces and `metrics.csv` are hashed as `compare` left them,
and each `run`'s as it left them.  A file counts as written when its inode
or modification time changed, as an atomic rename changes both.  Two
checkouts produce the same bits when the outputs of

    PYTHONPATH=src python tools/hash_outputs.py --seed 0 > a.txt

run in each are identical under `diff`.  Nothing in the output depends on
timing or on the output directory's path.  With `--out DIR` the artifacts
are kept in DIR (which must not exist yet), for `tools/diff_outputs.py`;
DIR then holds each file as the last command that wrote it left it.
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


def _stamps(out: Path) -> dict[str, tuple[int, int]]:
    """Name -> (inode, modification time) of every artifact in out; the
    dot files (the metrics lock) are no artifacts."""
    stamps = {}
    for path in out.iterdir():
        if path.is_file() and not path.name.startswith("."):
            stat = path.stat()
            stamps[path.name] = stat.st_ino, stat.st_mtime_ns
    return stamps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH", help="boosthdp configuration file")
    parser.add_argument("--seed", type=int, default=0, help="boosthdp seed (default 0)")
    parser.add_argument("--out", metavar="DIR", help="keep the artifacts in DIR")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.out is None:
            out = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            out = Path(args.out)
            out.mkdir(parents=True)
        common = ["--out", str(out), "--seed", str(args.seed)]
        if args.config is not None:
            common += ["--config", args.config]
        commands = [["pretrain"], ["compare"]] + [
            ["run", scenario, tag]
            for scenario in SCENARIO_NAMES
            for tag in CONTROLLER_TAGS
        ]
        worst = 0
        before = _stamps(out)
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
            after = _stamps(out)
            for name in sorted(after):
                if after[name] != before.get(name):
                    print(f"{_sha256((out / name).read_bytes())}  {name}")
            before = after
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Artifact writes through a temporary file and one rename."""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Open path for writing text (newline="", as csv expects) such that
    path is replaced only when the block completes: the text goes to a
    temporary file beside path, which os.replace renames over it in one
    step.  If the block raises, the temporary file is removed and path is
    left as it was.

    Nothing is fsync'ed: a process that fails or is killed mid-write leaves
    either the old file or the new one, but after power loss or an
    operating-system crash the new file may be empty or partly written.
    The artifacts are reproducible from the seed, so a rerun restores
    them."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

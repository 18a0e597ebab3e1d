"""Artifact writes through temporary files and renames."""

import errno
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


def _temporary(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


# the temporary files atomic_write_set is writing: atomic_write writes
# these in place, since the set renames each over its target
_staging: set[Path] = set()


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
    them.

    A path that atomic_write_set hands its writer is already a temporary
    file, which the set renames: atomic_write writes it in place."""
    path = Path(path)
    if path in _staging:
        with open(path, "w", newline="") as fh:
            yield fh
        return
    tmp = _temporary(path)
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_set(writers: dict[Path, Callable[[Path], None]]) -> None:
    """Write several artifacts as one set.  `writers` maps each target path
    to a function that writes its artifact to the path it is given, a
    temporary file beside the target (a writer that goes through
    atomic_write writes it in place).  Every artifact is written, and every
    target checked, before any is renamed over its target: if a writer
    raises, or a target is a directory (whose place a rename cannot take),
    the temporary files are removed and every target is left as it was.
    An OSError names the target it arose for.  Nothing is fsync'ed, as in
    atomic_write."""
    staged: list[tuple[Path, Path]] = []
    try:
        for path, write in writers.items():
            tmp = _temporary(path)
            staged.append((tmp, path))
            _staging.add(tmp)
            try:
                write(tmp)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
            finally:
                _staging.discard(tmp)
        for _, path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise

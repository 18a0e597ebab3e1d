"""boosthdp benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain|compare|evaluate_frozen \\
        --seed N --seconds S --trace 0|1

The workload runs in this one process through `boosthdp.cli.main`, with
BLAS threads pinned to 1.  Set-up is repeated and timed, then workload
units repeat until S seconds have passed.  Times are scaled to a reference
host speed (see HostSpeed).  Every CLI invocation is checked by the
fidelity gate (see fidelity.py).  The second-to-last line of stdout is the
environment record; the last is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb).  With --trace 1 untraced and traced units alternate, the
metrics are the per-layer ones from tracing.py, and the spans of the last
traced unit are written to .bench_build/perfbench/.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so its BLAS starts single-threaded.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import logging
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from fidelity import FidelityGate, load_references
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
MODULES = ("plant", "mlp", "hdp", "baseline", "sim", "cli")
# set-up runs this often per untraced run; setup_s takes the median
SETUP_REPEATS = 3
# Duration of the calibration loop on a quiet host; times are reported at
# the host speed where the loop takes this long.
CALIBRATION_REF_S = 0.2

sys.dont_write_bytecode = True


def import_package():
    """Import numpy and boosthdp from this checkout's src/.

    Returns (package modules, numpy, seconds the imports took).
    """
    if not (SRC / "boosthdp" / "__init__.py").is_file():
        raise SystemExit(f"error: no boosthdp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy

    pkg = SimpleNamespace(
        **{m: importlib.import_module(f"boosthdp.{m}") for m in MODULES}
    )
    seconds = perf_counter() - t0
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported boosthdp from {pkg.cli.__file__}, not {SRC}")
    return pkg, numpy, seconds


class HostSpeed:
    """Scales timed pieces to a reference host speed.

    On a shared host the speed of this process drifts by up to 2x over tens
    of seconds, so raw times of runs a minute apart differ by more than any
    regression worth catching.  A fixed loop of Python float arithmetic and
    5x5 numpy calls (the mix of the package's inner loops, but none of its
    code, so no change to the package moves it) runs once up front and after
    every timed piece.  A piece's time is scaled by CALIBRATION_REF_S over
    the mean duration of the two loops around it.
    """

    def __init__(self, numpy) -> None:
        self.np = numpy
        self.loops: list[float] = [self._loop()]

    def _loop(self) -> float:
        w = self.np.full((5, 5), 0.1)
        a = self.np.ones(5)
        y = 0.0
        t0 = perf_counter()
        for _ in range(40_000):
            a = self.np.tanh(w @ a + 0.01)
            for _ in range(20):
                y = y + 1e-3 * (1.0 - y)
        return perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """Scale a piece that just ended; runs the loop that follows it."""
        self.loops.append(self._loop())
        return seconds * CALIBRATION_REF_S / ((self.loops[-2] + self.loops[-1]) / 2)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy, workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    setup_repeats: int = SETUP_REPEATS,
    references: dict | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, environment and details)."""
    pkg, numpy, import_s = import_package()
    gate = FidelityGate(references or load_references(), seed)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    # the CLI logs at INFO; keep that cost but send it to a file, not stderr
    root_log = logging.getLogger()
    handler = logging.FileHandler(work / "boosthdp.log")
    handler.setFormatter(logging.Formatter("%(message)s"))
    saved_level = root_log.level
    root_log.addHandler(handler)
    root_log.setLevel(logging.INFO)

    attempted = failed = 0
    problems: list[str] = []

    def checked(invocations) -> float:
        """Gate each invocation; returns their summed wall time."""
        nonlocal attempted, failed
        for inv in invocations:
            attempted += 1
            found = gate.check(inv)
            if found:
                failed += 1
                problems.extend(found)
        return sum(inv.seconds for inv in invocations)

    # raw host seconds and the same scaled to the reference host speed
    raw: dict[str, list[float]] = {"setup": [], "wall": [], "traced_wall": []}
    scaled: dict[str, list[float]] = {"setup": [], "wall": [], "traced_wall": []}

    def timed(kind: str, seconds: float) -> None:
        raw[kind].append(seconds)
        scaled[kind].append(speed.scale(seconds))

    try:
        speed = HostSpeed(numpy)
        import_scaled = import_s * CALIBRATION_REF_S / speed.loops[0]
        wl = WORKLOADS[workload](pkg.cli, work, seed)
        for _ in range(1 if trace else setup_repeats):
            t0 = perf_counter()
            invocations = wl.setup()
            timed("setup", perf_counter() - t0)
            checked(invocations)

        if trace:
            import tracing

            tracer, stats = tracing.Tracer(pkg), tracing.LayerStats()
        deadline = perf_counter() + seconds
        while True:
            if trace and len(raw["wall"]) > len(raw["traced_wall"]):
                tracer.install()
                try:
                    invocations = wl.unit()
                finally:
                    tracer.uninstall()
                tracer.collect(stats)
                timed("traced_wall", checked(invocations))
            else:
                timed("wall", checked(wl.unit()))
            if perf_counter() >= deadline and (raw["traced_wall"] or not trace):
                break
    finally:
        root_log.removeHandler(handler)
        root_log.setLevel(saved_level)
        handler.close()
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(scaled["wall"])
    if trace:
        overhead = statistics.median(scaled["traced_wall"]) / wall - 1.0
        metrics = stats.metrics(overhead)
        tracer.write_last_spans(WORK_ROOT / f"spans-{workload}.tsv.gz")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (import_scaled + statistics.median(scaled["setup"]), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "environment": environment(numpy, workload, seed, seconds, trace),
        "fidelity": {
            "reference": gate.mode,
            "digests_identical": f"{gate.digests_identical}/{gate.digests_checked}",
            "problems": problems[:20],
        },
        "raw_s": {"import": import_s, **raw},
        "scaled_s": {"import": import_scaled, **scaled},
        "calibration_s": speed.loops,
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in details["fidelity"]["problems"]:
        print(f"fidelity: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

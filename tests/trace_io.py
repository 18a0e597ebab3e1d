"""Traces as rows, for tests that build, inspect or re-write traces.

`boosthdp.sim.Trace` holds one list per CSV column; a `TraceRecord` is one
row of it.  `trace_rows` and `from_rows` convert between the two, and
`read_trace_csv` reads a trace CSV written by `boosthdp.sim.write_trace_csv`
back into rows.
"""

import csv
from typing import NamedTuple

from boosthdp.sim import TRACE_FIELDS, Trace


class TraceRecord(NamedTuple):
    t: float
    v_o: float
    i_l: float
    duty: float
    u: float
    j_est: float
    mode: str
    v_set: float
    v_s: float
    r_load: float


assert TraceRecord._fields == TRACE_FIELDS


def trace_rows(trace: Trace) -> list[TraceRecord]:
    """The trace's periods as rows."""
    return list(map(TraceRecord, *trace))


def from_rows(rows) -> Trace:
    """The trace whose periods are these rows."""
    rows = list(rows)
    if not rows:
        return Trace._make([] for _ in TRACE_FIELDS)
    return Trace._make(map(list, zip(*rows)))


def read_trace_csv(path) -> list[TraceRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_FIELDS:
            raise ValueError(f"unexpected trace header {header}")
        out = []
        for row in reader:
            vals = [float(x) for x in row[:6]] + [row[6]] + [float(x) for x in row[7:]]
            out.append(TraceRecord(*vals))
    return out

"""Reads a trace CSV written by boosthdp.sim.write_trace_csv back into
TraceRecords, for tests that inspect or re-write traces."""

import csv

from boosthdp.sim import TRACE_FIELDS, TraceRecord


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

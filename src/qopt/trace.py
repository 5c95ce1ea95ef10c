"""Per-iteration solver traces and their canonical CSV serialization.

The CSV schema is fixed: one comment line carrying the JSON-encoded run
header, the column row ``iter,oracle_calls,f,gap,bound``, then one row per
iteration.  Floats are serialized with 17 significant digits so files
round-trip bit-exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class TraceRow:
    iteration: int
    oracle_calls: int
    f_value: float
    gap: Optional[float]
    bound: Optional[float]


@dataclass
class Trace:
    header: dict
    rows: list
    solution: Optional[np.ndarray] = None
    failure: Optional[str] = None

    @property
    def final_gap(self):
        return self.rows[-1].gap if self.rows else None

    @property
    def final_oracle_calls(self):
        return self.rows[-1].oracle_calls if self.rows else 0

    def column(self, name):
        """Extract a column as a float array; missing entries become NaN."""
        vals = [getattr(r, name) for r in self.rows]
        return np.array([np.nan if v is None else v for v in vals], dtype=float)


def format_float(value):
    """17-significant-digit decimal form: enough to round-trip any float64."""
    return "%.17g" % value


def _cell(value):
    return "" if value is None else format_float(value)


def trace_csv_lines(trace):
    lines = ["# " + json.dumps(trace.header, sort_keys=True)]
    lines.append("iter,oracle_calls,f,gap,bound")
    for row in trace.rows:
        gap, bound = row.gap, row.bound
        # One format per row; "%.17g" is format_float's form.
        if gap is not None and bound is not None:
            lines.append("%d,%d,%.17g,%.17g,%.17g"
                         % (row.iteration, row.oracle_calls, row.f_value, gap, bound))
        else:
            lines.append("%d,%d,%.17g,%s,%s" % (row.iteration, row.oracle_calls, row.f_value,
                                                _cell(gap), _cell(bound)))
    if trace.failure is not None:
        # Failure marker row: negative iteration index, NaN objective value.
        calls = trace.final_oracle_calls
        lines.append(f"-1,{calls},nan,,")
        lines.append("# numerical-failure: " + trace.failure)
    return lines


def write_trace(trace, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(trace_csv_lines(trace)))
        fh.write("\n")
    return path


def read_trace(path):
    """Parse a trace CSV back into a :class:`Trace` (rows and header only)."""
    header = {}
    rows = []
    failure = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# numerical-failure: "):
                failure = line[len("# numerical-failure: "):]
            elif line.startswith("# "):
                header = json.loads(line[2:])
            elif line and not line.startswith("iter,"):
                it, calls, f, gap, bound = line.split(",")
                if int(it) < 0:
                    continue
                rows.append(
                    TraceRow(
                        iteration=int(it),
                        oracle_calls=int(calls),
                        f_value=float(f),
                        gap=float(gap) if gap else None,
                        bound=float(bound) if bound else None,
                    )
                )
    return Trace(header=header, rows=rows, failure=failure)

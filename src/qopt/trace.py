"""Per-iteration solver traces and their canonical CSV serialization.

The CSV schema is fixed: one comment line carrying the JSON-encoded run
header, the column row ``iter,oracle_calls,f,gap,bound``, then one row per
iteration.  Floats are serialized with 17 significant digits so files
round-trip bit-exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailureError


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
    #: Oracle calls a failed run made, which its failure marker row reports;
    #: ``None`` stands for the last row's count.
    failure_calls: Optional[int] = None

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


class TraceRecorder:
    """The one source of every solver's trace header and gap.  Solvers append
    :class:`TraceRow` objects to ``rows``; as a context manager the recorder
    attaches them to a :class:`NumericalFailureError` as ``partial_trace``,
    with the calls ``counter`` holds at the failure."""

    def __init__(self, algorithm, obj, params, x0, counter):
        self.header = {"algorithm": algorithm, "objective": obj.name,
                       "set": obj.feasible_set.to_spec(), "params": params, "x0": x0.tolist()}
        self.rows = []
        self._fstar = obj.optimal_value
        self._counter = counter

    def gap(self, f):
        """``f - f*`` (``None`` without a declared ``f*``); a non-finite gap is a failure."""
        if self._fstar is None:
            return None
        gap = f - self._fstar
        if not -math.inf < gap < math.inf:
            raise NumericalFailureError(f"gap f - f* of objective '{self.header['objective']}' "
                                        f"is not finite: f = {f!r}, f* = {self._fstar!r}")
        return gap

    def trace(self, solution):
        return Trace(self.header, self.rows, solution)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, NumericalFailureError):
            exc.partial_trace = Trace(self.header, self.rows, failure=str(exc),
                                      failure_calls=self._counter.calls)


def format_float(value):
    """17-significant-digit decimal form: enough to round-trip any float64."""
    return "%.17g" % value


_encode = json.JSONEncoder(sort_keys=True).encode


def _header_json(value, memo):
    """``json.dumps(value, sort_keys=True)`` byte for byte, encoding each
    all-float list once per ``memo`` (a header holds an explicit ``x0`` twice).

    Two lists share a text only when every entry is exactly a ``float`` and
    the float64 bits are equal: equal bits give an equal ``repr``, where
    ``==`` would merge ``0.0`` with ``-0.0`` and ``1`` with ``1.0``.
    """
    if type(value) is dict and all(type(key) is str for key in value):
        return "{%s}" % ", ".join("%s: %s" % (_encode(key), _header_json(value[key], memo))
                                  for key in sorted(value))
    if type(value) is list and all(type(v) is float for v in value):
        bits = np.array(value).tobytes()
        text = memo.get(bits)
        if text is None:
            text = memo[bits] = _encode(value)
        return text
    return _encode(value)


def trace_csv_lines(trace):
    lines = ["# " + _header_json(trace.header, {})]
    lines.append("iter,oracle_calls,f,gap,bound")
    append = lines.append
    # The ",calls,f,gap," part of the last row, and the values it was made
    # from.  A row with the same count and the same f and gap objects reuses
    # it: identity, never ==, since -0.0 == 0.0 and nan != nan.
    middle, calls, f, gap = None, None, None, None
    for row in trace.rows:
        if row.oracle_calls != calls or row.f_value is not f or row.gap is not gap:
            calls, f, gap = row.oracle_calls, row.f_value, row.gap
            # "%.17g" is format_float's form.
            middle = (",%d,%.17g,%.17g," % (calls, f, gap) if gap is not None
                      else ",%d,%.17g,," % (calls, f))
        bound = row.bound
        append("%d%s%.17g" % (row.iteration, middle, bound) if bound is not None
               else "%d%s" % (row.iteration, middle))
    if trace.failure is not None:
        # Failure marker row: negative iteration index, NaN objective value.
        calls = trace.final_oracle_calls if trace.failure_calls is None else trace.failure_calls
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
    failure = failure_calls = None
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
                    failure_calls = int(calls)
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
    return Trace(header=header, rows=rows, failure=failure, failure_calls=failure_calls)

"""Per-iteration solver traces and their canonical CSV serialization.

The CSV schema is fixed: one comment line carrying the JSON-encoded run
header, the column row ``iter,oracle_calls,f,gap,bound``, then one row per
iteration.  Floats are serialized with 17 significant digits so files
round-trip bit-exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Optional

import numpy as np

from .errors import NumericalFailureError


@dataclass(slots=True)
class TraceRow:
    iteration: int
    oracle_calls: int
    f_value: float
    gap: Optional[float]
    bound: Optional[float]


@dataclass
class Trace:
    """A run's header and its rows, held as five columns of one entry per row.

    The columns are named like the fields of :class:`TraceRow`; an empty
    ``gap`` or ``bound`` cell is ``None``.  ``rows`` builds the rows as
    :class:`TraceRow` objects from the columns on each access.
    """

    header: dict
    iteration: list = field(default_factory=list)
    oracle_calls: list = field(default_factory=list)
    f_value: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    bound: list = field(default_factory=list)
    solution: Optional[np.ndarray] = None
    failure: Optional[str] = None
    #: Oracle calls a failed run made, which its failure marker row reports;
    #: ``None`` stands for the last row's count.
    failure_calls: Optional[int] = None
    #: The first row of the fixed-point fill ``record_run`` appends, from which
    #: on every row holds the same ``oracle_calls``, ``f_value`` and ``gap``
    #: objects; ``None`` for no fill.  The writer checks that the rows still
    #: hold them, then formats their text once.
    _fill: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def rows(self):
        return list(map(TraceRow, self.iteration, self.oracle_calls, self.f_value,
                        self.gap, self.bound))

    @property
    def final_gap(self):
        return self.gap[-1] if self.gap else None

    @property
    def final_oracle_calls(self):
        return self.oracle_calls[-1] if self.oracle_calls else 0

    def column(self, name):
        """A column as a float array; empty cells become NaN."""
        return np.array(getattr(self, name), dtype=float)


def record_run(algorithm, obj, params, x0, counter, rows, bound=None):
    """The :class:`Trace` of one solver run: the only code that records one.

    ``rows`` is the solver's loop, a generator of rows that begin
    ``(t, x_t, f(x_t), grad f(x_t))`` for t = 0, 1, ...  Each row records the
    calls ``counter`` holds, ``f`` and its gap ``f - f*`` (``None`` without a
    declared ``f*``); a non-finite gap raises :class:`NumericalFailureError`
    before the row is recorded.  A given ``bound`` maps the iterations
    ``1..n-1``, as a float array, to their bound cells; row 0 has none.

    A run whose loop ended at a fixed point before the ``T`` of ``params``
    gets the rows up to ``T``, each repeating the last row's values.  The
    solution is the last row's ``x``, a copy when the run never left t = 0.
    A :class:`NumericalFailureError` gets the rows so far as its
    ``partial_trace``, with the calls ``counter`` holds at the failure.
    """
    header = {"algorithm": algorithm, "objective": obj.name,
              "set": obj.feasible_set.to_spec(), "params": params, "x0": x0.tolist()}
    fstar = obj.optimal_value
    trace = Trace(header)
    calls, f_values, gaps = trace.oracle_calls, trace.f_value, trace.gap
    try:
        for t, x, f, *_ in rows:
            gap = None
            if fstar is not None:
                gap = f - fstar
                if not -math.inf < gap < math.inf:
                    raise NumericalFailureError(
                        f"gap f - f* of objective '{obj.name}' "
                        f"is not finite: f = {f!r}, f* = {fstar!r}")
            calls.append(counter.calls)
            f_values.append(f)
            gaps.append(gap)
    except NumericalFailureError as exc:
        trace.failure, trace.failure_calls = str(exc), counter.calls
        exc.partial_trace = trace
        raise
    else:
        fill, T = len(calls), params["T"]
        if fill <= T:
            for column in (calls, f_values, gaps):
                column += [column[-1]] * (T + 1 - fill)
            trace._fill = fill
        trace.solution = x if t > 0 else x.copy()
    finally:
        # A finished trace and a failure trace alike get one iteration and
        # one bound cell per row.
        n = len(calls)
        trace.iteration = list(range(n))
        trace.bound = [None] * n
        if bound is not None and n > 1:
            trace.bound[1:] = bound(np.arange(1.0, n)).tolist()
    return trace


def _number(value):
    """The header encoder's fallback: a numpy scalar as the number it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_encode = json.JSONEncoder(sort_keys=True, default=_number).encode
_decode = json.JSONDecoder().raw_decode
_FAILURE_PREFIX = "# numerical-failure: "


def _header_json(value, memo):
    """The text of ``json.dumps(value, sort_keys=True)``, byte for byte, in pieces.

    A list is encoded ``_CHUNK_ROWS`` entries at a time, so no piece of it is
    longer than one chunk's text, and ``memo`` keeps the text of each
    all-float chunk by its float64 bits: a header holds an explicit ``x0``
    twice, and the second copy reuses the first one's texts.  Equal bits give
    an equal text, where ``==`` would merge ``0.0`` with ``-0.0`` and ``1``
    with ``1.0``.
    """
    if type(value) is dict and all(type(key) is str for key in value):
        separator = ""
        yield "{"
        for key in sorted(value):
            yield "%s%s: " % (separator, _encode(key))
            yield from _header_json(value[key], memo)
            separator = ", "
        yield "}"
    elif type(value) is list:
        yield "["
        for lo in range(0, len(value), _CHUNK_ROWS):
            if lo:
                yield ", "
            yield _chunk_json(value[lo:lo + _CHUNK_ROWS], memo)
        yield "]"
    else:
        yield _encode(value)


def _chunk_json(chunk, memo):
    """json's text of the list ``chunk`` without its brackets: its entries'
    texts joined by ``", "``, as they stand in the whole list's text."""
    if not all(type(v) is float for v in chunk):
        return _encode(chunk)[1:-1]
    bits = np.array(chunk).tobytes()
    text = memo.get(bits)
    if text is None:
        text = memo[bits] = _encode(chunk)[1:-1]
    return text


#: The most rows one ``%`` operation formats or ``read_trace`` parses at once,
#: and the most entries of a header list encoded at once: it bounds the text
#: held at once.
_CHUNK_ROWS = 1024


def _is_empty(cells):
    """A bool array: which of ``cells`` are empty (``None``), by one
    elementwise test whatever the pattern of empty cells."""
    return np.equal(np.array(cells, dtype=object), None)


def _formatted(row_format, columns, start, stop):
    """Rows ``start..stop-1`` of ``columns`` through ``row_format``, one ``%`` a chunk."""
    width = len(columns)
    for lo in range(start, stop, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, stop)
        cells = [None] * (width * (hi - lo))
        for j, column in enumerate(columns):
            cells[j::width] = column[lo:hi]
        yield row_format * (hi - lo) % tuple(cells)


def _csv_chunks(trace):
    """The CSV text of ``trace``, a segment of rows at a time.

    A segment is a run of rows with the same empty cells, on one side of the
    start of the fill.  A fill's rows share one ``,calls,f,gap,`` text, so
    only their iteration and bound cells are formatted per row; a fill whose
    rows were edited is formatted as the other rows are.
    """
    yield "# "
    yield from _header_json(trace.header, {})
    yield "\niter,oracle_calls,f,gap,bound\n"
    n = len(trace.iteration)
    fill = trace._fill
    # An edited trace is written as the rows it holds: the shortcut needs
    # every row from the fill on to hold the fill row's objects.
    if fill is None or not 0 <= fill < n or not all(
            all(map(operator.is_, column[fill:], repeat(column[fill])))
            for column in (trace.oracle_calls, trace.f_value, trace.gap)):
        fill = n
    empty = 2 * _is_empty(trace.gap) + _is_empty(trace.bound)
    edges = np.flatnonzero(empty[1:] != empty[:-1]) + 1
    edges = sorted({0, fill, n, *edges.tolist()})
    for start, stop in zip(edges, edges[1:]):
        gap_empty, bound_empty = empty[start] >= 2, empty[start] % 2 == 1
        # "%.17g": 17 significant digits round-trip any float64.
        if start < fill:
            row_format = "%d,%d,%.17g," + ("," if gap_empty else "%.17g,")
            columns = [trace.iteration, trace.oracle_calls, trace.f_value]
            if not gap_empty:
                columns.append(trace.gap)
        else:
            calls, f, gap = trace.oracle_calls[start], trace.f_value[start], trace.gap[start]
            row_format = "%d" + (",%d,%.17g,," % (calls, f) if gap_empty
                                 else ",%d,%.17g,%.17g," % (calls, f, gap))
            columns = [trace.iteration]
        if bound_empty:
            row_format += "\n"
        else:
            row_format += "%.17g\n"
            columns.append(trace.bound)
        yield from _formatted(row_format, columns, start, stop)
    if trace.failure is not None:
        # Failure marker row: negative iteration index, NaN objective value.
        calls = trace.final_oracle_calls if trace.failure_calls is None else trace.failure_calls
        yield f"-1,{calls},nan,,\n{_FAILURE_PREFIX}{trace.failure}\n"


def write_trace(trace, path):
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_csv_chunks(trace))
    return path


def _cells(texts):
    """The floats of a gap or bound column's ``texts``; an empty text is ``None``."""
    return [float(text) if text else None for text in texts]


def read_trace(path):
    """Parse a trace CSV back into a :class:`Trace` (columns and header only).

    The rows are parsed a column at a time, ``_CHUNK_ROWS`` lines at once.
    """
    trace = Trace({})
    with open(path) as fh:
        line = fh.readline()
        # Decoded where it stands: no copy of a header line that may be long.
        trace.header, end = _decode(line, 2)
        if line[end:].strip():
            raise json.JSONDecodeError("Extra data", line, end)
        fh.readline()  # the column row
        while lines := list(islice(fh, _CHUNK_ROWS)):
            if lines[-1].startswith(_FAILURE_PREFIX):
                trace.failure = lines.pop()[len(_FAILURE_PREFIX):].rstrip("\n")
            if lines and lines[-1].startswith("-"):
                # Failure marker row: negative iteration index.
                trace.failure_calls = int(lines.pop().split(",")[1])
            if not lines:
                continue
            iteration, calls, f, gap, bound = zip(
                *[line.rstrip("\n").split(",") for line in lines], strict=True)
            trace.iteration += map(int, iteration)
            trace.oracle_calls += map(int, calls)
            trace.f_value += map(float, f)
            trace.gap += _cells(gap)
            trace.bound += _cells(bound)
    return trace

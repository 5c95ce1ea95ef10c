"""Per-iteration solver traces and their canonical CSV serialization.

The CSV schema is fixed: one comment line carrying the JSON-encoded run
header, the column row ``iter,oracle_calls,f,gap,bound``, then one row per
iteration.  Floats are serialized with 17 significant digits so files
round-trip bit-exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import islice
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
    #: The first row of a fixed-point fill, from which on every row holds the
    #: same ``oracle_calls``, ``f_value`` and ``gap`` objects, so the writer
    #: formats their text once; ``None`` for no fill.
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


class TraceRecorder:
    """The one source of every solver's trace header, gaps and columns.

    Solvers :meth:`record` each computed row and :meth:`fill` the rest of a
    run at a fixed point.  A given ``bound`` maps the iterations ``1..n-1``,
    as a float array, to their bound cells; row 0 has none.  As a context
    manager the recorder attaches the rows to a
    :class:`NumericalFailureError` as ``partial_trace``, with the calls
    ``counter`` holds at the failure.
    """

    def __init__(self, algorithm, obj, params, x0, counter, bound=None):
        self.header = {"algorithm": algorithm, "objective": obj.name,
                       "set": obj.feasible_set.to_spec(), "params": params, "x0": x0.tolist()}
        self._calls, self._f, self._gap = [], [], []
        self._fill = None
        self._bound = bound
        self._fstar = obj.optimal_value
        self._counter = counter

    def record(self, f):
        """Append the next row: the counter's calls, ``f`` and its gap ``f - f*``.

        The gap is ``None`` without a declared ``f*``.  A non-finite gap is a
        failure, raised before the row is appended.
        """
        gap = None
        if self._fstar is not None:
            gap = f - self._fstar
            if not -math.inf < gap < math.inf:
                raise NumericalFailureError(
                    f"gap f - f* of objective '{self.header['objective']}' "
                    f"is not finite: f = {f!r}, f* = {self._fstar!r}")
        self._calls.append(self._counter.calls)
        self._f.append(f)
        self._gap.append(gap)

    def fill(self, T):
        """Append the rows up to iteration ``T``, each repeating the last row's values."""
        n = len(self._calls)
        self._fill = n
        repeats = T + 1 - n
        self._calls += [self._calls[-1]] * repeats
        self._f += [self._f[-1]] * repeats
        self._gap += [self._gap[-1]] * repeats

    def trace(self, solution=None, failure=None, failure_calls=None):
        n = len(self._calls)
        bound = [None] * n
        if self._bound is not None and n > 1:
            bound[1:] = self._bound(np.arange(1.0, n)).tolist()
        return Trace(self.header, list(range(n)), self._calls, self._f, self._gap, bound,
                     solution, failure, failure_calls, self._fill)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, NumericalFailureError):
            exc.partial_trace = self.trace(failure=str(exc), failure_calls=self._counter.calls)


_encode = json.JSONEncoder(sort_keys=True).encode
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
    """A bool array: which of ``cells`` are empty (``None``)."""
    empty = cells.count(None)
    if empty == 0 or empty == len(cells):
        return np.full(len(cells), empty > 0)
    if cells[:empty].count(None) == empty:  # leading empty cells, as in row 0
        return np.arange(len(cells)) < empty
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
    only their iteration and bound cells are formatted per row.
    """
    yield "# "
    yield from _header_json(trace.header, {})
    yield "\niter,oracle_calls,f,gap,bound\n"
    n = len(trace.iteration)
    fill = n if trace._fill is None else trace._fill
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
    if "" not in texts:
        return list(map(float, texts))
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

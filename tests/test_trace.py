import copy
import dataclasses
import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopt import (
    Box,
    NumericalFailureError,
    Objective,
    OracleCounter,
    attach_rate_bounds,
    make_catalogue_objective,
    read_trace,
    run_accelerated,
    run_frank_wolfe,
    run_pgd,
    write_trace,
)
from qopt.trace import _CHUNK_ROWS, Trace, TraceRow, _csv_chunks

from conftest import trace_csv_lines

# One short run per solver on example1 from x0 = 5.
SOLVERS = {
    "accelerated": lambda obj, counter: run_accelerated(obj, np.array([5.0]), 1e-2, counter),
    "pgd": lambda obj, counter: run_pgd(obj, np.array([5.0]), 40, counter),
    "frank_wolfe": lambda obj, counter: run_frank_wolfe(obj, np.array([5.0]), 40, counter),
}


def failing_at(obj, k):
    """``obj`` with an oracle that raises :class:`NumericalFailureError` at its k-th query."""
    queries = 0

    def evaluator(x):
        nonlocal queries
        queries += 1
        if queries == k:
            raise NumericalFailureError(f"synthetic failure at query {k}")
        return obj.evaluator(x)

    return dataclasses.replace(obj, evaluator=evaluator)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("k", ["first", "second", "middle", "last"])
def test_failure_keeps_the_header_and_the_rows_written_before_it(solver, k):
    run = SOLVERS[solver]
    obj = make_catalogue_objective("example1")
    full = run(obj, OracleCounter())
    total = full.final_oracle_calls
    k = {"first": 1, "second": 2, "middle": total // 2, "last": total}[k]
    assert 1 <= k <= total

    counter = OracleCounter()
    with pytest.raises(NumericalFailureError, match=f"synthetic failure at query {k}$") as info:
        run(failing_at(obj, k), counter)
    partial = info.value.partial_trace
    assert counter.calls == k - 1
    # A row is written right after its last query, so exactly the rows whose
    # call count is below k were written before the k-th query failed.
    assert partial.rows == [row for row in full.rows if row.oracle_calls < k]
    assert partial.header == full.header
    assert sorted(partial.header) == ["algorithm", "objective", "params", "set", "x0"]
    assert partial.header["algorithm"] == solver
    assert partial.failure == f"synthetic failure at query {k}"
    assert partial.failure_calls == k - 1
    assert partial.solution is None


def offset_quadratic():
    """``0.5 ||x||^2 + 1e308`` on ``[-5, 5]`` with a declared ``f* = -1e308``.

    The solvers trust the declared ``optimal_value``; every ``f - f*`` is then
    above 2e308 and overflows.
    """
    return Objective(name="offset_quadratic",
                     evaluator=lambda x: (0.5 * float(x.dot(x)) + 1e308, x),
                     smoothness_L=1.0, quasar_gamma=1.0, feasible_set=Box([-5.0], [5.0]),
                     optimal_value=-1e308)


@pytest.mark.parametrize("solver", SOLVERS)
def test_overflowing_gap_is_a_numerical_failure(solver):
    with pytest.raises(NumericalFailureError,
                       match=r"gap f - f\* of objective 'offset_quadratic' is not finite") as info:
        SOLVERS[solver](offset_quadratic(), OracleCounter())
    # Row 0 is not written: its gap cell would read inf.
    assert info.value.partial_trace.rows == []
    assert str(info.value).endswith("f* = -1e+308")


def reference_csv_lines(trace):
    """The per-row writer the segment writer replaced, kept as its reference.

    A row with the same count and the same f and gap objects as the row before
    reuses its ",calls,f,gap," text: identity, never ==, since -0.0 == 0.0
    and nan != nan.
    """
    lines = ["# " + json.dumps(trace.header, sort_keys=True)]
    lines.append("iter,oracle_calls,f,gap,bound")
    append = lines.append
    middle, calls, f, gap = None, None, None, None
    for row in trace.rows:
        if row.oracle_calls != calls or row.f_value is not f or row.gap is not gap:
            calls, f, gap = row.oracle_calls, row.f_value, row.gap
            middle = (",%d,%.17g,%.17g," % (calls, f, gap) if gap is not None
                      else ",%d,%.17g,," % (calls, f))
        bound = row.bound
        append("%d%s%.17g" % (row.iteration, middle, bound) if bound is not None
               else "%d%s" % (row.iteration, middle))
    if trace.failure is not None:
        calls = trace.final_oracle_calls if trace.failure_calls is None else trace.failure_calls
        lines.append(f"-1,{calls},nan,,")
        lines.append("# numerical-failure: " + trace.failure)
    return lines


def test_csv_rows_match_a_per_row_reference():
    # Signed zeros, NaN f values, equal values in distinct objects and empty
    # cells in every position: the segments split wherever the empty cells
    # change, and each cell is formatted on its own.
    zero, negative_zero, nan = 0.0, -0.0, float("nan")
    a, b = float("0.1"), float("0.1")
    assert a is not b
    rows = [
        TraceRow(0, 3, zero, zero, None),
        TraceRow(1, 3, negative_zero, negative_zero, 1.0),
        TraceRow(2, 3, zero, negative_zero, 0.5),
        TraceRow(3, 3, zero, negative_zero, 0.25),
        TraceRow(4, 3, nan, None, 0.125),
        TraceRow(5, 3, nan, None, None),
        TraceRow(6, 3, float("nan"), None, 0.0625),
        TraceRow(7, 4, a, a, 2.0),
        TraceRow(8, 4, b, b, 3.0),
        TraceRow(9, 5, b, b, 3.0),
        TraceRow(10, 5, b, None, -0.0),
        TraceRow(11, 5, b, b, None),
    ]

    def cell(value):
        return "" if value is None else "%.17g" % value

    expected = [f"{r.iteration},{r.oracle_calls},{cell(r.f_value)},{cell(r.gap)},"
                f"{cell(r.bound)}" for r in rows]
    trace = Trace({}, *map(list, zip(*map(dataclasses.astuple, rows))), failure="stop",
                  failure_calls=6)
    assert trace.rows == rows
    lines = trace_csv_lines(trace)
    assert lines[1:] == ["iter,oracle_calls,f,gap,bound", *expected, "-1,6,nan,,",
                         "# numerical-failure: stop"]
    assert lines[3:5] == ["1,3,-0,-0,1", "2,3,0,-0,0.5"]
    assert lines == reference_csv_lines(trace)


def without_fstar(name):
    return dataclasses.replace(make_catalogue_objective(name), optimal_value=None)


# Traces whose bytes the segment writer must leave as the per-row writer made them.
REFERENCE_TRACES = {
    # Fills: 10,987 rows frozen after 1,861; a PGD fill before and after its
    # bounds are attached; fills with an empty gap column.
    "accelerated_example1_fill": lambda: run_accelerated(
        make_catalogue_objective("example1"), np.array([5.0]), 1e-4, OracleCounter()),
    "accelerated_glm_fill_no_fstar": lambda: run_accelerated(
        without_fstar("glm_sigmoid"), np.array([0.0, 0.0]), 1e-4, OracleCounter()),
    "pgd_fig1_fill": lambda: run_pgd(
        make_catalogue_objective("fig1_counterexample"), np.array([5.0]), 200, OracleCounter()),
    "pgd_fig1_fill_bounds": lambda: bounded(run_pgd(
        make_catalogue_objective("fig1_counterexample"), np.array([5.0]), 200, OracleCounter())),
    "pgd_fig1_fill_no_fstar": lambda: run_pgd(
        without_fstar("fig1_counterexample"), np.array([5.0]), 200, OracleCounter()),
    # No fill: every row computed, with and without the attached bounds.
    "accelerated_quadratic": lambda: run_accelerated(
        make_catalogue_objective("quadratic"), np.array([1.0, -0.0]), 1e-3, OracleCounter()),
    "frank_wolfe_example1": lambda: run_frank_wolfe(
        make_catalogue_objective("example1"), np.array([5.0]), 200, OracleCounter()),
    "frank_wolfe_example1_bounds": lambda: bounded(run_frank_wolfe(
        make_catalogue_objective("example1"), np.array([5.0]), 200, OracleCounter())),
    "pgd_example1_bounds": lambda: bounded(run_pgd(
        make_catalogue_objective("example1"), np.array([5.0]), 200, OracleCounter())),
}


def bounded(trace):
    obj = make_catalogue_objective(trace.header["objective"])
    return attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                              obj.feasible_set.diameter())


@pytest.mark.parametrize("name", REFERENCE_TRACES)
def test_solver_traces_match_the_per_row_reference(name, tmp_path):
    trace = REFERENCE_TRACES[name]()
    expected = reference_csv_lines(trace)
    assert trace_csv_lines(trace) == expected
    path = write_trace(trace, tmp_path / "trace.csv")
    text = "\n".join(expected) + "\n"
    assert path.read_bytes() == text.encode()
    # A trace read back carries no fill mark, so its filled rows go through
    # the other segments' formats: the bytes must not change.
    parsed = read_trace(path)
    assert parsed.rows == trace.rows
    assert write_trace(parsed, tmp_path / "again.csv").read_bytes() == text.encode()


@pytest.mark.parametrize("solver", SOLVERS)
def test_partial_traces_match_the_per_row_reference(solver):
    obj = make_catalogue_objective("example1")
    total = SOLVERS[solver](obj, OracleCounter()).final_oracle_calls
    for k in (1, 2, total // 2, total):
        with pytest.raises(NumericalFailureError) as info:
            SOLVERS[solver](failing_at(obj, k), OracleCounter())
        partial = info.value.partial_trace
        assert trace_csv_lines(partial) == reference_csv_lines(partial)
        assert trace_csv_lines(partial)[-2:] == [f"-1,{k - 1},nan,,",
                                                 f"# numerical-failure: synthetic failure at "
                                                 f"query {k}"]


COLUMNS = ("iteration", "oracle_calls", "f_value", "gap", "bound")


def last_row(trace):
    trace.f_value[-1] = 0.5
    trace.oracle_calls[-1] = 7


def row_after_the_fill_start(trace):
    trace.f_value[trace._fill + 1] = 9.0


def replaced_f_column(trace):
    return dataclasses.replace(trace, f_value=[*trace.f_value[:-1], -0.0])


def replaced_columns_cut_before_the_fill(trace):
    n = trace._fill // 2
    return dataclasses.replace(trace, **{c: getattr(trace, c)[:n] for c in COLUMNS})


# Fills edited after record_run marked them: in place, or through
# dataclasses.replace, which copies the fill mark with the other fields.
EDITS = {
    "accelerated_last_row": ("accelerated_example1_fill", last_row),
    "pgd_row_after_the_fill_start": ("pgd_fig1_fill", row_after_the_fill_start),
    "accelerated_replaced_f_column": ("accelerated_glm_fill_no_fstar", replaced_f_column),
    "pgd_replaced_columns_cut_before_the_fill": ("pgd_fig1_fill_bounds",
                                                 replaced_columns_cut_before_the_fill),
}


@pytest.mark.parametrize("case", EDITS)
def test_an_edited_fill_writes_the_rows_it_holds(case):
    name, edit = EDITS[case]
    trace = copy.deepcopy(REFERENCE_TRACES[name]())
    assert trace._fill is not None
    trace = edit(trace) or trace
    lines = trace_csv_lines(trace)
    assert lines == reference_csv_lines(trace)
    if case == "accelerated_last_row":
        assert lines[-1].startswith("10986,7,0.5,")


# Shared objects, so that rows repeat a cell's object as a fill does.
_FLOATS = st.sampled_from([0.0, -0.0, 0.1, 1e308, -5e-324, float("nan"), float("-inf")])


@st.composite
def written_traces(draw):
    """Traces with gap and bound cells empty nowhere, everywhere, in a leading
    run or anywhere; with a fill mark that holds, one that is stale, or none;
    with and without a failure marker."""
    n = draw(st.integers(1, 24))

    def cells():
        values = draw(st.lists(_FLOATS | st.floats(), min_size=n, max_size=n))
        pattern = draw(st.sampled_from(["none", "all", "leading", "mixed"]))
        if pattern == "leading":
            k = draw(st.integers(0, n))
            return [None] * k + values[k:]
        if pattern == "mixed":
            empty = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            return [None if e else v for e, v in zip(empty, values)]
        return [None] * n if pattern == "all" else values

    calls = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
    columns = [calls, draw(st.lists(_FLOATS | st.floats(), min_size=n, max_size=n)), cells()]
    fill = draw(st.sampled_from([None, "valid", "stale"])) if n > 1 else None
    if fill is not None:
        start = draw(st.integers(1, n - 1))
        for column in columns:
            column[start:] = [column[start - 1]] * (n - start)
        if fill == "stale":
            column = draw(st.sampled_from(columns))
            row = draw(st.integers(start, n - 1))
            value = column[row]
            column[row] = draw(st.sampled_from([
                None if value is None else type(value)(repr(value)),  # equal, a new object
                draw(st.integers(0, 2**40) if column is calls else _FLOATS | st.floats())]))
        fill = start
    failure = draw(st.sampled_from([None, "stop", "stop, at a comma"]))
    return Trace({"x0": [1.0]}, list(range(n)), *columns, cells(), failure=failure,
                 failure_calls=draw(st.none() | st.integers(0, 2**40)), _fill=fill)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(written_traces())
def test_writer_matches_the_per_row_reference(tmp_path_factory, trace):
    assert trace_csv_lines(trace) == reference_csv_lines(trace)
    path = write_trace(trace, tmp_path_factory.getbasetemp() / "property.csv")
    text = path.read_bytes()
    assert write_trace(read_trace(path), path).read_bytes() == text


@pytest.mark.parametrize("name", REFERENCE_TRACES)
def test_columns_match_the_per_row_arrays(name):
    trace = REFERENCE_TRACES[name]()
    for column in ("iteration", "oracle_calls", "f_value", "gap", "bound"):
        values = [getattr(row, column) for row in trace.rows]
        expected = np.array([np.nan if v is None else v for v in values], dtype=float)
        assert trace.column(column).tobytes() == expected.tobytes()


def test_vectorized_bounds_match_the_scalar_bound():
    trace = REFERENCE_TRACES["accelerated_example1_fill"]()
    params = trace.header["params"]
    bound_num, gamma_gamma = 16.0 * params["L"] * params["D"] * params["D"], params["gamma"] ** 2

    def bound(t):
        return bound_num / (gamma_gamma * t * t)

    assert params["T"] == trace.iteration[-1] == 10_986
    assert trace.bound[0] is None
    assert [b.hex() for b in trace.bound[1:]] == [bound(s).hex() for s in trace.iteration[1:]]


_LONG = np.random.default_rng(7).standard_normal(30_000).tolist()
_NAN, _INF = float("nan"), float("inf")
# One chunk is _CHUNK_ROWS = 1,024 entries.
_EDGES = {f"n{n}": _LONG[:n] for n in (1_023, 1_024, 1_025, 2_049)}
_NAN_IN_SECOND_CHUNK = [*_LONG[:1_500], _NAN, *_LONG[1_501:2_049]]
_NEGATIVE_ZERO_LAST = {"a": [*_LONG[:2_048], 0.0], "b": [*_LONG[:2_048], -0.0]}


@pytest.mark.parametrize("header", [
    {"algorithm": "pgd", "config": {"algorithm": "pgd", "x0": [1, 0], "T": 5},
     "params": {"step_size": 1.0}, "seed": None, "x0": [1.0, 0.0]},
    {"config": {"x0": [-0.0, 0.0]}, "x0": [0.0, 0.0], "y": [0.0, -0.0], "z": [-0.0, 0.0]},
    {"config": {"epsilon": _NAN, "x0": [_INF, -_INF, _NAN]}, "seed": 0,
     "x0": [_INF, -_INF, _NAN], "y": [_NAN, _INF, -_INF]},
    {"a": [True, False], "b": [1.0, 0.0], "c": [1, 0], "d": [False, True]},
    {"a": [np.float64(0.1), np.float64(-0.0)], "b": [0.1, -0.0], "c": [np.float64(0.1), -0.0]},
    {"a": {"b": {"c": [0.5, 0.25], "d": {}}, "e": [[0.5, 0.25]]}, "f": [0.5, 0.25],
     "g": ({"h": 1.0},), "i": []},
    {"é": [1.0], "ключ": {"ü": 2, "\u2028": "\u00e9\"\\"}, "\U0001f600": "ok", "b": "é"},
    {"params": {2: [1.0], 1: [1.0]}, "x0": [1.0]},
    {1: [1.0], 0: "zero", 0.5: True},
    {},
    {"config": {"x0": _LONG}, "x0": list(_LONG), "y": [*_LONG[:-1], -_LONG[-1]],
     "z": [1.0] * 29_999 + [1], "w": [1.0] * 30_000},
    _EDGES,
    {"x0": _NAN_IN_SECOND_CHUNK, "y": _LONG[:2_049]},
    _NEGATIVE_ZERO_LAST,
    {"a": [], "b": _LONG, "c": {"d": [], "e": _LONG}},
], ids=["ints_beside_floats", "signed_zeros", "nan_and_infinity", "bools", "np_float64",
        "nested", "non_ascii", "non_str_keys", "non_str_top_level_keys", "empty",
        "long_equal_lists", "chunk_edges", "nan_in_second_chunk", "negative_zero_in_last_chunk",
        "empty_beside_long"])
def test_header_line_is_json_dumps_sorted(header):
    line = trace_csv_lines(Trace(header))[0]
    assert line == "# " + json.dumps(header, sort_keys=True)


def test_header_is_written_a_chunk_at_a_time():
    # A 100,000-entry x0 is a ~2 MB text, twice in the header; no piece
    # written may be longer than the text of one chunk of its entries.
    x0 = np.random.default_rng(3).standard_normal(100_000).tolist()
    header = {"config": {"x0": x0}, "params": {"shift": [0.0] * 100_000}, "x0": list(x0)}
    pieces = list(_csv_chunks(Trace(header)))
    longest_chunk = max(len(", ".join(map(repr, x0[lo:lo + _CHUNK_ROWS])))
                        for lo in range(0, len(x0), _CHUNK_ROWS))
    assert max(map(len, pieces)) <= longest_chunk
    assert "".join(pieces) == ("# " + json.dumps(header, sort_keys=True)
                               + "\niter,oracle_calls,f,gap,bound\n")


def test_trace_row_has_no_instance_dict():
    row = TraceRow(0, 1, 0.5, None, None)
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.extra = 1


@pytest.mark.parametrize("n", [1, 1_022, 1_023, 1_024, 1_025, 2_048, 3_000])
@pytest.mark.parametrize("failure", [None, "stop, at a comma"])
def test_read_trace_round_trips_at_chunk_edges(n, failure, tmp_path):
    # Rows are parsed _CHUNK_ROWS lines at a time: the failure marker row and
    # the failure line may end one chunk or start the next.  The gap column
    # is empty on every third row and the bound cell of row 0.
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n).tolist()
    trace = Trace({"x0": [1.0]}, list(range(n)), list(range(0, 2 * n, 2)), f,
                  [None if i % 3 == 0 else v for i, v in enumerate(f)],
                  [None, *rng.standard_normal(n - 1).tolist()],
                  failure=failure, failure_calls=None if failure is None else 2 * n + 1)
    path = write_trace(trace, tmp_path / "trace.csv")
    parsed = read_trace(path)
    assert parsed == trace
    assert write_trace(parsed, tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_header_encoding_leaves_no_garbage_cycle():
    # A memo caught in a reference cycle would outlive the call until the
    # next collection: with collection off, nothing may be left to collect.
    header = {"config": {"x0": _LONG}, "params": {"shift": [0.0] * 30_000}, "x0": list(_LONG)}
    gc.collect()
    gc.disable()
    try:
        trace_csv_lines(Trace(header))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_header_line_with_trailing_text_is_rejected(tmp_path):
    # The header comment holds one JSON object and nothing after it.
    path = write_trace(Trace({"x0": [1.0]}, [0], [1], [0.5], [None], [None]),
                       tmp_path / "trace.csv")
    lines = path.read_text().split("\n")
    lines[0] += " trailing"
    path.write_text("\n".join(lines))
    with pytest.raises(json.JSONDecodeError, match="Extra data"):
        read_trace(path)


def test_a_numpy_integer_T_writes_the_bytes_of_the_int(tmp_path):
    # is_int accepts a numpy integer T; the header writes the number it holds.
    example1 = make_catalogue_objective("example1")
    paths = [write_trace(run_pgd(example1, [5.0], T, OracleCounter()), tmp_path / f"{i}.csv")
             for i, T in enumerate((5, np.int64(5)))]
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("solver", ["pgd", "accelerated"])
def test_a_float32_L_writes_a_trace_that_round_trips(solver, tmp_path):
    # L = np.float32(2.0) passes the gates and reaches the header as eta, or
    # as L, lam and delta.
    quadratic = make_catalogue_objective("quadratic")
    obj = dataclasses.replace(quadratic, smoothness_L=np.float32(2.0))
    counter = OracleCounter()
    trace = (run_pgd(obj, [1.0, 1.0], 5, counter) if solver == "pgd"
             else run_accelerated(obj, [1.0, 1.0], 1e-2, counter))
    path = write_trace(trace, tmp_path / "trace.csv")
    parsed = read_trace(path)
    assert parsed.header["params"] == {k: v.item() if isinstance(v, np.generic) else v
                                       for k, v in trace.header["params"].items()}
    assert write_trace(parsed, tmp_path / "again.csv").read_bytes() == path.read_bytes()

import dataclasses
import gc
import json

import numpy as np
import pytest

from qopt import (
    Box,
    NumericalFailureError,
    Objective,
    OracleCounter,
    make_catalogue_objective,
    run_accelerated,
    run_frank_wolfe,
    run_pgd,
)
from qopt.trace import Trace, TraceRow, format_float, trace_csv_lines

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


def test_csv_rows_match_a_per_row_reference():
    # Rows that share their call count and their f and gap objects share one
    # formatted prefix; equal values in other objects, and a sign flip of a
    # zero, are formatted on their own.
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
        return "" if value is None else format_float(value)

    expected = [f"{r.iteration},{r.oracle_calls},{format_float(r.f_value)},{cell(r.gap)},"
                f"{cell(r.bound)}" for r in rows]
    lines = trace_csv_lines(Trace(header={}, rows=rows, failure="stop", failure_calls=6))
    assert lines[1:] == ["iter,oracle_calls,f,gap,bound", *expected, "-1,6,nan,,",
                         "# numerical-failure: stop"]
    assert lines[3:5] == ["1,3,-0,-0,1", "2,3,0,-0,0.5"]


_LONG = np.random.default_rng(7).standard_normal(30_000).tolist()
_NAN, _INF = float("nan"), float("inf")


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
], ids=["ints_beside_floats", "signed_zeros", "nan_and_infinity", "bools", "np_float64",
        "nested", "non_ascii", "non_str_keys", "non_str_top_level_keys", "empty",
        "long_equal_lists"])
def test_header_line_is_json_dumps_sorted(header):
    line = trace_csv_lines(Trace(header=header, rows=[]))[0]
    assert line == "# " + json.dumps(header, sort_keys=True)


def test_header_encoding_leaves_no_garbage_cycle():
    # A memo caught in a reference cycle would outlive the call until the
    # next collection: with collection off, nothing may be left to collect.
    header = {"config": {"x0": _LONG}, "params": {"shift": [0.0] * 30_000}, "x0": list(_LONG)}
    gc.collect()
    gc.disable()
    try:
        trace_csv_lines(Trace(header=header, rows=[]))
        assert gc.collect() == 0
    finally:
        gc.enable()

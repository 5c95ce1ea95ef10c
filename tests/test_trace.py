import dataclasses

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

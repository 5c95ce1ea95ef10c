"""Input validation happens at the public entry points, through one gate.

Every entry that takes a caller's point (the three solvers, the prox, the
line search and the gradient mapping) passes it through
``FeasibleSet.checked_point``: a point must be finite and within
``MEMBERSHIP_TOL`` (1e-10) of the set, or the entry raises
``PreconditionError`` before any oracle call, and ``qopt run`` exits 2 naming
``x0``.  A NaN or infinite point is no member of any set.  Points produced
inside a solver loop are not re-checked.
"""

import json
import math

import numpy as np
import pytest

from qopt import (
    Ball,
    Box,
    FeasibleSet,
    InvalidArgumentError,
    Objective,
    OracleCounter,
    PreconditionError,
    Simplex,
    binary_line_search,
    gradient_mapping,
    make_catalogue_objective,
    run_accelerated,
    run_frank_wolfe,
    run_pgd,
    solve_prox_subproblem,
)
from qopt.cli import main
from qopt.sets import MEMBERSHIP_TOL

#: A caller's point through each public entry, as a call on ``(obj, x)``.
CALLS = {
    "run_pgd": lambda obj, x: run_pgd(obj, x, 3, OracleCounter()),
    "run_frank_wolfe": lambda obj, x: run_frank_wolfe(obj, x, 3, OracleCounter()),
    "run_accelerated": lambda obj, x: run_accelerated(obj, x, 1e-1, OracleCounter()),
    "solve_prox_subproblem": lambda obj, x: solve_prox_subproblem(obj, x, 1e-8, OracleCounter()),
    "gradient_mapping": lambda obj, x: gradient_mapping(obj, x, 0.5, OracleCounter()),
    "binary_line_search y":
        lambda obj, x: binary_line_search(obj, x, obj.center, 1.0, 1e-10, OracleCounter()),
    "binary_line_search z":
        lambda obj, x: binary_line_search(obj, obj.center, x, 1.0, 1e-10, OracleCounter()),
}
ENTRIES = tuple(CALLS) + tuple(f"qopt run {a}" for a in ("pgd", "frank_wolfe", "accelerated"))


def rejects(entry, obj, x, tmp_path, capsys):
    """True when ``entry`` refuses the start point ``x``; it must accept or refuse cleanly."""
    if entry.startswith("qopt run "):
        algorithm = entry.split()[-1]
        budget = {"epsilon": 1e-1} if algorithm == "accelerated" else {"T": 3}
        config = {"algorithm": algorithm, "objective": obj.name, "x0": x.tolist(), **budget}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["run", str(path), "--output", str(tmp_path / "trace.csv")])
        assert code in (0, 2)
        if code == 2:
            assert "config field 'x0'" in capsys.readouterr().err
        return code == 2
    try:
        CALLS[entry](obj, x)
    except PreconditionError:
        return True
    return False


@pytest.mark.parametrize("outside", [5e-11, 5e-10, 2e-9, math.nan, math.inf])
@pytest.mark.parametrize("entry", ENTRIES)
def test_start_point_tolerance(example1, tmp_path, capsys, entry, outside):
    # Fixed expectations: a looser or tighter MEMBERSHIP_TOL fails this test.
    assert MEMBERSHIP_TOL == 1e-10
    x = example1.feasible_set.upper + outside
    assert rejects(entry, example1, x, tmp_path, capsys) == (outside != 5e-11)


SETS = {
    "box": Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
    "ball": Ball([0.0, 0.0, 0.0], 1.0),
    "simplex": Simplex(3),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", SETS)
def test_a_non_finite_point_is_no_member(kind, value):
    set_ = SETS[kind]
    x = set_.center_point()
    x[0] = value
    assert not set_.contains(x)
    assert not set_.distance(x) <= 1e300
    obj = make_catalogue_objective("quadratic", {"set": set_})
    for entry in ("run_pgd", "run_accelerated", "solve_prox_subproblem"):
        with pytest.raises(PreconditionError, match="finite feasible point"):
            CALLS[entry](obj, x)
    with pytest.raises(InvalidArgumentError, match="center"):
        Objective("bad", obj.evaluator, 1.0, 1.0, set_, center=x)


def test_accelerated_checks_membership_only_at_x0(example1, monkeypatch):
    calls = []
    contains = FeasibleSet.contains

    def counted(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(FeasibleSet, "contains", counted)
    counts, outer = [], []
    for eps in (1e-2, 1e-3):
        calls.clear()
        trace = run_accelerated(example1, np.array([5.0]), eps, OracleCounter())
        counts.append(len(calls))
        outer.append(trace.header["params"]["T"])
    assert outer[0] < outer[1]
    assert counts == [1, 1]


@pytest.mark.parametrize("delta", [5e-324, 1e-310, math.inf, math.nan])
@pytest.mark.parametrize("entry", ["solve_prox_subproblem", "binary_line_search"])
def test_extreme_delta_rejected_before_any_oracle_call(quadratic, entry, delta):
    # A subnormal delta overflows 8 L D^2 / delta, and so the iteration cap
    # and the halving budget; an infinite delta would certify anything.
    counter = OracleCounter()
    y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
    with pytest.raises(InvalidArgumentError, match="delta"):
        if entry == "solve_prox_subproblem":
            solve_prox_subproblem(quadratic, y, delta, counter)
        else:
            binary_line_search(quadratic, y, z, 1.0, delta, counter)
    assert counter.calls == 0

"""Input validation happens at the public entry points, through one gate.

Every entry that takes a caller's point (the three solvers, the prox, the
line search and the gradient mapping) passes it through
``FeasibleSet.checked_point``: a point must be finite and within
``MEMBERSHIP_TOL`` (1e-10) of the set, or the entry raises
``PreconditionError`` before any oracle call, and ``qopt run`` exits 2 naming
``x0``.  A NaN or infinite point is no member of any set.  Points produced
inside a solver loop are not re-checked.

Every positive scalar a public entry takes passes ``sets.is_positive_finite``
likewise: a bool, a NaN, an infinity, a nonpositive number or an integer too
large for a float is an ``InvalidArgumentError`` naming the argument (a
``ConfigError`` naming ``epsilon`` in a config), before any oracle call.
A quasar-convexity gamma passes ``sets.is_quasar_gamma``, a real number in
``(0, 1]``, and the line search's ``c`` must be a real number in ``[0, inf)``
whose slack ``(9 + 5 c) delta`` stays finite; a bool is neither.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from qopt import (
    Ball,
    Box,
    ConfigError,
    FeasibleSet,
    InvalidArgumentError,
    Objective,
    OracleCounter,
    PreconditionError,
    Simplex,
    attach_rate_bounds,
    binary_line_search,
    compute_schedule,
    finite_diff_gradient,
    gradient_mapping,
    load_config,
    make_catalogue_objective,
    run_accelerated,
    run_frank_wolfe,
    run_pgd,
    solve_prox_subproblem,
)
from qopt.accel import MAX_ITERATIONS
from qopt.cli import main
from qopt.sets import MEMBERSHIP_TOL, is_positive_finite, is_quasar_gamma
from qopt.trace import Trace, write_trace

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


def pgd_trace():
    """A two-row PGD trace, as a baseline run returns it before its bounds."""
    return Trace({"algorithm": "pgd"}, [0, 1], [1, 2], [1.0, 0.5], [None, None], [None, None])


#: Each positive scalar a public entry takes, as a call on ``(value, obj, x,
#: counter)``, and the argument name its error gives.  ``obj`` is an objective
#: on the box ``[-1, 1]^2`` that records every evaluator call, ``x`` a point of it.
SCALARS = {
    "load_config epsilon": (lambda v, obj, x, c: load_config(
        {"algorithm": "accelerated", "objective": "quadratic", "epsilon": v}), "epsilon"),
    "compute_schedule L": (lambda v, obj, x, c: compute_schedule(1.0, v, 1.0, 1e-2), "L"),
    "compute_schedule D": (lambda v, obj, x, c: compute_schedule(1.0, 1.0, v, 1e-2), "D"),
    "compute_schedule epsilon":
        (lambda v, obj, x, c: compute_schedule(1.0, 1.0, 1.0, v), "epsilon"),
    "run_accelerated epsilon": (lambda v, obj, x, c: run_accelerated(obj, x, v, c), "epsilon"),
    "Objective smoothness_L": (lambda v, obj, x, c: Objective(
        "bad", obj.evaluator, v, 1.0, obj.feasible_set), "smoothness_L"),
    "solve_prox_subproblem delta":
        (lambda v, obj, x, c: solve_prox_subproblem(obj, x, v, c), "delta"),
    "binary_line_search delta":
        (lambda v, obj, x, c: binary_line_search(obj, x, -x, 1.0, v, c), "delta"),
    "Ball radius": (lambda v, obj, x, c: Ball([0.0], v), "radius"),
    "Simplex scale": (lambda v, obj, x, c: Simplex(2, v), "scale"),
    "gradient_mapping eta": (lambda v, obj, x, c: gradient_mapping(obj, x, v, c), "eta"),
    "finite_diff_gradient h": (lambda v, obj, x, c: finite_diff_gradient(obj, x, v), "h"),
    "attach_rate_bounds L":
        (lambda v, obj, x, c: attach_rate_bounds(pgd_trace(), v, 1.0, 1.0), "L"),
    "attach_rate_bounds D":
        (lambda v, obj, x, c: attach_rate_bounds(pgd_trace(), 1.0, 1.0, v), "D"),
}


@pytest.mark.parametrize("value", [math.inf, math.nan, 0, -1, True, 10**400],
                         ids=["inf", "nan", "0", "-1", "True", "10**400"])
@pytest.mark.parametrize("entry", SCALARS)
def test_a_positive_scalar_passes_one_gate(entry, value):
    call, name = SCALARS[entry]
    quadratic = make_catalogue_objective("quadratic")
    queries = []

    def recorded(x):
        queries.append(x)
        return quadratic.evaluator(x)

    obj = Objective("recorded", recorded, 1.0, 1.0, quadratic.feasible_set)
    counter = OracleCounter()
    if entry == "load_config epsilon":
        with pytest.raises(ConfigError, match="must be a positive finite number") as excinfo:
            call(value, obj, np.array([0.5, 0.5]), counter)
        assert excinfo.value.field == "epsilon"
    else:
        with pytest.raises(InvalidArgumentError,
                           match=rf"\b{name} must be a positive finite number"):
            call(value, obj, np.array([0.5, 0.5]), counter)
    assert counter.calls == 0 and queries == []


@pytest.mark.parametrize("value,expected", [
    (1, True), (10**300, True), (5e-324, True), (1.7976931348623157e308, True),
    (np.float64(0.5), True), (np.int64(3), True), (np.float32(2.0), True),
    (0.0, False), (-0.0, False), (-1e-300, False), (math.inf, False), (math.nan, False),
    (10**400, False), (-(10**400), False), (True, False), (np.bool_(True), False),
    ("1", False), (None, False), (np.array(1.0), False), ([1.0], False), (1 + 0j, False),
])
def test_is_positive_finite(value, expected):
    assert is_positive_finite(value) is expected


#: Each entry that takes a quasar-convexity gamma, as a call on ``(value, obj)``.
GAMMAS = {
    "compute_schedule": lambda v, obj: compute_schedule(v, 1.0, 1.0, 1e-2),
    "Objective": lambda v, obj: Objective("bad", obj.evaluator, 1.0, v, obj.feasible_set),
    "attach_rate_bounds": lambda v, obj: attach_rate_bounds(pgd_trace(), 1.0, v, 1.0),
}


@pytest.mark.parametrize("value", [True, "0.5", math.nan, math.inf, 0, 1.5, 10**400],
                         ids=["True", "str", "nan", "inf", "0", "1.5", "10**400"])
@pytest.mark.parametrize("entry", GAMMAS)
def test_gamma_passes_one_gate(quadratic, entry, value):
    # True ran as 1 and "0.5" raised a raw TypeError.
    with pytest.raises(InvalidArgumentError, match=r"gamma must be a real number in \(0, 1\]"):
        GAMMAS[entry](value, quadratic)


@pytest.mark.parametrize("value,expected", [
    (1, True), (1.0, True), (0.5, True), (5e-324, True), (np.float64(0.25), True),
    (np.int64(1), True), (0, False), (-0.5, False), (1.0000000000000002, False),
    (math.nan, False), (math.inf, False), (10**400, False), (-(10**400), False),
    (True, False), (np.bool_(True), False), ("0.5", False), (None, False),
])
def test_is_quasar_gamma(value, expected):
    assert is_quasar_gamma(value) is expected


def test_an_integer_gamma_keeps_its_trace_bytes(quadratic, tmp_path):
    # Pinned before gamma had its own predicate: the header records the 1 as given.
    trace = run_accelerated(dataclasses.replace(quadratic, quasar_gamma=1), np.array([1.0, 1.0]),
                            1e-2, OracleCounter())
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    assert b'"gamma": 1,' in path.read_bytes()
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "44cc126f5875951ba6ff6d086dadc3a5aeddd3b5c1e12662cf83d94d2160548b")


@pytest.mark.parametrize("c", [math.inf, math.nan, True, -1, 10**400, 1e308],
                         ids=["inf", "nan", "True", "-1", "10**400", "1e308"])
def test_line_search_constant_is_checked_first(quadratic, c):
    # c = inf returned alpha = 1 with the segment never tested, True ran as 1,
    # 10**400 raised a raw OverflowError in the slack, and 1e308 made it inf.
    counter = OracleCounter()
    with pytest.raises(InvalidArgumentError, match=r"^line-search constant c\b"):
        binary_line_search(quadratic, np.array([0.2, -0.3]), np.array([1.0, 1.0]), c, 1e-10,
                           counter)
    assert counter.calls == 0


def test_line_search_accepts_a_zero_constant(quadratic):
    y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
    counters = [OracleCounter(), OracleCounter()]
    exact, as_float = (binary_line_search(quadratic, y, z, c, 1e-10, counter)
                       for c, counter in zip((0, 0.0), counters))
    assert exact.exit == as_float.exit and exact.alpha == as_float.alpha
    assert exact.x.tobytes() == as_float.x.tobytes()
    assert counters[0].calls == counters[1].calls > 0


def test_a_401_digit_epsilon_is_a_config_error(tmp_path, capsys):
    # It passes "0 < epsilon < inf", then overflowed when the schedule divided by it.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"algorithm": "accelerated", "objective": "quadratic",
                                "epsilon": 10**400}))
    assert main(["run", str(path), "--output", str(tmp_path / "trace.csv")]) == 2
    err = capsys.readouterr().err
    assert "config field 'epsilon': must be a positive finite number" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("T", [-1, 2.5, 3.0, True, MAX_ITERATIONS + 1, "3", None])
@pytest.mark.parametrize("run", [run_pgd, run_frank_wolfe])
def test_baseline_iteration_count_is_checked_first(quadratic, run, T):
    counter = OracleCounter()
    with pytest.raises(InvalidArgumentError, match=r"^T must be an integer from 0 to"):
        run(quadratic, np.array([0.5, 0.5]), T, counter)
    assert counter.calls == 0


@pytest.mark.parametrize("run", [run_pgd, run_frank_wolfe])
def test_zero_baseline_iterations_record_the_start(quadratic, run):
    counter = OracleCounter()
    trace = run(quadratic, np.array([0.5, 0.5]), np.int64(0), counter)
    assert trace.iteration == [0]
    assert trace.final_oracle_calls == counter.calls == 1

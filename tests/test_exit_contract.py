"""Property test of the CLI's exit-code contract over generated configs.

``qopt run`` must end in 0 (a trace that round-trips through ``read_trace``),
2 (a config error) or 3 (a trace with the failure marker), and raise nothing:
exit 1 is reserved for failed verification checks.  A number that is
non-finite, boolean or, where an integer is due, non-integral ends in 2.
"""

import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from qopt.cli import main
from qopt.harness import ALGORITHMS
from qopt.trace import read_trace, write_trace

# Deterministic, no example database on disk, no per-example deadline.
CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=30)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
WRONG_TYPE = st.sampled_from(["a", [1.0], {"x": 1.0}, None, True])
NON_INTEGRAL = st.floats(-50.0, 50.0).filter(lambda v: not v.is_integer())


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


@st.composite
def well_formed(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    d = draw(st.integers(1, 5))
    name = draw(st.sampled_from(["quadratic", "affine_plus_quadratic", "example1",
                                 "glm_sigmoid"]))
    params = {}
    if name == "quadratic":
        params = {"dim": d, "shift": draw(_floats(-2.0, 2.0, d))}
    elif name == "affine_plus_quadratic":
        params = {"dim": d, "a": draw(_floats(-2.0, 2.0, d)), "q": draw(st.floats(0.0, 2.0))}
    kind = draw(st.sampled_from([None, "box", "ball", "simplex"])) if params else None
    if kind == "box":
        r = draw(st.floats(0.1, 3.0))
        params["set"] = {"kind": "box", "lower": [-r] * d, "upper": [r] * d}
    elif kind == "ball":
        params["set"] = {"kind": "ball", "center": draw(_floats(-1.0, 1.0, d)),
                         "radius": draw(st.floats(0.1, 3.0))}
    elif kind == "simplex":
        params["set"] = {"kind": "simplex", "dimension": d, "scale": draw(st.floats(0.1, 3.0))}
    raw = {"algorithm": algorithm, "objective": {"name": name, "params": params},
           "x0": draw(st.sampled_from(["vertex", "center"])), "seed": draw(st.integers(0, 9))}
    if algorithm == "accelerated":
        raw["epsilon"] = draw(st.floats(1e-2, 1.0))
    else:
        raw["T"] = draw(st.integers(1, 50))
    return raw


def _paths(node, prefix=()):
    """Every key path below ``node``, in a fixed order."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def malformed(draw):
    """A well-formed config with one value, at any depth, made non-finite or mistyped."""
    raw = draw(well_formed())
    if draw(st.booleans()):  # an explicit x0 exposes its entries too
        raw["x0"] = [0.0] * raw["objective"]["params"].get("dim", 1)
    path = draw(st.sampled_from(list(_paths(raw))))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.one_of(NON_FINITE, WRONG_TYPE))
    return raw


@st.composite
def bad_number(draw):
    """A well-formed config with ``epsilon``, ``T``, ``seed``, ``dim`` or ``dimension``
    made non-finite, boolean or, for the integer fields, non-integral."""
    raw = draw(well_formed())
    params = raw["objective"]["params"]
    slots = [(raw, "seed"), (raw, "epsilon" if raw["algorithm"] == "accelerated" else "T")]
    if "dim" in params:
        slots += [(params, "dim"), (raw, "dim")]
    if params.get("set", {}).get("kind") == "simplex":
        slots.append((params["set"], "dimension"))
    node, key = draw(st.sampled_from(slots))
    values = st.one_of(NON_FINITE, st.booleans())
    if key != "epsilon":
        values = st.one_of(values, NON_INTEGRAL)
    node[key] = draw(values)
    return raw


def run_cli(raw):
    """``qopt run`` on ``raw``, with the contract's trace checks; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        config, output = os.path.join(tmp, "config.json"), os.path.join(tmp, "trace.csv")
        with open(config, "w") as fh:
            json.dump(raw, fh)
        code = main(["run", config, "--output", output])
        if code == 0:
            # The written rows read back and write out again to the same bytes.
            again = os.path.join(tmp, "again.csv")
            write_trace(read_trace(output), again)
            with open(output, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()
        if code == 3:
            assert read_trace(output).failure is not None
        return code


@CONTRACT
@given(well_formed())
def test_well_formed_config_exits_0(raw):
    assert run_cli(raw) == 0


@CONTRACT
@given(malformed())
def test_malformed_config_exits_0_2_or_3(raw):
    assert run_cli(raw) in (0, 2, 3)


@CONTRACT
@given(bad_number())
def test_non_finite_boolean_or_fractional_number_exits_2(raw):
    assert run_cli(raw) == 2

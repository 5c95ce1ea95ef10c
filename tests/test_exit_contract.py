"""Property test of the CLI's exit-code contract over generated configs.

``qopt run`` must end in 0 (a trace that round-trips through ``read_trace``),
2 (a config error) or 3 (a trace with the failure marker), and raise nothing:
exit 1 is reserved for failed verification checks.  A number that is
non-finite, boolean, a string or, where an integer is due, non-integral ends
in 2, naming its field; so does such an entry of a vector.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopt.cli import main
from qopt.harness import ALGORITHMS
from qopt.sets import set_from_spec
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
    """A well-formed config with one numeric leaf made non-finite, boolean, a
    numeric string or, for the integer fields, non-integral; with the field
    its config error must name.  The leaves are ``epsilon``, ``T``, ``seed``,
    ``dim``, ``dimension``, ``q``, ``radius``, ``scale`` and every entry of
    an explicit ``x0`` (a point of the set), ``shift``, ``a`` and the set's
    vectors."""
    raw = draw(well_formed())
    params = raw["objective"]["params"]
    if params:
        # An explicit x0, a point of the set: its given one, or the default
        # box [-1, 1]^dim.
        spec = params.get("set", {"kind": "box", "lower": [-1.0] * params["dim"],
                                  "upper": [1.0] * params["dim"]})
        raw["x0"] = set_from_spec(spec).center_point().tolist()
    # Each leaf's (node, key) slots: one for a number, one per entry for a vector.
    set_ = params.get("set", {})
    leaves = {key: [(raw, key)] for key in ("seed", "epsilon", "T") if key in raw}
    leaves.update({key: [(params, key)] for key in ("dim", "q") if key in params})
    leaves.update({key: [(set_, key)] for key in ("dimension", "radius", "scale") if key in set_})
    vectors = {key: params[key] for key in ("shift", "a") if key in params}
    vectors.update({key: set_[key] for key in ("lower", "upper", "center") if key in set_})
    if isinstance(raw["x0"], list):
        vectors["x0"] = raw["x0"]
    leaves.update({key: [(v, i) for i in range(len(v))] for key, v in vectors.items()})
    node, key = draw(st.sampled_from(leaves[draw(st.sampled_from(sorted(leaves)))]))
    # A numeric string that reads as the value it replaces.
    values = st.one_of(NON_FINITE, st.booleans(), st.just(repr(node[key])))
    if key in ("T", "seed", "dim", "dimension"):
        values = st.one_of(values, NON_INTEGRAL)
    node[key] = draw(values)
    if node is raw["x0"]:
        return raw, "x0"
    return raw, key if node is raw else "objective"


def _probe(params, x0="vertex", name="quadratic"):
    return {"algorithm": "pgd", "T": 5, "x0": x0,
            "objective": {"name": name, "params": {"dim": 2, **params}}}


_BOX = {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
# A string or a bool where a number is due: a vector's entry, q, radius or scale.
PROBES = {
    "x0_strings": (_probe({}, x0=["1", "0"]), "x0"),
    "x0_bools": (_probe({}, x0=[True, False]), "x0"),
    "shift_strings": (_probe({"shift": ["0.5", "0.5"]}), "objective"),
    "shift_bools": (_probe({"shift": [True, False]}), "objective"),
    "a_strings": (_probe({"a": ["1", "1"]}, name="affine_plus_quadratic"), "objective"),
    "box_strings": (_probe({"set": {"kind": "box", "lower": ["-1", "-1"], "upper": ["1", "1"]}}),
                    "objective"),
    "ball_center_bools": (_probe({"set": {"kind": "ball", "center": [True, False],
                                          "radius": 1.0}}), "objective"),
    "ball_radius_string": (_probe({"set": {"kind": "ball", "center": [0.0, 0.0],
                                           "radius": "1"}}), "objective"),
    "simplex_scale_bool": (_probe({"set": {"kind": "simplex", "dimension": 2, "scale": True}}),
                           "objective"),
    "q_string": (_probe({"q": "1"}, name="affine_plus_quadratic"), "objective"),
    "q_bool": (_probe({"q": True}, name="affine_plus_quadratic"), "objective"),
    "box_x0_string": (_probe({"set": _BOX}, x0=[0.0, "0"]), "x0"),
}


@pytest.mark.parametrize("probe", PROBES)
def test_a_string_or_bool_number_exits_2_naming_its_field(probe, capsys):
    raw, field = PROBES[probe]
    assert run_cli(raw) == 2
    assert capsys.readouterr().err.startswith(f"config error: config field '{field}': ")


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


# At q = 5e-324 both -a / q and PGD's step 1 / q overflow.
@pytest.mark.parametrize("set_spec", [{"kind": "simplex", "dimension": 2, "scale": 1.0},
                                      {"kind": "ball", "center": [0, 0], "radius": 1}])
@pytest.mark.parametrize("q", [5e-324, 1e-300])
def test_a_tiny_q_exits_0_with_a_finite_gap(set_spec, q, tmp_path):
    config, output = tmp_path / "config.json", tmp_path / "trace.csv"
    config.write_text(json.dumps({"algorithm": "pgd", "T": 5, "objective": {
        "name": "affine_plus_quadratic", "params": {"dim": 2, "q": q, "set": set_spec}}}))
    assert main(["run", str(config), "--output", str(output)]) == 0
    assert math.isfinite(read_trace(output).final_gap)


@CONTRACT
@given(well_formed())
def test_well_formed_config_exits_0(raw):
    assert run_cli(raw) == 0


@CONTRACT
@given(malformed())
def test_malformed_config_exits_0_2_or_3(raw):
    assert run_cli(raw) in (0, 2, 3)


# More examples than the other properties: one draw picks one of many leaves.
@settings(CONTRACT, max_examples=200)
@given(bad_number())
def test_non_finite_boolean_or_fractional_number_exits_2(case):
    raw, field = case
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(raw) == 2
    assert err.getvalue().startswith(f"config error: config field '{field}': ")

"""The config examples in README.md load and run as documented, its config
keys and sweepable fields are the ones the harness accepts, its catalogue
table states the registry's names and declared constants, and the chunk size
and membership tolerance it states are the code's."""

import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import qopt
from qopt import load_config, make_catalogue_objective, run_experiment
from qopt.harness import _CONFIG_KEYS, _SWEEPABLE
from qopt.objectives import CATALOGUE_NAMES
from qopt.sets import MEMBERSHIP_TOL
from qopt.trace import _CHUNK_ROWS

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
PYPROJECT = README.with_name("pyproject.toml").read_text()
CONFIG_BLOCKS = re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)


def _section(title, level=3):
    """The README prose under the ``title`` heading, up to the next heading.

    Code blocks are left out: a line in one may start with ``#``.
    """
    prose = re.sub(r"^```.*?^```\n", "", TEXT, flags=re.M | re.S)
    return re.search(rf"^{'#' * level} {title}\n(.*?)^#", prose, re.M | re.S).group(1)


#: ``(name, constants cell)`` of each row of the catalogue table.
CATALOGUE_ROWS = re.findall(r"^\| `(\w+)` +\|.*\| (.*) \|$",
                            _section("Objective catalogue", level=2), re.M)


def test_readme_has_config_blocks():
    assert CONFIG_BLOCKS


@pytest.mark.parametrize("block", CONFIG_BLOCKS,
                         ids=[f"block{i}" for i in range(len(CONFIG_BLOCKS))])
def test_readme_config_runs(block, tmp_path, monkeypatch):
    # A relative output_path lands in tmp_path, not in the checkout.
    monkeypatch.chdir(tmp_path)
    config = load_config(json.loads(block))
    trace = run_experiment(config)
    assert trace.failure is None
    if config.output_path is not None:
        assert (tmp_path / config.output_path).stat().st_size > 0


def test_documented_config_keys_are_the_accepted_ones():
    bullets = re.findall(r"^- `(\w+)`:", _section("Experiment configs"), re.M)
    assert sorted(bullets) == sorted(_CONFIG_KEYS)


def test_documented_sweepable_fields_are_the_accepted_ones():
    named = re.search(r"sweepable fields \((.*?)\)", _section("Sweeps"), re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", named)) == sorted(_SWEEPABLE)


def test_documented_chunk_size_is_the_trace_chunk():
    # Rows are formatted, header lists encoded and rows read in chunks of
    # trace._CHUNK_ROWS; every chunk size the section states is that one.
    section = _section("Trace CSV format")
    figures = re.findall(r"([\d,]+)[ -](?:rows|entries|entry|lines)\b", section)
    assert len(figures) >= 4
    assert {int(figure.replace(",", "")) for figure in figures} == {_CHUNK_ROWS}


def test_documented_membership_tolerance_is_the_sets_one():
    figures = re.findall(r"`MEMBERSHIP_TOL = ([^`]+)`", TEXT)
    assert len(figures) >= 3
    assert {float(figure) for figure in figures} == {MEMBERSHIP_TOL}


def test_documented_python_is_the_required_one():
    required = re.search(r'^requires-python = ">=([\d.]+)"$', PYPROJECT, re.M).group(1)
    assert re.findall(r"Python ≥ ([\d.]+)", TEXT) == [required]


def test_documented_solver_loops_are_generators():
    # The checks read the loops the README names, not a callback.
    loops = re.findall(r"`(accel|baselines)\.(_\w+)`", TEXT)
    assert {name for _, name in loops} >= {"_iterations", "_frank_wolfe"}
    for module, name in loops:
        assert inspect.isgeneratorfunction(getattr(getattr(qopt, module), name))
    assert "`observer`" not in TEXT and "AccelIterate" not in TEXT


def test_catalogue_table_lists_the_registry_in_order():
    assert tuple(name for name, _ in CATALOGUE_ROWS) == CATALOGUE_NAMES


@pytest.mark.parametrize("name,constants", CATALOGUE_ROWS,
                         ids=[name for name, _ in CATALOGUE_ROWS])
def test_catalogue_table_states_the_declared_constants(name, constants):
    obj = make_catalogue_objective(name)
    declared = {"L": obj.smoothness_L, "gamma": obj.quasar_gamma}
    for symbol, value in re.findall(r"`(L|gamma) = ([\d./]+)`", constants):
        assert float(Fraction(value)) == declared[symbol], (name, symbol, value)

"""Input validation happens at the public entry points, with one tolerance each.

The baselines and explicit config ``x0`` vectors accept start points within
``FEASIBILITY_TOL`` (1e-9) of the set; the prox, the line search and the
accelerated method require ``MEMBERSHIP_TOL`` (1e-10).  Points produced inside
a solver loop are not re-checked.
"""

import json

import numpy as np
import pytest

from qopt import (
    FeasibleSet,
    OracleCounter,
    PreconditionError,
    binary_line_search,
    run_accelerated,
    run_frank_wolfe,
    run_pgd,
)
from qopt.cli import main
from qopt.sets import FEASIBILITY_TOL, MEMBERSHIP_TOL


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

    calls = {
        "run_pgd": lambda: run_pgd(obj, x, 3, OracleCounter()),
        "run_frank_wolfe": lambda: run_frank_wolfe(obj, x, 3, OracleCounter()),
        "run_accelerated": lambda: run_accelerated(obj, x, 1e-1, OracleCounter()),
        "binary_line_search y":
            lambda: binary_line_search(obj, x, obj.center, 1.0, 1e-10, OracleCounter()),
        "binary_line_search z":
            lambda: binary_line_search(obj, obj.center, x, 1.0, 1e-10, OracleCounter()),
    }
    try:
        calls[entry]()
    except PreconditionError:
        return True
    return False


#: Entry points that take start points within FEASIBILITY_TOL rather than MEMBERSHIP_TOL.
LOOSE = ("run_pgd", "run_frank_wolfe", "qopt run pgd")
STRICT = ("run_accelerated", "binary_line_search y", "binary_line_search z",
          "qopt run accelerated")


@pytest.mark.parametrize("outside", [5e-10, 2e-9])
@pytest.mark.parametrize("entry", LOOSE + STRICT)
def test_start_point_tolerance(example1, tmp_path, capsys, entry, outside):
    assert MEMBERSHIP_TOL < 5e-10 < FEASIBILITY_TOL < 2e-9
    x = example1.feasible_set.upper + outside
    accepted = entry in LOOSE and outside < FEASIBILITY_TOL
    assert rejects(entry, example1, x, tmp_path, capsys) == (not accepted)


def test_accelerated_checks_membership_only_at_x0(example1, monkeypatch):
    calls = []
    contains = FeasibleSet.contains

    def counted(self, x, tol=MEMBERSHIP_TOL):
        calls.append(tol)
        return contains(self, x, tol)

    monkeypatch.setattr(FeasibleSet, "contains", counted)
    counts, outer = [], []
    for eps in (1e-2, 1e-3):
        calls.clear()
        trace = run_accelerated(example1, np.array([5.0]), eps, OracleCounter())
        counts.append(len(calls))
        outer.append(trace.header["params"]["T"])
    assert outer[0] < outer[1]
    assert counts == [1, 1]

"""Acceptance suite: every criterion runs the registered checks that certify it.

Each criterion calls :func:`qopt.checks.verify` on its checks, so every
tolerance, window and budget lives in ``checks.py`` only; a criterion keeps
here only what it pins beyond its checks (the schedule's ``T``, wall-time
bounds).  Each test prints one pass/fail line so the gate can be audited from
the run log (use ``pytest -s tests/test_acceptance.py`` to see them live).
"""

import time

from qopt import make_catalogue_objective
from qopt.checks import verify
from qopt.objectives import CATALOGUE_NAMES, sample_feasible
from qopt.prox import check_descent_lemma


def report(criterion, passed, detail):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def certify(criterion, suite, max_seconds=None, samples=None):
    """Run the checks ``suite`` names once through ``verify`` and report them.

    ``max_seconds`` bounds the wall time of that run; ``samples`` maps check
    names to the ``n`` column each must show.
    """
    start = time.perf_counter()
    checks = verify(suite).checks
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks)
    details = [
        f"{c.name}: worst {c.max_violation:.3e}, tol {c.tolerance:.0e}, n {c.samples}"
        + (f" ({c.note})" if c.note else "")
        for c in checks
    ]
    n = {c.name: c.samples for c in checks}
    for name, expected in (samples or {}).items():
        ok &= n.get(name) == expected
        details.append(f"{name}: n {n.get(name)} pinned at {expected}")
    if max_seconds is not None:
        ok &= elapsed < max_seconds
        details.append(f"runtime {elapsed:.2f}s < {max_seconds:g}s")
    report(criterion, ok, "; ".join(details))


def test_criterion_01_example1_quasar_certificate():
    certify("criterion-1 example1 quasar certificate", ["quasar_certificate:example1"],
            max_seconds=1.0)


def test_criterion_02_regularized_counterexample():
    certify("criterion-2 regularized counterexample",
            ["quasar_counterexample", "counterexample_construction"])


def test_criterion_03_prox_conditioning():
    certify("criterion-3 prox conditioning", ["prox_conditioning", "moreau_smoothness"])


def test_criterion_04_envelope_quasar_convexity():
    certify("criterion-4 envelope quasar convexity", ["moreau_quasar"])


def test_criterion_05_prox_descent():
    failures = 0
    total = 0
    for name in CATALOGUE_NAMES:
        obj = make_catalogue_objective(name)
        for x in sample_feasible(obj.feasible_set, 50, seed=11):
            total += 1
            if not check_descent_lemma(obj, x)["passed"]:
                failures += 1
    report("criterion-5 prox descent inequality", failures == 0,
           f"{failures} failures over {total} points (50 per objective)")


def test_criterion_06_linesearch_certificates():
    certify("criterion-6 line-search certificates", ["linesearch_certificate"])


def test_criterion_07_frank_wolfe_envelope():
    certify("criterion-7 Frank-Wolfe rate envelope",
            ["rate_envelope:frank_wolfe_example1", "rate_envelope:frank_wolfe_quadratic_simplex"],
            max_seconds=10.0)


def test_criterion_08_pgd_envelope():
    certify("criterion-8 PGD rate envelope",
            ["rate_envelope:pgd_example1", "rate_envelope:pgd_quadratic_simplex"])


def test_criterion_09_accelerated_end_to_end():
    # An accelerated trace holds one row per outer iteration t = 0..T.
    certify("criterion-9 accelerated end-to-end", ["accelerated_gap"], max_seconds=60.0,
            samples={"accelerated_gap:quadratic_box": 358 + 1,
                     "accelerated_gap:example1": 10_986 + 1})


def test_criterion_10_scaling_fits():
    certify("criterion-10 scaling fits", ["scaling_fit"])


def test_criterion_11_trace_determinism():
    certify("criterion-11 trace determinism", ["trace_determinism"])

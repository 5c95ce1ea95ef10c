"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_qopt()

import tracing  # noqa: E402
import workloads  # noqa: E402
from refclock import ReferenceClock  # noqa: E402

TINY = workloads.Sizes(accel_eps=1e-2, simplex_dim=50, fw_T=40, pgd_T=20,
                       verify_suite=("gamma_free_baselines", "trace_determinism"))

#: Every per-layer metric the benchmark promises, checks.* aside.
PER_LAYER = [f"{layer}.{kind}" for layer in tracing.LAYERS for kind in ("calls", "self_s")] + [
    "sets.as_point.calls", "sets.contains_per_oracle_call", "prox.inner_iterations",
    "prox.inner_per_solve", "prox.oracle_calls_per_solve", "accel.linesearch.halvings",
    "accel.calls_after_eps_share", "baselines.run.iterations", "trace.write.bytes",
    "trace.rows", "bench.self_s", "bench.tracing_overhead_s",
] + [f"accel.linesearch.exit.{e}" for e in tracing.LINESEARCH_EXITS]


def measure(workload, trace, seed=3):
    args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                           "--trace", str(trace), "--out", ""])
    return run.measure(args, sizes=TINY, setup_reps=1)


def assert_emitted(section, names):
    for name in names:
        entry = section[name]
        assert entry["unit"], name
        assert entry["value"] is not None or entry["na"], name


@pytest.fixture(scope="module")
def results():
    return {(w, t): measure(w, t) for w in workloads.WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_or_marked_na(results, workload):
    spec = run.load_spec()
    untraced, traced = results[(workload, 0)], results[(workload, 1)]
    assert untraced["correct"] and traced["correct"]
    assert_emitted(untraced["end_to_end"], run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert untraced["end_to_end"][name]["unit"] == unit
    assert_emitted(traced["per_layer"], PER_LAYER)
    na = untraced["end_to_end"]["oracle_calls_per_s"]["value"] is None
    assert na == (workload == "verify_suite")
    checks = [n for n in traced["per_layer"] if n.startswith("checks.") and n.endswith(".s")]
    assert len(checks) == (len(TINY.verify_suite) if workload == "verify_suite" else 0)

    # The last stdout line carries exactly the metrics BENCHMARK.json lists, with units.
    for result, listed in ((untraced, spec["end_to_end"]), (traced, spec["per_layer"])):
        line = json.loads(run.result_line(result, spec))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {m["name"]: m["unit"] for m in listed} == {
            k: v["unit"] for k, v in line["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_the_pass(results, workload):
    layers = results[(workload, 1)]["per_layer"]
    assert layers["bench.self_time_residual_s"]["value"] < 1e-6
    assert layers["bench.pass_wall_s"]["value"] > 0


def test_counts_repeat_at_a_fixed_seed(results):
    again = measure("accel_lowdim", 1)
    first = results[("accel_lowdim", 1)]["per_layer"]
    for name in ["prox.inner_iterations", "accel.linesearch.halvings"] + [
            f"accel.linesearch.exit.{e}" for e in tracing.LINESEARCH_EXITS]:
        assert again["per_layer"][name]["value"] == first[name]["value"]
    untraced = measure("accel_lowdim", 0)
    for name in ("oracle_calls_total", "oracle_calls_to_eps"):
        assert (untraced["end_to_end"][name]["value"]
                == results[("accel_lowdim", 0)]["end_to_end"][name]["value"])


def _run_first_op(workload, tmp_path):
    op = workloads.build_ops(workload, 5, tmp_path, TINY)[0]
    _, _, check = run.Runner(TINY, ReferenceClock()).run_op(op)
    assert check.ok, check.reason
    return op


@pytest.mark.parametrize("workload", ["accel_lowdim", "baselines_highdim"])
def test_gate_fails_on_a_corrupted_trace(workload, tmp_path):
    op = _run_first_op(workload, tmp_path)
    calls = workloads.check_op(op, 0, "", TINY).oracle_calls
    assert workloads.check_op(op, 0, "", TINY, audited_calls=calls).ok
    assert not workloads.check_op(op, 0, "", TINY, audited_calls=calls + 1).ok

    path = Path(op.trace_path)
    lines = path.read_text().splitlines()
    it, calls, f, gap, bound = lines[-1].split(",")
    lines[-1] = ",".join([it, calls, f, "1e3", bound])  # final gap far above eps and bound
    path.write_text("\n".join(lines) + "\n")
    assert not workloads.check_op(op, 0, "", TINY).ok

    path.write_text(path.read_text().replace("\n", "\r\n"))  # bytes no longer round-trip
    assert not workloads.check_op(op, 0, "", TINY).ok


def test_gate_fails_on_a_nonzero_exit_or_missing_checks(tmp_path):
    op = workloads.build_ops("verify_suite", 0, tmp_path, TINY)[0]
    assert not workloads.check_op(op, 1, "", TINY).ok
    assert not workloads.check_op(op, 0, "overall: PASS\n", TINY).ok


@pytest.mark.parametrize("workload", ["accel_lowdim", "baselines_highdim"])
def test_seed_changes_x0_but_not_the_operation_list(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.build_ops(workload, 1, tmp_path / "a", TINY)
    b = workloads.build_ops(workload, 2, tmp_path / "b", TINY)
    assert [op.name for op in a] == [op.name for op in b]
    for op_a, op_b in zip(a, b):
        assert op_a.config["x0"] != op_b.config["x0"]
        assert op_a.config["seed"] == 1 and op_b.config["seed"] == 2
        assert ({k: v for k, v in op_a.config.items() if k not in ("x0", "seed")}
                == {k: v for k, v in op_b.config.items() if k not in ("x0", "seed")})


def test_reference_clock_samples_inside_and_restores_the_timer():
    import signal
    import time

    clock = ReferenceClock()
    previous = signal.getsignal(signal.SIGALRM)

    def busy(seconds=1.2):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, wall, norm = clock.timed(busy)
    assert result == "done"
    # Two in-region samples were taken and left out of the wall time.
    assert 1.0 < wall < 1.2 and norm > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_compare_verdicts():
    from compare import verdict

    runs = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99]

    def judge(after, pairs=None):
        pairs = list(zip(runs, after)) if pairs is None else pairs
        return verdict("pass_s.p50", "s", "lower", 0.2, runs, after, pairs)

    faster = [v * 0.8 for v in runs]
    assert judge(faster) == "improved"
    assert judge(faster, list(zip(runs, faster))[:5]) != "improved"  # too few pairs
    assert judge(runs) == "no worse"
    assert judge([v * 1.5 for v in runs]) == "worse"
    assert verdict("n", "count", "lower", None, [3, 4], [3, 4], [(3, 3), (4, 4)]) == "equal"
    assert verdict("n", "count", "lower", None, [3], [5], [(3, 5)]) == "differs"
    assert verdict("n", "count", "lower", None, [3], [3], [(3, 3)],
                   same_seeds=False) == "seeds differ"

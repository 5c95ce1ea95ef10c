import contextlib
import dataclasses
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qopt
from qopt import (
    ConfigError,
    InvalidArgumentError,
    NumericalFailureError,
    attach_rate_bounds,
    available_checks,
    compute_schedule,
    load_config,
    run_experiment,
    sweep,
    verify,
)
from qopt.cli import main
from qopt.harness import baseline_iterations, build_objective
from qopt.trace import Trace, read_trace

PGD_SIMPLEX = {
    "algorithm": "pgd",
    "objective": {"name": "quadratic", "params": {"set": {"kind": "simplex", "dimension": 3}}},
    "x0": [1.0, 0.0, 0.0],
    "T": 5,
    "seed": 3,
}


class TestConfigValidation:
    def test_missing_algorithm_names_field(self):
        with pytest.raises(ConfigError) as excinfo:
            load_config({"objective": "example1", "T": 5})
        assert excinfo.value.field == "algorithm"

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError) as excinfo:
            load_config({"algorithm": "bfgs", "objective": "example1", "T": 5})
        assert excinfo.value.field == "algorithm"

    def test_missing_objective(self):
        with pytest.raises(ConfigError) as excinfo:
            load_config({"algorithm": "pgd", "T": 5})
        assert excinfo.value.field == "objective"

    def test_baseline_needs_exactly_one_budget(self):
        base = {"algorithm": "pgd", "objective": "example1", "x0": [5.0]}
        with pytest.raises(ConfigError):
            load_config(base)
        with pytest.raises(ConfigError):
            load_config({**base, "T": 5, "epsilon": 0.1})

    def test_accelerated_requires_epsilon(self):
        with pytest.raises(ConfigError) as excinfo:
            load_config({"algorithm": "accelerated", "objective": "example1", "T": 5})
        assert excinfo.value.field in ("epsilon", "T")

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            load_config({"algorithm": "accelerated", "objective": "example1", "epsilon": -1.0})

    @pytest.mark.parametrize("source", [None, [1, 2], 5, ("algorithm", "pgd")],
                             ids=["none", "list", "int", "tuple"])
    def test_a_source_neither_a_path_nor_a_mapping_names_config(self, source):
        with pytest.raises(ConfigError) as excinfo:
            load_config(source)
        assert excinfo.value.field == "config"

    def test_any_path_like_source_is_read(self, tmp_path):
        class Where:  # an os.PathLike that is not a pathlib.Path
            def __fspath__(self):
                return str(tmp_path / "config.json")

        (tmp_path / "config.json").write_text(json.dumps(PGD_SIMPLEX))
        assert load_config(Where()).raw == PGD_SIMPLEX

    def test_unknown_objective_reported(self):
        config = load_config({"algorithm": "pgd", "objective": "mystery", "T": 5})
        with pytest.raises(ConfigError) as excinfo:
            build_objective(config)
        assert excinfo.value.field == "objective"

    def test_set_override_rejected_for_pinned_objective(self):
        config = load_config({
            "algorithm": "pgd", "T": 5, "objective": {
                "name": "example1", "params": {"set": {"kind": "box", "lower": [-2], "upper": [2]}}},
        })
        with pytest.raises(ConfigError) as excinfo:
            build_objective(config)
        assert excinfo.value.field == "objective"

    def test_infeasible_x0(self, tmp_path):
        config = load_config({**PGD_SIMPLEX, "x0": [1.0, 1.0, 1.0]})
        with pytest.raises(ConfigError) as excinfo:
            run_experiment(config, output_path=tmp_path / "t.csv")
        assert excinfo.value.field == "x0"

    def test_epsilon_to_iterations_conversion(self):
        config = load_config({"algorithm": "pgd", "objective": "example1",
                              "x0": [5.0], "epsilon": 10.0})
        obj = build_objective(config)
        # ceil(20 L D^2 / (gamma^2 eps) - 1) with L=1.8857, D=10, gamma=0.5.
        assert baseline_iterations(config, obj) == 1508


class TestRunExperiment:
    def test_trace_file_schema(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = run_experiment(load_config(PGD_SIMPLEX), output_path=path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "iter,oracle_calls,f,gap,bound"
        assert len(lines) == 2 + len(trace.rows)
        header = json.loads(lines[0][2:])
        assert header["algorithm"] == "pgd"
        assert header["seed"] == 3
        assert header["config"]["T"] == 5

    def test_first_step_reaches_simplex_optimum(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_experiment(load_config(PGD_SIMPLEX), output_path=path)
        row1 = path.read_text().splitlines()[3]
        fields = row1.split(",")
        assert fields[0] == "1"
        assert float(fields[3]) == 0.0  # gap hits zero after one step

    def test_round_trip_preserves_floats(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = run_experiment(load_config(PGD_SIMPLEX), output_path=path)
        parsed = read_trace(path)
        for a, b in zip(trace.rows, parsed.rows):
            assert a.f_value == b.f_value
            assert a.gap == b.gap
            assert a.bound == b.bound

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(load_config(PGD_SIMPLEX), output_path=p1)
        run_experiment(load_config(PGD_SIMPLEX), output_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_baseline_bounds_attached(self, tmp_path):
        trace = run_experiment(load_config({**PGD_SIMPLEX, "T": 10}),
                               output_path=tmp_path / "t.csv")
        assert trace.rows[0].bound is None
        assert trace.rows[1].bound is not None

    def test_accelerated_run(self, tmp_path):
        config = load_config({
            "algorithm": "accelerated",
            "objective": "quadratic",
            "x0": [1.0, 1.0],
            "epsilon": 1e-2,
            "seed": 0,
        })
        trace = run_experiment(config, output_path=tmp_path / "acc.csv")
        assert trace.final_gap <= 1e-2

    def test_x0_rules(self, tmp_path):
        for rule, expected in [("vertex", [1.0, 0.0, 0.0]), ("center", [1 / 3, 1 / 3, 1 / 3])]:
            trace = run_experiment(load_config({**PGD_SIMPLEX, "x0": rule}),
                                   output_path=tmp_path / f"{rule}.csv")
            assert trace.rows[0].f_value == pytest.approx(
                0.5 * float(np.dot(expected, expected)), abs=1e-15)

    def test_failure_trace_without_a_path_carries_config_and_seed(self, monkeypatch):
        # A finished trace and a failure's partial trace get one header stamp,
        # whether or not they are written.
        import qopt.harness as harness

        def exploding(obj, x0, epsilon, counter):
            exc = NumericalFailureError("synthetic blow-up")
            exc.partial_trace = Trace({"algorithm": "accelerated"}, failure="synthetic blow-up")
            raise exc

        monkeypatch.setattr(harness, "run_accelerated", exploding)
        raw = {"algorithm": "accelerated", "objective": "quadratic", "x0": [1.0, 1.0],
               "epsilon": 1e-2, "seed": 4}
        with pytest.raises(NumericalFailureError) as excinfo:
            run_experiment(load_config(raw))
        assert excinfo.value.partial_trace.header == {
            "algorithm": "accelerated", "config": raw, "seed": 4}

    @pytest.mark.parametrize("algorithm,budget", [("accelerated", {"epsilon": 1e-3}),
                                                  ("pgd", {"T": 5}), ("frank_wolfe", {"T": 5})])
    def test_an_overflowing_scale_is_the_solvers_gate_message(self, algorithm, budget):
        # The run reports the API's own message under the objective field.
        raw = {"algorithm": algorithm, "objective": OVERFLOWING_SIMPLEX, **budget}
        obj = build_objective(load_config(raw))
        L, gamma, D = obj.smoothness_L, obj.quasar_gamma, obj.feasible_set.diameter()
        with pytest.raises(InvalidArgumentError) as api:
            if algorithm == "accelerated":
                compute_schedule(gamma, L, D, budget["epsilon"])
            else:
                attach_rate_bounds(Trace({"algorithm": algorithm}), L, gamma, D)
        with pytest.raises(ConfigError) as run:
            run_experiment(load_config(raw))
        assert run.value.field == "objective"
        assert str(run.value) == f"config field 'objective': {api.value}"

    @pytest.mark.parametrize("algorithm,budget,field", [
        ("accelerated", {"epsilon": 1e-3}, "x0"),
        ("pgd", {"T": 5}, "objective"),
        ("frank_wolfe", {"T": 5}, "objective"),
    ])
    def test_an_infeasible_x0_beside_an_overflowing_scale(self, algorithm, budget, field):
        # The accelerated run checks x0 before its schedule's gate; a baseline
        # resolves T, and so passes its gate, before it checks x0.
        raw = {"algorithm": algorithm, "objective": OVERFLOWING_SIMPLEX, "x0": [-1.0, 0.0],
               **budget}
        with pytest.raises(ConfigError) as excinfo:
            run_experiment(load_config(raw))
        assert excinfo.value.field == field


#: A simplex whose 16 L D^2, 20 L D^2 and 6 L D^2 overflow while L D^2 does not.
OVERFLOWING_SIMPLEX = {"name": "quadratic",
                       "params": {"set": {"kind": "simplex", "dimension": 2, "scale": 5e153}}}


SIMPLEX50 = {"name": "quadratic", "params": {"set": {"kind": "simplex", "dimension": 50}}}
SIMPLEX30K = {"name": "quadratic", "params": {"set": {"kind": "simplex", "dimension": 30_000}}}
# An explicit all-float point, so the header carries the same 30,000 floats
# twice: as config.x0 and as the resolved x0.
_exponential = np.random.default_rng(18).standard_exponential(30_000)
SIMPLEX30K_X0 = (_exponential / _exponential.sum()).tolist()
# A shifted minimizer inside the unit disc, so Frank-Wolfe from an off-axis x0
# leaves the line through the origin.
BALL_QUADRATIC = {"name": "quadratic", "params": {
    "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, "shift": [0.25, -0.5]}}


def _without_oracle_calls(trace_bytes):
    """The trace with its ``oracle_calls`` column dropped from the table rows."""
    lines = trace_bytes.decode().split("\n")
    kept = [line if not line or line.startswith("#")
            else ",".join(cell for i, cell in enumerate(line.split(",")) if i != 1)
            for line in lines]
    return "\n".join(kept).encode()


@pytest.mark.parametrize("config,sha256,calls,sha256_without_calls", [
    ({"algorithm": "accelerated", "objective": "example1", "x0": [5.0], "epsilon": 1e-3},
     "57379f31e3889633d103f74d503be1de1bc2e3a9d5ec5a5ca916eb6966b28379", 3370,
     "112d15f8f4191a1783a20cfee9ac043ff1397b1cbb3cff4ec424a353c4d5cbed"),
    ({"algorithm": "accelerated", "objective": {"name": "quadratic", "params": {"dim": 5}},
      "x0": [1.0] * 5, "epsilon": 1e-3},
     "d050a8f36c1b10a2209283e6ec27b0bb831c5c7a143f3f739a8a08984d3fcbb0", 583,
     "3d079857de584684e9f4bf7b51525995a37e7a58d6546989d680efe4e1e8532b"),
    ({"algorithm": "accelerated", "objective": "glm_sigmoid", "x0": [0.0, 0.0], "epsilon": 1e-3},
     "7a6bba3183cd099a0b2de5a513a7b08d907637b71632ed76877a542b148a5aac", 1535,
     "5df585ecee43e896a384a095eba542f91193dbf667f5a0556807487cd468fd41"),
    ({"algorithm": "frank_wolfe", "objective": SIMPLEX50, "x0": "vertex", "T": 200},
     "e0950336d535ccc659f0e223d434a85e46491401c07a9d4b5a6ac16a2be4dcb6", 201,
     "9959a7a64997c3ed69d7f1a13d71a93bf8de3a027f822707495ef35789898522"),
    ({"algorithm": "pgd", "objective": SIMPLEX50, "x0": "vertex", "T": 200},
     "08ed33faf33989d0217f25aac6f4d57c5d5a81c1c4d90de2c60f390975422986", 2,
     "911c81a314597685c09fe61981fd906971a84af30fbe8548db331e1f8438a435"),
    # PGD settles on fig1's minimizer, so the gap column reads its optimal_value.
    ({"algorithm": "pgd", "objective": "fig1_counterexample", "x0": [5.0], "T": 200},
     "356adf382c36a4ce5dbec5ce930229ae4e610ea08850b885d3533a5489ddf344", 52,
     "94ed9d1e9ffe1d8ac79c01b7da9c717fe780ca05b2638bdd9df757038e07e5c0"),
    # Above DOT_CHUNK, pinned before the zero-shift oracle path and the
    # shared header text: the oracle, the sets' norms and the header's x0.
    ({"algorithm": "frank_wolfe", "objective": SIMPLEX30K, "x0": SIMPLEX30K_X0, "T": 200},
     "0a761e4f36b22a5faa416240187e68abf3230452733604cc6f971ff3486e817a", 201,
     "116aab2bcdc83e9e86b65575d154011f4c61c89843c7c0954234478beca4cd20"),
    ({"algorithm": "pgd", "objective": SIMPLEX30K, "x0": SIMPLEX30K_X0, "T": 200},
     "f6e9d9cc94fcebe4cd42cd3bcbc8b46c31db9217156dc67351ce0973e8a5d70c", 2,
     "c7a91bf7f2428cf18722aeb361f4986d10e0db50c74a1e250b6b33ba894968ad"),
    # Pinned before the line search's constants moved into _ProxConstants:
    # its directional derivatives reduce through the chunked _dot here.
    ({"algorithm": "accelerated", "objective": SIMPLEX30K, "x0": SIMPLEX30K_X0, "epsilon": 1e-3},
     "f65fb2bc88bee370e4bdf258099edbd1068b935ee8f8189a86b89d50f864511a", 100,
     "72580865a5b9d497d87d87441a0c9da971c447e35ae7c2fb22fdb41336fd785e"),
    # Pinned before Frank-Wolfe stepped through the trusted FeasibleSet._lmo:
    # the box and ball vertex steps, which the simplex goldens do not reach.
    ({"algorithm": "frank_wolfe", "objective": "example1", "x0": [5.0], "T": 200},
     "9b69df963168b0c65a19011b63efdbfe440a387a6adbe3d442754447b8f24513", 201,
     "3b1069b971de8eabd4540f18f80cbf8ca8627e358301dd02cf2ecffede75e5fb"),
    ({"algorithm": "frank_wolfe", "objective": BALL_QUADRATIC, "x0": [0.6, 0.3], "T": 200},
     "dffabedad55d64247ec837f944dfd7b6303dfa797e3db93b204c90ffc02cf9cb", 201,
     "8a4ec7ade79a7e0bbac029d44949d6c763a93d3d6b5d7753ed1d22109128fce2"),
    # Pinned before the trace became columns: long frozen tails, which the
    # writer formats as one segment (10,987 rows frozen after 1,861, and
    # 2,792 rows frozen after 326).
    ({"algorithm": "accelerated", "objective": "example1", "x0": [5.0], "epsilon": 1e-4},
     "afaac8f558d1179ffeb1285b961c3883ae32f5832aad47005171902552449322", 3605,
     "6245bf019ffbb9d99aa5fd45658b30a289fa5e1a456bfa15d173d0b6e8343d2b"),
    ({"algorithm": "accelerated", "objective": "glm_sigmoid", "x0": [0.0, 0.0], "epsilon": 1e-4},
     "8da0ca83704dcd58dffd28270016a06afc7a11a0bb7ec301b4aa5d91bf7f2d7f", 1979,
     "430fa768afc39e5fe3c11cb0e652e944c6c52c9eca34c51d69d0c1e5233558b6"),
], ids=["accel_example1", "accel_quadratic_d5", "accel_glm_sigmoid", "fw_simplex50",
        "pgd_simplex50", "pgd_fig1", "fw_simplex30k", "pgd_simplex30k", "accel_simplex30k",
        "fw_example1", "fw_ball", "accel_example1_eps1e-4", "accel_glm_sigmoid_eps1e-4"])
def test_golden_trace_bytes(config, sha256, calls, sha256_without_calls, tmp_path):
    # Pinned before the accelerated loop's trusted-path rewrite.  A speed-up
    # must leave every byte and oracle count as it was, with two exceptions,
    # both exits at a bit-exact fixed point: a prox step that lands where it
    # started no longer queries the oracle, and neither does a PGD step that
    # lands where it started (later rows repeat its values).  So the
    # oracle_calls column fell in the accelerated and PGD traces; their sha256
    # without that column is still the one pinned before those changes.
    path = tmp_path / "trace.csv"
    trace = run_experiment(load_config(config), output_path=path)
    assert trace.final_oracle_calls == calls
    trace_bytes = path.read_bytes()
    assert hashlib.sha256(trace_bytes).hexdigest() == sha256
    assert hashlib.sha256(_without_oracle_calls(trace_bytes)).hexdigest() == sha256_without_calls


def _module_env(**overrides):
    """The environment of a ``python -m qopt`` subprocess that imports this checkout."""
    src = str(Path(qopt.__file__).resolve().parent.parent)
    return {**os.environ, **overrides, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


FRANK_WOLFE_200 = {"algorithm": "frank_wolfe", "T": 200}


@pytest.mark.parametrize("run,set_spec", [
    (FRANK_WOLFE_200, {"kind": "simplex", "dimension": 30_000}),
    (FRANK_WOLFE_200, {"kind": "ball", "center": [0.0] * 30_000, "radius": 1.0}),
    (FRANK_WOLFE_200, {"kind": "box", "lower": [-1.0] * 30_000, "upper": [1.0] * 30_000}),
    ({"algorithm": "accelerated", "epsilon": 1e-2}, {"kind": "simplex", "dimension": 30_000}),
], ids=["simplex", "ball", "box", "accelerated_simplex"])
def test_trace_bytes_do_not_depend_on_the_blas_thread_count(run, set_spec, tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 entries across threads,
    # which changes its last bits with the thread count; the evaluators, the
    # sets' norms (the box diameter is in the bound column), the prox's step
    # norms and the line search's directional derivatives sum fixed
    # 10,000-entry chunks in order instead.
    n = 30_000
    shift = [(-1.0) ** i * (1 + i % 7) / n for i in range(n)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **run, "x0": "vertex",
        "objective": {"name": "quadratic", "params": {"set": set_spec, "shift": shift}}}))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace_{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "qopt", "run", str(config), "--output", str(out)],
            capture_output=True, text=True, env=_module_env(OPENBLAS_NUM_THREADS=threads),
            timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


class TestSweep:
    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            sweep(load_config(PGD_SIMPLEX), {}, tmp_path)
        assert excinfo.value.field == "grid"

    def test_unknown_parameter_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(load_config(PGD_SIMPLEX), {"step_size": [1, 2]}, tmp_path)

    def test_seed_is_not_sweepable(self, tmp_path):
        # No solver reads the seed, so its grid points would rerun one run.
        with pytest.raises(ConfigError) as excinfo:
            sweep(load_config(PGD_SIMPLEX), {"seed": [1, 2]}, tmp_path)
        assert excinfo.value.field == "grid"

    def test_summary_structure_and_fit(self, tmp_path):
        base = load_config({"algorithm": "pgd", "objective": "example1",
                            "x0": [5.0], "T": 50, "seed": 0})
        summary = sweep(base, {"T": [50, 100]}, tmp_path)
        assert len(summary["runs"]) == 2
        for run in summary["runs"]:
            assert (tmp_path / run["path"].split("/")[-1]).exists()
        assert "pgd" in summary["fits"]
        assert isinstance(summary["fits"]["pgd"]["slope"], float)
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["fits"]["pgd"]["slope"] == summary["fits"]["pgd"]["slope"]

    def test_swept_value_replaces_the_configs_budget(self, tmp_path):
        # A baseline config that names epsilon and an output path sweeps T:
        # each run takes the swept T alone and writes into the sweep's directory.
        raw = {k: v for k, v in PGD_SIMPLEX.items() if k != "T"}
        base = load_config({**raw, "epsilon": 10.0, "output_path": str(tmp_path / "ignored.csv")})
        summary = sweep(base, {"T": [2, 4]}, tmp_path / "sweep")
        assert [run["params"] for run in summary["runs"]] == [{"T": 2}, {"T": 4}]
        assert [run["rows"] for run in summary["runs"]] == [3, 5]
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
            "run_000.csv", "run_001.csv", "summary.json"]
        assert not (tmp_path / "ignored.csv").exists()

    def test_grid_path_is_read(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"T": [2, 4]}))
        for path in (grid, str(grid)):
            summary = sweep(load_config(PGD_SIMPLEX), path, tmp_path / "sweep")
            assert [run["params"] for run in summary["runs"]] == [{"T": 2}, {"T": 4}]

    def test_accelerated_calls_fit(self, tmp_path):
        base = load_config({"algorithm": "accelerated", "objective": "quadratic",
                            "x0": [1.0, 1.0], "epsilon": 1.0, "seed": 0})
        summary = sweep(base, {"epsilon": [1e-1, 1e-2]}, tmp_path)
        assert summary["fits"]["accelerated"]["slope"] < 0


#: Five fast checks, in table order: one block, or blocks across two or three CPUs.
SPLIT_SUITE = ("counterexample_construction:fig1_counterexample", "gradient_consistency:quadratic",
               "prox_stopping:quadratic", "oracle_accounting", "gamma_free_baselines")


FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks only where os.fork exists")


def _run_probe(probe):
    """``(exit code, stdout, stderr)`` of ``python -W error -c probe``, in its
    own session with a timeout, so a deadlock fails the test and a failing
    verify's stray children die with the session."""
    with subprocess.Popen([sys.executable, "-W", "error", "-c", probe], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=_module_env(),
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, out, err


#: The end of a probe: it prints ``no child left`` when it has no child to reap.
NO_CHILD_LEFT = ("try:\n"
                 "    os.waitpid(-1, os.WNOHANG)\n"
                 "except ChildProcessError:\n"
                 "    print('no child left')\n")


def _log_line(path, *fields):
    """Append one line to ``path``; appends from forked children are kept too."""
    with path.open("a") as fh:
        fh.write(" ".join(map(str, fields)) + "\n")


class TestVerifySubsets:
    def test_group_selection(self):
        report = verify(["quasar_certificate"])
        assert len(report.checks) == 4
        assert report.overall

    def test_expected_failure_semantics(self):
        report = verify(["quasar_counterexample:fig1_counterexample"])
        check = report.checks[0]
        assert check.passed and check.max_violation > 0.0

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            verify(["nonexistent_check"])

    def test_fast_subset_passes(self):
        report = verify(["counterexample_construction:fig1_counterexample",
                         "trace_determinism", "fw_dynamics", "oracle_accounting",
                         "gamma_free_baselines"])
        assert report.overall

    def test_each_selected_check_runs_once_in_first_selected_order(self, monkeypatch, capsys,
                                                                     tmp_path):
        # Each run appends a line to a file, so a run in a forked block counts too.
        log = tmp_path / "runs.txt"
        checks = dict(qopt.checks._CHECKS)
        for name, (check, *args) in checks.items():
            checks[name] = (lambda *a, _c=check: _log_line(log, a) or _c(*a), *args)
        monkeypatch.setattr(qopt.checks, "_CHECKS", checks)
        report = verify(["oracle_accounting", "counterexample_construction",
                         "oracle_accounting", "counterexample_construction:fig1_counterexample"])
        assert [c.name for c in report.checks] == [
            "oracle_accounting", "counterexample_construction:fig1_counterexample"]
        runs = log.read_text().splitlines()
        assert len(runs) == 2
        assert main(["verify", "--suite", "oracle_accounting,oracle_accounting"]) == 0
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == [
            "check", "oracle_accounting", "overall:"]

    @FORKS
    def test_table_does_not_depend_on_the_block_split(self, monkeypatch, capsys, tmp_path):
        suite = ",".join(SPLIT_SUITE)
        log = tmp_path / "runs.txt"
        checks = dict(qopt.checks._CHECKS)
        for name, (check, *args) in checks.items():
            checks[name] = (lambda *a, _n=name, _c=check: _log_line(log, _n, os.getpid())
                            or _c(*a), *args)
        monkeypatch.setattr(qopt.checks, "_CHECKS", checks)
        tables = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(qopt.checks, "_usable_cpus", lambda cpus=cpus: cpus)
            assert main(["verify", "--suite", suite]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] == tables[2]
        assert [line.split()[0] for line in tables[0].splitlines()] == [
            "check", *SPLIT_SUITE, "overall:"]
        # Blocks of 3 and 2 checks at two CPUs, of 2, 2 and 1 at three; this
        # process runs the last block, a child each of the others.
        pids = [dict(line.split() for line in log.read_text().splitlines()[k:k + 5])
                for k in (0, 5, 10)]
        me = str(os.getpid())
        assert set(pids[0].values()) == {me}
        assert [pids[1][n] == me for n in SPLIT_SUITE] == [False] * 3 + [True] * 2
        assert [pids[2][n] == me for n in SPLIT_SUITE] == [False] * 4 + [True]
        assert len({pids[2][n] for n in SPLIT_SUITE}) == 3

    @FORKS
    def test_the_earliest_exception_is_raised_and_every_child_reaped(self):
        # The first block's failure carries 800 kB, more than a pipe holds;
        # the second block sleeps, so only a kill ends it in time; the last
        # block, run by the caller, raises too.
        probe = (
            "import os, time\n"
            "import numpy as np\n"
            "import qopt.checks\n"
            "from qopt import NumericalFailureError, verify\n"
            "from qopt.cli import main\n"
            "def first(): raise NumericalFailureError('first', last_iterate=np.zeros(100_000))\n"
            "def last(): raise NumericalFailureError('last')\n"
            "qopt.checks._CHECKS = {'a': (first,), 'b': (time.sleep, 120), 'c': (last,)}\n"
            "qopt.checks._usable_cpus = lambda: 3\n"
            "try:\n"
            "    verify(['a', 'b', 'c'])\n"
            "except NumericalFailureError as exc:\n"
            "    assert str(exc) == 'first' and exc.last_iterate.shape == (100_000,)\n"
            "    assert 'in first' in exc.__notes__[0], exc.__notes__\n"
            "else:\n"
            "    raise AssertionError('verify returned')\n"
            "assert main(['verify', '--suite', 'a,b,c']) == 3\n"
            + NO_CHILD_LEFT
        )
        returncode, out, err = _run_probe(probe)
        assert (returncode, out) == (0, "no child left\n"), err
        assert err == "numerical failure: first\n"

    @FORKS
    def test_a_config_error_in_a_forked_block_exits_2_naming_its_field(self):
        # The first block, run by a child, raises; its pickled exception keeps
        # its field and gains the child's traceback as its one note.
        probe = (
            "import os\n"
            "import qopt.checks\n"
            "from qopt import ConfigError, verify\n"
            "from qopt.cli import main\n"
            "def bad(): raise ConfigError('suite', 'raised in a child')\n"
            "qopt.checks._CHECKS = {'a': (bad,), 'b': (int,)}\n"
            "qopt.checks._usable_cpus = lambda: 2\n"
            "try:\n"
            "    verify(['a', 'b'])\n"
            "except ConfigError as exc:\n"
            "    assert exc.field == 'suite', exc.field\n"
            "    [note] = exc.__notes__\n"
            "    assert note.startswith('Traceback') and 'in bad' in note, note\n"
            "else:\n"
            "    raise AssertionError('verify returned')\n"
            "assert main(['verify', '--suite', 'a,b']) == 2\n"
            + NO_CHILD_LEFT
        )
        returncode, out, err = _run_probe(probe)
        assert (returncode, out) == (0, "no child left\n"), err
        assert err == "config error: config field 'suite': raised in a child\n"

    @FORKS
    def test_a_block_that_ends_without_a_result_is_named(self):
        # The child of the first block, checks a and b, exits in b without
        # writing to its pipe.
        probe = (
            "import os\n"
            "import qopt.checks\n"
            "from qopt import verify\n"
            "qopt.checks._CHECKS = {'a': (int,), 'b': (os._exit, 0), 'c': (int,)}\n"
            "qopt.checks._usable_cpus = lambda: 2\n"
            "try:\n"
            "    verify(['a', 'b', 'c'])\n"
            "except RuntimeError as exc:\n"
            "    assert str(exc) == 'the verify block from a to b ended without a result', exc\n"
            "else:\n"
            "    raise AssertionError('verify returned')\n"
            + NO_CHILD_LEFT
        )
        assert _run_probe(probe) == (0, "no child left\n", "")

    @FORKS
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
    def test_a_failed_fork_kills_the_forked_blocks_and_closes_every_pipe(self):
        # At three CPUs the second fork fails: the first child, which sleeps,
        # is killed and reaped, and no end of either pipe stays open.
        probe = (
            "import errno, os, time\n"
            "import qopt.checks\n"
            "from qopt import verify\n"
            "qopt.checks._CHECKS = {'a': (time.sleep, 120), 'b': (int,), 'c': (int,)}\n"
            "qopt.checks._usable_cpus = lambda: 3\n"
            "fork, forks = os.fork, []\n"
            "def second_fork_fails():\n"
            "    if forks:\n"
            "        raise OSError(errno.EAGAIN, 'fork refused')\n"
            "    forks.append(None)\n"
            "    return fork()\n"
            "os.fork = second_fork_fails\n"
            "fds = sorted(os.listdir('/proc/self/fd'))\n"
            "try:\n"
            "    verify(['a', 'b', 'c'])\n"
            "except OSError as exc:\n"
            "    assert exc.errno == errno.EAGAIN, exc\n"
            "else:\n"
            "    raise AssertionError('verify returned')\n"
            "assert len(forks) == 1\n"
            "assert sorted(os.listdir('/proc/self/fd')) == fds\n"
            + NO_CHILD_LEFT
        )
        assert _run_probe(probe) == (0, "no child left\n", "")

    @FORKS
    def test_a_forked_verify_prints_each_line_once(self):
        # stdout is a pipe, so the first line is still in this process's
        # buffer when the child forks: a child that flushed it would print it twice.
        probe = ("import sys, qopt.checks\n"
                 "from qopt.cli import main\n"
                 "print('first line')\n"
                 "qopt.checks._usable_cpus = lambda: 2\n"
                 f"sys.exit(main(['verify', '--suite', {','.join(SPLIT_SUITE[:2])!r}]))\n")
        done = subprocess.run([sys.executable, "-W", "error", "-c", probe], capture_output=True,
                              text=True, env=_module_env(), timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert [line.split()[0] for line in done.stdout.splitlines()] == [
            "first", "check", *SPLIT_SUITE[:2], "overall:"]

    def test_registered_names_are_the_pinned_table_rows(self):
        # Runs no check: the names and order of tests/data/verify_stdout.txt,
        # header and overall line aside.
        lines = (Path(__file__).parent / "data" / "verify_stdout.txt").read_text().splitlines()
        assert available_checks() == [line.split()[0] for line in lines[1:-1]]


def test_every_exported_name_resolves_once():
    assert len(set(qopt.__all__)) == len(qopt.__all__)
    for name in qopt.__all__:
        assert getattr(qopt, name) is not None, name


class TestCLI:
    def write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_run_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {**PGD_SIMPLEX, "output_path": str(tmp_path / "out.csv")})
        assert main(["run", cfg]) == 0
        assert (tmp_path / "out.csv").exists()
        assert "oracle_calls" in capsys.readouterr().out

    def test_run_command_summary_line(self, tmp_path, capsys):
        # Pinned before the summary read the trace's columns.
        cfg = self.write_config(tmp_path, {"algorithm": "accelerated", "objective": "glm_sigmoid",
                                           "x0": [0.0, 0.0], "epsilon": 1e-4})
        out = tmp_path / "glm.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        assert capsys.readouterr().out == (f"wrote {out}: 2792 rows, oracle_calls=1979, "
                                           f"f=2.46519033e-32, gap=2.46519e-32\n")

    def test_run_output_flag_overrides(self, tmp_path):
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        out = tmp_path / "explicit.csv"
        assert main(["run", cfg, "--output", str(out)]) == 0
        assert out.exists()

    def test_run_without_output_path_is_config_error(self, tmp_path):
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        assert main(["run", cfg]) == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"objective": "example1", "T": 5})
        assert main(["run", cfg]) == 2
        assert "algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize("field,overrides", [
        ("objective", {"objective": {"name": "quadratic", "params": {"shift": ["a", 1]}}}),
        ("objective", {"objective": {"name": "quadratic", "params": {"dim": "x"}}}),
        ("objective", {"objective": {"name": "quadratic", "params": {
            "set": {"kind": "ball", "center": [0.0, 0.0], "radius": "r"}}}}),
        ("objective", {"objective": {"name": "quadratic", "params": {
            "set": {"kind": "box", "lower": [0.0, 0.0], "upper": "q"}}}}),
        ("epsilon", {"algorithm": "accelerated", "objective": "quadratic", "T": None,
                     "epsilon": 1e-300}),
        ("objective", {"algorithm": "frank_wolfe", "objective": {"name": "quadratic", "params": {
            "set": {"kind": "ball", "center": [float("nan"), 0.0], "radius": 1.0}}}}),
        ("objective", {"objective": {"name": "quadratic", "params": {
            "set": {"kind": "ball", "center": [0.0, 0.0], "radius": float("inf")}}}}),
        ("objective", {"objective": {"name": "quadratic", "params": [1]}}),
        ("x0", {"x0": ["a", "b"]}),
        ("epsilon", {"algorithm": "accelerated", "objective": "quadratic", "T": None,
                     "epsilon": float("inf")}),
        ("epsilon", {"algorithm": "accelerated", "objective": "quadratic", "T": None,
                     "epsilon": True}),
        ("T", {"T": True}),
        ("seed", {"seed": True}),
        ("objective", {"objective": {"name": "quadratic", "params": {
            "set": {"kind": "simplex", "dimension": 2.5}}}}),
        ("objective", {"objective": {"name": "quadratic", "params": {"dim": 2.7}}}),
        ("objective", {"objective": {"name": "quadratic", "params": {"dim": True}}}),
        ("T", {"T": 10**30}),
        ("x_0", {"x_0": [4.0]}),
        ("Tt", {"Tt": 3}),
        ("objective", {"objective": {"name": "quadratic", "param": {"dim": 2}}}),
        # A dim that contradicts the set.
        ("objective", {"objective": {"name": "quadratic", "params": {
            "dim": 3, "set": {"kind": "box", "lower": [-1, -1], "upper": [1, 1]}}}}),
        ("objective", {"objective": {"name": "quadratic", "params": {
            "dim": 5, "set": {"kind": "simplex", "dimension": 3}}}}),
        # Only the objective's params name its dimension and set: at the top
        # level, a dim that agrees with the set and a well-formed set are
        # unknown keys.
        ("dim", {"dim": 3}),
        ("set", {"objective": "quadratic", "set": {"kind": "box", "lower": [-1], "upper": [1]}}),
        # A finite start point far from the simplex, where rounding loses its scale.
        ("x0", {"x0": [1e16, 1e16, 1e16]}),
        ("x0", {"x0": [1e200, 1e200, 1e200]}),
        # A non-finite catalogue param, before the set or the oracle sees it.
        ("objective", {"objective": {"name": "quadratic", "params": {"shift": [0.0, -math.inf]}}}),
        ("objective", {"objective": {"name": "affine_plus_quadratic", "params": {"q": math.nan}}}),
        ("objective", {"objective": {"name": "affine_plus_quadratic",
                                     "params": {"a": [math.nan, 0.0]}}}),
        ("objective", {"objective": {"name": "affine_plus_quadratic", "params": {"q": -1}}}),
        # The accelerated method derives T from epsilon.
        ("T", {"algorithm": "accelerated", "epsilon": 1e-2}),
        ("x0", {"x0": 5}),
    ])
    def test_malformed_value_exits_2_naming_the_field(self, field, overrides, tmp_path, capsys):
        raw = {**PGD_SIMPLEX, "x0": "vertex", **overrides,
               "output_path": str(tmp_path / "o.csv")}
        cfg = self.write_config(tmp_path, {k: v for k, v in raw.items() if v is not None})
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,overrides", [
        ("T", {"T": 10**7 + 1}),
        ("output_path", {"output_path": True}),
        ("output_path", {"output_path": 5}),
        ("Tt", {"Tt": 3}),
        ("objective", {"objective": {"name": "quadratic", "param": {"dim": 2}}}),
        ("dim", {"dim": 3}),
        ("set", {"objective": "quadratic",
                 "set": {"kind": "box", "lower": [-1, -1, -1], "upper": [1, 1, 1]}}),
        ("x0", {"x0": "middle"}),
    ])
    def test_rejected_by_load_config(self, field, overrides):
        # Rejected while the config is read, before any objective exists to query.
        with pytest.raises(ConfigError) as excinfo:
            load_config({**PGD_SIMPLEX, **overrides})
        assert excinfo.value.field == field

    @pytest.mark.parametrize("output_path", [True, 5])
    def test_non_string_output_path_exits_2(self, output_path, tmp_path):
        # In a subprocess: opening True or 5 writes to, then closes, that file
        # descriptor, which in-process would be pytest's own stdout.
        cfg = self.write_config(tmp_path, {**PGD_SIMPLEX, "output_path": output_path})
        done = subprocess.run([sys.executable, "-m", "qopt", "run", cfg], capture_output=True,
                              text=True, env=_module_env(), timeout=60)
        assert done.returncode == 2, done.stderr
        assert "config field 'output_path'" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("command", ["run", "sweep", "sweep-grid"])
    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", b"\xff{}"],
                             ids=["missing", "malformed", "not-an-object", "not-utf8"])
    def test_unreadable_config_file_exits_2(self, command, content, tmp_path, capsys):
        # Under sweep-grid the config is well formed and the grid file is not.
        field = "grid" if command == "sweep-grid" else "config"
        path = tmp_path / f"{field}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        if command == "run":
            argv = ["run", str(path), "--output", str(tmp_path / "o.csv")]
        else:
            cfg, grid = tmp_path / "config.json", tmp_path / "grid.json"
            if field == "grid":
                cfg.write_text(json.dumps(PGD_SIMPLEX))
            else:
                grid.write_text(json.dumps({"T": [1]}))
            argv = ["sweep", str(cfg), "--grid", str(grid), "--out-dir", str(tmp_path / "s")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("output", ["missing/o.csv", "."], ids=["no-such-directory",
                                                                   "a-directory"])
    def test_unwritable_output_exits_2(self, output, tmp_path, capsys):
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        assert main(["run", cfg, "--output", str(tmp_path / output)]) == 2
        err = capsys.readouterr().err
        assert "config field 'output_path'" in err
        assert "Traceback" not in err

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        header = {"algorithm": "accelerated", "objective": "quadratic"}

        def exploding(config, output_path=None):
            exc = NumericalFailureError("synthetic blow-up")
            exc.partial_trace = Trace(header, [0], [2], [1.0], [1.0], [None],
                                      failure="synthetic blow-up")
            raise exc

        monkeypatch.setattr("qopt.cli.run_experiment", exploding)
        cfg = self.write_config(tmp_path, {**PGD_SIMPLEX, "output_path": str(tmp_path / "o.csv")})
        assert main(["run", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_failure_marker_row_written(self, tmp_path, monkeypatch):
        # The harness flushes the partial trace with a marker row on failure.
        import qopt.harness as harness

        def exploding(obj, x0, epsilon, counter):
            exc = NumericalFailureError("synthetic blow-up")
            exc.partial_trace = Trace({"algorithm": "accelerated"}, [0], [2], [1.0], [1.0], [None],
                                      failure="synthetic blow-up")
            raise exc

        monkeypatch.setattr(harness, "run_accelerated", exploding)
        cfg = load_config({"algorithm": "accelerated", "objective": "quadratic",
                           "x0": [1.0, 1.0], "epsilon": 1e-2})
        path = tmp_path / "partial.csv"
        with pytest.raises(NumericalFailureError):
            run_experiment(cfg, output_path=path)
        lines = path.read_text().splitlines()
        assert lines[-2].startswith("-1,")
        assert lines[-1].startswith("# numerical-failure")

    def test_simplex_projection_failure_exits_3_with_rows_flushed(self, tmp_path, capsys,
                                                                  monkeypatch):
        # Only a point with a NaN or infinite entry fails to project onto a
        # simplex, and no catalogue gradient on the unit simplex has an
        # infinite entry: the wrapped oracle's makes PGD's first step one.
        import qopt.harness as harness
        build = harness.build_objective
        monkeypatch.setattr(harness, "build_objective", lambda config: dataclasses.replace(
            build(config), evaluator=lambda x: (0.0, np.array([-np.inf, 0.0, 0.0]))))
        out = tmp_path / "pgd.csv"
        cfg = self.write_config(tmp_path, {
            "algorithm": "pgd",
            "objective": {"name": "quadratic",
                          "params": {"set": {"kind": "simplex", "dimension": 3}}},
            "x0": "vertex", "T": 5, "output_path": str(out)})
        assert main(["run", cfg]) == 3
        assert "simplex projection" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[2].startswith("0,1,")
        assert lines[-2].startswith("-1,")
        assert lines[-1].startswith("# numerical-failure: simplex projection")

    def test_unprojectable_shift_exits_3(self, tmp_path, capsys):
        # A non-finite param is a config error before the set sees it.
        cfg = self.write_config(tmp_path, {
            "algorithm": "pgd",
            "objective": {"name": "quadratic",
                          "params": {"set": {"kind": "simplex", "dimension": 3},
                                     "shift": [math.inf, 0.0, 0.0]}},
            "x0": "vertex", "T": 5, "output_path": str(tmp_path / "o.csv")})
        assert main(["run", cfg]) == 2
        assert "config field 'objective'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_unprojectable_shift_flushes_header_only_trace(self, tmp_path, capsys):
        # shift - center overflows although both are finite.
        raw = {"algorithm": "accelerated",
               "objective": {"name": "quadratic",
                             "params": {"set": {"kind": "ball", "center": [-1e308, 0.0],
                                                "radius": 1.0},
                                        "shift": [1e308, 0.0]}},
               "x0": "vertex", "epsilon": 1e-2, "seed": 4}
        out = tmp_path / "bad.csv"
        assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 3
        assert out.exists()
        parsed = read_trace(out)
        assert parsed.header == {"config": raw, "seed": 4}
        assert "ball projection" in parsed.failure
        assert parsed.rows == []
        assert out.read_text().splitlines()[1:3] == ["iter,oracle_calls,f,gap,bound",
                                                     "-1,0,nan,,"]

    @pytest.mark.parametrize("raw", [
        {"algorithm": "accelerated",
         "objective": {"name": "quadratic", "params": {"shift": [1e300, 1e300]}},
         "x0": "vertex", "epsilon": 1e-2},
        # The vertex 1e150 e_1 lies 1e300 from the shift; 6 L D^2 stays finite.
        {"algorithm": "frank_wolfe",
         "objective": {"name": "quadratic",
                       "params": {"set": {"kind": "simplex", "dimension": 3, "scale": 1e150},
                                  "shift": [-1e300, 0.0, 0.0]}},
         "x0": "vertex", "T": 5},
    ], ids=["accelerated_shift", "frank_wolfe_scale"])
    def test_non_finite_oracle_value_exits_3(self, raw, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "oracle of objective 'quadratic' returned the non-finite value inf" in err
        assert "Traceback" not in err
        parsed = read_trace(out)
        assert parsed.header["algorithm"] == raw["algorithm"]
        assert parsed.header["config"] == raw
        assert "non-finite value" in parsed.failure
        assert out.read_text().splitlines()[-2].startswith("-1,")

    def test_frank_wolfe_on_a_ball_whose_squared_gradient_overflows(self, tmp_path, capsys):
        # ||a||^2 overflows; the LMO vertex, and so the declared center, is
        # still -a / ||a||, so the run reaches the true minimum -sqrt(2) 1e200.
        out = tmp_path / "o.csv"
        cfg = self.write_config(tmp_path, {
            "algorithm": "frank_wolfe",
            "objective": {"name": "affine_plus_quadratic",
                          "params": {"dim": 2, "a": [1e200, 1e200], "q": 0.0,
                                     "set": {"kind": "ball", "center": [0.0, 0.0],
                                             "radius": 1.0}}},
            "x0": [0.6, 0.0], "T": 5})
        assert main(["run", cfg, "--output", str(out)]) == 0
        trace = read_trace(out)
        assert trace.rows[0].gap == pytest.approx((0.6 + np.sqrt(2.0)) * 1e200, rel=1e-15)
        assert trace.rows[-1].f_value == pytest.approx(-np.sqrt(2.0) * 1e200, rel=1e-15)
        assert trace.rows[-1].gap == 0.0
        assert "Warning" not in capsys.readouterr().err

    def test_frank_wolfe_on_a_ball_with_an_infinite_gradient_exits_3(self, tmp_path, capsys):
        # f(x0) = 1.75e308 and its gap 3.66e307 are finite, but
        # grad f(x0) = (inf, 0): the ball's vertex would be NaN, so the run
        # fails after its first row.  6 L D^2 = 4.8e306 is finite, so the run
        # starts.
        out = tmp_path / "o.csv"
        cfg = self.write_config(tmp_path, {
            "algorithm": "frank_wolfe",
            "objective": {"name": "affine_plus_quadratic",
                          "params": {"dim": 2, "a": [1.65e308, 0.0], "q": 2e307,
                                     "set": {"kind": "ball", "center": [0.9, 0.0],
                                             "radius": 0.1}}},
            "x0": [1.0, 0.0], "T": 5})
        assert main(["run", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "ball LMO direction is not finite" in err and "Traceback" not in err
        trace = read_trace(out)
        assert [row.iteration for row in trace.rows] == [0]
        assert trace.rows[0].f_value == 1.75e308
        assert trace.rows[0].gap == pytest.approx(3.66e307, rel=1e-15)
        assert "ball LMO direction is not finite" in trace.failure
        assert out.read_text().splitlines()[-2].startswith("-1,1,")

    @pytest.mark.parametrize("algorithm", ["pgd", "frank_wolfe"])
    def test_overflowing_gap_exits_3(self, algorithm, tmp_path, capsys):
        # f(x0) = 1.5e308 and f* = -1.5e308 are finite, but their difference
        # is not: the run fails at row 0 instead of writing an inf gap.
        out = tmp_path / "o.csv"
        cfg = self.write_config(tmp_path, {
            "algorithm": algorithm,
            "objective": {"name": "affine_plus_quadratic",
                          "params": {"dim": 2, "a": [1.5e308, 0.0], "q": 0.0}},
            "x0": [1.0, 0.0], "T": 3})
        assert main(["run", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "gap f - f* of objective 'affine_plus_quadratic' is not finite" in err
        assert "Traceback" not in err
        trace = read_trace(out)
        assert trace.header["algorithm"] == algorithm
        assert trace.rows == []
        assert trace.failure.startswith("gap f - f* of objective")
        # The marker carries the one query the run made, not the last row's count.
        assert trace.failure_calls == 1
        assert out.read_text().splitlines()[-2] == "-1,1,nan,,"

    @pytest.mark.parametrize("algorithm,budget", [("accelerated", {"epsilon": 1e-2}),
                                                  ("pgd", {"T": 3}), ("frank_wolfe", {"T": 3})],
                             ids=["accelerated", "pgd", "frank_wolfe"])
    def test_unprojectable_ball_center_exits_3(self, algorithm, budget, tmp_path, capsys):
        # shift - center = (2.7e308, 0) leaves float range, so the ball
        # cannot project the shift: building the objective fails and a
        # header-only trace is flushed.
        raw = {"algorithm": algorithm,
               "objective": {"name": "quadratic",
                             "params": {"dim": 2, "shift": [1.7e308, 0.0],
                                        "set": {"kind": "ball", "center": [-1e308, 0.0],
                                                "radius": 1.0}}},
               "x0": [1.0, 0.0], **budget}
        out = tmp_path / "o.csv"
        assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "ball projection" in err and "Traceback" not in err
        parsed = read_trace(out)
        assert parsed.header == {"config": raw, "seed": 0}
        assert parsed.rows == []
        assert "ball projection" in parsed.failure

    @pytest.mark.parametrize("raw", [
        {"algorithm": "accelerated", "objective": "quadratic", "x0": "vertex", "epsilon": 1e-100},
        {"algorithm": "pgd", "objective": "quadratic", "x0": "vertex", "epsilon": 1e-300},
        # T stays representable, but delta = L D^2 / (10 T^6) underflows to 0.
        {"algorithm": "accelerated",
         "objective": {"name": "quadratic",
                       "params": {"set": {"kind": "simplex", "dimension": 2, "scale": 1e-150}}},
         "x0": "vertex", "epsilon": 1e-310},
        # gamma^2 epsilon = 0.25 * 5e-324 underflows to 0.
        {"algorithm": "frank_wolfe", "objective": "example1", "x0": "vertex", "epsilon": 5e-324},
    ], ids=["accelerated", "pgd", "accelerated_delta_underflow", "baseline_rate_underflow"])
    def test_unreachable_epsilon_exits_2_before_any_oracle_call(self, raw, tmp_path, capsys,
                                                                 monkeypatch):
        def no_query(*args):
            raise AssertionError("the oracle was queried")

        for name in ("qopt.prox.evaluate", "qopt.baselines.evaluate", "qopt.baselines._query"):
            monkeypatch.setattr(name, no_query)
        out = tmp_path / "o.csv"
        assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'epsilon'" in err and "is too small" in err
        assert not out.exists()

    # A baseline's multiple is its rate constant, which its bound column uses
    # whether T is given or comes from epsilon.  Without the check a baseline
    # given T would write inf in every bound cell and exit 0.
    @pytest.mark.parametrize("algorithm,multiple,objective,source,budget", [
        pytest.param(algorithm, multiple, objective, source, budget,
                     id=name if algorithm == "accelerated" else f"{algorithm}_{name}")
        for algorithm, multiple in (("accelerated", 16), ("pgd", 20), ("frank_wolfe", 6))
        for name, objective, source, budget in (
            ("simplex_scale",
             {"name": "quadratic",
              "params": {"set": {"kind": "simplex", "dimension": 2, "scale": 5e153}}},
             "the diameter D", {"epsilon": 1e300}),
            ("large_L", {"name": "affine_plus_quadratic", "params": {"q": 1e307}}, "L",
             {"epsilon": 1e300}),
            ("large_L_given_T",
             {"name": "affine_plus_quadratic", "params": {"q": 1e308, "a": [1, 1]}}, "L",
             {"T": 5}),
            ("box_bounds_given_T",
             {"name": "quadratic",
              "params": {"set": {"kind": "box", "lower": [-1e154, -1e154],
                                 "upper": [1e154, 1e154]}}}, "the diameter D", {"T": 5}),
            ("simplex_scale_given_T",
             {"name": "quadratic",
              "params": {"set": {"kind": "simplex", "dimension": 3, "scale": 1e308}}},
             "the diameter D", {"T": 5}),
            ("ball_large_L_given_T",
             {"name": "affine_plus_quadratic",
              "params": {"dim": 2, "a": [1e308, 0.0], "q": 1e308,
                         "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}}},
             "L", {"T": 5}),
        )
        if algorithm != "accelerated" or "T" not in budget
    ])
    def test_overflowing_scale_exits_2_naming_its_source(self, algorithm, multiple, objective,
                                                         source, budget, tmp_path, capsys,
                                                         monkeypatch):
        # The run's largest multiple of L D^2 overflows while L D^2 does not;
        # where T comes from epsilon, a huge epsilon keeps T = 1, so the
        # schedule itself is not what fails.
        def no_query(*args):
            raise AssertionError("the oracle was queried")

        for name in ("qopt.prox.evaluate", "qopt.baselines.evaluate", "qopt.baselines._query"):
            monkeypatch.setattr(name, no_query)
        raw = {"algorithm": algorithm, "objective": objective, **budget}
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'objective'" in err
        assert f"{multiple} L D^2 overflows float range through {source} (" in err
        assert caught == [] and "Warning" not in err
        assert not out.exists()

    def test_far_shift_on_an_overflowing_simplex_exits_2(self, tmp_path, capsys):
        # The centre projects (to 1e308 e_1) although 2 d scale leaves float
        # range, so the overflowing diameter is what the run reports.
        raw = {"algorithm": "frank_wolfe",
               "objective": {"name": "quadratic",
                             "params": {"set": {"kind": "simplex", "dimension": 3,
                                                "scale": 1e308},
                                        "shift": [0.0, -1e308, -1e308]}},
               "x0": "vertex", "T": 5}
        out = tmp_path / "o.csv"
        assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'objective'" in err
        assert "overflows float range through the diameter D (" in err
        assert not out.exists()

    def test_verify_subcommand(self, capsys):
        assert main(["verify", "--suite", "trace_determinism"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_verify_stdout_is_pinned(self, capsys):
        # The whole `qopt verify` table: every check's sample sizes, seeds,
        # tolerances and figures as it prints them, so any change to what a
        # check draws, runs or reports shows up as a changed line.
        assert main(["verify"]) == 0
        golden = Path(__file__).parent / "data" / "verify_stdout.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    @pytest.mark.parametrize("suite", ["", " ", ","])
    def test_verify_empty_suite_is_a_config_error(self, capsys, suite):
        assert main(["verify", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: config field 'suite': unknown check ''\n"
        assert captured.out == ""

    def test_verify_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        assert "accelerated_gap:example1" in capsys.readouterr().out

    def test_python_dash_m_entry_point(self):
        done = subprocess.run([sys.executable, "-m", "qopt", "verify", "--list"],
                              capture_output=True, text=True, env=_module_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == available_checks()

    def test_cli_does_not_import_scipy(self):
        # qopt needs only numpy at run time: a `python -m qopt verify --list`
        # run, probed from inside its own process, loads no scipy module.
        probe = (
            "import runpy, sys\n"
            "sys.argv = ['qopt', 'verify', '--list']\n"
            "try:\n"
            "    runpy.run_module('qopt', run_name='__main__', alter_sys=True)\n"
            "    code = 0\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print('scipy modules:', loaded, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=_module_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == available_checks()
        assert "scipy modules: []" in done.stderr

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"algorithm": "pgd", "objective": "example1",
                                           "x0": [5.0], "T": 20, "seed": 0})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"T": [20, 40]}))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--grid", str(grid), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("config,grid", [
        ({"algorithm": "accelerated", "x0": [5.0], "epsilon": 1e-2}, {"epsilon": [1e-2, 1e-2]}),
        ({"algorithm": "pgd", "x0": [5.0], "T": 1}, {"T": [1, 1]}),
    ], ids=["accelerated-epsilon", "pgd-T"])
    def test_sweep_fits_nothing_through_one_abscissa(self, config, grid, tmp_path):
        # Under -W error, so a RankWarning from the fit would fail the sweep too.
        cfg = self.write_config(tmp_path, {**config, "objective": "example1"})
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out_dir = tmp_path / "sweep"
        done = subprocess.run([sys.executable, "-W", "error", "-m", "qopt", "sweep", cfg,
                               "--grid", str(grid_path), "--out-dir", str(out_dir)],
                              capture_output=True, text=True, env=_module_env(), timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        assert summary["fits"] == {}

    def test_sweep_uncreatable_out_dir_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"T": [1]}))
        (tmp_path / "a_file").write_text("")
        out_dir = tmp_path / "a_file" / "sweep"
        assert main(["sweep", cfg, "--grid", str(grid), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "config field 'out_dir'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config,grid", [
        (PGD_SIMPLEX, {"T": [1, 2], "epsilon": [0.1]}),
        ({"algorithm": "accelerated", "objective": "example1", "x0": [5.0], "epsilon": 1e-2},
         {"T": [10, 20]}),
        (PGD_SIMPLEX, {"T": []}),
    ], ids=["two-fields", "accelerated-T", "empty-list"])
    def test_sweep_bad_grid_exits_2_before_its_out_dir(self, config, grid, tmp_path, capsys):
        # A run takes epsilon or T, never both, so a sweep varies one field.
        cfg = self.write_config(tmp_path, config)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--grid", str(grid_path), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "config field 'grid'" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config,grid,field", [
        (PGD_SIMPLEX, {"T": [5, 0]}, "T"),
        ({**PGD_SIMPLEX, "x0": "middle"}, {"T": [5]}, "x0"),
    ], ids=["second-run-T", "x0-rule"])
    def test_sweep_bad_run_exits_2_before_its_out_dir(self, config, grid, field, tmp_path,
                                                      capsys):
        # Every run's config is checked before the out dir or a trace is written.
        cfg = self.write_config(tmp_path, config)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--grid", str(grid_path), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_sweep_unwritable_summary_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"T": [1]}))
        out_dir = tmp_path / "sweep"
        (out_dir / "summary.json").mkdir(parents=True)
        assert main(["sweep", cfg, "--grid", str(grid), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "config field 'out_dir'" in err and "summary.json" in err
        assert "Traceback" not in err

    def test_sweep_bad_grid_path(self, tmp_path):
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        assert main(["sweep", cfg, "--grid", str(tmp_path / "missing.json")]) == 2

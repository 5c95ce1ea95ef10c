import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qopt
from qopt import (
    ConfigError,
    NumericalFailureError,
    available_checks,
    load_config,
    run_experiment,
    sweep,
    verify,
)
from qopt.cli import main
from qopt.harness import baseline_iterations, build_objective
from qopt.trace import Trace, TraceRow, read_trace

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

    def test_unknown_objective_reported(self):
        config = load_config({"algorithm": "pgd", "objective": "mystery", "T": 5})
        with pytest.raises(ConfigError) as excinfo:
            build_objective(config)
        assert excinfo.value.field == "objective"

    def test_set_override_rejected_for_pinned_objective(self):
        config = load_config({
            "algorithm": "pgd", "objective": "example1", "T": 5,
            "set": {"kind": "box", "lower": [-2], "upper": [2]},
        })
        with pytest.raises(ConfigError):
            build_objective(config)

    def test_infeasible_x0(self, tmp_path):
        config = load_config({**PGD_SIMPLEX, "x0": [1.0, 1.0, 1.0]})
        with pytest.raises(ConfigError) as excinfo:
            run_experiment(config, output_path=tmp_path / "t.csv")
        assert excinfo.value.field == "x0"

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("QOPT_SEED", "99")
        config = load_config(PGD_SIMPLEX)
        assert config.seed == 99

    def test_top_level_dim_shorthand(self):
        config = load_config({"algorithm": "pgd", "objective": "quadratic",
                              "dim": 3, "T": 5})
        obj = build_objective(config)
        assert obj.dimension == 3

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


SIMPLEX50 = {"name": "quadratic", "params": {"set": {"kind": "simplex", "dimension": 50}}}


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
], ids=["accel_example1", "accel_quadratic_d5", "accel_glm_sigmoid", "fw_simplex50",
        "pgd_simplex50"])
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


@pytest.mark.parametrize("set_spec", [
    {"kind": "simplex", "dimension": 30_000},
    {"kind": "ball", "center": [0.0] * 30_000, "radius": 1.0},
    {"kind": "box", "lower": [-1.0] * 30_000, "upper": [1.0] * 30_000},
], ids=["simplex", "ball", "box"])
def test_trace_bytes_do_not_depend_on_the_blas_thread_count(set_spec, tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 entries across threads,
    # which changes its last bits with the thread count; the evaluators and
    # the sets' norms (the box diameter is in the bound column) sum fixed
    # 10,000-entry chunks in order instead.
    n = 30_000
    shift = [(-1.0) ** i * (1 + i % 7) / n for i in range(n)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "algorithm": "frank_wolfe", "x0": "vertex", "T": 200,
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

    def test_accelerated_calls_fit(self, tmp_path):
        base = load_config({"algorithm": "accelerated", "objective": "quadratic",
                            "x0": [1.0, 1.0], "epsilon": 1.0, "seed": 0})
        summary = sweep(base, {"epsilon": [1e-1, 1e-2]}, tmp_path)
        assert summary["fits"]["accelerated"]["slope"] < 0


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
        ("objective", {"objective": "quadratic", "dim": "x"}),
        ("set", {"objective": "quadratic",
                 "set": {"kind": "ball", "center": [0.0, 0.0], "radius": "r"}}),
        ("set", {"objective": "quadratic",
                 "set": {"kind": "box", "lower": [0.0, 0.0], "upper": "q"}}),
        ("epsilon", {"algorithm": "accelerated", "objective": "quadratic", "T": None,
                     "epsilon": 1e-300}),
        ("set", {"algorithm": "frank_wolfe", "objective": "quadratic",
                 "set": {"kind": "ball", "center": [float("nan"), 0.0], "radius": 1.0}}),
        ("set", {"objective": "quadratic",
                 "set": {"kind": "ball", "center": [0.0, 0.0], "radius": float("inf")}}),
        ("objective", {"objective": {"name": "quadratic", "params": [1]}}),
        ("x0", {"x0": ["a", "b"]}),
        ("epsilon", {"algorithm": "accelerated", "objective": "quadratic", "T": None,
                     "epsilon": float("inf")}),
        ("epsilon", {"algorithm": "accelerated", "objective": "quadratic", "T": None,
                     "epsilon": True}),
        ("T", {"T": True}),
        ("seed", {"seed": True}),
        ("set", {"objective": "quadratic", "set": {"kind": "simplex", "dimension": 2.5}}),
        ("objective", {"objective": {"name": "quadratic", "params": {"dim": 2.7}}}),
        ("objective", {"objective": "quadratic", "dim": 2.7}),
        ("T", {"T": 10**30}),
        ("x_0", {"x_0": [4.0]}),
        ("Tt", {"Tt": 3}),
        ("objective", {"objective": {"name": "quadratic", "param": {"dim": 2}}}),
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

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_non_integer_env_seed_exits_2(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QOPT_SEED", value)
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        assert main(["run", cfg, "--output", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "config field 'seed'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", b"\xff{}"],
                             ids=["missing", "malformed", "not-an-object", "not-utf8"])
    def test_unreadable_config_file_exits_2(self, command, content, tmp_path, capsys):
        path = tmp_path / "config.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        if command == "run":
            argv = ["run", str(path), "--output", str(tmp_path / "o.csv")]
        else:
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"T": [1]}))
            argv = ["sweep", str(path), "--grid", str(grid), "--out-dir", str(tmp_path / "s")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config field 'config'" in err
        assert "Traceback" not in err

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
        rows = [TraceRow(0, 2, 1.0, 1.0, None)]

        def exploding(config, output_path=None):
            exc = NumericalFailureError("synthetic blow-up")
            exc.partial_trace = Trace(header=header, rows=rows, failure="synthetic blow-up")
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
            exc.partial_trace = Trace(
                header={"algorithm": "accelerated"},
                rows=[TraceRow(0, 2, 1.0, 1.0, None)],
                failure="synthetic blow-up",
            )
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

    def test_simplex_projection_failure_exits_3_with_rows_flushed(self, tmp_path, capsys):
        out = tmp_path / "pgd.csv"
        cfg = self.write_config(tmp_path, {
            "algorithm": "pgd",
            "objective": {"name": "affine_plus_quadratic",
                          "params": {"set": {"kind": "simplex", "dimension": 3},
                                     "a": [1e300, -1e300, 0.0], "q": 0.0}},
            "x0": "vertex", "T": 5, "output_path": str(out)})
        assert main(["run", cfg]) == 3
        assert "simplex projection" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[2].startswith("0,1,")
        assert lines[-2].startswith("-1,")
        assert lines[-1].startswith("# numerical-failure: simplex projection")

    def test_unprojectable_shift_exits_3(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "algorithm": "pgd",
            "objective": {"name": "quadratic",
                          "params": {"set": {"kind": "simplex", "dimension": 3},
                                     "shift": [1e300, 1e300, 1e300]}},
            "x0": "vertex", "T": 5, "output_path": str(tmp_path / "o.csv")})
        assert main(["run", cfg]) == 3
        assert "simplex projection" in capsys.readouterr().err

    def test_unprojectable_shift_flushes_header_only_trace(self, tmp_path, capsys):
        raw = {"algorithm": "accelerated",
               "objective": {"name": "quadratic",
                             "params": {"set": {"kind": "simplex", "dimension": 3},
                                        "shift": [1e300, 1e300, 1e300]}},
               "x0": "vertex", "epsilon": 1e-2, "seed": 4}
        out = tmp_path / "bad.csv"
        assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 3
        assert out.exists()
        parsed = read_trace(out)
        assert parsed.header == {"config": raw, "seed": 4}
        assert "simplex projection" in parsed.failure
        assert parsed.rows == []
        assert out.read_text().splitlines()[1:3] == ["iter,oracle_calls,f,gap,bound",
                                                     "-1,0,nan,,"]

    @pytest.mark.parametrize("raw", [
        {"algorithm": "accelerated",
         "objective": {"name": "quadratic", "params": {"shift": [1e300, 1e300]}},
         "x0": "vertex", "epsilon": 1e-2},
        {"algorithm": "frank_wolfe",
         "objective": {"name": "quadratic",
                       "params": {"set": {"kind": "simplex", "dimension": 3, "scale": 1e308}}},
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

    @pytest.mark.parametrize("raw", [
        {"algorithm": "accelerated", "objective": "quadratic", "x0": "vertex", "epsilon": 1e-100},
        {"algorithm": "pgd", "objective": "quadratic", "x0": "vertex", "epsilon": 1e-300},
        # T stays representable, but delta = L D^2 / (10 T^6) underflows to 0.
        {"algorithm": "accelerated",
         "objective": {"name": "quadratic",
                       "params": {"set": {"kind": "simplex", "dimension": 2, "scale": 1e-150}}},
         "x0": "vertex", "epsilon": 1e-310},
    ], ids=["accelerated", "pgd", "accelerated_delta_underflow"])
    def test_unreachable_epsilon_exits_2_before_any_oracle_call(self, raw, tmp_path, capsys,
                                                                 monkeypatch):
        def no_query(*args):
            raise AssertionError("the oracle was queried")

        for module in ("qopt.prox", "qopt.baselines"):
            monkeypatch.setattr(f"{module}.evaluate", no_query)
        out = tmp_path / "o.csv"
        assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'epsilon'" in err and "is too small" in err
        assert not out.exists()

    # A baseline's multiple is its rate constant; it forms one only when its T
    # comes from epsilon.
    @pytest.mark.parametrize("algorithm,multiple,objective,field", [
        pytest.param(algorithm, multiple, objective, field,
                     id=source if algorithm == "accelerated" else f"{algorithm}_{source}")
        for algorithm, multiple in (("accelerated", 16), ("pgd", 20), ("frank_wolfe", 6))
        for source, objective, field in (
            ("simplex_scale",
             {"name": "quadratic",
              "params": {"set": {"kind": "simplex", "dimension": 2, "scale": 5e153}}}, "set"),
            ("large_L", {"name": "affine_plus_quadratic", "params": {"q": 1e307}}, "objective"),
        )
    ])
    def test_overflowing_scale_exits_2_naming_its_source(self, algorithm, multiple, objective,
                                                         field, tmp_path, capsys, monkeypatch):
        # The run's largest multiple of L D^2 overflows while L D^2 does not;
        # a huge epsilon keeps T = 1, so the schedule itself is not what fails.
        def no_query(*args):
            raise AssertionError("the oracle was queried")

        for module in ("qopt.prox", "qopt.baselines"):
            monkeypatch.setattr(f"{module}.evaluate", no_query)
        raw = {"algorithm": algorithm, "objective": objective, "epsilon": 1e300}
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", self.write_config(tmp_path, raw), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and f"{multiple} L D^2 overflows" in err
        assert caught == [] and "Warning" not in err
        assert not out.exists()

    def test_verify_subcommand(self, capsys):
        assert main(["verify", "--suite", "trace_determinism"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_property_check_stdout_is_pinned(self, capsys):
        # The sampled property checks, their sample sizes, seeds and
        # tolerances, as `qopt verify` prints them: any change to what they
        # draw or how they report shows up as a changed line.
        suite = ("quasar_certificate,smoothness,prox_conditioning,moreau_smoothness,"
                 "moreau_quasar,prox_descent,prox_stopping,prox_gradient_error,"
                 "prox_iteration_budget,pgd_mapping_bound,pgd_descent_step")
        assert main(["verify", "--suite", suite]) == 0
        golden = Path(__file__).parent / "data" / "verify_property_checks.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_verify_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        assert "accelerated_gap:example1" in capsys.readouterr().out

    def test_python_dash_m_entry_point(self):
        done = subprocess.run([sys.executable, "-m", "qopt", "verify", "--list"],
                              capture_output=True, text=True, env=_module_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == available_checks()

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"algorithm": "pgd", "objective": "example1",
                                           "x0": [5.0], "T": 20, "seed": 0})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"T": [20, 40]}))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--grid", str(grid), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()

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

    def test_sweep_bad_grid_path(self, tmp_path):
        cfg = self.write_config(tmp_path, PGD_SIMPLEX)
        assert main(["sweep", cfg, "--grid", str(tmp_path / "missing.json")]) == 2

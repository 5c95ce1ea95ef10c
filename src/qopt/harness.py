"""Experiment configs, the trace-emitting runner, and parameter sweeps.

Config format (JSON)::

    {
      "algorithm": "accelerated" | "pgd" | "frank_wolfe",
      "objective": "example1" | {"name": "quadratic", "params": {...}},
      "x0": "vertex" | "center" | [..],
      "epsilon": 1e-3,             # required for accelerated
      "T": 1000,                   # baselines take exactly one of epsilon/T, T <= 10^7
      "seed": 0,
      "output_path": "trace.csv"
    }

Any key not shown, at the top level or beside ``name`` and ``params``, is a
config error, and so is an ``epsilon`` that fails
:func:`qopt.sets.is_positive_finite`.  An objective that takes a set or a
dimension reads them from its ``params`` (``set``, ``dim``); ``seed`` is only
recorded in the trace header, beside the config, for a finished and a failed
run alike.  A run whose constants fail the solvers' gate, such as an
overflowing ``L D^2`` scale, is a config error naming ``objective``.
Identical configs yield byte-identical trace files; an accelerated run above
10,000 dimensions does so only at a fixed BLAS thread count (see the README).
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .accel import MAX_ITERATIONS, _check_constants, iteration_count, run_accelerated
from .baselines import RATE_CONSTANTS, attach_rate_bounds, run_frank_wolfe, run_pgd
from .errors import ConfigError, InvalidArgumentError, NumericalFailureError, PreconditionError
from .objectives import OracleCounter, make_catalogue_objective
from .sets import as_point, is_int, is_positive_finite
from .trace import Trace, write_trace

ALGORITHMS = ("accelerated", "pgd", "frank_wolfe")
#: Every top-level config key.
_CONFIG_KEYS = ("algorithm", "objective", "x0", "epsilon", "T", "seed", "output_path")

#: Rows with a smaller gap are dropped from log-log fits (log of ~0 is noise).
GAP_FIT_FLOOR = 1e-13


@dataclass
class ExperimentConfig:
    algorithm: str
    objective_name: str
    objective_params: dict
    x0: Union[str, list]
    epsilon: Optional[float]
    T: Optional[int]
    seed: int
    output_path: Optional[str]
    raw: dict


def _read_json(path, field):
    """The JSON value in the file at ``path``; a file that cannot be read, or
    is not UTF-8 JSON, is a config error naming ``field``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(field, f"cannot read {str(path)!r}: {exc}") from exc


def load_config(source):
    """Parse and validate a config from a mapping or a JSON file's ``str`` or ``PathLike`` path."""
    raw = _read_json(source, "config") if isinstance(source, (str, os.PathLike)) else source
    if not isinstance(raw, Mapping):
        raise ConfigError("config", f"expected a JSON object, not {type(raw).__name__}")
    raw = dict(raw)

    # A misspelt key would otherwise run silently with the default it meant to replace.
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, f"unknown config key; expected one of {_CONFIG_KEYS}")
    if "algorithm" not in raw:
        raise ConfigError("algorithm", "missing")
    algorithm = raw["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ConfigError("algorithm", f"unknown '{algorithm}'; expected one of {ALGORITHMS}")

    objective = raw.get("objective")
    if objective is None:
        raise ConfigError("objective", "missing")
    if isinstance(objective, str):
        name, params = objective, {}
    elif isinstance(objective, dict) and "name" in objective:
        for key in objective:
            if key not in ("name", "params"):
                raise ConfigError("objective", f"unknown key {key!r}; expected 'name' and 'params'")
        name, params = objective["name"], objective.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("objective", "params must be a mapping")
    else:
        raise ConfigError("objective", "expected a name or {'name': ..., 'params': {...}}")

    epsilon = raw.get("epsilon")
    T = raw.get("T")
    if epsilon is not None and not is_positive_finite(epsilon):
        raise ConfigError("epsilon", "must be a positive finite number")
    if T is not None and not (is_int(T) and 1 <= T <= MAX_ITERATIONS):
        raise ConfigError("T", f"must be a positive integer no larger than {MAX_ITERATIONS}")
    if algorithm == "accelerated":
        if epsilon is None:
            raise ConfigError("epsilon", "required for the accelerated algorithm")
        if T is not None:
            raise ConfigError("T", "the accelerated algorithm derives T from epsilon")
    else:
        if (epsilon is None) == (T is None):
            raise ConfigError("T", "baselines take exactly one of epsilon/T")

    seed = raw.get("seed", 0)
    if not is_int(seed):
        raise ConfigError("seed", "must be an integer")

    x0 = raw.get("x0", "vertex")
    if not (isinstance(x0, list) or isinstance(x0, str) and x0 in ("vertex", "center")):
        raise ConfigError("x0", "expected 'vertex', 'center', or an explicit vector")
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path", "expected a file path string")

    return ExperimentConfig(
        algorithm=algorithm,
        objective_name=name,
        objective_params=params,
        x0=x0,
        epsilon=epsilon,
        T=T,
        seed=seed,
        output_path=output_path,
        raw=raw,
    )


def build_objective(config):
    # Malformed numbers surface as TypeError, ValueError or OverflowError.
    try:
        return make_catalogue_objective(config.objective_name, config.objective_params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("objective", str(exc)) from exc


def resolve_x0(set_, spec):
    """The start point a config names; the solver's gate checks an explicit one."""
    if spec == "vertex":
        return set_.canonical_vertex()
    if spec == "center":
        return set_.center_point()
    try:
        return as_point(spec, set_.dimension)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("x0", str(exc)) from exc


def baseline_iterations(config, obj):
    """Resolve T for a baseline, given or from epsilon, once the constants pass
    the gate of the bound column's ``constant L D^2``."""
    constant = RATE_CONSTANTS[config.algorithm]
    L, D, gamma = obj.smoothness_L, obj.feasible_set.diameter(), obj.quasar_gamma
    _check_constants(gamma, constant, L=L, D=D)
    if config.T is not None:
        return config.T
    # A tiny epsilon can underflow gamma^2 epsilon to 0: then no T is enough.
    denominator = gamma * gamma * config.epsilon
    estimate = constant * L * D * D / denominator - 1.0 if denominator else math.inf
    return iteration_count(estimate, config.epsilon)


def run_experiment(config, output_path=None):
    """Run one loaded experiment config; write its trace CSV when a path is known.

    Returns the trace.  On numerical failure the partial trace is flushed with
    a failure marker row and the error is re-raised for the caller to map to
    an exit code.
    """
    counter = OracleCounter()
    try:
        # ``evaluate`` turns an overflowing oracle value into exit 3, so numpy's
        # own overflow warnings are silenced, once per run.
        with np.errstate(over="ignore", invalid="ignore"):
            # Building the objective can fail numerically too (an unprojectable
            # center); that failure flushes a header-only trace.
            obj = build_objective(config)
            x0 = resolve_x0(obj.feasible_set, config.x0)
            if config.algorithm == "accelerated":
                trace = run_accelerated(obj, x0, config.epsilon, counter)
            else:
                run = run_pgd if config.algorithm == "pgd" else run_frank_wolfe
                trace = run(obj, x0, baseline_iterations(config, obj), counter)
                attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                                   obj.feasible_set.diameter())
    except PreconditionError as exc:
        raise ConfigError("x0", str(exc)) from exc
    except InvalidArgumentError as exc:
        # Only the gates of the run's constants raise one unmapped.
        raise ConfigError("objective", str(exc)) from exc
    except NumericalFailureError as exc:
        _write(getattr(exc, "partial_trace", None) or Trace(header={}, failure=str(exc)),
               config, output_path)
        raise
    assert trace.final_oracle_calls == counter.calls  # no hidden evaluations
    return _write(trace, config, output_path)


def _write(trace, config, path):
    """Stamp ``config`` and ``seed`` into the header of ``trace`` and write it to
    ``path``, or to the config's ``output_path``, when either is set; return it."""
    trace.header["config"] = config.raw
    trace.header["seed"] = config.seed
    path = path or config.output_path
    if path is not None:
        try:
            write_trace(trace, path)
        except OSError as exc:
            raise ConfigError("output_path", f"cannot write {str(path)!r}: {exc}") from exc
    return trace


# -- sweeps --------------------------------------------------------------------

_SWEEPABLE = ("epsilon", "T")


def sweep(config, grid, out_dir):
    """Run one experiment per swept value of a loaded config and fit the scaling laws.

    ``grid``, a mapping or the path of a JSON file holding one, maps one
    field to a nonempty value list: ``epsilon``, or ``T`` for a baseline,
    since a run takes only one of them.  Each run is the
    config without its ``epsilon``, ``T`` and ``output_path``, plus the swept
    value.  Traces land in ``out_dir`` along with a ``summary.json`` holding
    per-run facts and per-algorithm log-log fits: gap-versus-iteration for the
    baselines, total oracle calls versus epsilon for the accelerated method.
    """
    if isinstance(grid, (str, os.PathLike)):
        grid = _read_json(grid, "grid")
    if not isinstance(grid, dict) or len(grid) != 1:
        raise ConfigError("grid", f"must map one of {_SWEEPABLE} to a list of values")
    (key, values), = grid.items()
    if key not in _SWEEPABLE or (key, config.algorithm) == ("T", "accelerated"):
        raise ConfigError("grid", f"cannot sweep '{key}': sweep epsilon, or T for a baseline")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("grid", f"parameter '{key}' needs a nonempty list")

    # Every run's config is checked before anything is written.
    base = {k: v for k, v in config.raw.items() if k not in ("epsilon", "T", "output_path")}
    run_cfgs = [load_config({**base, key: value}) for value in values]
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot create {str(out_dir)!r}: {exc}") from exc
    runs = []
    points = []
    for i, (value, run_cfg) in enumerate(zip(values, run_cfgs)):
        path = out_dir / f"run_{i:03d}.csv"
        trace = run_experiment(run_cfg, output_path=path)
        runs.append(
            {
                "params": {key: value},
                "path": str(path),
                "algorithm": config.algorithm,
                "final_gap": trace.final_gap,
                "oracle_calls": trace.final_oracle_calls,
                "rows": len(trace.iteration),
            }
        )
        if config.algorithm == "accelerated":
            points.append((run_cfg.epsilon, trace.final_oracle_calls))
        else:
            points.extend((t, gap) for t, gap in zip(trace.iteration, trace.gap)
                          if t >= 1 and gap is not None and gap > GAP_FIT_FLOOR)

    fits = {}
    # A line through points that share one abscissa is undetermined.
    if len({x for x, _ in points}) >= 2:
        # Least squares of log10(y) against log10(x).
        slope, intercept = np.polyfit(*np.log10(np.array(points, dtype=float)).T, 1)
        fits[config.algorithm] = {"slope": float(slope), "intercept": float(intercept)}

    summary = {"runs": runs, "fits": fits}
    path = out_dir / "summary.json"
    try:
        with open(path, "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot write {str(path)!r}: {exc}") from exc
    return summary

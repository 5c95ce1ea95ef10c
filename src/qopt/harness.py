"""Experiment configs, the trace-emitting runner, and parameter sweeps.

Config format (JSON)::

    {
      "algorithm": "accelerated" | "pgd" | "frank_wolfe",
      "objective": "example1" | {"name": "quadratic", "params": {...}},
      "set": {...},                # optional override where the objective allows it
      "x0": "vertex" | "center" | [..],
      "epsilon": 1e-3,             # required for accelerated
      "T": 1000,                   # baselines take exactly one of epsilon/T, T <= 10^7
      "seed": 0,
      "output_path": "trace.csv",
      "dim": 2                     # optional shorthand for the objective's dim param
    }

Any other key, top-level or beside ``name`` and ``params``, is a config error.
The env var ``QOPT_SEED`` overrides ``seed``.  Identical config + seed yields
byte-identical trace files; an accelerated run above 10,000 dimensions does so
only at a fixed BLAS thread count (see the README).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .accel import MAX_ITERATIONS, iteration_count, run_accelerated
from .baselines import RATE_CONSTANTS, attach_rate_bounds, run_frank_wolfe, run_pgd
from .errors import ConfigError, NumericalFailureError, PreconditionError
from .objectives import OracleCounter, make_catalogue_objective
from .sets import FEASIBILITY_TOL, as_point, is_int, set_from_spec
from .trace import Trace, write_trace

ALGORITHMS = ("accelerated", "pgd", "frank_wolfe")
#: Every top-level config key; ``dim`` is shorthand for the objective's ``dim`` param.
_CONFIG_KEYS = ("algorithm", "objective", "set", "x0", "epsilon", "T", "seed", "output_path",
               "dim")

#: Rows with a smaller gap are dropped from log-log fits (log of ~0 is noise).
GAP_FIT_FLOOR = 1e-13


@dataclass
class ExperimentConfig:
    algorithm: str
    objective_name: str
    objective_params: dict
    set_spec: Optional[dict]
    x0: Union[str, list]
    epsilon: Optional[float]
    T: Optional[int]
    seed: int
    output_path: Optional[str]
    raw: dict


def load_config(source):
    """Parse and validate a config from a mapping or the path of a JSON file."""
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
            raise ConfigError("config", f"cannot read {str(source)!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config", f"{str(source)!r} must hold a JSON object")
    else:
        raw = dict(source)

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
        params = dict(params)
    else:
        raise ConfigError("objective", "expected a name or {'name': ..., 'params': {...}}")

    set_spec = raw.get("set")
    if set_spec is not None and not isinstance(set_spec, dict):
        raise ConfigError("set", "expected a set spec mapping")
    if "dim" in raw:  # shorthand: top-level dim feeds the objective params
        params["dim"] = raw["dim"]

    epsilon = raw.get("epsilon")
    T = raw.get("T")
    if epsilon is not None and (isinstance(epsilon, bool) or not isinstance(epsilon, (int, float))
                                or not 0 < epsilon < math.inf):
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
    env_seed = os.environ.get("QOPT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError("seed", f"QOPT_SEED must be an integer, got {env_seed!r}") from None
    if not is_int(seed):
        raise ConfigError("seed", "must be an integer")

    x0 = raw.get("x0", "vertex")
    if not (isinstance(x0, (list, str))):
        raise ConfigError("x0", "expected 'vertex', 'center', or an explicit vector")
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path", "expected a file path string")

    return ExperimentConfig(
        algorithm=algorithm,
        objective_name=name,
        objective_params=params,
        set_spec=set_spec,
        x0=x0,
        epsilon=epsilon,
        T=T,
        seed=seed,
        output_path=output_path,
        raw=raw,
    )


def build_objective(config):
    # Malformed numbers surface as TypeError, ValueError or OverflowError.
    params = dict(config.objective_params)
    if config.set_spec is not None:
        try:
            params["set"] = set_from_spec(config.set_spec)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("set", str(exc)) from exc
    try:
        return make_catalogue_objective(config.objective_name, params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("objective", str(exc)) from exc


def resolve_x0(set_, spec):
    if isinstance(spec, str):
        if spec == "vertex":
            return set_.canonical_vertex()
        if spec == "center":
            return set_.center_point()
        raise ConfigError("x0", f"unknown rule '{spec}'")
    try:
        x0 = as_point(spec, set_.dimension)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("x0", str(exc)) from exc
    if not np.isfinite(x0).all():
        raise ConfigError("x0", "explicit starting point must be finite")
    if not set_.contains(x0, FEASIBILITY_TOL):
        raise ConfigError("x0", "explicit starting point is infeasible")
    return x0


def baseline_iterations(config, obj):
    """Resolve T for a baseline: given directly, or converted from epsilon."""
    if config.T is not None:
        return config.T
    constant = RATE_CONSTANTS[config.algorithm]
    _require_representable_scale(obj, constant)
    L = obj.smoothness_L
    D = obj.feasible_set.diameter()
    gamma = obj.quasar_gamma
    return iteration_count(constant * L * D * D / (gamma * gamma * config.epsilon) - 1.0,
                           config.epsilon)


def _require_representable_scale(obj, multiple):
    """Reject an objective whose ``multiple * L D^2`` leaves float range, before any oracle call.

    ``multiple`` is the largest multiple of ``L D^2`` the run forms: 16 for an
    accelerated run (its bound column; the line search's budget uses
    ``8 L D^2``), and the rate constant for a baseline whose ``T`` comes from
    ``epsilon``.  The set is named when its diameter alone overflows,
    otherwise the objective's ``L``.
    """
    L, D = obj.smoothness_L, obj.feasible_set.diameter()
    if not math.isfinite(multiple * L * D * D):
        field = "objective" if math.isfinite(multiple * D * D) else "set"
        raise ConfigError(field, f"{multiple:g} L D^2 overflows float range (L = {L!r}, "
                                 f"diameter D = {D!r}); rescale the problem")


def run_experiment(config, output_path=None):
    """Run one configured experiment; write its trace CSV when a path is known.

    Returns the trace.  On numerical failure the partial trace is flushed with
    a failure marker row and the error is re-raised for the caller to map to
    an exit code.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    counter = OracleCounter()
    path = output_path or config.output_path

    try:
        # ``evaluate`` turns an overflowing oracle value into exit 3, so numpy's
        # own overflow warnings are silenced, once per run.
        with np.errstate(over="ignore", invalid="ignore"):
            # Building the objective can fail numerically too (an unprojectable
            # center); that failure flushes a header-only trace.
            obj = build_objective(config)
            x0 = resolve_x0(obj.feasible_set, config.x0)
            if config.algorithm == "accelerated":
                _require_representable_scale(obj, 16.0)
                trace = run_accelerated(obj, x0, config.epsilon, counter)
            elif config.algorithm == "pgd":
                trace = run_pgd(obj, x0, baseline_iterations(config, obj), counter)
            else:
                trace = run_frank_wolfe(obj, x0, baseline_iterations(config, obj), counter)
    except PreconditionError as exc:
        raise ConfigError("x0", str(exc)) from exc
    except OverflowError as exc:  # a schedule constant derived from epsilon left float range
        raise ConfigError("epsilon", f"too small: {exc}") from exc
    except NumericalFailureError as exc:
        partial = getattr(exc, "partial_trace", None)
        if partial is None:
            partial = Trace(header={}, rows=[], failure=str(exc))
        if path is not None:
            partial.header["config"] = config.raw
            partial.header["seed"] = config.seed
            _write(partial, path)
        raise

    if config.algorithm in ("pgd", "frank_wolfe"):
        attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                           obj.feasible_set.diameter())
    trace.header["config"] = config.raw
    trace.header["seed"] = config.seed
    assert trace.final_oracle_calls == counter.calls  # no hidden evaluations
    if path is not None:
        _write(trace, path)
    return trace


def _write(trace, path):
    try:
        write_trace(trace, path)
    except OSError as exc:
        raise ConfigError("output_path", f"cannot write {str(path)!r}: {exc}") from exc


# -- sweeps --------------------------------------------------------------------

_SWEEPABLE = ("epsilon", "T", "seed")


def fit_loglog(xs, ys):
    """Least-squares slope/intercept of log10(y) against log10(x)."""
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def _gap_fit_points(trace):
    pts = [
        (row.iteration, row.gap)
        for row in trace.rows
        if row.iteration >= 1 and row.gap is not None and row.gap > GAP_FIT_FLOOR
    ]
    return pts


def sweep(config, grid, out_dir):
    """Run one experiment per grid point and fit the observed scaling laws.

    ``grid`` maps sweepable config fields (epsilon, T, seed) to value lists;
    the cartesian product is run.  Traces land in ``out_dir`` along with a
    ``summary.json`` holding per-run facts and per-algorithm log-log fits:
    gap-versus-iteration for the baselines, total oracle calls versus epsilon
    for the accelerated method.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid", "must be a nonempty mapping of parameter lists")
    for key, values in grid.items():
        if key not in _SWEEPABLE:
            raise ConfigError("grid", f"unknown sweep parameter '{key}'")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError("grid", f"parameter '{key}' needs a nonempty list")

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot create {str(out_dir)!r}: {exc}") from exc
    keys = sorted(grid)
    runs = []
    gap_points = []
    calls_points = []
    for i, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        overrides = dict(zip(keys, combo))
        run_cfg_raw = dict(config.raw)
        # epsilon and T are mutually exclusive; sweeping one drops the other.
        if "epsilon" in overrides:
            run_cfg_raw.pop("T", None)
        if "T" in overrides:
            run_cfg_raw.pop("epsilon", None)
        run_cfg_raw.update(overrides)
        run_cfg_raw.pop("output_path", None)
        run_cfg = load_config(run_cfg_raw)
        path = out_dir / f"run_{i:03d}.csv"
        trace = run_experiment(run_cfg, output_path=path)
        runs.append(
            {
                "params": overrides,
                "path": str(path),
                "algorithm": config.algorithm,
                "final_gap": trace.final_gap,
                "oracle_calls": trace.final_oracle_calls,
                "rows": len(trace.rows),
            }
        )
        gap_points.extend(_gap_fit_points(trace))
        if config.algorithm == "accelerated":
            calls_points.append((run_cfg.epsilon, trace.final_oracle_calls))

    fits = {}
    if config.algorithm in ("pgd", "frank_wolfe") and len(gap_points) >= 2:
        slope, intercept = fit_loglog(*zip(*gap_points))
        fits[config.algorithm] = {"slope": slope, "intercept": intercept}
    if config.algorithm == "accelerated" and len(calls_points) >= 2:
        slope, intercept = fit_loglog(*zip(*calls_points))
        fits["accelerated"] = {"slope": slope, "intercept": intercept}

    summary = {"runs": runs, "fits": fits}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    return summary

"""Constrained smooth quasar-convex optimization toolkit.

Solvers: an accelerated inexact proximal-point method with a noise-tolerant
binary line search, plus projected-gradient-descent and Frank-Wolfe baselines.
A verification harness certifies the structural properties every rate result
relies on (subproblem conditioning, envelope smoothness and quasar convexity,
descent and line-search certificates, rate envelopes) on a catalogue of test
problems.
"""

from .accel import (
    AccelParams,
    LineSearchResult,
    binary_line_search,
    check_linesearch_certificates,
    compute_schedule,
    ftrl_step,
    run_accelerated,
)
from .baselines import (
    attach_rate_bounds,
    gradient_mapping,
    run_frank_wolfe,
    run_pgd,
)
from .checks import CheckResult, VerificationReport, available_checks, verify
from .errors import (
    ConfigError,
    InvalidArgumentError,
    NumericalFailureError,
    PreconditionError,
)
from .harness import ExperimentConfig, load_config, run_experiment, sweep
from .objectives import (
    CATALOGUE_NAMES,
    Objective,
    OracleCounter,
    check_quasar_convexity,
    check_smoothness,
    evaluate,
    finite_diff_gradient,
    make_catalogue_objective,
)
from .prox import (
    ProxResult,
    check_descent_lemma,
    check_moreau_quasar,
    check_prox_conditioning,
    default_lambda,
    solve_prox_subproblem,
)
from .sets import Ball, Box, FeasibleSet, Simplex, set_from_spec
from .trace import Trace, TraceRow, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "AccelParams",
    "Ball",
    "Box",
    "CATALOGUE_NAMES",
    "CheckResult",
    "ConfigError",
    "ExperimentConfig",
    "FeasibleSet",
    "InvalidArgumentError",
    "LineSearchResult",
    "NumericalFailureError",
    "Objective",
    "OracleCounter",
    "PreconditionError",
    "ProxResult",
    "Simplex",
    "Trace",
    "TraceRow",
    "VerificationReport",
    "attach_rate_bounds",
    "available_checks",
    "binary_line_search",
    "check_descent_lemma",
    "check_linesearch_certificates",
    "check_moreau_quasar",
    "check_prox_conditioning",
    "check_quasar_convexity",
    "check_smoothness",
    "compute_schedule",
    "default_lambda",
    "evaluate",
    "finite_diff_gradient",
    "ftrl_step",
    "gradient_mapping",
    "load_config",
    "make_catalogue_objective",
    "read_trace",
    "run_accelerated",
    "run_experiment",
    "run_frank_wolfe",
    "run_pgd",
    "set_from_spec",
    "solve_prox_subproblem",
    "sweep",
    "verify",
    "write_trace",
]

"""Registered property checks: the empirical certification suite.

Each check is one function that runs one verifiable statement about the
implementation at its fixed tolerances and returns a :class:`CheckResult`
with the measured worst violation.  ``verify`` runs the checks of the ordered
table ``_CHECKS`` and aggregates them into a :class:`VerificationReport`; the
CLI renders the report as a table and sets the exit code from
``report.overall``.

A check that certifies one objective takes it as an :class:`Objective` or as
a catalogue name, built when the check runs; sample counts default to the
registered ones.  A NaN sample fails every check: the first NaN violation,
ratio or excess becomes the reported worst (:func:`_worst`).

The envelope checks are the objective checks run on another oracle: the
Moreau envelope of a gamma-quasar-convex, L-smooth f is gamma-quasar convex
and 2L-smooth, and :func:`_envelope` gives ``x -> (M~(x), grad M~(x))``.  So
one quasar loop, one secant loop, one re-solve loop and one PGD-step sampler
(:func:`_worst_quasar_violations`, :func:`_worst_secant`,
:func:`_worst_resolve`, :func:`_pgd_steps`) each serve every check that
states their inequality.

The counterexample check uses expected-failure semantics: it passes exactly
when every gamma it tries shows a strictly positive quasar violation.

Every tolerance, window and budget of a certified claim is typed here once,
save the per-entry arguments of the catalogue registry (``moreau_quasar``'s
tolerance, ``accelerated_gap``'s target), from which ``_CHECKS`` derives; the
acceptance suite runs these checks rather than restating them.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines
from .accel import _iterations, compute_schedule, run_accelerated
from .errors import ConfigError, InvalidArgumentError, PreconditionError
from .harness import load_config, resolve_x0, run_experiment, sweep
from .objectives import (
    CATALOGUE,
    FIG1_X0,
    OracleCounter,
    evaluate,
    finite_diff_gradient,
    make_catalogue_objective,
)
from .prox import _ProxConstants, _solve, default_lambda
from .sets import MEMBERSHIP_TOL, Box, _norm

#: How far a recorded gap may exceed its rate bound (baselines and accelerated).
_BOUND_SLACK = 1e-9
#: How far below zero a recorded gap may round.
_GAP_FLOOR = -1e-10
#: Largest relative increase of f that a PGD step may show (rounding only).
_PGD_MONOTONE_RTOL = 4e-16
#: The constant C of the oracle budgets: ``C log2(L D^2 / delta)`` inner
#: iterations per prox solve, ``C T log2(L D^2 / delta)`` calls per accelerated run.
_ITERATION_CONSTANT = 50.0
#: Slack of the gradient-mapping inequality and descent checks.
MAPPING_TOL = 1e-10
#: Frank-Wolfe weight-identity tolerance; iterates are held to ``MEMBERSHIP_TOL``.
FW_WEIGHT_TOL = 1e-12
#: How many times tighter than the run's delta the line-search audit solves each prox.
CERTIFICATE_ACCURACY_FACTOR = 1e4


@dataclass
class CheckResult:
    name: str
    max_violation: float
    tolerance: float
    passed: bool
    samples: int
    note: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def overall(self):
        return all(c.passed for c in self.checks)


# -- sampling and reduction ----------------------------------------------------


def sample_feasible(set_, n, seed=0):
    """Sample check points: a deterministic grid in 1-D boxes, seeded uniform draws otherwise."""
    if isinstance(set_, Box) and set_.dimension == 1:
        return set_.grid(n)
    rng = np.random.default_rng(seed)
    return set_.sample(rng, n)


def sample_pairs(set_, n):
    """Two seeded draws of ``n`` feasible points from one generator: the pairs of a secant check."""
    rng = np.random.default_rng(0)
    return set_.sample(rng, n), set_.sample(rng, n)


def _worst(worst, value):
    """``value`` if it is larger than ``worst`` or NaN, else ``worst``: the
    running maximum of a check, where the first NaN stays the worst."""
    return value if value > worst or value != value else worst


def _envelope(obj, delta):
    """The envelope oracle ``x -> (M~(x), grad M~(x))`` of ``obj`` at tolerance
    ``delta``: one ``_ProxConstants`` and one counter serve every
    ``prox._solve`` it makes, at trusted feasible points."""
    consts, counter = _ProxConstants(obj, delta), OracleCounter()

    def envelope(x):
        res = _solve(obj, x, consts, counter)
        return res.envelope_value, res.envelope_gradient
    return envelope


def _objective(obj):
    """The objective a check certifies: ``obj`` itself, or the catalogue entry it names."""
    return make_catalogue_objective(obj) if isinstance(obj, str) else obj


#: The solver runs the checks audit: catalogue objective, its params, and x0.
_INSTANCES = {i: (name, params, x0) for name, entry in CATALOGUE.items()
              for i, (params, x0, _) in entry.instances.items()}


def _instance(name):
    """``(objective, x0)`` of the ``_INSTANCES`` entry ``name``."""
    objective, params, x0 = _INSTANCES[name]
    obj = make_catalogue_objective(objective, params)
    return obj, resolve_x0(obj.feasible_set, x0)


# -- declared constants of the catalogue ---------------------------------------


def _worst_quasar_violations(obj, oracle, samples, gammas):
    """The worst quasar violation ``f(x) + <grad f(x), x* - x>/gamma - f(x*)`` at
    each of ``gammas`` from one pass over ``samples`` feasible points, where
    ``oracle`` (``obj.evaluator`` or an :func:`_envelope`) gives ``(f, grad f)``.

    Queries ``oracle`` once at the center and once per sample point, and
    returns ``(worst per gamma as floats, number of points)``.
    """
    if obj.center is None:
        raise PreconditionError("a quasar check requires a known center")
    center = obj.center
    fstar = oracle(center)[0]
    pts = sample_feasible(obj.feasible_set, samples)
    worst = [-np.inf] * len(gammas)
    for x in pts:
        fx, gx = oracle(x)
        inner = float(np.dot(gx, center - x))
        for i, gamma in enumerate(gammas):
            worst[i] = _worst(worst[i], fx + inner / gamma - fstar)
    return [float(w) for w in worst], len(pts)


def _worst_secant(oracle, pairs, min_sep):
    """The worst gradient secant ratio ``||grad(u) - grad(v)|| / ||u - v||`` of
    ``oracle`` over the ``pairs`` at least ``min_sep`` apart, and their number.
    A pair that starts at the array the previous pair ended at reuses its gradient."""
    worst, count = 0.0, 0
    last = g_last = None
    for u, v in pairs:
        sep = _norm(u - v)
        if sep < min_sep:
            continue
        gu = g_last if u is last else oracle(u)[1]
        last, g_last = v, oracle(v)[1]
        worst = _worst(worst, _norm(gu - g_last) / sep)
        count += 1
    return worst, count


def quasar_certificate(obj, samples=10_000):
    """The declared gamma holds: the worst quasar violation is at most 1e-9."""
    obj = _objective(obj)
    (worst,), count = _worst_quasar_violations(obj, obj.evaluator, samples, (obj.quasar_gamma,))
    tol = 1e-9
    return CheckResult(f"quasar_certificate:{obj.name}", worst, tol, worst <= tol, count)


def quasar_counterexample(obj, samples=10_000):
    """Expected failure: every gamma in {0.1, 0.5, 1} shows a positive violation.

    The least of the three worst violations is reported; a NaN is no
    violation: it is reported, and fails the check.
    """
    obj = _objective(obj)
    worst, count = _worst_quasar_violations(obj, obj.evaluator, samples, (0.1, 0.5, 1.0))
    least = worst[0]
    for violation in worst[1:]:
        least = -_worst(-least, -violation)
    return CheckResult(f"quasar_counterexample:{obj.name}", least, 0.0, least > 0.0,
                       3 * count, "passes iff every gamma in {0.1, 0.5, 1} violates")


def counterexample_construction(obj):
    """The counterexample is stationary at x = -2 with negative curvature
    there, and its regularization centre agrees with -12.23 to two decimals."""
    obj = _objective(obj)
    at_minus2 = np.array([-2.0])
    slope = obj.evaluator(at_minus2)[1][0]
    h = 1e-4
    f = lambda v: obj.evaluator(np.array([v]))[0]
    curvature = (f(-2.0 + h) - 2.0 * f(-2.0) + f(-2.0 - h)) / h**2
    tol = 1e-8
    ok = (
        abs(FIG1_X0 - (-12.23)) < 0.005  # agrees to two decimals
        and abs(slope) <= tol
        and curvature < 0.0
    )
    return CheckResult(
        name=f"counterexample_construction:{obj.name}",
        max_violation=abs(slope),
        tolerance=tol,
        passed=bool(ok),
        samples=3,
        note=f"x0={FIG1_X0:.4f}, second difference {curvature:.4f}",
    )


def smoothness(obj, samples=None):
    """The declared L bounds every gradient secant ratio, within relative 1e-6.

    Samples consecutive pairs of a ``samples``-point grid in 1-D boxes (each
    point queried once, its gradient carried on to the next pair), and
    ``samples`` seeded pairs otherwise; by default 10,000 in 1-D and 2,000
    otherwise.
    """
    obj = _objective(obj)
    set_ = obj.feasible_set
    if samples is None:
        samples = 10_000 if obj.dimension == 1 else 2_000
    if samples < 2:
        raise InvalidArgumentError("the smoothness check needs at least two samples")
    if isinstance(set_, Box) and set_.dimension == 1:
        grid = list(set_.grid(samples))
        pairs = zip(grid, grid[1:])
    else:
        pairs = zip(*sample_pairs(set_, samples))
    worst, count = _worst_secant(obj.evaluator, pairs, 1e-12)
    L = obj.smoothness_L
    rtol = 1e-6
    return CheckResult(f"smoothness:{obj.name}", worst - L, L * rtol, worst <= L * (1.0 + rtol),
                       count, f"max ratio {worst:.6f} vs L={L}")


def gradient_consistency(obj, samples=100):
    """The oracle's gradient is within 1e-6 of central differences (h = 1e-5)."""
    obj = _objective(obj)
    worst = 0.0
    pts = sample_feasible(obj.feasible_set, samples)
    counter = OracleCounter()
    for x in pts:
        grad = evaluate(obj, x, counter)[1]
        fd = finite_diff_gradient(obj, x, 1e-5)
        worst = _worst(worst, _norm(fd - grad))
    tol = 1e-6
    return CheckResult(f"gradient_consistency:{obj.name}", worst, tol, worst <= tol, len(pts))


# -- the prox subproblem and the Moreau envelope -------------------------------
#
# These checks solve at the points the sets sample, or at a solve's own
# output, so they build the constants of each delta once and call the trusted
# prox._solve.


def prox_conditioning(obj, samples=10_000):
    """The prox subproblem is ``L``-strongly convex and ``3L``-smooth.

    For feasible secant pairs (u, v), the subproblem gradient satisfies
    ``L ||u-v||^2 <= <grad F(u) - grad F(v), u - v> <= 3 L ||u-v||^2``
    whenever the declared L really bounds the objective's curvature.  The
    bracket is independent of the prox center, which cancels in differences.
    Each end gets relative slack 1e-8; the reported tolerance is the absolute
    slack at the upper end.
    """
    obj = _objective(obj)
    L = obj.smoothness_L
    lam = default_lambda(obj)
    evaluator = obj.evaluator
    lo, hi = np.inf, -np.inf
    count = 0
    for u, v in zip(*sample_pairs(obj.feasible_set, samples)):
        d = u - v
        sep2 = float(np.dot(d, d))
        if sep2 < 1e-18:
            continue
        gu = evaluator(u)[1] + u / lam
        gv = evaluator(v)[1] + v / lam
        ratio = float(np.dot(gu - gv, d)) / sep2
        lo = -_worst(-lo, -ratio)  # the least ratio
        hi = _worst(hi, ratio)
        count += 1
    rtol = 1e-8
    lower, upper = L, 3.0 * L
    passed = lo >= L * (1.0 - rtol) and hi <= 3.0 * L * (1.0 + rtol)
    return CheckResult(f"prox_conditioning:{obj.name}", _worst(lower - lo, hi - upper),
                       3.0 * L * rtol, passed, count,
                       f"secant bracket [{lo:.5f}, {hi:.5f}] within [{lower:.5f}, {upper:.5f}]")


def moreau_smoothness(obj, samples=200):
    """The near-exact envelope gradient (delta = 1e-12) is ``2L``-Lipschitz,
    within relative 1e-6, on seeded pairs at least 2% of the diameter apart."""
    obj = _objective(obj)
    set_ = obj.feasible_set
    worst, count = _worst_secant(_envelope(obj, 1e-12), zip(*sample_pairs(set_, samples)),
                                 0.02 * set_.diameter())
    two_L = 2.0 * obj.smoothness_L
    rtol = 1e-6
    return CheckResult(f"moreau_smoothness:{obj.name}", worst - two_L, two_L * rtol,
                       worst <= two_L * (1.0 + rtol), count,
                       f"max envelope secant {worst:.5f} vs 2L")


def moreau_quasar(obj, tolerance, grid=2000):
    """The near-exact envelope (delta = 1e-12) is quasar convex with the
    objective's gamma: ``M(x) + <grad M(x), x* - x>/gamma - M(x*) <= tolerance``."""
    obj = _objective(obj)
    (worst,), count = _worst_quasar_violations(obj, _envelope(obj, 1e-12), grid,
                                               (obj.quasar_gamma,))
    return CheckResult(f"moreau_quasar:{obj.name}", worst, tolerance, worst <= tolerance, count)


def prox_descent(obj, points=None):
    """The inexact descent lemma at each of ``points`` (default: 50 sampled).

    With y the delta-prox of x (delta = 1e-8), the envelope must satisfy
    ``M~(y) - M~(x) <= -||grad M~(x)||^2 / (8 L) + delta``; the worst slack
    (left minus right side) is reported.  Each point passes
    :meth:`FeasibleSet.checked_point`.
    """
    obj = _objective(obj)
    if points is None:
        points = sample_feasible(obj.feasible_set, 50)
    delta = 1e-8
    consts = _ProxConstants(obj, delta)
    worst = -np.inf
    failures = 0
    for x in points:
        x = obj.feasible_set.checked_point(x, "prox_descent point")
        counter = OracleCounter()
        at_x = _solve(obj, x, consts, counter)
        # The solve at x ended on the oracle's answer at y.
        at_y = _solve(obj, at_x.y, consts, counter, (at_x.f_at_y, at_x.grad_at_y))
        lhs = at_y.envelope_value - at_x.envelope_value
        rhs = -float(np.dot(at_x.envelope_gradient, at_x.envelope_gradient)) / (
            8.0 * obj.smoothness_L
        ) + delta
        worst = _worst(worst, lhs - rhs)
        failures += not lhs <= rhs
    return CheckResult(f"prox_descent:{obj.name}", worst, 0.0, failures == 0, len(points),
                       f"{failures} failures")


def _worst_resolve(obj, samples, coarse, fine, measure):
    """The worst ``measure(at_coarse, at_fine)`` over ``samples`` feasible points,
    each solved by the :func:`_envelope` at ``coarse`` and then at ``fine``,
    and the number of points."""
    coarse, fine = _envelope(obj, coarse), _envelope(obj, fine)
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for x in pts:
        worst = _worst(worst, measure(coarse(x), fine(x)))
    return worst, len(pts)


def prox_stopping(obj, samples=50):
    """The stopping rule certifies delta-optimality: re-solving each
    subproblem at ``delta/100`` changes the envelope value by at most
    ``delta`` (1e-6)."""
    obj = _objective(obj)
    delta = 1e-6
    worst, count = _worst_resolve(obj, samples, delta, delta / 100.0,
                                  lambda coarse, fine: abs(coarse[0] - fine[0]))
    return CheckResult(f"prox_stopping:{obj.name}", worst - delta, 0.0, worst <= delta,
                       count, f"re-solve shift {worst:.2e} vs delta {delta:.0e}")


def prox_gradient_error(obj, samples=100):
    """``||grad M~_delta(x) - grad M~_ref(x)|| <= sqrt(8 L delta)`` at delta = 1e-6,
    against a near-exact reference prox (delta = 1e-14)."""
    obj = _objective(obj)
    delta = 1e-6
    bound = math.sqrt(8.0 * obj.smoothness_L * delta)
    worst, count = _worst_resolve(obj, samples, delta, 1e-14,
                                  lambda coarse, ref: _norm(coarse[1] - ref[1]))
    return CheckResult(f"prox_gradient_error:{obj.name}", worst - bound, 0.0, worst <= bound,
                       count, f"max error {worst:.2e} vs bound {bound:.2e}")


def prox_iteration_budget(objectives, samples=50):
    """Every prox solve at delta in {1e-4, 1e-8, 1e-12} stops within
    ``C log2(L D^2 / delta)`` inner iterations, C = ``_ITERATION_CONSTANT``;
    the observed constant is reported."""
    worst = 0.0
    for obj in objectives:
        obj = _objective(obj)
        D = obj.feasible_set.diameter()
        L = obj.smoothness_L
        counter = OracleCounter()
        pts = sample_feasible(obj.feasible_set, samples)
        for delta in (1e-4, 1e-8, 1e-12):
            consts = _ProxConstants(obj, delta)
            denom = math.log2(max(L * D * D / delta, 4.0))
            for x in pts:
                worst = _worst(worst, _solve(obj, x, consts, counter).inner_iterations / denom)
    return CheckResult("prox_iteration_budget", worst - _ITERATION_CONSTANT, 0.0,
                       worst <= _ITERATION_CONSTANT, samples * len(objectives),
                       f"fitted iteration constant C={worst:.2f} (iters <= C log2(L D^2/delta))")


# -- the accelerated method ----------------------------------------------------


def linesearch_certificate(instance, epsilon=1e-3):
    """Audit every line-search call of the accelerated run on ``instance``.

    Reads the run's iterations (``accel._iterations``) and re-evaluates the
    envelope at each ``x_t`` and ``y_{t-1}`` with a prox
    ``CERTIFICATE_ACCURACY_FACTOR`` times tighter than the run's delta, verifying

        <grad M~(x_t), x_t - z_{t-1}> - c (M~(y_{t-1}) - M~(x_t))
            <= sqrt(8 L D^2 delta) + (9 + 5 c) delta + 1e-9,

    along with the halving budget ``ceil(log2(8 L D^2 / delta))``.
    """
    obj, x0 = _instance(instance)
    params = compute_schedule(obj.quasar_gamma, obj.smoothness_L,
                              obj.feasible_set.diameter(), epsilon)
    L, D, delta = params.L, params.D, params.delta
    consts, counter = _ProxConstants(obj, delta), OracleCounter()
    fine = _envelope(obj, delta / CERTIFICATE_ACCURACY_FACTOR)
    base_budget = math.sqrt(8.0 * L * D * D * delta)
    loop_bound = math.ceil(math.log2(max(8.0 * L * D * D / delta, 2.0)))
    worst_excess = -np.inf
    max_loops = 0
    prev_x = None
    for it in _iterations(obj, x0, params, consts, _solve(obj, x0, consts, counter), counter):
        # The solve is pure, so one serves every use of the same array: the
        # frozen tail's iterations share one x_t, and a derivative_small
        # exit, like every frozen iteration, hands x_t = y_{t-1} itself.
        if it.x is not prev_x:
            prev_x, (m_x, g_x) = it.x, fine(it.x)
        m_y = m_x if it.x is it.y_prev else fine(it.y_prev)[0]
        lhs = float(np.dot(g_x, it.x - it.z_prev))
        lhs -= it.c * (m_y - m_x)
        budget = base_budget + (9.0 + 5.0 * it.c) * delta + 1e-9
        worst_excess = _worst(worst_excess, lhs - budget)
        max_loops = max(max_loops, it.loop_iterations)
    worst_excess = float(worst_excess)
    return CheckResult(f"linesearch_certificate:{instance}", worst_excess, 0.0,
                       worst_excess <= 0.0 and max_loops <= loop_bound, params.T,
                       f"max loops {max_loops} <= bound {loop_bound}")


def accelerated_gap(instance, epsilon):
    """The accelerated run reaches gap ``epsilon`` within its oracle budget,
    every recorded gap stays under its bound and none is below ``_GAP_FLOOR``."""
    obj, x0 = _instance(instance)
    counter = OracleCounter()
    trace = run_accelerated(obj, x0, epsilon, counter)
    params = trace.header["params"]
    budget = (_ITERATION_CONSTANT * params["T"]
              * math.log2(params["L"] * params["D"] ** 2 / params["delta"]))
    gap = trace.column("gap")
    bound = trace.column("bound")
    with np.errstate(invalid="ignore"):
        dominated = np.all(gap[1:] <= bound[1:] + _BOUND_SLACK)
    ok = (
        trace.final_gap <= epsilon
        and counter.calls <= budget
        and bool(dominated)
        and float(np.nanmin(gap)) >= _GAP_FLOOR
    )
    return CheckResult(f"accelerated_gap:{instance}", trace.final_gap - epsilon, 0.0, bool(ok),
                       len(trace.iteration),
                       f"final gap {trace.final_gap:.2e} <= {epsilon:g}; "
                       f"oracle calls {counter.calls} <= {budget:.0f}")


# -- the baselines ---------------------------------------------------------------


def _pgd_steps(objectives, trials):
    """One PGD step ``x+ = P(x - grad f(x) / L)`` from each of ``trials`` seeded
    feasible x per objective, paired with the seeded feasible y of
    :func:`sample_pairs`: yields ``(obj, y, f(x), grad f(x), x+, g(x))``, with
    ``g(x) = L (x - x+)`` the gradient mapping."""
    for obj in objectives:
        obj = _objective(obj)
        set_ = obj.feasible_set
        eta = 1.0 / obj.smoothness_L
        for x, y in zip(*sample_pairs(set_, trials)):
            f, grad = obj.evaluator(x)
            x_plus = set_._project(x - eta * grad)
            yield obj, y, f, grad, x_plus, (x - x_plus) / eta


def pgd_mapping_bound(objectives, trials=1000):
    """For seeded feasible pairs (x, y), the gradient mapping ``g`` of a PGD
    step bounds the gradient: ``<grad f(x), x+ - y> <= <g(x), x+ - y> + MAPPING_TOL``."""
    worst = -np.inf
    for _, y, _, grad, x_plus, mapping in _pgd_steps(objectives, trials):
        lhs = float(np.dot(grad, x_plus - y))
        rhs = float(np.dot(mapping, x_plus - y))
        worst = _worst(worst, lhs - rhs)
    return CheckResult("pgd_mapping_bound", worst, MAPPING_TOL, worst <= MAPPING_TOL,
                       trials * len(objectives))


def pgd_descent_step(objectives, trials=1000):
    """For seeded feasible x, a PGD step descends by the mapping norm:
    ``f(x+) - f(x) <= -||g(x)||^2 / (2L) + MAPPING_TOL``."""
    worst = -np.inf
    for obj, _, f, _, x_plus, mapping in _pgd_steps(objectives, trials):
        descent = obj.evaluator(x_plus)[0] - f
        worst = _worst(worst, descent + float(np.dot(mapping, mapping)) / (2.0 * obj.smoothness_L))
    return CheckResult("pgd_descent_step", worst, MAPPING_TOL, worst <= MAPPING_TOL,
                       trials * len(objectives))


def fw_dynamics(instance, T=500):
    """Read the Frank-Wolfe iterations (``baselines._frank_wolfe``) on
    ``instance`` (an ``_INSTANCES`` name or an ``(objective, x0)`` pair) for
    ``T`` steps: each ``x_t`` (t >= 1) must be feasible within
    ``MEMBERSHIP_TOL`` and equal ``sum_{s<t} a_s v_s / A_t`` within
    ``FW_WEIGHT_TOL``, with ``a_s = 2s + 2``, ``A_t = t (t+1)`` and the dense
    vertex ``v_s = lmo(grad f(x_s))``.
    """
    obj, x0 = _instance(instance) if isinstance(instance, str) else instance
    set_ = obj.feasible_set
    x0 = baselines._checked_start(obj, x0, T)
    x_avg = 0.0  # weighted by A_0 = 0; the first update makes it v_0
    A_prev = 0.0
    worst_dist = 0.0
    worst_weight = 0.0
    for t, x, _, grad in baselines._frank_wolfe(obj, x0, T, OracleCounter()):
        if t >= 1:
            worst_weight = _worst(worst_weight, float(np.abs(x - x_avg).max()))
            worst_dist = _worst(worst_dist, set_.distance(x))
        if t < T:
            a_t = 2.0 * t + 2.0
            A_t = A_prev + a_t
            assert A_t == (t + 1) * (t + 2)
            x_avg = (A_prev * x_avg + a_t * set_._lmo(grad)) / A_t
            A_prev = A_t
    return CheckResult(
        "fw_dynamics",
        _worst(worst_dist - MEMBERSHIP_TOL, worst_weight - FW_WEIGHT_TOL),
        0.0,
        worst_dist <= MEMBERSHIP_TOL and worst_weight <= FW_WEIGHT_TOL,
        T,
        "iterate feasibility and weight identity on the solver's own run",
    )


def rate_envelope(algorithm, instance):
    """A 10,000-step baseline run stays under its rate envelope, its gaps stay
    above ``_GAP_FLOOR``, and PGD's objective never increases beyond rounding."""
    obj, x0 = _instance(instance)
    T = 10_000
    counter = OracleCounter()
    runner = baselines.run_pgd if algorithm == "pgd" else baselines.run_frank_wolfe
    trace = runner(obj, x0, T, counter)
    baselines.attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                                 obj.feasible_set.diameter())
    gap = trace.column("gap")
    bound = trace.column("bound")
    worst = float(np.max(gap[1:] - bound[1:]))
    negative_gap = float(np.min(gap))
    monotone_excess = 0.0
    if algorithm == "pgd":
        f = trace.column("f_value")
        scale = np.maximum(1.0, np.abs(f[:-1]))
        monotone_excess = float(np.max((f[1:] - f[:-1]) / scale))
    ok = (worst <= _BOUND_SLACK and negative_gap >= _GAP_FLOOR
          and monotone_excess <= _PGD_MONOTONE_RTOL)
    return CheckResult(
        name=f"rate_envelope:{algorithm}_{instance}",
        max_violation=worst,
        tolerance=_BOUND_SLACK,
        passed=bool(ok),
        samples=T,
        note=f"min gap {negative_gap:.1e}; worst relative f increase {monotone_excess:.1e}",
    )


# -- the solvers as a whole ------------------------------------------------------


def oracle_accounting():
    """Every solver's trace ``oracle_calls`` equals the audited evaluator calls."""
    obj = make_catalogue_objective("quadratic")
    audited = {"n": 0}
    inner = obj.evaluator

    def wrapped(x):
        audited["n"] += 1
        return inner(x)

    obj.evaluator = wrapped
    mismatches = []
    counter = OracleCounter()
    trace = baselines.run_pgd(obj, np.array([1.0, 1.0]), 50, counter)
    mismatches.append(abs(trace.final_oracle_calls - audited["n"]))
    mismatches.append(abs(counter.calls - audited["n"]))

    audited["n"] = 0
    counter = OracleCounter()
    trace = baselines.run_frank_wolfe(obj, np.array([1.0, 1.0]), 50, counter)
    mismatches.append(abs(trace.final_oracle_calls - audited["n"]))

    audited["n"] = 0
    counter = OracleCounter()
    trace = run_accelerated(obj, np.array([1.0, 1.0]), 1e-1, counter)
    mismatches.append(abs(trace.final_oracle_calls - audited["n"]))
    worst = max(mismatches)
    return CheckResult(
        name="oracle_accounting",
        max_violation=float(worst),
        tolerance=0.0,
        passed=worst == 0,
        samples=4,
        note="trace oracle_calls equals the audited evaluator invocation count",
    )


class _GammaPoisoned:
    """Objective proxy whose quasar_gamma access raises; baselines must not read it."""

    def __init__(self, obj):
        object.__setattr__(self, "_obj", obj)

    def __getattr__(self, item):
        if item == "quasar_gamma":
            raise AssertionError("baseline solver read quasar_gamma")
        return getattr(self._obj, item)


def gamma_free_baselines():
    """PGD, Frank-Wolfe and the gradient mapping never read ``quasar_gamma``."""
    obj = _GammaPoisoned(make_catalogue_objective("quadratic"))
    try:
        baselines.run_pgd(obj, np.array([1.0, 1.0]), 50, OracleCounter())
        baselines.run_frank_wolfe(obj, np.array([1.0, 1.0]), 50, OracleCounter())
        baselines.gradient_mapping(obj, np.array([0.5, 0.5]), 1.0, OracleCounter())
        passed, note = True, "solvers completed without touching gamma"
    except AssertionError as exc:
        passed, note = False, str(exc)
    return CheckResult(
        name="gamma_free_baselines",
        max_violation=0.0 if passed else 1.0,
        tolerance=0.0,
        passed=passed,
        samples=3,
        note=note,
    )


def trace_determinism():
    """The same config and seed write the same trace bytes, for each algorithm."""
    simplex_quadratic = {"name": "quadratic",
                         "params": {"set": {"kind": "simplex", "dimension": 3}}}
    configs = [
        {"algorithm": "pgd", "objective": simplex_quadratic, "x0": "vertex", "T": 50, "seed": 7},
        {"algorithm": "frank_wolfe", "objective": simplex_quadratic, "x0": "vertex", "T": 200,
         "seed": 5},
        {"algorithm": "accelerated", "objective": "quadratic", "x0": [1.0, 1.0], "epsilon": 1e-2,
         "seed": 5},
    ]
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            p1, p2 = f"{tmp}/{i}_a.csv", f"{tmp}/{i}_b.csv"
            run_experiment(load_config(config), output_path=p1)
            run_experiment(load_config(config), output_path=p2)
            same &= Path(p1).read_bytes() == Path(p2).read_bytes()
    return CheckResult(
        name="trace_determinism",
        max_violation=0.0 if same else 1.0,
        tolerance=0.0,
        passed=same,
        samples=2 * len(configs),
        note="identical config+seed produces identical bytes",
    )


#: Each ``scaling_fit`` algorithm's three-point sweep, in report order: its
#: base run (seed 0), the grid of the swept field, and the window the log-log
#: slope of gap against that field must lie in.
_SCALING_SWEEPS = {
    "accelerated": (
        {"objective": {"name": "quadratic", "params": {"dim": 5}}, "x0": [1.0] * 5,
         "epsilon": 1e-2},
        {"epsilon": [1e-2, 1e-3, 1e-4]},
        (-0.75, -0.45),
    ),
    "pgd": (
        {"objective": "example1", "x0": [5.0], "T": 100},
        {"T": [100, 1000, 10_000]},
        (-1.3, -0.8),
    ),
    "frank_wolfe": (
        {"objective": {"name": "quadratic",
                       "params": {"set": {"kind": "simplex", "dimension": 30_000}}},
         "x0": "vertex", "T": 100},
        {"T": [100, 1000, 10_000]},
        (-1.3, -0.8),
    ),
}


def scaling_fit(algorithm):
    """The log-log slope of gap against epsilon or T over the algorithm's
    sweep in ``_SCALING_SWEEPS`` lies in its window."""
    run, grid, window = _SCALING_SWEEPS[algorithm]
    base = {"algorithm": algorithm, **run, "seed": 0}
    with tempfile.TemporaryDirectory() as tmp:
        summary = sweep(load_config(base), grid, tmp)
    slope = summary["fits"][algorithm]["slope"]
    lo, hi = window
    violation = max(lo - slope, slope - hi)
    return CheckResult(
        name=f"scaling_fit:{algorithm}",
        max_violation=violation,
        tolerance=0.0,
        passed=lo <= slope <= hi,
        samples=len(summary["runs"]),
        note=f"fitted log-log slope {slope:.3f} in [{lo}, {hi}]",
    )


# -- the registered checks -------------------------------------------------------

#: Families whose rows list one member ahead of registry order.
_LEADS = {"moreau_quasar": "example1", "rate_envelope": "example1"}


def _members(catalogue, family):
    """``(member, args)`` of every catalogue entry, then every solver run of one,
    that joins ``family``: in registry order, save a ``_LEADS`` member first."""
    joined = [(name, entry.checks) for name, entry in catalogue.items()]
    joined += [(i, run[2]) for entry in catalogue.values() for i, run in entry.instances.items()]
    members = [(member, checks[family]) for member, checks in joined if family in checks]
    return sorted(members, key=lambda m: m[0] != _LEADS.get(family))


def _check_table(catalogue):
    """Every registered check in report order: its name, and the check function
    with the arguments ``verify`` calls it with.  A family gives one row per
    member and check, a member's checks side by side, or one row over all."""
    def each(family, *checks):
        return [(f"{check.__name__}:{member}", (check, member, *args))
                for member, args in _members(catalogue, family) for check in checks]

    def names(family):
        return tuple(member for member, _ in _members(catalogue, family))

    return dict([
        *each("quasar_certificate", quasar_certificate),
        *each("quasar_counterexample", quasar_counterexample, counterexample_construction),
        *each("smoothness", smoothness, gradient_consistency),
        *each("prox", prox_conditioning, moreau_smoothness, prox_stopping, prox_gradient_error),
        *each("moreau_quasar", moreau_quasar),
        *each("prox_descent", prox_descent),
        ("prox_iteration_budget", (prox_iteration_budget, names("prox"))),
        *each("linesearch_certificate", linesearch_certificate),
        ("pgd_mapping_bound", (pgd_mapping_bound, names("pgd_mapping"))),
        ("pgd_descent_step", (pgd_descent_step, names("pgd_mapping"))),
        # One audited Frank-Wolfe run, whose row name names no member.
        ("fw_dynamics", (fw_dynamics, "quadratic_simplex")),
        *[(f"rate_envelope:{a}_{i}", (rate_envelope, a, i))
          for a in ("pgd", "frank_wolfe") for i in names("rate_envelope")],
        *each("accelerated_gap", accelerated_gap),
        ("oracle_accounting", (oracle_accounting,)),
        ("gamma_free_baselines", (gamma_free_baselines,)),
        ("trace_determinism", (trace_determinism,)),
        *[(f"scaling_fit:{a}", (scaling_fit, a)) for a in _SCALING_SWEEPS],
    ])


_CHECKS = _check_table(CATALOGUE)


def available_checks():
    return list(_CHECKS)


def verify(suite=None):
    """Run the registered checks (all, or the named subset/groups) once each, in
    the order first selected."""
    selected = {}
    for token in suite or ():
        group = [token] if token in _CHECKS else [n for n in _CHECKS if n.split(":")[0] == token]
        if not group:
            raise ConfigError("suite", f"unknown check '{token}'")
        selected.update(dict.fromkeys(group))
    report = VerificationReport()
    for name in selected or _CHECKS:
        check, *args = _CHECKS[name]
        report.checks.append(check(*args))
    return report

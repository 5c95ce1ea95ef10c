"""Compare two result sets, workload by workload, metric by metric.

Verdicts follow the choosing-metrics rule.  For a metric with a bound:

``improved``    at least ten pairs; the AFTER run beats its paired BEFORE run
                in at least nine tenths of them, and the medians differ, in
                the better direction, by more than BEFORE's interquartile
                range;
``unresolved``  either side's spread (IQR over median) exceeds the bound,
                unless every AFTER run beats every BEFORE run (then
                ``no worse``);
``no worse``    the AFTER median is worse than the BEFORE median by at most
                ``bound`` times the BEFORE median;
``worse``       otherwise.

Count metrics must be equal run by run (``equal`` or ``differs``); they are
compared only between runs of the same seed.  Bounds
come from ``BENCHMARK.json``; end-to-end metrics it does not list take the
bound of the metric they are derived from.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: Ungated end-to-end metrics and the gated metric whose bound they use.
DERIVED_BOUND = {
    "pass_s.tail": "pass_s.p50",
    "pass_wall_s.p50": "pass_s.p50",
    "oracle_calls_per_s": "pass_s.p50",
    "setup_wall_s": "setup_s",
}
#: A gain needs at least this many before/after pairs.
MIN_PAIRS = 10
#: Direction of every end-to-end metric that BENCHMARK.json may not list.
BETTER = {"oracle_calls_per_s": "higher"}


def load_results(path):
    """Result records from a file or every ``*.json`` directly under a directory.

    A file holds one record, or a list of them (as ``baseline/`` does).
    """
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for f in files:
        data = json.loads(f.read_text())
        for record in data if isinstance(data, list) else [data]:
            if "end_to_end" in record or "per_layer" in record:
                results.append(record)
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(before, after):
    """Pair runs by seed where both sides ran it, otherwise in seed order.

    Returns the pairs and whether they share seeds (counts compare only then).
    """
    b = {r["seed"]: r for r in before}
    a = {r["seed"]: r for r in after}
    common = sorted(set(b) & set(a))
    if common:
        return [(b[s], a[s]) for s in common], True
    return list(zip(sorted(before, key=lambda r: r["seed"]),
                    sorted(after, key=lambda r: r["seed"]))), False


def verdict(name, unit, better, bound, before_runs, after_runs, pairs, same_seeds=True):
    """Verdict for one metric; ``before_runs``/``after_runs`` hold its values."""
    if unit == "count":
        if not same_seeds:
            return "seeds differ"
        same = all(b == a for b, a in pairs)
        return "equal" if same and pairs else "differs"
    sign = 1.0 if better == "higher" else -1.0  # sign * (after - before) > 0 is a gain
    b1, bmed, b3 = quartiles(before_runs)
    a1, amed, a3 = quartiles(after_runs)
    if name == "failed_ops_ratio":
        return "no worse" if amed <= bmed else "worse"
    wins = sum(1 for b, a in pairs if sign * (a - b) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (amed - bmed) > (b3 - b1):
        return "improved"
    if bound is None:
        return "unresolved"
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0, (a3 - a1) / abs(amed) if amed else 0.0)
    if spread > bound:
        every = all(sign * (a - b) > 0 for a in after_runs for b in before_runs)
        return "no worse" if every else "unresolved"
    worse_by = -sign * (amed - bmed) / abs(bmed) if bmed else 0.0
    return "no worse" if worse_by <= bound else "worse"


def _rows(before, after, section, spec_metrics):
    listed = {m["name"]: m for m in spec_metrics}
    names = [n for n in before[0][section] if n in after[0][section]]
    pairs_runs, same_seeds = _pairs(before, after)
    for name in names:
        unit = before[0][section][name]["unit"]
        vals_b = [r[section][name]["value"] for r in before
                  if r[section][name]["value"] is not None]
        vals_a = [r[section][name]["value"] for r in after
                  if r[section][name]["value"] is not None]
        if not vals_b or not vals_a:
            yield name, unit, None, None, "n/a"
            continue
        pairs = [(b[section][name]["value"], a[section][name]["value"]) for b, a in pairs_runs
                 if b[section][name]["value"] is not None
                 and a[section][name]["value"] is not None]
        if section == "end_to_end":
            spec = listed.get(name) or listed.get(DERIVED_BOUND.get(name), {})
            better = listed[name]["better"] if name in listed else BETTER.get(name, "lower")
            v = verdict(name, unit, better, spec.get("bound"), vals_b, vals_a, pairs, same_seeds)
        elif unit == "count":
            v = verdict(name, unit, "lower", None, vals_b, vals_a, pairs, same_seeds)
        else:
            v = ""
        yield name, unit, quartiles(vals_b), quartiles(vals_a), v


def _q(q):
    return f"{q[1]:>12.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(before_path, after_path, spec):
    """Print medians, quartiles and verdicts; returns 1 if any metric got worse."""
    before, after = load_results(before_path), load_results(after_path)
    worse = False
    for workload in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            b = [r for r in before if r["workload"] == workload and r["trace"] == trace]
            a = [r for r in after if r["workload"] == workload and r["trace"] == trace]
            if not b or not a:
                continue
            print(f"== {workload} {section}: {len(b)} before, {len(a)} after "
                  f"(commits {b[0]['stamp']['git_commit'][:12]} -> "
                  f"{a[0]['stamp']['git_commit'][:12]})")
            print(f"{'metric':<40} {'unit':<6} {'before median [q1, q3]':>36} "
                  f"{'after median [q1, q3]':>36}  verdict")
            spec_metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            for name, unit, qb, qa, v in _rows(b, a, section, spec_metrics):
                if qb is None:
                    print(f"{name:<40} {unit:<6} {'n/a':>36} {'n/a':>36}")
                    continue
                print(f"{name:<40} {unit:<6} {_q(qb):>36} {_q(qa):>36}  {v}")
                worse = worse or v == "worse"
    return 1 if worse else 0

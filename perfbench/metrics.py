"""Metric names and units, and the per-layer figures derived from a run.

Layers are the package modules.  `certificate` only formats values and
gets no metric.  Which end-to-end metric each layer metric should move,
on which workload, is written next to each group below.
"""

from __future__ import annotations

import re

from oracle import certificate_field, parse_report
from tracing import layer_self_times
from workloads import SCAN_CLASSES

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Public names wrapped in a span by the traced run, with their layer.
SPANNED = {
    "eps_bruteforce": "bruteforce",
    "certify_domination": "certify",
    "certify_optimal_search": "certify",
    "certify_coarse_bound_margin": "certify",
    "canonicalize_pair": "certify",
    "isolate_real_roots": "intpoly",
    "sturm_chain": "intpoly",
    "positive_for_all_integers_geq": "intpoly",
    "integer_solutions_of_abs_eq": "intpoly",
    "corner_map_polynomials": "model",
    "sq_distance": "geometry",
}
# Hot leaves, about 10^5 to 10^6 calls a run: only counted in the traced
# run; their cost per call is timed on a seeded sample.
COUNTED = {"apply_cube_symmetry": "geometry"}

# Leaves reported as calls and microseconds per call.  intpoly and model
# move wall_s on certify-props and are 0 on the scans; canonicalize_pair
# is a small share of the scans; apply_cube_symmetry moves wall_s on the
# reduced scans; sq_distance verifies witnesses.
PER_CALL = (
    "certify.canonicalize_pair",
    "intpoly.isolate_real_roots",
    "intpoly.sturm_chain",
    "intpoly.positive_for_all_integers_geq",
    "intpoly.integer_solutions_of_abs_eq",
    "model.corner_map_polynomials",
    "geometry.apply_cube_symmetry",
    "geometry.sq_distance",
)

# Certificate steps, all moving wall_s on certify-props.
STEP_SPANS = {
    "certify.domination_s": "certify.certify_domination",
    "certify.search_s": "certify.certify_optimal_search",
    "certify.coarse_bound_s": "certify.certify_coarse_bound_margin",
}

SELF_LAYERS = ("cli", "bruteforce", "certify", "intpoly", "model", "geometry")

_SCAN_NEEDS = ("eps_bruteforce",)


def _per_layer_spec() -> list:
    """(name, unit, better, public names it needs), in report order."""
    # trace.overhead_s is the traced CLI process's wall time minus the
    # untraced median at the same worker count, 1.  Self times are the
    # traced run's, cli.self_s being the part of cli.main no child covers.
    spec = [("trace.overhead_s", "s", "lower", ())]
    spec += [(f"{layer}.self_s", "s", "lower", ()) for layer in SELF_LAYERS]
    # tables_s moves wall_s and peak_rss_mb on scan-k4-reduce; scan_s,
    # ns_per_pair and parallel_speedup move wall_s and cpu_s on scan-k3.
    for cls in SCAN_CLASSES:
        spec += [
            (f"bruteforce.tables_s.{cls}", "s", "lower", _SCAN_NEEDS),
            (f"bruteforce.scan_s.{cls}", "s", "lower", _SCAN_NEEDS),
            (f"bruteforce.pairs.{cls}", "count", "lower", _SCAN_NEEDS),
            (f"bruteforce.ns_per_pair.{cls}", "ns", "lower", _SCAN_NEEDS),
            (f"bruteforce.parallel_speedup.{cls}", "ratio", "higher", _SCAN_NEEDS),
        ]
    # refuse_s moves wall_s on scan-k5-reduce.
    refuse_needs = _SCAN_NEEDS + ("BudgetExceededError",)
    spec += [
        ("bruteforce.refuse_s", "s", "lower", refuse_needs),
        ("bruteforce.required_pairs", "count", "lower", refuse_needs),
        ("bruteforce.witnesses", "count", "lower", ()),
    ]
    for metric, span in STEP_SPANS.items():
        spec.append((metric, "s", "lower", (span.split(".", 1)[1],)))
    spec += [
        ("certify.domination.candidates", "count", "lower", ()),
        ("certify.search.candidates", "count", "lower", ("gen_search_candidates",)),
        ("certify.search.winners", "count", "lower", ()),
    ]
    for qual in PER_CALL:
        needs = (qual.split(".", 1)[1],)
        if qual == "geometry.apply_cube_symmetry":
            needs += ("cube_symmetries",)
        spec += [(f"{qual}.calls", "count", "lower", needs),
                 (f"{qual}.us_per_call", "us", "lower", needs)]
    return spec


PER_LAYER = _per_layer_spec()


def _scan_metrics(probe: dict) -> dict:
    out = {"bruteforce.refuse_s": 0.0, "bruteforce.required_pairs": 0}
    refuse = probe.get("refuse")
    if refuse:
        out["bruteforce.refuse_s"] = refuse["seconds"]
        out["bruteforce.required_pairs"] = refuse["required"]
    for cls in SCAN_CLASSES:
        run = probe["scan"].get(cls)
        if run is None:  # the workload scans nothing in this class
            tables = scan = ns = speedup = 0.0
            pairs = 0
        else:
            tables = run["cold_s"] - run["warm_s"]
            scan = run["warm_s"]
            pairs = run["pairs"]
            ns = scan / pairs * 1e9
            speedup = run["warm_s"] / run["warm2_s"]
        out.update({
            f"bruteforce.tables_s.{cls}": tables,
            f"bruteforce.scan_s.{cls}": scan,
            f"bruteforce.pairs.{cls}": pairs,
            f"bruteforce.ns_per_pair.{cls}": ns,
            f"bruteforce.parallel_speedup.{cls}": speedup,
        })
    return out


def _report_counts(report: str) -> dict:
    fields = parse_report(report)
    out = {"bruteforce.witnesses": int(fields.get("witnesses", 0)),
           "certify.domination.candidates": 0,
           "certify.search.winners": 0}
    if "certificates" in fields:
        out["certify.domination.candidates"] = int(
            certificate_field(fields, "prop1", "data.candidates") or 0)
        out["certify.search.winners"] = int(
            certificate_field(fields, "prop2", "data.winner_count") or 0)
    return out


def per_layer_metrics(trace: dict, probe: dict, traced_wall_s: float,
                      untraced_wall_s: float) -> dict:
    """Every per-layer metric the run supports, by name.

    `trace` is the traced CLI run's document, `probe` the layer probes'
    document (see child.py).  A metric needing a public name that the
    package no longer exports is left out."""
    spans = trace["spans"]
    own = layer_self_times(spans)
    total, calls = {}, dict(trace["counts"])
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    values = {"trace.overhead_s": traced_wall_s - untraced_wall_s}
    values.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in SELF_LAYERS})
    values.update(_scan_metrics(probe))
    values.update(_report_counts(trace["report"]))
    values.update({metric: total.get(span, 0.0) for metric, span in STEP_SPANS.items()})
    values["certify.search.candidates"] = trace["search_candidates"]
    for qual in PER_CALL:
        n = calls.get(qual, 0)
        if qual in probe["leaf_us"]:
            us = probe["leaf_us"][qual]
        else:
            us = total.get(qual, 0.0) / n * 1e6 if n else 0.0
        values[f"{qual}.calls"] = n
        values[f"{qual}.us_per_call"] = us

    missing = set(trace["missing"]) | set(probe["missing"])
    return {name: values[name] for name, _, _, needs in PER_LAYER
            if not missing.intersection(needs)}

"""Tests of the benchmark's own logic: names, oracle, tracing, metrics.

    python3 -m pytest perfbench

They need neither the package nor a timed run.
"""

from __future__ import annotations

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from metrics import END_TO_END, NAME_RE, PER_LAYER, per_layer_metrics
from oracle import COMPLETE, REFUSED, WrongAnswer, check, closed_form
from tracing import Tracer, install_wrappers, layer_self_times, self_times
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())

K3_REPORT = """\
format: latticegap/1
command: eps
status: complete
d: 3
k: 3
classes: segment-segment point-triangle
eps_squared: 1/299
eps: 1/sqrt(299)
pairs_scanned: 4673552
witnesses: 1
witness.0: 0,0,0 2,3,3 | 0,1,2 3,2,0
"""

K4_REPORT = """\
format: latticegap/1
command: eps
status: complete
d: 3
k: 4
classes: segment-segment point-triangle
eps_squared: 1/1050
eps: 1/sqrt(1050)
pairs_scanned: 5057425
witnesses: 1
witness.0: 0,0,0 3,4,4 | 0,3,4 4,2,1
"""

K5_REFUSED = """\
format: latticegap/1
command: eps
status: incomplete
reason: budget exceeded
required_pairs: 30577354
budget: 8000000
"""

CERTIFY_REPORT = """\
format: latticegap/1
command: certify
status: pass
selected: prop1 prop2 prop31
certificates: 3
certificate.0.selector: prop1
certificate.0.verdict: pass
certificate.0.data.candidates: 231
certificate.1.selector: prop2
certificate.1.verdict: pass
certificate.1.data.winner_count: 8
certificate.2.selector: prop31
certificate.2.verdict: pass
"""


# --- names ------------------------------------------------------------------

def test_metric_and_workload_names_use_the_allowed_characters():
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    declared += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(declared)) == len(declared)
    for name in declared + [name for name, *_ in PER_LAYER] + list(END_TO_END):
        assert NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# --- oracle -----------------------------------------------------------------

def test_closed_form_is_computed_locally():
    assert closed_form(3) == Fraction(1, 286)
    assert closed_form(4) == Fraction(1, 1050)
    assert closed_form(5) == Fraction(1, 2870)


def test_oracle_accepts_the_expected_reports():
    assert check(WORKLOADS["scan-k3"], 0, K3_REPORT) == COMPLETE
    assert check(WORKLOADS["scan-k4-reduce"], 0, K4_REPORT) == COMPLETE
    assert check(WORKLOADS["certify-props"], 0, CERTIFY_REPORT) == COMPLETE
    assert check(WORKLOADS["scan-k5-reduce"], 3, K5_REFUSED) == REFUSED
    k5_complete = K4_REPORT.replace("k: 4", "k: 5").replace("1050", "2870")
    assert check(WORKLOADS["scan-k5-reduce"], 0, k5_complete) == COMPLETE


@pytest.mark.parametrize("workload, status, text", [
    # the closed form's value where the scan must find the exception
    ("scan-k3", 0, K3_REPORT.replace("eps_squared: 1/299", "eps_squared: 1/286")),
    ("scan-k4-reduce", 0, K4_REPORT.replace("eps_squared: 1/1050", "eps_squared: 1/1049")),
    ("scan-k3", 0, K3_REPORT.replace("0,1,2 3,2,0", "0,1,2 3,2,1")),
    ("scan-k4-reduce", 0, K4_REPORT.replace("witness.0: 0,0,0 3,4,4", "witness.0: 0,0,1 3,4,4")),
    ("scan-k3", 3, K3_REPORT),
    ("scan-k3", 1, K3_REPORT),
    ("scan-k4-reduce", 3, K5_REFUSED.replace("30577354", "8000001")),
    ("certify-props", 1, CERTIFY_REPORT),
    ("certify-props", 0, CERTIFY_REPORT.replace("winner_count: 8", "winner_count: 7")),
    ("certify-props", 0, CERTIFY_REPORT.replace("status: pass", "status: fail")),
    ("scan-k5-reduce", 3, K5_REFUSED.replace("30577354", "8000000")),
    ("scan-k5-reduce", 2, ""),
    ("scan-k3", 0, K3_REPORT.replace("format: latticegap/1", "format: latticegap/2")),
])
def test_oracle_rejects_wrong_reports(workload, status, text):
    with pytest.raises(WrongAnswer):
        check(WORKLOADS[workload], status, text)


# --- tracing ----------------------------------------------------------------

# root [0, 10] holds a [1, 4] with a leaf [2, 3], b [3.5, 6] overlapping a,
# and c [9, 12] running past the root's end; d [20, 21] is a second root.
SPANS = [
    ["cli.main", 0.0, 10.0, -1],
    ["bruteforce.a", 1.0, 4.0, 0],
    ["geometry.leaf", 2.0, 3.0, 1],
    ["certify.b", 3.5, 6.0, 0],
    ["intpoly.c", 9.0, 12.0, 0],
    ["cli.other", 20.0, 21.0, -1],
]


def test_self_time_never_exceeds_span_duration():
    own = self_times(SPANS)
    for (_, start, end, _), t in zip(SPANS, own):
        assert 0.0 <= t <= end - start
    assert own[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)


def test_layer_self_times_partition_a_nested_tree():
    nested = [s for s in SPANS if s[0] not in ("certify.b", "intpoly.c")]
    layers = layer_self_times(nested)
    assert sum(layers.values()) == pytest.approx(10.0 + 1.0)
    assert layers == pytest.approx({"cli": 8.0, "bruteforce": 2.0, "geometry": 1.0})


@pytest.fixture
def fake_package():
    """A package `fakepkg` with a submodule that imported its names."""
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def leaf(x):
        return x + 1

    def step(x):
        return sub.leaf(x) * 2

    def hidden(x):
        return x

    sub.leaf, sub.step = leaf, step
    pkg.leaf, pkg.step, pkg.hidden = leaf, step, hidden
    pkg.__all__ = ["leaf", "step"]
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    yield pkg, sub
    del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


def test_wrappers_reach_every_namespace_and_skip_missing_names(fake_package):
    pkg, sub = fake_package
    tracer = Tracer()
    missing = install_wrappers(tracer, pkg, {"step": "layer", "hidden": "layer"},
                               {"leaf": "layer"})
    assert missing == ["hidden"]
    assert pkg.step(1) == 4 and sub.step(2) == 6
    assert [s[0] for s in tracer.spans] == ["layer.step", "layer.step"]
    assert all(s[3] == -1 and s[2] >= s[1] for s in tracer.spans)
    assert tracer.counts() == {"layer.leaf": 2}


def test_per_layer_metrics_leave_out_unexported_names():
    spans = [["cli.main", 0.0, 2.0, -1],
             ["certify.certify_domination", 0.5, 1.5, 0],
             ["intpoly.isolate_real_roots", 0.6, 0.8, 1],
             ["intpoly.isolate_real_roots", 0.9, 1.0, 1]]
    trace = {"spans": spans, "counts": {"geometry.apply_cube_symmetry": 7},
             "report": CERTIFY_REPORT, "missing": ["sturm_chain"],
             "search_candidates": 2236}
    probe = {"scan": {}, "refuse": None, "missing": [],
             "leaf_us": {"geometry.apply_cube_symmetry": 1.5}}
    values = per_layer_metrics(trace, probe, traced_wall_s=2.5, untraced_wall_s=2.0)
    assert "intpoly.sturm_chain.calls" not in values
    assert set(values) == {name for name, *_ in PER_LAYER} - {
        "intpoly.sturm_chain.calls", "intpoly.sturm_chain.us_per_call"}
    assert values["trace.overhead_s"] == pytest.approx(0.5)
    assert values["certify.domination_s"] == pytest.approx(1.0)
    assert values["certify.self_s"] == pytest.approx(0.7)
    assert values["intpoly.isolate_real_roots.calls"] == 2
    assert values["intpoly.isolate_real_roots.us_per_call"] == pytest.approx(150000.0)
    assert values["geometry.apply_cube_symmetry.calls"] == 7
    assert values["geometry.apply_cube_symmetry.us_per_call"] == 1.5
    assert values["certify.domination.candidates"] == 231
    assert values["certify.search.winners"] == 8
    assert values["bruteforce.pairs.segment-segment"] == 0

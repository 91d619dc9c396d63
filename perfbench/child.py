"""The benchmark's in-process measurements, each in a fresh interpreter.

    python3 perfbench/child.py trace --workload NAME --out PATH
    python3 perfbench/child.py probe --workload NAME --seed N --refused 0|1 --out PATH

`trace` runs the workload's CLI call in this process with 1 worker, so all
work is attributed to a layer, and records spans around the public
functions.  `probe` times `eps_bruteforce` per class cold and warm with 1
worker and warm with SPEEDUP_WORKERS, or the refusal of an over-budget
scan, and times the hot leaf on a seeded sample.  Both use only the CLI
and names in `latticegap.__all__`, and write one JSON document to PATH
when they end.  run.py starts them with the package's `src` directory on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import statistics
import time
from contextlib import redirect_stdout

from metrics import COUNTED, SPANNED
from tracing import Tracer, install_wrappers, missing_names
from workloads import REPORT_ARGS, SCAN_CLASSES, SPEEDUP_WORKERS, WORKLOADS

LEAF_SAMPLE = 20_000
LEAF_REPEATS = 5
# Warm scans are timed this many times and the median kept; the cold call
# can only happen once in a process.
WARM_REPEATS = 3


def run_trace(workload) -> dict:
    import latticegap
    import latticegap.cli

    tracer = Tracer()
    missing = install_wrappers(tracer, latticegap, SPANNED, COUNTED)
    missing += missing_names(latticegap, ["gen_search_candidates"])
    out = io.StringIO()
    with redirect_stdout(out), tracer.span("cli.main"):
        status = latticegap.cli.main([*workload.with_workers(1), *REPORT_ARGS])
    searched = any(span[0] == "certify.certify_optimal_search" for span in tracer.spans)
    search_candidates = 0
    if searched and "gen_search_candidates" not in missing:
        search_candidates = len(latticegap.gen_search_candidates())
    return {"status": status, "report": out.getvalue(), "spans": tracer.spans,
            "counts": tracer.counts(), "missing": missing,
            "search_candidates": search_candidates}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _probe_scans(lg, workload, refused: bool) -> tuple:
    """Per-class cold, warm and 2-worker warm calls, or the refusal."""
    k, reduced = workload.k, workload.reduced
    if refused:
        start = time.perf_counter()
        try:
            lg.eps_bruteforce(3, k, workers=1, reduced=reduced)
        except lg.BudgetExceededError as exc:
            return {}, {"seconds": time.perf_counter() - start,
                        "required": exc.required}
        raise RuntimeError("the scan was refused by the CLI but not here")
    scans = {}
    for cls in SCAN_CLASSES:
        def call(workers, cls=cls):
            return lg.eps_bruteforce(3, k, (cls,), workers=workers, reduced=reduced)
        cold_s, result = _timed(lambda: call(1))
        warm_s = statistics.median(_timed(lambda: call(1))[0]
                                   for _ in range(WARM_REPEATS))
        warm2_s = statistics.median(_timed(lambda: call(SPEEDUP_WORKERS))[0]
                                    for _ in range(WARM_REPEATS))
        scans[cls] = {"cold_s": cold_s, "warm_s": warm_s, "warm2_s": warm2_s,
                      "pairs": result.pairs_scanned}
    return scans, None


def _leaf_us(lg, k: int, rng: random.Random) -> float:
    """Median cost of one apply_cube_symmetry call on a seeded sample."""
    syms = lg.cube_symmetries(3)
    sample = [(tuple(rng.randint(0, k) for _ in range(3)), rng.choice(syms))
              for _ in range(LEAF_SAMPLE)]
    apply = lg.apply_cube_symmetry
    times = []
    for _ in range(LEAF_REPEATS):
        start = time.perf_counter()
        for point, sym in sample:
            apply(point, sym, k)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / LEAF_SAMPLE * 1e6


def run_probe(workload, seed: int, refused: bool) -> dict:
    import latticegap as lg

    scan_needs = ["eps_bruteforce", "BudgetExceededError"]
    leaf_needs = ["apply_cube_symmetry", "cube_symmetries"]
    missing = missing_names(lg, scan_needs + leaf_needs)
    scans, refuse = {}, None
    if workload.k is not None and not set(scan_needs) & set(missing):
        scans, refuse = _probe_scans(lg, workload, refused)
    leaf_us = {}
    if not set(leaf_needs) & set(missing):
        leaf_us["geometry.apply_cube_symmetry"] = _leaf_us(
            lg, workload.leaf_k, random.Random(seed))
    return {"scan": scans, "refuse": refuse, "leaf_us": leaf_us,
            "missing": missing}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("trace", "probe"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refused", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "trace":
        doc = run_trace(workload)
    else:
        doc = run_probe(workload, args.seed, bool(args.refused))
    with open(args.out, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()

"""Benchmark of the `latticegap` CLI: four workloads, each a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

With --trace 0 the workload's CLI call runs back to back, one process at
a time, for S seconds.  Every report is checked against oracle.py, and the
last line printed is one JSON object with the end-to-end metrics: the
medians of wall_s, cpu_s and peak_rss_mb over the runs, and setup_s, the
median time for a fresh interpreter to import `latticegap.cli` and build
its parser.  CPU time and peak resident set cover the whole process tree,
pool workers included, from os.wait4.

With --trace 1 the per-layer metrics come instead: the call runs untraced
with 1 worker for S seconds, once traced in a fresh process, and once
more as layer probes (child.py).

`--workload all` runs every workload, in an order the seed shuffles each
round, until each has had S seconds, then traces each; it prints every
metric per workload, failed_frac included.

The package is taken from `src/` beside this directory.  Outputs, span
files and a record of each result with its environment go to
`.bench_out/`.  Exit status: 0 with a result, 1 on a wrong answer, 2 when
the benchmark cannot start (no package source, too few cores).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, per_layer_metrics
from oracle import COMPLETE, REFUSED, WrongAnswer, check
from workloads import REPORT_ARGS, SPEEDUP_WORKERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
PACKAGE_SRC = ROOT / "src"

SETUP_CODE = "import latticegap.cli as cli; cli.build_parser()"
# Set-up is timed SETUP_PER_RUN times before each run, SETUP_MIN at least.
SETUP_PER_RUN = 3
SETUP_MIN = 15
# A single-workload run must end within 180 s; stop starting work here.
DEADLINE_S = 165
# No single process may run longer, even without a deadline.
PROCESS_TIMEOUT_S = 600
CRASHED = "crashed"


@dataclass
class Run:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(cmd, env, timeout: float) -> Run:
    """Run cmd to completion in its own process group, killing the group
    after `timeout` seconds, PROCESS_TIMEOUT_S at most.  Rusage comes from
    os.wait4, so CPU time and peak RSS include every descendant the
    process waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    timeout = min(max(timeout, 0.0), PROCESS_TIMEOUT_S)
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024, out.decode(), err[0].decode())


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_SRC), env.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workers: dict) -> dict:
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git_commit(),
            "seed": seed,
            "workers": workers}


def measure_setup(env, deadline: float, times: list, repeats: int) -> None:
    """Append `repeats` set-up times: a fresh interpreter that imports
    latticegap.cli and builds its parser."""
    for _ in range(repeats):
        run = run_process([sys.executable, "-c", SETUP_CODE], env,
                          deadline - time.perf_counter())
        if run.status != 0:
            raise RuntimeError(f"importing latticegap.cli failed:\n{run.stderr}")
        times.append(run.wall_s)


def cli_run(workload, argv, env, deadline: float) -> tuple:
    """One CLI process; the oracle's verdict, or CRASHED if it was killed."""
    cmd = [sys.executable, "-m", "latticegap.cli", *argv, *REPORT_ARGS]
    run = run_process(cmd, env, deadline - time.perf_counter())
    if run.status < 0:
        return run, CRASHED
    return run, check(workload, run.status, run.stdout)


def measure(workload, argv, seconds: float, env, deadline: float,
            setup_times=None) -> list:
    """Back-to-back runs until they have taken `seconds`, at least one,
    stopping early rather than overrunning the deadline.  With a
    `setup_times` list, set-up is timed between the runs as well, so that
    both medians see the same conditions on the machine."""
    runs = []
    spent = 0.0
    while not runs or spent < seconds:
        if runs and time.perf_counter() + max(r.wall_s for r, _ in runs) > deadline:
            break
        if setup_times is not None:
            measure_setup(env, deadline, setup_times, SETUP_PER_RUN)
        runs.append(cli_run(workload, argv, env, deadline))
        spent += runs[-1][0].wall_s
        if runs[-1][1] == CRASHED:
            break
    if setup_times is not None and len(setup_times) < SETUP_MIN:
        measure_setup(env, deadline, setup_times, SETUP_MIN - len(setup_times))
    return runs


def end_to_end(runs, setup_times) -> dict:
    values = {
        "wall_s": statistics.median(r.wall_s for r, _ in runs),
        "cpu_s": statistics.median(r.cpu_s for r, _ in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r, _ in runs),
        "setup_s": statistics.median(setup_times),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def failed_frac(runs) -> float:
    """Runs refused or crashed over runs attempted."""
    return sum(outcome != COMPLETE for _, outcome in runs) / len(runs)


def _child(mode: str, workload, env, deadline: float, *extra) -> tuple:
    out = OUT_DIR / f"{mode}-{workload.name}.json"
    cmd = [sys.executable, str(PERFBENCH / "child.py"), mode,
           "--workload", workload.name, "--out", str(out), *extra]
    run = run_process(cmd, env, deadline - time.perf_counter())
    if run.status != 0:
        raise RuntimeError(f"child.py {mode} failed ({run.status}):\n{run.stderr}")
    return run, json.loads(out.read_text())


def layer_metrics(workload, seed: int, seconds: float, env, deadline: float) -> tuple:
    """Per-layer metrics of one workload and the runs behind them."""
    argv = workload.with_workers(1)
    runs = measure(workload, argv, seconds, env, deadline)
    traced, trace = _child("trace", workload, env, deadline)
    outcome = check(workload, trace["status"], trace["report"])
    _, probe = _child("probe", workload, env, deadline, "--seed", str(seed),
                      "--refused", str(int(outcome == REFUSED)))
    untraced = statistics.median(r.wall_s for r, _ in runs)
    values = per_layer_metrics(trace, probe, traced.wall_s, untraced)
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    absent = [name for name in units if name not in values]
    if absent:
        print(f"absent (public name not exported): {' '.join(absent)}", file=sys.stderr)
    return metrics, runs + [(traced, outcome)]


def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{prefix}{name} {value} {m['unit']}")


def _result(runs, metrics: dict) -> dict:
    return {"correct": True, "attempted": len(runs),
            "failed": sum(outcome == CRASHED for _, outcome in runs),
            "metrics": metrics}


def _wrong(exc: WrongAnswer) -> int:
    print(f"wrong answer: {exc}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
    return 1


def _record(name: str, env_info: dict, result: dict, extra: dict) -> None:
    path = OUT_DIR / f"{name}-seed{env_info['seed']}.json"
    path.write_text(json.dumps({"environment": env_info, **extra, **result}, indent=1))


def run_one(workload, seed: int, seconds: float, trace: bool, env) -> int:
    deadline = time.perf_counter() + DEADLINE_S
    if not trace:
        workers = {workload.name: workload.workers}
    else:
        workers = {workload.name: 1, "probe": SPEEDUP_WORKERS}
    env_info = environment(seed, workers)
    print(json.dumps({"environment": env_info}))
    try:
        if trace:
            metrics, runs = layer_metrics(workload, seed, seconds, env, deadline)
        else:
            setup_times = []
            runs = measure(workload, workload.argv, seconds, env, deadline,
                           setup_times)
            metrics = end_to_end(runs, setup_times)
    except WrongAnswer as exc:
        return _wrong(exc)
    frac = failed_frac(runs)
    print(f"{workload.name}: {len(runs)} runs, failed_frac {frac:.6g}")
    _print_metrics("", metrics)
    result = _result(runs, metrics)
    _record(f"{workload.name}-trace{int(trace)}", env_info, result,
            {"failed_frac": frac, "walls_s": [r.wall_s for r, _ in runs]})
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, env) -> int:
    """Every workload, rounds in seeded order, then every traced run."""
    env_info = environment(seed, {w.name: w.workers for w in WORKLOADS.values()})
    print(json.dumps({"environment": env_info}))
    rng = random.Random(seed)
    no_deadline = float("inf")
    setup_times = []
    runs = {name: [] for name in WORKLOADS}
    spent = dict.fromkeys(WORKLOADS, 0.0)
    metrics = {}
    try:
        while min(spent.values()) < seconds:
            for name in rng.sample(sorted(WORKLOADS), len(WORKLOADS)):
                if spent[name] < seconds:
                    w = WORKLOADS[name]
                    measure_setup(env, no_deadline, setup_times, SETUP_PER_RUN)
                    runs[name].append(cli_run(w, w.argv, env, no_deadline))
                    spent[name] += runs[name][-1][0].wall_s
        for name, w in WORKLOADS.items():
            e2e = end_to_end(runs[name], setup_times)
            e2e["failed_frac"] = {"value": failed_frac(runs[name]), "unit": "ratio"}
            layers, traced_runs = layer_metrics(w, seed, seconds, env, no_deadline)
            print(f"== {name}: {len(runs[name])} runs")
            _print_metrics(f"{name} ", e2e)
            _print_metrics(f"{name} ", layers)
            metrics.update({f"{name}.{m}": v for m, v in {**e2e, **layers}.items()})
            runs[name] += traced_runs
    except WrongAnswer as exc:
        return _wrong(exc)
    result = _result([r for rs in runs.values() for r in rs], metrics)
    _record("all", env_info, result, {})
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the latticegap CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_SRC / "latticegap" / "cli.py").is_file():
        print(f"error: no package source under {PACKAGE_SRC}", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    chosen = WORKLOADS.values() if args.workload == "all" else [WORKLOADS[args.workload]]
    for w in chosen:
        need = w.workers if w.k is None else max(w.workers, SPEEDUP_WORKERS)
        if need > cores:
            print(f"error: {w.name} needs {need} workers, "
                  f"{cores} cores are available", file=sys.stderr)
            return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = package_env()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, env)
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace), env)


if __name__ == "__main__":
    sys.exit(main())

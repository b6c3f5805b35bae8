"""kinterp benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload train_tiny --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

Run from the repository root.  Workloads, metrics, units and directions are
defined in BENCHMARK.json; this script checks its output against that file.

``--trace 0`` sets up the workload three times, each in its own process, and
reports the median set-up time; then a fresh process calls the workload's
entry point in a closed loop for ``--seconds`` and reports operation time
relative to the host's speed (sampled during each operation by a reference
kernel), throughput, peak RSS, quality guards and the share of operations
whose outputs passed their checks.  ``--trace 1`` runs the workload once through
the span-recording replicas in ``tracing.py`` and reports per-layer times.
Every result is preceded by an ``environment`` line; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


class Runner:
    """Spawns worker processes under one deadline and parses their results."""

    def __init__(self, work: Path, env: dict[str, str]):
        self.work = work
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, role: str, workload: str, seed: int, directory: Path, *extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the worker started")
        cmd = [sys.executable, str(WORKER), role, "--workload", workload,
               "--seed", str(seed), "--dir", str(directory), *extra]
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining,
                                 env=self.env)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role} worker for {workload} timed out") from exc
        if out.returncode != 0:
            raise BenchError(f"{role} worker for {workload} exited with {out.returncode}")
        return json.loads(out.stdout.strip().splitlines()[-1])


def tree_digest(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool,
                 corrupt: bool) -> tuple[dict, dict, list, dict]:
    """Returns (result, environment, layer table, unbounded figures) for one workload."""
    work = runner.work / name
    timing = ["--seconds", str(seconds)]
    if trace:
        out = runner.worker("trace", name, seed, work / "trace", *timing)
        result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
                  "failed": out["failed"], "metrics": out["metrics"]}
        return result, out["environment"], out["table"], {}

    setups = []
    for k in range(SETUPS):
        setups.append(runner.worker("setup", name, seed, work / f"setup{k}")["setup_s"])
    digests = [tree_digest(work / f"setup{k}") for k in range(SETUPS)]
    out = runner.worker("run", name, seed, work / "setup0", *timing,
                        *(["--corrupt-infer"] if corrupt else []))
    metrics = dict(out["metrics"], setup_s=statistics.median(setups))
    correct = out["failed"] == 0 and all(d == digests[0] for d in digests)
    result = {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    return result, out["environment"], [], out["report"]


def with_units(values: dict, declared: list[dict]) -> dict:
    """Every declared metric, in declared order, with its declared unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_report(name: str, result: dict, declared: list[dict], table: list,
                 report: dict) -> None:
    print(f"== {name}: {result['attempted']} operations, {result['failed']} failed, "
          f"correct={result['correct']}")
    if table:
        print(f"   {'layer':28s} {'calls':>6s} {'from':>14s} {'median':>12s} {'p90':>12s} "
              f"{'self/op':>8s}")
        for layer, calls, source, median, p90, share in table:
            share_text = "" if share is None else f"{share:8.1%}"
            print(f"   {layer:28s} {calls:6d} {source:>14s} {median:12.4f} {p90:12.4f} "
                  f"{share_text}")
    tabled = {row[0] for row in table}
    for m in declared:
        if m["name"] in tabled:
            continue
        entry = result["metrics"][m["name"]]
        bound = f", bound {m['bound']}" if "bound" in m else ""
        print(f"   {m['name']:28s} {entry['value']:14.6g} {entry['unit']:8s} "
              f"({m['better']} is better{bound})")
    for key, value in report.items():
        print(f"   {key:28s} {value:14.6g} (not bounded)")


def main(argv=None) -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names + ["all"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int,
                   help="set the BLAS/OpenMP thread variables for the workers "
                        "(default: leave them to the environment and the program)")
    p.add_argument("--corrupt-infer", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "kinterp" / "__init__.py").is_file():
        print(f"error: no kinterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker_env = dict(os.environ)
    if args.blas_threads is not None:
        worker_env.update({var: str(args.blas_threads) for var in THREAD_VARS})
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    selected = names if args.workload == "all" else [args.workload]
    load_before = os.getloadavg()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    results, environment = {}, {}
    try:
        for name in selected:
            result, env, table, report = run_workload(
                Runner(work, worker_env), name, args.seed, args.seconds, bool(args.trace), args.corrupt_infer
            )
            result["metrics"] = with_units(result["metrics"], declared)
            print_report(name, result, declared, table, report)
            results[name], environment[name] = result, env
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps({
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "thread_env": {var: worker_env.get(var) for var in THREAD_VARS},
        "workloads": environment,
    }))
    if len(results) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

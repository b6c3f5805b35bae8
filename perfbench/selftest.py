"""Self-test of the benchmark at minimal run length (about three minutes).

    python3 perfbench/selftest.py

Runs every workload untraced and traced for one second each and asserts that
every metric BENCHMARK.json declares is emitted for every workload, with its
declared unit and a finite value.  Then it runs ``infer_stream`` with its
first output corrupted inside the benchmark and asserts that the corruption
is counted as a failed operation, and runs the benchmark from a directory
without the package sources and asserts that it fails without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "1"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result(*args: str) -> dict:
    out = bench(*args)
    if out.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        got = result("--workload", "all", "--trace", trace)
        assert got["correct"] and got["failed"] == 0, got
        for workload in workloads:
            for metric in declared:
                entry = got["metrics"].get(f"{workload}.{metric['name']}")
                assert entry is not None, f"{workload} lacks {metric['name']} (trace {trace})"
                assert entry["unit"] == metric["unit"], (workload, metric, entry)
                assert math.isfinite(entry["value"]), (workload, metric, entry)
        print(f"trace {trace}: {len(declared)} metrics on each of {len(workloads)} workloads")

    corrupted = result("--workload", "infer_stream", "--corrupt-infer")
    assert corrupted["failed"] == 1 and not corrupted["correct"], corrupted
    assert corrupted["metrics"]["ok_frac"]["value"] < 1.0, corrupted
    print(f"corrupted inference output counted: 1 of {corrupted['attempted']} failed")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", workloads[0], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print(f"without package sources: exit {out.returncode}, no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

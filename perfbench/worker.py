"""One role of the kinterp benchmark, run in its own process by ``run.py``.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py run   --workload W --seed N --dir D --seconds S
    python3 perfbench/worker.py trace --workload W --seed N --dir D --seconds S

``setup`` generates the dataset (and, for the inference workloads, trains the
checkpoint) into D.  ``run`` loads what a ``setup`` left in D and calls the
workload's entry point in a closed loop, one client, for S seconds, with no
timers inside the package; it checks every output.  ``trace`` does set-up and
operations itself through the replicas in ``tracing.py`` and reports
per-layer times.  Each role prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from kinterp import numcore as nc  # noqa: E402
from kinterp.kspace import fft2, magnitude, normalize, read_volume  # noqa: E402
from kinterp.model import from_checkpoint, tiny_config  # noqa: E402
from kinterp.phantom import DatasetSpec, make_dataset  # noqa: E402
from kinterp.pipeline import TrainConfig, evaluate, infer, load_manifest, train  # noqa: E402
from kinterp.sampling import apply_mask, generate_mask  # noqa: E402

N_TRAIN = 16
R_TRAIN = 4.0
R_VALUES = (4.0, 6.0, 8.0)
MIN_OPS = 3
LAST_ROWS = 10  # train_loss_final averages this many final loss rows
OVERHEAD_PAIRS = 10  # traced inference requests replayed untraced
PROBE_INTERVAL_S = 0.03  # wall time between two timings of the reference kernel


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # "train", "infer" or "eval"
    dims: tuple[int, int, int]
    n_test: int
    steps: int  # per train() operation, or of the set-up checkpoint


WORKLOADS = {
    "train_tiny": Workload("train", (32, 32, 8), 1, 10),
    "train_large": Workload("train", (64, 64, 16), 1, 2),
    "infer_stream": Workload("infer", (32, 32, 8), 5, 20),
    "eval_split": Workload("eval", (32, 32, 8), 5, 20),
}


class Divergence(Exception):
    """A replica did not reproduce the entry point it copies."""


def train_config(w: Workload, seed: int, manifest: Path) -> TrainConfig:
    return TrainConfig(
        model=tiny_config(*w.dims), manifest=manifest, r_train=R_TRAIN, steps=w.steps, seed=seed
    )


def request_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + 500_009 + index) % (2**63 - 1)


def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def loss_final(rows) -> float:
    return statistics.fmean(row[4] for row in rows[-LAST_ROWS:])


def read_loss_log(path: Path) -> list[tuple]:
    lines = path.read_text().splitlines()[1:]
    return [tuple(float(x) for x in line.split(",")) for line in lines]


# ---- host-speed probe -----------------------------------------------------------

_REF = np.random.default_rng(2307_12672)
_REF_MAT = _REF.standard_normal((8, 8))
_REF_VEC = _REF.standard_normal(4096)
_REF_TOK = _REF.standard_normal((256, 32)).astype(np.float32)
_REF_TOK_T = _REF_TOK.T
# Outputs are preallocated, so a probe adds no arrays to the heap of the
# operation it interrupts.
_REF_SQ = np.empty((8, 8))
_REF_VEC_OUT = np.empty(4096)
_REF_SCORES = np.empty((256, 256), np.float32)
_REF_ROWS = np.empty((256, 1), np.float32)


def reference_kernel() -> float:
    """Small NumPy calls, an attention-sized matmul and softmax, and an
    interpreted loop, on a working set of some 350 KB, allocating no arrays.

    About 0.6 ms.  It calls nothing in kinterp, so its time moves only with
    the speed the shared host gives this process.  The matmul and softmax
    slow less than the interpreted parts when the host is busy; a kernel of
    interpreted code and small NumPy calls alone slowed more than the
    operations did and over-corrected them, most on train_large.
    """
    total = 0.0
    for _ in range(4):
        np.matmul(_REF_MAT, _REF_MAT, out=_REF_SQ)
        np.subtract(_REF_SQ, _REF_SQ.max(), out=_REF_SQ)
        total += float(np.exp(_REF_SQ, out=_REF_SQ).sum())
        np.abs(_REF_VEC, out=_REF_VEC_OUT)
        np.negative(_REF_VEC_OUT, out=_REF_VEC_OUT)
        total += float(np.exp(_REF_VEC_OUT, out=_REF_VEC_OUT).sum())
    np.matmul(_REF_TOK, _REF_TOK_T, out=_REF_SCORES)
    np.subtract(_REF_SCORES, _REF_SCORES.max(axis=1, keepdims=True, out=_REF_ROWS), out=_REF_SCORES)
    np.exp(_REF_SCORES, out=_REF_SCORES)
    np.divide(_REF_SCORES, _REF_SCORES.sum(axis=1, keepdims=True, out=_REF_ROWS), out=_REF_SCORES)
    total += float(_REF_SCORES.sum())
    acc = 0
    for i in range(3000):
        acc += i & 7
    return total + acc


class SpeedProbe:
    """Times ``reference_kernel`` every PROBE_INTERVAL_S, from a timer signal.

    The handler runs between bytecodes of whatever the process is doing, so
    the probes sample the host's speed during each operation.  Each probe runs
    the kernel twice and times the second run, once the first has brought its
    code and data back into cache.  ``spent`` (both runs), ``timed`` (second
    runs) and ``calls`` accumulate, so differences across an operation give
    the time the probes took from it and their mean timing; ``last`` is the
    latest probe's timing.
    """

    def __init__(self):
        self.spent = 0.0
        self.timed = 0.0
        self.calls = 0
        self.last = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.last = t2 - t1
        self.spent += t2 - t0
        self.timed += self.last
        self.calls += 1

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# ---- set-up -------------------------------------------------------------------


def set_up(w: Workload, seed: int, work: Path, tr) -> float:
    """Dataset generation plus checkpoint preparation; returns its wall time."""
    start = time.perf_counter()
    manifest = tr.call(
        "phantom.make_dataset", make_dataset, work / "data", N_TRAIN, w.n_test,
        DatasetSpec(*w.dims), seed,
    )
    if w.kind != "train":
        train(train_config(w, seed, manifest), work / "ckpt")
    return time.perf_counter() - start


# ---- workloads: prepare (untimed), call (timed), check (untimed) ----------------


class TrainOps:
    """One ``pipeline.train`` call per operation, always with the same config.

    An operation's output is its loss rows and checkpoint bytes.
    """

    def __init__(self, w: Workload, seed: int, work: Path, tr, traced: bool):
        self.cfg = train_config(w, seed, work / "data" / "manifest.txt")
        self.out = work / ("train_traced" if traced else "train")
        self.units = w.steps
        self.first = None
        self.nmse: list[float] = []
        self.seed = seed

    def prepare(self, tr, i):
        return None

    def call(self, _):
        rows = train(self.cfg, self.out).losses
        return rows, (self.out / "checkpoint.kgin").read_bytes()

    def traced(self, tr, _):
        rows = tracing.train(tr, self.cfg, _mkdir(self.out))
        return rows, (self.out / "checkpoint.kgin").read_bytes()

    def check(self, tr, i, request, output) -> bool:
        """Finite losses, the same output every time, a checkpoint that loads."""
        if self.first is None:
            self.first = output
        tr.call("model.from_checkpoint", from_checkpoint, self.out / "checkpoint.kgin")
        return finite(r[4] for r in output[0]) and output == self.first

    def finish(self, tr, traced: bool) -> bool:
        """The trained checkpoint reconstructs the held-out sequence."""
        image_path, kspace_path = load_manifest(self.cfg.manifest)["test"][0]
        gt = read_volume(kspace_path)
        mask = generate_mask(gt.y_dim, gt.t_dim, R_TRAIN, request_seed(self.seed, 0))
        masked, _ = apply_mask(gt, mask)
        if traced:
            model, planes = tracing.load(tr, self.out / "checkpoint.kgin")
            recon = tracing.infer(tr, model, planes, masked, mask)
        else:
            recon = infer(self.out / "checkpoint.kgin", masked, mask)
        ok, scores = check_recon(tr, recon, masked, mask, read_volume(image_path))
        self.nmse.append(scores[0])
        return ok

    def loss_final(self) -> float:
        return loss_final(self.first[0])


def check_recon(tr, recon, masked, mask, reference):
    """Acquired columns kept bit-exact, a finite image, finite metrics."""
    keep = np.broadcast_to(mask.bits.astype(bool)[None, :, :], masked.re.shape)
    acquired = normalize(masked)
    ok = np.array_equal(recon.kspace_consistent.re[keep], acquired.re[keep]) and np.array_equal(
        recon.kspace_consistent.im[keep], acquired.im[keep]
    )
    ok = ok and bool(np.isfinite(recon.image.re).all() and np.isfinite(recon.image.im).all())
    scores = tracing.sequence_metrics(tr, magnitude(recon.image), magnitude(reference))
    return ok and finite(scores), scores


class InferOps:
    """One ``pipeline.infer`` call per request on a model loaded once.

    Request i reconstructs held-out sequence i mod 5 at R = 4, 6, 8 in turn,
    under a fresh mask seed.
    """

    def __init__(self, w: Workload, seed: int, work: Path, tr, traced: bool):
        pairs = load_manifest(work / "data" / "manifest.txt")["test"]
        self.references = [read_volume(image) for image, _ in pairs]
        self.kspaces = [read_volume(kspace) for _, kspace in pairs]
        checkpoint = work / "ckpt" / "checkpoint.kgin"
        if traced:
            self.model, self.planes = tracing.load(tr, checkpoint)
        else:
            self.model = from_checkpoint(checkpoint)
        self.seed = seed
        self.units = 1
        self.nmse: list[float] = []
        self.rows = read_loss_log(work / "ckpt" / "loss_log.csv")
        self.corrupt = False

    def prepare(self, tr, i):
        gt = self.kspaces[i % len(self.kspaces)]
        r = R_VALUES[i % len(R_VALUES)]
        mask = tr.call(
            "sampling.generate_mask", generate_mask, gt.y_dim, gt.t_dim, r,
            request_seed(self.seed, i),
        )
        masked, _ = tr.call("sampling.apply_mask", apply_mask, gt, mask)
        return masked, mask

    def call(self, request):
        return infer(self.model, *request)

    def traced(self, tr, request):
        return tracing.infer(tr, self.model, self.planes, *request)

    def check(self, tr, i, request, recon) -> bool:
        masked, mask = request
        if self.corrupt and i == 0:
            keep = np.broadcast_to(mask.bits.astype(bool)[None, :, :], masked.re.shape)
            recon.kspace_consistent.re[keep] += 1e-3
        ok, scores = check_recon(
            tr, recon, masked, mask, self.references[i % len(self.references)]
        )
        self.nmse.append(scores[0])
        return ok

    def finish(self, tr, traced: bool) -> bool:
        return True

    def loss_final(self) -> float:
        return loss_final(self.rows)


def report_rows(reports) -> list[list[tuple[float, float, float]]]:
    return [[(row.nmse, row.ssim, row.psnr) for row in report.rows] for report in reports]


class EvalOps:
    """One ``pipeline.evaluate`` call per operation on the whole test split."""

    def __init__(self, w: Workload, seed: int, work: Path, tr, traced: bool):
        self.checkpoint = work / "ckpt" / "checkpoint.kgin"
        self.manifest = work / "data" / "manifest.txt"
        self.seed = seed
        self.units = len(R_VALUES) * w.n_test
        self.n_test = w.n_test
        self.first = None
        self.nmse: list[float] = []
        self.rows = read_loss_log(work / "ckpt" / "loss_log.csv")

    def prepare(self, tr, i):
        return None

    def call(self, _):
        model_reports, baseline_reports = evaluate(
            self.checkpoint, self.manifest, list(R_VALUES), seed=self.seed
        )
        return report_rows(model_reports), report_rows(baseline_reports)

    def traced(self, tr, _):
        return tracing.evaluate(tr, self.checkpoint, self.manifest, list(R_VALUES), self.seed)

    def check(self, tr, i, request, result) -> bool:
        """Finite NMSE/SSIM/PSNR for every R and sequence, the same every call."""
        model_rows, _ = result
        if self.first is None:
            self.first = result
            self.nmse = [row[0] for rows in model_rows for row in rows]
        shape_ok = len(model_rows) == len(R_VALUES) and all(
            len(rows) == self.n_test for rows in model_rows
        )
        values = [v for rows in model_rows for row in rows for v in row]
        return shape_ok and finite(values) and result == self.first

    def finish(self, tr, traced: bool) -> bool:
        return True

    def loss_final(self) -> float:
        return loss_final(self.rows)


OPS = {"train": TrainOps, "infer": InferOps, "eval": EvalOps}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(ops, seconds: float, tr, traced: bool, probe: SpeedProbe | None = None):
    """Operations back to back until ``seconds`` pass (at least MIN_OPS).

    Returns the operations attempted and failed, the wall times of those that
    returned, the mean probe timing during each, the peak RSS after the first
    operation, and the first requests with their outputs for replay.

    With a ``probe``, operation 0 is a warm-up, checked but not timed; the
    peak RSS is read after it and the probe starts then.  The probe's signals
    land at random points of the operations and shift the heap's layout enough
    to move the high-water mark by up to 7 % on train_large from run to run;
    read after one operation without them, it repeats.
    Timed operations exclude the probes' own time and are paired with the
    mean timing of the probes that fell in them, or else the latest one's.
    """
    times, probe_times, kept, failed = [], [], [], 0
    probed = probe is not None
    peak = None
    start = time.perf_counter()
    attempted = 0
    try:
        while attempted < MIN_OPS + int(probed) or time.perf_counter() - start < seconds:
            i = attempted
            attempted += 1
            tr.phase, tr.op = "client", i
            request = ops.prepare(tr, i)
            tr.phase = "op"
            try:
                if probed:
                    spent, timed, calls = probe.spent, probe.timed, probe.calls
                t0 = time.perf_counter()
                if traced:
                    with tr.span("op"):
                        output = ops.traced(tr, request)
                else:
                    output = ops.call(request)
                wall = time.perf_counter() - t0
                if not probed:
                    times.append(wall)
                elif i > 0:
                    calls = probe.calls - calls
                    times.append(wall - (probe.spent - spent))
                    probe_times.append((probe.timed - timed) / calls if calls else probe.last)
                tr.phase = "check"
                ok = ops.check(tr, i, request, output)
            except Exception as exc:  # an operation that raises counts as failed
                print(f"operation {i} failed: {exc!r}", file=sys.stderr)
                failed += 1
                ok = None
            if ok is not None:
                failed += not ok
                if len(kept) < OVERHEAD_PAIRS:
                    kept.append((request, output))
            if peak is None:
                peak = peak_rss_mb()
                if probed:
                    probe.start()
                    start = time.perf_counter()
    finally:
        if probed:
            probe.stop()
    tr.phase, tr.op = "check", None
    if not ops.finish(tr, traced):
        failed += 1
    return attempted, failed, times, probe_times, peak, kept


# ---- environment ----------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library NumPy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(w: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mode = "train" if w.kind == "train" else nc.get_mode()
    with nc.use_mode(mode):
        dtype = np.dtype(nc.active_dtype()).name
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_effective": blas_threads(),
        "numcore_mode": f"{mode} ({dtype})",
    }


# ---- roles --------------------------------------------------------------------


def role_setup(args) -> dict:
    w = WORKLOADS[args.workload]
    return {"setup_s": set_up(w, args.seed, args.dir, tracing.NullTracer())}


def role_run(args) -> dict:
    w = WORKLOADS[args.workload]
    tr = tracing.NullTracer()
    ops = OPS[w.kind](w, args.seed, args.dir, tr, traced=False)
    if args.corrupt_infer:
        ops.corrupt = True
    probe = SpeedProbe()
    attempted, failed, times, probe_times, peak, _ = closed_loop(ops, args.seconds, tr, False, probe)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "op_rel_p50": statistics.median(t / v for t, v in zip(times, probe_times)),
            "peak_rss_mb": peak,
            "train_loss_final": ops.loss_final(),
            "ok_frac": max(0.0, 1.0 - failed / attempted),
        },
        "environment": environment(w),
        "report": {
            "op_ms_p50": statistics.median(times) * 1e3,
            "probe_ms_p50": statistics.median(probe_times) * 1e3,
            "probe_calls": probe.calls,
            "peak_rss_mb_run": peak_rss_mb(),
            "op_ms_min": min(times) * 1e3,
            "op_ms_p90": tracing.quantile90(times) * 1e3,
            "units_per_s": ops.units / statistics.median(times),
            "nmse_mean": statistics.fmean(ops.nmse),
        },
    }


def role_trace(args) -> dict:
    w = WORKLOADS[args.workload]
    tr = tracing.Tracer()
    work = args.dir
    set_up(w, args.seed, work, tr)
    for image_path, _ in load_manifest(work / "data" / "manifest.txt")["test"]:
        tr.call("kspace.fft2", fft2, read_volume(image_path))
    if w.kind != "train":
        # The set-up checkpoint again, through the replica.
        rows = tracing.train(tr, train_config(w, args.seed, work / "data" / "manifest.txt"),
                             _mkdir(work / "ckpt_traced"))
        same_bytes = (work / "ckpt" / "checkpoint.kgin").read_bytes() == (
            work / "ckpt_traced" / "checkpoint.kgin"
        ).read_bytes()
        if rows != read_loss_log(work / "ckpt" / "loss_log.csv") or not same_bytes:
            raise Divergence("traced training does not reproduce pipeline.train")
    ops = OPS[w.kind](w, args.seed, work, tr, traced=True)
    attempted, failed, traced_times, _, _, kept = closed_loop(ops, args.seconds, tr, traced=True)

    # Replay the first operations through the entry point itself.
    untraced_times = []
    for request, traced_output in kept[: 1 if w.kind != "infer" else OVERHEAD_PAIRS]:
        t0 = time.perf_counter()
        output = ops.call(request)
        untraced_times.append(time.perf_counter() - t0)
        if not same_output(w.kind, output, traced_output):
            raise Divergence(f"traced {w.kind} does not reproduce the entry point")
    metrics, rows = tracing.summarize(tr, "op")
    metrics["trace.overhead"] = statistics.median(traced_times[: len(untraced_times)]) / (
        statistics.median(untraced_times)
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "table": rows,
        "environment": environment(w),
    }


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def same_output(kind: str, output, traced_output) -> bool:
    if kind == "infer":
        a, b = output.image, traced_output.image
        return np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)
    return output == traced_output


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=("setup", "run", "trace"))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--corrupt-infer", action="store_true",
                   help="perturb the first inference output before checking it")
    args = p.parse_args(argv)
    if args.corrupt_infer and WORKLOADS[args.workload].kind != "infer":
        p.error("--corrupt-infer applies to the inference workload only")
    role = {"setup": role_setup, "run": role_run, "trace": role_trace}[args.role]
    try:
        result = role(args)
    except Divergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

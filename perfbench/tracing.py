"""Spans around the calls into kinterp's public functions, and the replicas.

The traced run does not instrument the package.  It replays what
``pipeline.train``, ``pipeline.infer`` and ``pipeline.evaluate`` do, calling
the same public functions in the same order, and wraps each call in a span.
``KSpaceInterpolator.refine`` is split per plane by running single-plane
models (``kirm_planes=(plane,)``) that share the full model's parameter
tensors, chained in plane order: that is the same arithmetic as one
three-plane ``refine``.  Because a replica can drift from the code it copies,
the worker compares every replica against the real entry point bit for bit.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from contextlib import contextmanager

import numpy as np

from kinterp import numcore as nc
from kinterp.kspace import (
    DOMAIN_KSPACE,
    denormalize,
    ifft2,
    magnitude,
    normalize,
    read_volume,
)
from kinterp.model import (
    ALL_PLANES,
    ForwardResult,
    KSpaceInterpolator,
    array_to_volume,
    from_checkpoint,
    save_params,
    total_loss,
    volume_to_array,
)
from kinterp.numcore import LrSchedule, OptimizerState, adam_step, lr_at
from kinterp.pipeline import (
    ReconResult,
    _mask_seed,
    load_manifest,
    nmse,
    psnr,
    ssim,
    zero_filled,
)
from kinterp.sampling import apply_mask, data_consistency, generate_mask

# Layer spans reported in seconds rather than milliseconds.
SECONDS_LAYERS = ("phantom.make_dataset",)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    op: int | None


class NullTracer:
    """The untraced run's stand-in: calls straight through, records nothing."""

    phase = "setup"
    op = None

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    """In-memory spans and counts; ``phase`` and ``op`` tag what follows."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[str, int, str]] = []
        self.phase = "setup"
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.phase, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index].start, self.spans[index].end = start, end

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: int) -> None:
        self.counts.append((name, int(value), self.phase))


def quantile90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(tracer: Tracer, op_name: str) -> tuple[dict[str, float], list[tuple]]:
    """Per-layer medians (the metrics) plus table rows with p90 and self time.

    A layer is summarized over its calls inside timed operations; a layer the
    operations never call (``numcore.backward`` on inference, say) is
    summarized over its set-up and check calls instead, and its table row
    names that phase.  Counts follow the same rule.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    metrics: dict[str, float] = {}
    rows = []
    op_wall = sum(s.end - s.start for s in spans if s.name == op_name)
    covered = 0.0
    for name, idx in sorted(by_name.items()):
        if name == op_name:
            continue
        in_ops = [i for i in idx if spans[i].phase == "op"]
        if in_ops:
            chosen, source = in_ops, "op"
        else:
            chosen, source = idx, "+".join(sorted({spans[i].phase for i in idx}))
        scale = 1.0 if name in SECONDS_LAYERS else 1e3
        durations = [(spans[i].end - spans[i].start) * scale for i in chosen]
        self_in_ops = sum(spans[i].end - spans[i].start - child_time[i] for i in in_ops)
        covered += self_in_ops
        unit = "s" if name in SECONDS_LAYERS else "ms"
        metrics[f"{name}_{unit}"] = statistics.median(durations)
        rows.append(
            (f"{name}_{unit}", len(chosen), source, statistics.median(durations),
             quantile90(durations), self_in_ops / op_wall if op_wall else 0.0)
        )
    counts: dict[str, dict[str, list[int]]] = {}
    for name, value, phase in tracer.counts:
        counts.setdefault(name, {}).setdefault(phase, []).append(value)
    for name, phases in sorted(counts.items()):
        if "op" in phases:
            source, values = "op", phases["op"]
        else:
            source = "+".join(sorted(phases))
            values = [v for phase in sorted(phases) for v in phases[phase]]
        metrics[name] = statistics.median(values)
        rows.append((name, len(values), source, metrics[name], quantile90(values), None))
    metrics["trace.coverage"] = covered / op_wall
    return metrics, rows


# ---- replicas -----------------------------------------------------------------


def plane_models(model: KSpaceInterpolator) -> dict[str, KSpaceInterpolator]:
    """Single-plane models sharing ``model``'s parameter tensors."""
    planes = {}
    for plane in model.config.kirm_planes:
        single = KSpaceInterpolator(dataclasses.replace(model.config, kirm_planes=(plane,)))
        single.params = {name: model.params[name] for name in single.params}
        planes[plane] = single
    return planes


def attention_scores(model: KSpaceInterpolator, n_sampled: int) -> int:
    """Attention score entries one forward computes: heads * n^2 per layer."""
    c = model.config
    sizes = [n_sampled, c.y_dim * c.t_dim]
    sizes += [len(model.plane_coords(plane)) for plane in c.kirm_planes]
    return c.n_layers * c.n_heads * sum(n * n for n in sizes)


def forward(tr: Tracer, model, planes, masked, mask) -> ForwardResult:
    """``KSpaceInterpolator.forward``, one span per stage and per plane."""
    with tr.span("model.tokenize"):
        batch = model.tokenize_kyt(masked)
        sampled, unsampled_coords = model.split_by_mask(batch, mask)
    tr.count("model.sampled_tokens", sampled.tokens.shape[0])
    tr.count("model.attn_scores", attention_scores(model, sampled.tokens.shape[0]))
    feats = tr.call("model.encode", model.encode, sampled)
    interpolated = tr.call("model.decode", model.decode, feats, unsampled_coords)
    with tr.span("model.refine"):
        current, stages = interpolated, []
        for plane in ALL_PLANES:
            if plane in planes:
                current = tr.call(f"model.kirm.{plane}", planes[plane].refine, current)[2]
            stages.append(current)
    return ForwardResult(interpolated, (stages[0], stages[1], stages[2]))


def train(tr: Tracer, cfg, out_dir) -> list[tuple]:
    """``pipeline.train`` without its argument checks; returns the loss rows."""
    train_pairs = load_manifest(cfg.manifest)["train"]
    c = cfg.model
    with nc.use_mode("train"):
        model = KSpaceInterpolator(c, seed=cfg.seed)
        planes = plane_models(model)
        tr.count("numcore.param_scalars", sum(p.size for p in model.params.values()))
        volumes = [tr.call("kspace.read_volume", read_volume, k) for _, k in train_pairs]
        schedule = LrSchedule(
            max_lr=cfg.max_lr,
            total_steps=cfg.steps,
            warmup_fraction=cfg.warmup_fraction,
            initial_div=cfg.initial_div,
            final_div=cfg.final_div,
        )
        state = OptimizerState()
        rng = np.random.default_rng(cfg.seed)
        rows = []
        params = model.parameters()
        for step in range(cfg.steps):
            volume = volumes[int(rng.integers(len(volumes)))]
            with tr.span("pipeline.step_data"):
                mask = tr.call(
                    "sampling.generate_mask", generate_mask,
                    c.y_dim, c.t_dim, cfg.r_train, _mask_seed(cfg.seed, 1, step),
                )
                masked, _ = tr.call("sampling.apply_mask", apply_mask, volume, mask)
                normed = tr.call("kspace.normalize", normalize, masked)
                divisor = normed.scale / volume.scale
                target = volume_to_array(volume) / divisor
            lr = lr_at(schedule, step)
            result = forward(tr, model, planes, normed, mask)
            total, l1v, hdrv = tr.call(
                "model.loss", total_loss, result, target, c.loss_weight_hdr, c.hdr_eps
            )
            rows.append((step, lr, l1v.item(), hdrv.item(), total.item()))
            tr.call("numcore.backward", total.backward)
            tr.call("numcore.adam", adam_step, params, [p.grad for _, p in params], state, lr)
            model.zero_grads()
        tr.call("model.save_params", save_params, model, out_dir / "checkpoint.kgin")
    return rows


def load(tr: Tracer, checkpoint):
    """``from_checkpoint`` plus the single-plane views the replicas need."""
    model = tr.call("model.from_checkpoint", from_checkpoint, checkpoint)
    tr.count("numcore.param_scalars", sum(p.size for p in model.params.values()))
    return model, plane_models(model)


def infer(tr: Tracer, model, planes, undersampled, mask) -> ReconResult:
    """``pipeline.infer`` on an already loaded model."""
    masked, _ = tr.call("sampling.apply_mask", apply_mask, undersampled, mask)
    normed = tr.call("kspace.normalize", normalize, masked)
    result = forward(tr, model, planes, normed, mask)
    estimate = array_to_volume(
        np.asarray(result.stages[2].data, dtype=np.float64), DOMAIN_KSPACE, normed.scale
    )
    consistent = tr.call("sampling.data_consistency", data_consistency, estimate, normed, mask)
    denormalized = denormalize(consistent)
    return ReconResult(
        image=tr.call("kspace.ifft2", ifft2, denormalized),
        kspace=denormalized,
        kspace_consistent=consistent,
        kspace_estimate=estimate,
        scale=normed.scale,
    )


def sequence_metrics(tr: Tracer, estimate: np.ndarray, reference: np.ndarray):
    """(nmse, ssim, psnr) of two magnitude sequences, as ``evaluate`` orders them."""
    with tr.span("pipeline.metrics"):
        return nmse(estimate, reference), ssim(estimate, reference), psnr(estimate, reference)


def evaluate(tr: Tracer, checkpoint, manifest, r_values, seed):
    """``pipeline.evaluate`` as (model rows, baseline rows) per acceleration."""
    model, planes = load(tr, checkpoint)
    pairs = load_manifest(manifest)["test"]
    model_rows, baseline_rows = [], []
    for r_index, r in enumerate(r_values):
        m_rows, b_rows = [], []
        for seq_index, (image_path, kspace_path) in enumerate(pairs):
            reference = tr.call("kspace.read_volume", read_volume, image_path)
            gt_kspace = tr.call("kspace.read_volume", read_volume, kspace_path)
            mask = tr.call(
                "sampling.generate_mask", generate_mask,
                gt_kspace.y_dim, gt_kspace.t_dim, r, _mask_seed(seed, 2 + r_index, seq_index),
            )
            masked, _ = tr.call("sampling.apply_mask", apply_mask, gt_kspace, mask)
            recon = infer(tr, model, planes, masked, mask)
            ref_mag = magnitude(reference)
            est_mag = magnitude(recon.image)
            zf_mag = magnitude(tr.call("kspace.ifft2", zero_filled, masked))
            m_rows.append(sequence_metrics(tr, est_mag, ref_mag))
            b_rows.append(sequence_metrics(tr, zf_mag, ref_mag))
        model_rows.append(m_rows)
        baseline_rows.append(b_rows)
    return model_rows, baseline_rows

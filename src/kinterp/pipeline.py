"""Training, data-consistent inference, evaluation, and image-quality metrics.

Training draws a fresh undersampling mask every step, normalizes the masked
k-space, and optimizes l1 + HDR with Adam under a one-cycle schedule (no data
consistency during training).  Inference runs the network, overwrites sampled
columns with the acquired data, denormalizes, and transforms back to the
image domain.  Metrics (PSNR / NMSE / SSIM) compare magnitude image sequences.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numcore as nc
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    TrainingError,
)
from .kspace import (
    ComplexVolume,
    DOMAIN_KSPACE,
    ifft2,
    magnitude,
    normalize,
    denormalize,
    read_volume,
)
from .model import (
    KSpaceInterpolator,
    ModelConfig,
    array_to_volume,
    from_checkpoint,
    save_params,
    total_loss,
    volume_to_array,
)
from .numcore import LrSchedule, OptimizerState, adam_step, lr_at
from .sampling import (
    SamplingMask,
    apply_mask,
    check_mask_spec,
    data_consistency,
    generate_mask,
)

SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


# ---- metrics ---------------------------------------------------------------


def _check_pair(estimate: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(estimate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if e.shape != r.shape:
        raise DimensionError(f"metric inputs differ in shape: {e.shape} vs {r.shape}")
    if e.size == 0:
        raise DimensionError("metric inputs are empty")
    return e, r


def psnr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Sequence PSNR in dB against max(reference); exact match gives +inf."""
    e, r = _check_pair(estimate, reference)
    mse = float(np.mean((e - r) ** 2))
    if mse == 0.0:
        return math.inf
    peak = float(r.max())
    if peak <= 0.0:
        raise DegenerateInputError("psnr reference has no positive peak")
    return 10.0 * math.log10(peak**2 / mse)


def nmse(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Squared error normalized by the reference energy."""
    e, r = _check_pair(estimate, reference)
    denom = float(np.sum(r**2))
    if denom == 0.0:
        raise DegenerateInputError("nmse reference has zero energy")
    return float(np.sum((e - r) ** 2) / denom)


def _box_mean(a: np.ndarray) -> np.ndarray:
    """Mean of every 7x7 window of every frame of an (X, Y, T) volume.

    Separable box sums: 7 shifted slices along X, then 7 along Y, over all
    frames at once.  Each window sum adds 49 terms directly, so no prefix-sum
    table carries rounding from one window to the next.
    """
    w = SSIM_WINDOW
    n_x, n_y = a.shape[0] - w + 1, a.shape[1] - w + 1
    cols = a[:n_x].copy()
    for i in range(1, w):
        cols += a[i : i + n_x]
    box = cols[:, :n_y].copy()
    for j in range(1, w):
        box += cols[:, j : j + n_y]
    box /= w * w
    return box


def _ssim_reference(reference: np.ndarray):
    """The half of SSIM that depends on the reference alone.

    Returns (r, span, mu_r, var_r); the window statistics are None for a
    constant reference, which :func:`_ssim_score` handles without them.
    """
    r = np.asarray(reference, dtype=np.float64)
    if r.ndim != 3:
        raise DimensionError("ssim expects (X, Y, T) magnitude volumes")
    if r.shape[0] < SSIM_WINDOW or r.shape[1] < SSIM_WINDOW:
        raise DimensionError(f"frames must be at least {SSIM_WINDOW} pixels on a side")
    span = float(r.max() - r.min())
    if span == 0.0:
        return r, span, None, None
    mu_r = _box_mean(r)
    return r, span, mu_r, _box_mean(r * r) - mu_r**2


def _ssim_score(estimate: np.ndarray, ref) -> float:
    """SSIM of ``estimate`` against reference statistics from :func:`_ssim_reference`."""
    r, span, mu_r, var_r = ref
    e, r = _check_pair(estimate, r)
    if span == 0.0:
        if float(e.max() - e.min()) == 0.0:
            return 1.0
        raise DegenerateInputError("ssim reference is constant but estimate is not")
    c1 = (SSIM_K1 * span) ** 2
    c2 = (SSIM_K2 * span) ** 2
    mu_e = _box_mean(e)
    var_e = _box_mean(e * e) - mu_e**2
    cov = _box_mean(e * r) - mu_e * mu_r
    score = ((2 * mu_e * mu_r + c1) * (2 * cov + c2)) / (
        (mu_e**2 + mu_r**2 + c1) * (var_e + var_r + c2)
    )
    return float(score.mean())


def ssim(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Mean SSIM over the 7x7 uniform windows of every frame (Wang et al. 2004).

    The dynamic range is max - min of the whole reference sequence; two
    identical constant sequences compare as 1.  The window means, variances
    and covariance are separable box sums over all frames at once.  Every
    frame has the same number of windows, so the mean over all windows equals
    the mean of the per-frame means.
    """
    e, r = _check_pair(estimate, reference)
    return _ssim_score(e, _ssim_reference(r))


def zero_filled(masked: ComplexVolume) -> ComplexVolume:
    """The no-model baseline: inverse-transform the zero-filled k-space."""
    return ifft2(masked)


# ---- manifests ---------------------------------------------------------------


def load_manifest(path: str | Path) -> dict[str, list[tuple[Path, Path]]]:
    """Parse ``<split> <image|kspace> <filename>`` lines into (image, kspace) pairs."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 text") from exc
    table: dict[str, dict[str, dict[str, Path]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("train", "test") or parts[1] not in (
            "image",
            "kspace",
        ):
            raise FormatError(f"{path}:{lineno}: bad manifest line {line!r}")
        split, kind, name = parts
        stem = name.replace(".image.kvol", "").replace(".kspace.kvol", "")
        table.setdefault(split, {}).setdefault(stem, {})[kind] = path.parent / name
    result: dict[str, list[tuple[Path, Path]]] = {}
    for split, stems in table.items():
        pairs = []
        for stem in sorted(stems):
            entry = stems[stem]
            if "image" not in entry or "kspace" not in entry:
                raise FormatError(f"{path}: sequence {stem} is missing image or kspace")
            pairs.append((entry["image"], entry["kspace"]))
        result[split] = pairs
    return result


# ---- training ---------------------------------------------------------------


@dataclass
class TrainConfig:
    """Everything a training run needs besides the output directory."""

    model: ModelConfig
    manifest: Path
    r_train: float = 4.0
    steps: int = 200
    seed: int = 0
    max_lr: float = 1e-4
    warmup_fraction: float = 0.3
    initial_div: float = 25.0
    final_div: float = 1e4
    log_interval: int = 1


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    losses: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    duration_seconds: float = 0.0


def _mask_seed(seed: int, salt: int, index: int) -> int:
    return (seed * 1_000_003 + salt * 8191 + index) % (2**63 - 1)


def write_loss_csv(rows, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "l1", "hdr", "total"])
        for step, lr, l1v, hdrv, totalv in rows:
            writer.writerow([step, repr(lr), repr(l1v), repr(hdrv), repr(totalv)])


def train(cfg: TrainConfig, out_dir: str | Path) -> TrainResult:
    """Run the masked-interpolation training loop and write checkpoint + loss log."""
    if cfg.steps < 1:
        raise ConfigError(f"training needs steps >= 1, got {cfg.steps}")
    if cfg.log_interval < 1:
        raise ConfigError(f"log interval must be >= 1, got {cfg.log_interval}")
    if cfg.seed < 0:
        raise ConfigError(f"training seed must be non-negative, got {cfg.seed}")
    check_mask_spec(cfg.model.y_dim, cfg.model.t_dim, cfg.r_train)
    schedule = LrSchedule(
        max_lr=cfg.max_lr,
        total_steps=cfg.steps,
        warmup_fraction=cfg.warmup_fraction,
        initial_div=cfg.initial_div,
        final_div=cfg.final_div,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(cfg.manifest)
    train_pairs = manifest.get("train", [])
    if not train_pairs:
        raise FormatError(f"manifest {cfg.manifest} has no train sequences")

    started = time.monotonic()
    with nc.use_mode("train"):
        model = KSpaceInterpolator(cfg.model, seed=cfg.seed)
        volumes = [read_volume(k_path) for _, k_path in train_pairs]
        for v in volumes:
            model._check_volume(v)
        c = cfg.model
        state = OptimizerState()
        rng = np.random.default_rng(cfg.seed)
        rows = []
        params = model.parameters()
        for step in range(cfg.steps):
            volume = volumes[int(rng.integers(len(volumes)))]
            mask = generate_mask(c.y_dim, c.t_dim, cfg.r_train, _mask_seed(cfg.seed, 1, step))
            masked, _ = apply_mask(volume, mask)
            normed = normalize(masked)
            divisor = normed.scale / volume.scale
            target = volume_to_array(volume) / divisor
            lr = lr_at(schedule, step)
            result = model.forward(normed, mask)
            total, l1v, hdrv = total_loss(
                result, target, cfg.model.loss_weight_hdr, cfg.model.hdr_eps
            )
            row = (step, lr, l1v.item(), hdrv.item(), total.item())
            if not all(math.isfinite(x) for x in row[2:]):
                raise TrainingError(f"non-finite loss at step {step}")
            total.backward()
            adam_step(params, [p.grad for _, p in params], state, lr)
            model.zero_grads()
            rows.append(row)
        checkpoint_path = out_dir / "checkpoint.kgin"
        save_params(model, checkpoint_path)
    log_path = out_dir / "loss_log.csv"
    logged = [
        r for r in rows if r[0] % cfg.log_interval == 0 or r[0] == cfg.steps - 1
    ]
    write_loss_csv(logged, log_path)
    return TrainResult(checkpoint_path, log_path, rows, time.monotonic() - started)


# ---- inference ----------------------------------------------------------------


@dataclass
class ReconResult:
    """Reconstruction plus the intermediate k-space frames tests care about."""

    image: ComplexVolume
    kspace: ComplexVolume
    kspace_consistent: ComplexVolume
    kspace_estimate: ComplexVolume
    scale: float


def infer(
    model: KSpaceInterpolator | str | Path,
    undersampled: ComplexVolume,
    mask: SamplingMask,
) -> ReconResult:
    """Interpolate, enforce data consistency, denormalize, go to image space."""
    if not isinstance(model, KSpaceInterpolator):
        model = from_checkpoint(model)
    # The forward checks extents too, but normalize would reject an all-zero
    # input of the wrong shape first, with a less telling error.
    model._check_volume(undersampled)
    masked, _ = apply_mask(undersampled, mask)
    normed = normalize(masked)
    result = model.forward(normed, mask)
    estimate = array_to_volume(result.stages[2].data, DOMAIN_KSPACE, normed.scale)
    consistent = data_consistency(estimate, normed, mask)
    denormalized = denormalize(consistent)
    return ReconResult(
        image=ifft2(denormalized),
        kspace=denormalized,
        kspace_consistent=consistent,
        kspace_estimate=estimate,
        scale=normed.scale,
    )


# ---- evaluation ----------------------------------------------------------------


@dataclass
class SequenceMetrics:
    sequence: str
    nmse: float
    ssim: float
    psnr: float


@dataclass
class ReconReport:
    """Per-sequence metrics and aggregates for one acceleration factor."""

    r_nominal: float
    rows: list[SequenceMetrics] = field(default_factory=list)

    def aggregate(self) -> dict[str, tuple[float, float]]:
        out = {}
        for name in ("nmse", "ssim", "psnr"):
            vals = np.array([getattr(row, name) for row in self.rows])
            out[name] = (float(vals.mean()), float(vals.std()))
        return out


def evaluate(
    checkpoint: str | Path,
    manifest: str | Path,
    r_values: list[float],
    seed: int = 0,
) -> tuple[list[ReconReport], list[ReconReport]]:
    """Score the checkpoint and the zero-filled baseline on the test split.

    Returns (model_reports, baseline_reports), one report per acceleration.
    Every R is checked against the mask rules before the first forward.  Each
    sequence's two volumes are read once, and its reference magnitude and
    SSIM statistics are computed once and shared by every row that scores it.
    """
    if not r_values:
        raise ConfigError("evaluation needs at least one acceleration factor")
    model = from_checkpoint(checkpoint)
    for r in r_values:
        check_mask_spec(model.config.y_dim, model.config.t_dim, r)
    pairs = load_manifest(manifest).get("test", [])
    if not pairs:
        raise FormatError(f"manifest {manifest} has no test sequences")
    model_reports = [ReconReport(r) for r in r_values]
    baseline_reports = [ReconReport(r) for r in r_values]
    for seq_index, (image_path, kspace_path) in enumerate(pairs):
        reference = read_volume(image_path)
        gt_kspace = read_volume(kspace_path)
        ref_mag = magnitude(reference)
        ref_ssim = _ssim_reference(ref_mag)
        name = image_path.name.replace(".image.kvol", "")
        for r_index, r in enumerate(r_values):
            mask = generate_mask(
                gt_kspace.y_dim,
                gt_kspace.t_dim,
                r,
                _mask_seed(seed, 2 + r_index, seq_index),
            )
            masked, _ = apply_mask(gt_kspace, mask)
            recon = infer(model, masked, mask)
            scored = (
                (model_reports[r_index], recon.image),
                (baseline_reports[r_index], zero_filled(masked)),
            )
            for report, estimate in scored:
                mag = magnitude(estimate)
                report.rows.append(
                    SequenceMetrics(
                        name, nmse(mag, ref_mag), _ssim_score(mag, ref_ssim), psnr(mag, ref_mag)
                    )
                )
    return model_reports, baseline_reports


def write_report_csv(reports: list[ReconReport], path: str | Path) -> None:
    """Per-sequence rows followed by one mean+-std aggregate row per acceleration."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["R", "sequence", "nmse", "ssim", "psnr"])
        for report in reports:
            for row in report.rows:
                writer.writerow(
                    [f"{report.r_nominal:g}", row.sequence, repr(row.nmse), repr(row.ssim), repr(row.psnr)]
                )
        for report in reports:
            agg = report.aggregate()
            writer.writerow(
                [f"{report.r_nominal:g}", "aggregate"]
                + [f"{agg[k][0]:.6g}+-{agg[k][1]:.3g}" for k in ("nmse", "ssim", "psnr")]
            )


# ---- frame export ----------------------------------------------------------------


def write_pgm_frames(volume: ComplexVolume, out_dir: str | Path) -> list[Path]:
    """Write each frame's magnitude as an 8-bit binary PGM, min-max scaled."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mag = magnitude(volume)
    paths = []
    for t in range(volume.t_dim):
        frame = mag[:, :, t]
        lo, hi = float(frame.min()), float(frame.max())
        if hi > lo:
            scaled = np.round((frame - lo) / (hi - lo) * 255.0)
        else:
            scaled = np.zeros_like(frame)
        # PGM raster is row-major top to bottom; emit y as rows.
        raster = scaled.astype(np.uint8).T
        path = out_dir / f"frame_{t:03d}.pgm"
        with open(path, "wb") as fh:
            fh.write(f"P5\n{raster.shape[1]} {raster.shape[0]}\n255\n".encode())
            fh.write(raster.tobytes())
        paths.append(path)
    return paths

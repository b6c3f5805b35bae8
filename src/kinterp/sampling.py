"""Cartesian ky-t undersampling: mask generation, application, data consistency.

Masks sample whole ky lines per frame.  Each frame gets exactly round(Y/R)
lines: an always-sampled low-frequency band around ky = Y//2 plus lines drawn
without replacement from a variable-density distribution via systematic
(stratified) inverse-CDF sampling.  The stratum phase advances by the golden
ratio each frame, so consecutive frames sample complementary line sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError, FormatError, SpecError
from .kspace import DOMAIN_KSPACE, ComplexVolume

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Variable-density falloff: sampling weight for a line at distance d from the
# k-space center is (1 + d/Y) ** -WEIGHT_FALLOFF.
WEIGHT_FALLOFF = 2.0

KMASK_HEADER = "KMASK v1"


@dataclass
class SamplingMask:
    """Binary ky-t sampling pattern; ``bits[ky, t]`` is 1 where a line is kept."""

    bits: np.ndarray
    r_nominal: float
    seed: int = 0

    def __post_init__(self):
        self.bits = np.ascontiguousarray(np.asarray(self.bits, dtype=np.uint8))
        if self.bits.ndim != 2:
            raise DimensionError("mask bits must be a 2D (Y, T) array")
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise SpecError("mask bits must be 0 or 1")
        if not (np.isfinite(self.r_nominal) and self.r_nominal > 0):
            raise SpecError(f"nominal acceleration must be positive, got {self.r_nominal}")

    @property
    def keep(self) -> np.ndarray:
        """[T, Y] bools in the volume's (t, ky) order: True where a line is kept."""
        return self.bits.T.astype(bool)

    @property
    def y_dim(self) -> int:
        return self.bits.shape[0]

    @property
    def t_dim(self) -> int:
        return self.bits.shape[1]


def center_band(y_dim: int) -> np.ndarray:
    """Indices of the always-sampled low-frequency band (width max(1, Y//16))."""
    width = max(1, y_dim // 16)
    start = y_dim // 2 - width // 2
    return np.arange(start, start + width)


def check_mask_spec(y_dim: int, t_dim: int, r_nominal: float) -> None:
    """Raise :class:`SpecError` unless a (Y, T) mask at acceleration R can be drawn."""
    if y_dim < 8:
        raise SpecError(f"mask generation needs Y >= 8, got {y_dim}")
    if t_dim < 1:
        raise SpecError(f"mask generation needs T >= 1, got {t_dim}")
    if not r_nominal > 1:
        raise SpecError(f"acceleration R must exceed 1, got {r_nominal}")
    if r_nominal > y_dim:
        raise SpecError(f"acceleration R={r_nominal} cannot exceed Y={y_dim}")


def generate_mask(y_dim: int, t_dim: int, r_nominal: float, seed: int) -> SamplingMask:
    """Draw a deterministic variable-density ky-t mask for acceleration R."""
    check_mask_spec(y_dim, t_dim, r_nominal)
    if seed < 0:
        raise SpecError(f"mask seed must be non-negative, got {seed}")
    lines_per_frame = max(1, round(y_dim / r_nominal))
    center = y_dim // 2
    band = center_band(y_dim)
    if len(band) > lines_per_frame:
        by_distance = sorted(band, key=lambda ky: (abs(ky - center), ky))
        band = np.array(sorted(by_distance[:lines_per_frame]))
    n_random = lines_per_frame - len(band)

    bits = np.zeros((y_dim, t_dim), dtype=np.uint8)
    bits[band, :] = 1
    if n_random > 0:
        rest = np.array(sorted(set(range(y_dim)) - set(band.tolist())))
        weights = (1.0 + np.abs(rest - center) / y_dim) ** -WEIGHT_FALLOFF
        cdf = np.cumsum(weights / weights.sum())
        phase0 = float(np.random.default_rng(seed).random())
        for t in range(t_dim):
            phase = (phase0 + t * _GOLDEN) % 1.0
            points = (np.arange(n_random) + phase) / n_random
            picks = np.searchsorted(cdf, points, side="right")
            chosen: set[int] = set()
            for p in picks:
                p = int(min(p, len(rest) - 1))
                while p in chosen:  # collision: walk to the next free line
                    p = (p + 1) % len(rest)
                chosen.add(p)
            bits[rest[sorted(chosen)], t] = 1
    return SamplingMask(bits, float(r_nominal), seed)


def _check_mask_dims(v: ComplexVolume, mask: SamplingMask) -> None:
    if v.y_dim != mask.y_dim or v.t_dim != mask.t_dim:
        raise DimensionError(
            f"mask ({mask.y_dim}, {mask.t_dim}) does not match volume "
            f"({v.y_dim}, {v.t_dim})"
        )


def apply_mask(v: ComplexVolume, mask: SamplingMask) -> tuple[ComplexVolume, np.ndarray]:
    """Zero unsampled (ky, t) columns; sampled columns are copied bit-exactly.

    Returns the masked volume plus ``mask.keep``, the [T, Y] sampled flags.
    """
    if v.domain != DOMAIN_KSPACE:
        raise DomainError("apply_mask expects a k-space volume")
    _check_mask_dims(v, mask)
    keep = mask.keep
    masked = ComplexVolume(np.where(keep[:, :, None, None], v.data, 0.0), v.domain, v.scale)
    return masked, keep


def data_consistency(
    estimate: ComplexVolume, sampled: ComplexVolume, mask: SamplingMask
) -> ComplexVolume:
    """Replace the estimate at sampled columns with the acquired data, bit-exactly."""
    if estimate.domain != DOMAIN_KSPACE or sampled.domain != DOMAIN_KSPACE:
        raise DomainError("data consistency operates on k-space volumes")
    if estimate.data.shape != sampled.data.shape:
        raise DimensionError("estimate and sampled volumes must share a shape")
    _check_mask_dims(estimate, mask)
    keep = mask.keep[:, :, None, None]
    return ComplexVolume(
        np.where(keep, sampled.data, estimate.data), estimate.domain, estimate.scale
    )


def save_mask(mask: SamplingMask, path: str | Path) -> None:
    """Write the .kmask text format: a header line then T rows of Y '0'/'1' chars."""
    lines = [f"{KMASK_HEADER} {mask.y_dim} {mask.t_dim} {mask.r_nominal:g} {mask.seed}"]
    for t in range(mask.t_dim):
        lines.append("".join("1" if b else "0" for b in mask.bits[:, t]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_mask(path: str | Path) -> SamplingMask:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: mask file is not UTF-8 text") from exc
    if not lines:
        raise FormatError(f"{path}: empty mask file")
    head = lines[0].split()
    if len(head) != 6 or " ".join(head[:2]) != KMASK_HEADER:
        raise FormatError(f"{path}: bad mask header {lines[0]!r}")
    try:
        y_dim, t_dim = int(head[2]), int(head[3])
        r_nominal = float(head[4])
        seed = int(head[5])
    except ValueError as exc:
        raise FormatError(f"{path}: unparsable mask header {lines[0]!r}") from exc
    if min(y_dim, t_dim) < 1:
        raise FormatError(f"{path}: non-positive extent in mask header")
    if not (math.isfinite(r_nominal) and r_nominal > 0):
        raise FormatError(f"{path}: bad acceleration {head[4]!r} in mask header")
    rows = lines[1:]
    if len(rows) != t_dim:
        raise FormatError(f"{path}: expected {t_dim} rows, found {len(rows)}")
    for t, row in enumerate(rows):
        if len(row) != y_dim or set(row) - {"0", "1"}:
            raise FormatError(f"{path}: bad mask row {t}")
    flat = np.frombuffer("".join(rows).encode(), dtype=np.uint8) - ord("0")
    return SamplingMask(flat.reshape(t_dim, y_dim).T, r_nominal, seed)

"""Synthetic dynamic 2D+t phantoms: beating soft-edged ellipses with phase.

Frames are rendered at 4x supersampling and box-averaged down, which
anti-aliases the ellipse boundaries; a small smooth edge profile keeps the
spectrum strongly low-frequency dominated.  Each ellipse is evaluated only on
the supersampled pixels of its per-frame support box: beyond the box its edge
ramp is exactly 0, so the frames are bitwise those of a whole-grid sum.  All
motion terms scale with the motion amplitude, so amplitude 0 yields a
bitwise-static sequence, and one beat spans the T frames of a sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpecError
from .kspace import ComplexVolume, DOMAIN_IMAGE, fft2, magnitude, write_volume

SUPERSAMPLE = 4
_FOV_MARGIN = 0.05
# Magnitude bound of the random low-order polynomial phase coefficients; kept
# mild so the complex images stay close to Hermitian-symmetric in k-space.
PHASE_COEFF_RANGE = 0.8
# Width of the smooth ellipse edge, in pixels.
EDGE_SOFTNESS = 1.5
# Per-sequence parameter ranges of a dataset: ellipse count (inclusive) and
# motion amplitude.
N_ELLIPSES_RANGE = (2, 6)
MOTION_RANGE = (0.05, 0.11)


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of one synthetic sequence; geometry is drawn from ``seed``."""

    x_dim: int
    y_dim: int
    t_dim: int
    seed: int
    n_ellipses: int = 4
    motion_amplitude: float = 0.08


def _check_extents(x_dim: int, y_dim: int, t_dim: int) -> None:
    if min(x_dim, y_dim) < 8 or t_dim < 2:
        raise SpecError("phantom needs X, Y >= 8 and T >= 2")


def _validate(spec: PhantomSpec) -> None:
    if spec.seed < 0:
        raise SpecError(f"phantom seed must be non-negative, got {spec.seed}")
    _check_extents(spec.x_dim, spec.y_dim, spec.t_dim)
    if not 2 <= spec.n_ellipses <= 6:
        raise SpecError(f"n_ellipses must lie in [2, 6], got {spec.n_ellipses}")
    if not 0.0 <= spec.motion_amplitude <= 0.5:
        raise SpecError(f"motion amplitude {spec.motion_amplitude} outside [0, 0.5]")


def _draw_geometry(spec: PhantomSpec, rng: np.random.Generator) -> list[dict]:
    """Draw per-ellipse geometry and motion; reject specs that cannot stay in view."""
    a_m = spec.motion_amplitude
    ellipses = []
    for i in range(spec.n_ellipses):
        if i == 0:  # large, nearly static outer body
            rx, ry = rng.uniform(0.26, 0.36, size=2)
            move_scale = 0.15
            pulse = rng.uniform(-0.4, 0.4)
        elif i == 1:  # inner ventricle-like ellipse: strong contraction
            rx, ry = rng.uniform(0.09, 0.15, size=2)
            move_scale = float(rng.uniform(0.4, 0.8))
            pulse = float(rng.uniform(-3.5, -2.0))
        else:
            rx, ry = rng.uniform(0.05, 0.12, size=2)
            move_scale = float(rng.uniform(0.3, 1.0))
            pulse = float(rng.uniform(-0.8, 0.8))
        theta = float(rng.uniform(0.0, math.pi))
        direction = rng.uniform(0.0, 2 * math.pi)
        phase_c = float(rng.uniform(0.0, 2 * math.pi))
        phase_r = float(rng.uniform(0.0, 2 * math.pi))
        reach = max(rx, ry) * (1.0 + abs(pulse) * a_m) + a_m * move_scale
        lo, hi = _FOV_MARGIN + reach, 1.0 - _FOV_MARGIN - reach
        if lo > hi:
            raise SpecError(
                f"ellipse {i} cannot fit in the field of view with motion "
                f"amplitude {a_m}"
            )
        cx, cy = rng.uniform(lo, hi, size=2)
        ellipses.append(
            {
                "cx": float(cx),
                "cy": float(cy),
                "rx": float(rx),
                "ry": float(ry),
                "theta": theta,
                "dir": (math.cos(direction), math.sin(direction)),
                "move": move_scale,
                "pulse": pulse,
                "phase_c": phase_c,
                "phase_r": phase_r,
            }
        )
    return ellipses


def _frame_params(spec: PhantomSpec, ellipses: list[dict], t: int) -> list[dict]:
    tau = 2 * math.pi * t / spec.t_dim
    a_m = spec.motion_amplitude
    frames = []
    for e in ellipses:
        wobble = a_m * e["move"] * math.sin(tau + e["phase_c"])
        squeeze = 1.0 + a_m * e["pulse"] * math.sin(tau + e["phase_r"])
        frames.append(
            {
                "cx": e["cx"] + wobble * e["dir"][0],
                "cy": e["cy"] + wobble * e["dir"][1],
                "rx": e["rx"] * squeeze,
                "ry": e["ry"] * squeeze,
                "theta": e["theta"],
            }
        )
    return frames


def _check_in_view(params: list[dict], t: int) -> None:
    # _draw_geometry keeps each centre `reach` inside the margin, and `reach`
    # bounds every frame's wobble plus squeezed radius: only a collapse is left.
    for i, p in enumerate(params):
        if max(p["rx"], p["ry"]) <= 0:
            raise SpecError(f"ellipse {i} collapsed at frame {t}")


def _support_slice(center: float, half: float, n: int) -> slice:
    """Indices of the n pixel centres ``(i + 0.5) / n`` that can lie within
    ``half`` of ``center``, widened by two pixels and clipped to the grid."""
    lo = math.floor((center - half) * n - 0.5) - 2
    hi = math.ceil((center + half) * n - 0.5) + 2
    return slice(max(lo, 0), min(hi + 1, n))


def _render_frame(u, v, params: list[dict], amps, edge: float) -> np.ndarray:
    """Sum the soft-edged ellipses of one frame on the supersampled grid.

    ``u`` and ``v`` are the pixel centres along X and Y.  An ellipse with
    edge width ``w`` is nonzero only where ``q < 1 + w``, a set within
    ``(1 + w) * hypot(rx cos, ry sin)`` of ``cx`` along u and
    ``(1 + w) * hypot(rx sin, ry cos)`` of ``cy`` along v, so it is evaluated
    on that box alone.  Outside it a whole-grid sum would add ``amp * 0``, a
    signed zero, which leaves every entry as it was (the frame starts at +0
    and a sum that cancels rounds to +0).  Inside it each entry is the same
    sequence of operations as on a meshgrid, with the offsets ``u - cx`` and
    ``v - cy`` broadcast from a column and a row.  The frame is therefore
    bitwise the whole-grid one.
    """
    xx, yy = len(u), len(v)
    frame = np.zeros((xx, yy), dtype=np.complex128)
    for p, amp in zip(params, amps):
        ct, st = math.cos(p["theta"]), math.sin(p["theta"])
        w = max(edge / (0.5 * (p["rx"] + p["ry"])), 1e-6)
        hu = (1.0 + w) * math.hypot(p["rx"] * ct, p["ry"] * st)
        hv = (1.0 + w) * math.hypot(p["rx"] * st, p["ry"] * ct)
        box = (_support_slice(p["cx"], hu, xx), _support_slice(p["cy"], hv, yy))
        if box[0].start >= box[0].stop or box[1].start >= box[1].stop:
            continue  # off the grid; a negative stop would wrap around
        du, dv = u[box[0], None] - p["cx"], v[None, box[1]] - p["cy"]
        a = (du * ct + dv * st) / p["rx"]
        b = (-du * st + dv * ct) / p["ry"]
        q = np.sqrt(a * a + b * b)
        ramp = np.clip((1.0 + w - q) / (2.0 * w), 0.0, 1.0)
        frame[box] += amp * (ramp * ramp * (3.0 - 2.0 * ramp))
    return frame


def generate(spec: PhantomSpec) -> ComplexVolume:
    """Render the sequence as an image-domain complex volume (max |.| <= 1).

    Each ellipse is rendered only on the supersampled pixels of its per-frame
    support box (``_render_frame``); the volume is bitwise the one a sum over
    the whole grid gives, since everywhere else that sum adds signed zeros.
    """
    _validate(spec)
    rng = np.random.default_rng(spec.seed)
    ellipses = _draw_geometry(spec, rng)
    mags = rng.uniform(0.3, 1.0, size=spec.n_ellipses)
    mags *= 0.9 / mags.sum()
    phases = rng.uniform(-math.pi, math.pi, size=spec.n_ellipses)
    amps = mags * np.exp(1j * phases)

    sup = SUPERSAMPLE
    xx, yy = spec.x_dim * sup, spec.y_dim * sup
    u = (np.arange(xx) + 0.5) / xx
    v = (np.arange(yy) + 0.5) / yy
    edge = EDGE_SOFTNESS * 0.5 * (1.0 / spec.x_dim + 1.0 / spec.y_dim)

    ub = (np.arange(spec.x_dim) + 0.5) / spec.x_dim
    vb = (np.arange(spec.y_dim) + 0.5) / spec.y_dim
    ubb, vbb = np.meshgrid(ub, vb, indexing="ij")
    coeff = rng.uniform(-PHASE_COEFF_RANGE, PHASE_COEFF_RANGE, size=6)
    psi = (
        coeff[0]
        + coeff[1] * ubb
        + coeff[2] * vbb
        + coeff[3] * ubb * vbb
        + coeff[4] * ubb**2
        + coeff[5] * vbb**2
    )
    phase_map = np.exp(1j * psi)

    data = np.zeros((spec.t_dim, spec.y_dim, spec.x_dim, 2))
    for t in range(spec.t_dim):
        params = _frame_params(spec, ellipses, t)
        _check_in_view(params, t)
        frame = _render_frame(u, v, params, amps, edge)
        frame = frame.reshape(spec.x_dim, sup, spec.y_dim, sup).mean(axis=(1, 3))
        frame = frame * phase_map
        data[t, :, :, 0] = frame.real.T
        data[t, :, :, 1] = frame.imag.T
    return ComplexVolume(data, DOMAIN_IMAGE, 1.0)


@dataclass(frozen=True)
class DatasetSpec:
    """Volume extents of every sequence in a dataset."""

    x_dim: int
    y_dim: int
    t_dim: int


def _float32_quantize(v: ComplexVolume) -> ComplexVolume:
    return ComplexVolume(v.data.astype(np.float32).astype(np.float64), v.domain, v.scale)


def make_dataset(
    out_dir: str | Path,
    n_train: int,
    n_test: int,
    dataset_spec: DatasetSpec,
    seed: int,
) -> Path:
    """Write normalized image/k-space .kvol pairs plus a split-labeled manifest.

    Train and test sequences use disjoint geometry seeds.  Each stored k-space
    volume is the exact transform of its stored (float32-quantized) image.
    Returns the manifest path; lines read ``<split> <image|kspace> <filename>``.
    """
    if n_train < 1 or n_test < 0:
        raise SpecError("dataset needs n_train >= 1 and n_test >= 0")
    if seed < 0:
        raise SpecError(f"dataset seed must be non-negative, got {seed}")
    _check_extents(dataset_spec.x_dim, dataset_spec.y_dim, dataset_spec.t_dim)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lo_e, hi_e = N_ELLIPSES_RANGE
    lines = []
    for split, count, offset in (("train", n_train, 0), ("test", n_test, n_train)):
        for i in range(count):
            item_seed = seed * 1_000_003 + offset + i
            pspec = PhantomSpec(
                x_dim=dataset_spec.x_dim,
                y_dim=dataset_spec.y_dim,
                t_dim=dataset_spec.t_dim,
                seed=item_seed,
                n_ellipses=int(rng.integers(lo_e, hi_e + 1)),
                motion_amplitude=float(rng.uniform(*MOTION_RANGE)),
            )
            image = generate(pspec)
            peak = float(np.max(magnitude(image)))
            image = ComplexVolume(image.data / peak, DOMAIN_IMAGE, 1.0)
            image = _float32_quantize(image)
            kvol = fft2(image)
            image_name = f"{split}_{i:03d}.image.kvol"
            kspace_name = f"{split}_{i:03d}.kspace.kvol"
            write_volume(image, out_dir / image_name)
            write_volume(kvol, out_dir / kspace_name)
            lines.append(f"{split} image {image_name}")
            lines.append(f"{split} kspace {kspace_name}")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest

"""Masked k-space autoencoder with three-plane refinement, losses, checkpoints.

Every (ky, t) point of a 2D+t k-space volume becomes one token whose channels
are the interleaved re/im values along kx.  An encoder sees only the sampled
tokens; a decoder of the same width fills the unsampled positions from a
single shared (zero-initialized) mask token plus fixed sinusoidal position
embeddings and projects back to k-space.  Three sequential refinement blocks
then re-tokenize the estimate along the ky-t, kx-t and (patched) kx-ky planes
and add residual corrections; their output projections start at zero, so at
initialization refinement is the exact identity.  Each plane is one split
of the [T, Y, X] grid of (re, im) pairs and one order of its axes; a
``permute`` node each way moves the volume to that plane's tokens and back.
Token rows move by gathers placed by the mask's flags: the sampled rows are
one gather out of the ky-t grid, and the decoder's input is one gather that
puts each sampled feature, or the mask token where a row is flagged
unsampled, at its grid row.
Checkpoints load through ``load_params`` alone, which checks every tensor's
name and shape against ``param_table`` before reading its values, and builds
no more of that table than the file has room to name.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ConfigError, DegenerateInputError, DimensionError, DomainError, FormatError
from . import numcore as nc
from .kspace import DOMAIN_KSPACE, ComplexVolume
from .numcore import Tensor
from .sampling import SamplingMask

PLANE_KY_T = "ky-t"
PLANE_KX_T = "kx-t"
PLANE_KX_KY = "kx-ky"
ALL_PLANES = (PLANE_KY_T, PLANE_KX_T, PLANE_KX_KY)

_INIT_STD = 0.02

_CKPT_MAGIC = b"KGIN"
_CKPT_VERSION = 1
_CKPT_HEAD = struct.Struct("<4sI")
# ModelConfig's fields in declaration order: the ints as u32, kirm_planes as a
# u32 whose bit i is ALL_PLANES[i], and the two floats as f64.  A field added
# to ModelConfig makes both pack and the strict zip fail until the format
# gives it a place.
_CKPT_CONFIG = struct.Struct("<9Idd")
# Every tensor entry holds at least a name length and a rank.
_CKPT_MIN_ENTRY = struct.calcsize("<2I")


def _check_hdr_eps(eps: float) -> None:
    # Written as "not in range" so that NaN fails it too.
    if not 0 < eps < math.inf:
        raise ConfigError(f"hdr_eps must be positive and finite, got {eps}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss hyperparameters; validated on construction."""

    x_dim: int
    y_dim: int
    t_dim: int
    embed_dim: int = 32
    n_heads: int = 4
    n_layers: int = 2
    mlp_ratio: int = 4
    kirm_patch: int = 4
    kirm_planes: tuple[str, ...] = ALL_PLANES
    loss_weight_hdr: float = 1.0
    hdr_eps: float = 0.5

    def __post_init__(self):
        if min(self.x_dim, self.y_dim, self.t_dim) < 1:
            raise ConfigError("volume extents must be positive")
        if self.embed_dim < 4 or self.embed_dim % 4 != 0:
            raise ConfigError("embed_dim must be a positive multiple of 4")
        if self.n_heads < 1 or self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.n_layers < 1:
            raise ConfigError("n_layers must be at least 1")
        if self.mlp_ratio < 1:
            raise ConfigError("mlp_ratio must be at least 1")
        unknown = set(self.kirm_planes) - set(ALL_PLANES)
        if unknown or len(set(self.kirm_planes)) != len(self.kirm_planes):
            raise ConfigError(f"bad refinement plane list {self.kirm_planes}")
        ordered = tuple(p for p in ALL_PLANES if p in self.kirm_planes)
        object.__setattr__(self, "kirm_planes", ordered)
        if self.kirm_patch < 1:
            raise ConfigError(f"kirm_patch must be at least 1, got {self.kirm_patch}")
        if PLANE_KX_KY in self.kirm_planes:
            if self.x_dim % self.kirm_patch or self.y_dim % self.kirm_patch:
                raise ConfigError(
                    f"patch size {self.kirm_patch} must divide X={self.x_dim} "
                    f"and Y={self.y_dim}"
                )
        _check_hdr_eps(self.hdr_eps)
        # Written as "not in range" so that NaN fails it too.
        if not 0 <= self.loss_weight_hdr < math.inf:
            raise ConfigError("loss_weight_hdr must be finite and non-negative")


def tiny_config(x_dim: int, y_dim: int, t_dim: int, **overrides) -> ModelConfig:
    """Desk-scale preset: 32-dim embeddings, 2 layers, 4 heads."""
    return ModelConfig(x_dim, y_dim, t_dim, **overrides)


def full_config(x_dim: int, y_dim: int, t_dim: int, **overrides) -> ModelConfig:
    """Full-size preset: 512-dim embeddings, 8 layers, 8 heads."""
    base = dict(embed_dim=512, n_heads=8, n_layers=8)
    base.update(overrides)
    return ModelConfig(x_dim, y_dim, t_dim, **base)


@dataclass
class TokenBatch:
    """Token rows of one plane, one [rows, channels] tensor."""

    tokens: Tensor


@dataclass
class ForwardResult:
    """Interpolator output and the three refinement stages (as [T,Y,X,2] tensors)."""

    interpolated: Tensor
    stages: tuple[Tensor, Tensor, Tensor]


def volume_to_array(v: ComplexVolume) -> np.ndarray:
    """A copy of the volume's real [T, Y, X, 2] array."""
    return v.data.copy()


def array_to_volume(arr: np.ndarray, domain: str, scale: float = 1.0) -> ComplexVolume:
    return ComplexVolume(arr, domain, scale)


# Wavelength ceiling of the sinusoidal tables.  The classic 10000 suits
# thousand-token sequences; on desk-scale grids (tens of positions) it would
# leave most frequency channels near-constant, so keep it proportionate.
POS_EMBED_BASE = 256.0


def _sincos_table(n_positions: int, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = 1.0 / (POS_EMBED_BASE ** (np.arange(half) / half))
    args = np.outer(np.arange(n_positions), freqs)
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def _plane_pos_table(n_inner: int, n_outer: int, dim: int) -> np.ndarray:
    """Fixed embeddings for a plane flattened with the first coordinate innermost."""
    inner = _sincos_table(n_inner, dim // 2)
    outer = _sincos_table(n_outer, dim // 2)
    return np.concatenate(
        [np.tile(inner, (n_outer, 1)), np.repeat(outer, n_inner, axis=0)], axis=1
    )


def _plane_recipe(
    x_dim: int, y_dim: int, t_dim: int, patch: int, plane: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A plane as a split of the [T, Y, X] grid of (re, im) pairs and the
    order of its axes in the tokens: the first two index the token rows, the
    second fastest, and the rest make a token's channels, pair by pair.
    ky-t and kx-t tokens are lines along kx and ky; kx-ky tokens are p x p
    (ky, kx) patches carrying every frame."""
    if plane == PLANE_KY_T:
        return (t_dim, y_dim, x_dim), (0, 1, 2)
    if plane == PLANE_KX_T:
        return (t_dim, y_dim, x_dim), (0, 2, 1)
    if plane == PLANE_KX_KY:
        p = patch
        return (t_dim, y_dim // p, p, x_dim // p, p), (1, 3, 2, 4, 0)
    raise ConfigError(f"unknown plane {plane!r}")


def _plane_dims(
    x_dim: int, y_dim: int, t_dim: int, patch: int, plane: str
) -> tuple[int, int, int]:
    """A plane's token grid (inner, outer), inner coordinate fastest, and the
    channels of one token."""
    split, axes = _plane_recipe(x_dim, y_dim, t_dim, patch, plane)
    outer, inner, *rest = (split[a] for a in axes)
    return inner, outer, 2 * math.prod(rest)


class _PlaneLayout(NamedTuple):
    """A plane's ``nc.permute`` arguments (split, axes, shape) both ways, and
    its position codes, shared read-only by every model of one geometry."""

    to_tokens: tuple[tuple[int, ...], ...]  # [T, Y, X, 2] -> [tokens, channels]
    to_volume: tuple[tuple[int, ...], ...]  # [tokens, channels] -> [T, Y, X, 2]
    pos: np.ndarray  # [tokens, embed_dim]


# Three planes per geometry: those of the last ten or so geometries stay.
@functools.lru_cache(maxsize=32)
def _plane_layout(
    x_dim: int, y_dim: int, t_dim: int, patch: int, embed_dim: int, plane: str
) -> _PlaneLayout:
    split, axes = _plane_recipe(x_dim, y_dim, t_dim, patch, plane)
    inner, outer, chan = _plane_dims(x_dim, y_dim, t_dim, patch, plane)
    back = tuple(map(axes.index, range(len(axes))))
    to_volume = (tuple(split[a] for a in axes), back, (t_dim, y_dim, x_dim, 2))
    pos = _plane_pos_table(inner, outer, embed_dim)
    pos.setflags(write=False)
    return _PlaneLayout((split, axes, (inner * outer, chan)), to_volume, pos)


# A parameter's (shape, init).
_Entry = tuple[tuple[int, ...], str]


# A layer's parameters, by name under its prefix, in the order the two
# sublayer nodes take them.
_ATTENTION_SUBLAYER = (
    "ln1.gain", "ln1.bias", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
    "attn.wv", "attn.bv", "attn.wo", "attn.bo",
)
_MLP_SUBLAYER = ("ln2.gain", "ln2.bias", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def _stack_entries(c: ModelConfig, prefix: str) -> Iterator[tuple[str, _Entry]]:
    d, hidden = c.embed_dim, c.embed_dim * c.mlp_ratio
    for i in range(c.n_layers):
        base = f"{prefix}.{i}"
        for ln in ("ln1", "ln2"):
            yield f"{base}.{ln}.gain", ((d,), "ones")
            yield f"{base}.{ln}.bias", ((d,), "zeros")
        for proj in ("wq", "wk", "wv", "wo"):
            yield f"{base}.attn.{proj}", ((d, d), "normal")
        for bias in ("bq", "bk", "bv", "bo"):
            yield f"{base}.attn.{bias}", ((d,), "zeros")
        yield f"{base}.mlp.w1", ((d, hidden), "normal")
        yield f"{base}.mlp.b1", ((hidden,), "zeros")
        yield f"{base}.mlp.w2", ((hidden, d), "normal")
        yield f"{base}.mlp.b2", ((d,), "zeros")
    yield f"{prefix}.norm.gain", ((d,), "ones")
    yield f"{prefix}.norm.bias", ((d,), "zeros")


def _param_entries(c: ModelConfig) -> Iterator[tuple[str, _Entry]]:
    """``param_table``'s entries one at a time, so a reader can stop early."""
    d = c.embed_dim
    chan = _plane_dims(c.x_dim, c.y_dim, c.t_dim, c.kirm_patch, PLANE_KY_T)[2]
    yield "kgin.proj_in.w", ((chan, d), "normal")
    yield "kgin.proj_in.b", ((d,), "zeros")
    yield "kgin.mask_token", ((d,), "zeros")
    yield from _stack_entries(c, "kgin.enc")
    yield from _stack_entries(c, "kgin.dec")
    yield "kgin.proj_out.w", ((d, chan), "normal")
    yield "kgin.proj_out.b", ((chan,), "zeros")
    for plane in c.kirm_planes:
        chan = _plane_dims(c.x_dim, c.y_dim, c.t_dim, c.kirm_patch, plane)[2]
        prefix = f"kirm.{plane}"
        yield f"{prefix}.proj_in.w", ((chan, d), "normal")
        yield f"{prefix}.proj_in.b", ((d,), "zeros")
        yield from _stack_entries(c, prefix)
        yield f"{prefix}.proj_out.w", ((d, chan), "zeros")
        yield f"{prefix}.proj_out.b", ((chan,), "zeros")


def param_table(c: ModelConfig) -> dict[str, _Entry]:
    """Every parameter as name -> (shape, init), in creation and draw order.

    ``init`` is "normal" (clipped N(0, 0.02) draw), "zeros" or "ones".  Nothing
    is allocated, so a checkpoint header can be checked against it first.
    """
    return dict(_param_entries(c))


class KSpaceInterpolator:
    """The full interpolation model: tokenizer, encoder/decoder, refinement."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        if seed < 0:
            raise ConfigError(f"model seed must be non-negative, got {seed}")
        self._rng = np.random.default_rng(seed)
        fill = {"normal": self._draw, "zeros": np.zeros, "ones": np.ones}
        table = param_table(config)
        self._build(config, ((name, fill[init](shape)) for name, (shape, init) in table.items()))

    def _build(self, config: ModelConfig, arrays: Iterable[tuple[str, np.ndarray]]) -> None:
        """Set the config and one parameter per (name, array) pair, in order.

        ``__init__`` passes a generator of seeded draws, so only one float64
        draw is alive at a time; ``from_checkpoint`` passes the file's tensors,
        so loading draws nothing.
        """
        self.config = config
        # Normalized k-space entries are O(1/sqrt(XY)) away from the center;
        # lift them so projected features and position codes share magnitude.
        self._token_scale = float(math.sqrt(config.x_dim * config.y_dim))
        self.params: dict[str, Tensor] = {
            name: Tensor(arr, requires_grad=True) for name, arr in arrays
        }

    def _draw(self, shape: tuple[int, ...]) -> np.ndarray:
        draw = self._rng.normal(0.0, _INIT_STD, size=shape)
        return np.clip(draw, -2 * _INIT_STD, 2 * _INIT_STD)

    # ---- introspection -------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _dims(self, plane: str) -> tuple[int, int, int]:
        """``_plane_dims`` of a plane this model runs: ky-t or an enabled
        refinement plane.  Any other plane raises ``ConfigError``."""
        c = self.config
        if plane not in (PLANE_KY_T,) + c.kirm_planes:
            raise ConfigError(
                f"plane {plane!r} is not run by this model (refinement planes {c.kirm_planes})"
            )
        return _plane_dims(c.x_dim, c.y_dim, c.t_dim, c.kirm_patch, plane)

    def _layout(self, plane: str) -> _PlaneLayout:
        self._dims(plane)  # raises for a plane this model does not run
        c = self.config
        return _plane_layout(c.x_dim, c.y_dim, c.t_dim, c.kirm_patch, c.embed_dim, plane)

    def plane_coords(self, plane: str) -> np.ndarray:
        inner, outer, _ = self._dims(plane)
        n = np.arange(inner * outer)
        return np.stack([n % inner, n // inner], axis=1)

    # ---- transformer plumbing ------------------------------------------

    def _stack(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        for i in range(self.config.n_layers):
            base = f"{prefix}.{i}"
            attn = [p[f"{base}.{name}"] for name in _ATTENTION_SUBLAYER]
            mlp = [p[f"{base}.{name}"] for name in _MLP_SUBLAYER]
            x = nc.attention_sublayer(x, *attn, heads=self.config.n_heads)
            x = nc.mlp_sublayer(x, *mlp)
        return nc.layernorm(x, p[f"{prefix}.norm.gain"], p[f"{prefix}.norm.bias"])

    # ---- tokenization ---------------------------------------------------

    def _check_volume(self, v: ComplexVolume) -> None:
        if v.domain != DOMAIN_KSPACE:
            raise DomainError(f"the model expects a k-space volume, got {v.domain}")
        c = self.config
        if (v.x_dim, v.y_dim, v.t_dim) != (c.x_dim, c.y_dim, c.t_dim):
            raise DimensionError(
                f"volume ({v.x_dim}, {v.y_dim}, {v.t_dim}) does not match the "
                f"configured ({c.x_dim}, {c.y_dim}, {c.t_dim})"
            )

    def _plane_raw(self, y: Tensor, plane: str) -> Tensor:
        return nc.permute(y, *self._layout(plane).to_tokens)

    def _plane_restore(self, tokens: Tensor, plane: str) -> Tensor:
        return nc.permute(tokens, *self._layout(plane).to_volume)

    def _embed(self, x: Tensor, plane: str, prefix: str) -> Tensor:
        """A [T,Y,X,2] volume as ``plane`` tokens: lifted, projected, position-coded."""
        p = self.params
        raw = self._plane_raw(x, plane) * self._token_scale
        tokens = nc.linear(raw, p[f"{prefix}.proj_in.w"], p[f"{prefix}.proj_in.b"])
        return tokens + self._layout(plane).pos

    def _project(self, h: Tensor, plane: str, prefix: str) -> Tensor:
        """``plane`` features projected to token channels and put back as [T,Y,X,2]."""
        p = self.params
        out = nc.linear(h, p[f"{prefix}.proj_out.w"], p[f"{prefix}.proj_out.b"])
        return self._plane_restore(out, plane)

    def tokenize_kyt(self, k: ComplexVolume) -> TokenBatch:
        """Project each (ky, t) line onto an embedding and add its position code."""
        self._check_volume(k)
        tokens = self._embed(Tensor(k.data), PLANE_KY_T, "kgin")
        return TokenBatch(tokens)

    def split_by_mask(
        self, batch: TokenBatch, mask: SamplingMask
    ) -> tuple[TokenBatch, np.ndarray]:
        """The sampled rows of a full ky-t batch, in grid order, and the
        unsampled flags: one bool per (ky, t) row, ky fastest."""
        c = self.config
        if (mask.y_dim, mask.t_dim) != (c.y_dim, c.t_dim):
            raise DimensionError("mask extents do not match the model configuration")
        unsampled = ~mask.keep.reshape(-1)
        rows = np.flatnonzero(~unsampled)
        d = batch.tokens.shape[1]
        return TokenBatch(nc.gather(batch.tokens, rows[:, None] * d + np.arange(d))), unsampled

    # ---- the interpolation network --------------------------------------

    def encode(self, sampled: TokenBatch) -> TokenBatch:
        if sampled.tokens.shape[0] == 0:
            raise DegenerateInputError("encoder needs at least one sampled token")
        feats = self._stack(sampled.tokens, "kgin.enc")
        return TokenBatch(feats)

    def decode(self, feats: TokenBatch, unsampled: np.ndarray) -> Tensor:
        """Fill the unsampled grid rows with the mask token and decode to k-space.

        ``unsampled`` is the flag vector ``split_by_mask`` returns; its False
        rows take the feature rows in order.
        """
        c = self.config
        n = feats.tokens.shape[0]
        unsampled = np.asarray(unsampled)
        if (
            unsampled.dtype != bool
            or unsampled.shape != (c.y_dim * c.t_dim,)
            or np.count_nonzero(~unsampled) != n
        ):
            raise DimensionError(
                f"decode needs {c.y_dim * c.t_dim} bool row flags, {n} of them False"
            )
        # Grid row -> its sampled feature, or row n: the mask token.
        source = np.where(unsampled, n, np.cumsum(~unsampled) - 1)
        codes = np.where(unsampled[:, None], self._layout(PLANE_KY_T).pos, 0.0)
        d = c.embed_dim
        mask_token = nc.reshape(self.params["kgin.mask_token"], (1, d))
        rows = nc.concat_rows([feats.tokens, mask_token])
        seq = nc.gather(rows, source[:, None] * d + np.arange(d)) + codes
        return self._project(self._stack(seq, "kgin.dec"), PLANE_KY_T, "kgin")

    def refine(self, interpolated: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Apply the three residual refinement blocks (disabled planes: identity)."""
        current = interpolated
        stages = []
        for plane in ALL_PLANES:
            if plane in self.config.kirm_planes:
                prefix = f"kirm.{plane}"
                feats = self._stack(self._embed(current, plane, prefix), prefix)
                current = current + self._project(feats, plane, prefix)
            stages.append(current)
        return stages[0], stages[1], stages[2]

    def forward(self, masked: ComplexVolume, mask: SamplingMask) -> ForwardResult:
        """Tokenize -> encode sampled -> decode all -> refine."""
        batch = self.tokenize_kyt(masked)
        sampled, unsampled = self.split_by_mask(batch, mask)
        feats = self.encode(sampled)
        interpolated = self.decode(feats, unsampled)
        return ForwardResult(interpolated, self.refine(interpolated))


# ---- losses --------------------------------------------------------------


def total_loss(
    result: ForwardResult, target, weight: float, eps: float
) -> tuple[Tensor, Tensor, Tensor]:
    """Interpolation l1 plus ``weight`` times the refinement HDR term, and
    the two terms, as (total, l1, hdr).

    l1 is the mean absolute error of the interpolated volume over every real
    scalar.  HDR is the sum over stages of the mean of ``r * r``, with each
    stage's ratio ``r = (stage - target) * (1 / (|stage| + eps))``; that
    denominator is a frozen constant, through which no gradient flows.

    The total is one tape node whose operands are the interpolated volume
    and the stages, in that order; l1 and hdr record nothing.  Every value
    and gradient is bitwise that of the single-op composition in
    ``tests/oracles.py``, in its elementwise order: the interpolated
    volume's gradient is ``sign(d) * (g / size)`` with ``d`` its difference
    from the target, and a stage's ``((c * r) + (c * r)) * (1 / denom)``
    with ``c = (g * weight) / size``.  The node keeps only ``d``, each ratio
    and each reciprocal denominator.
    """
    _check_hdr_eps(eps)
    pred, stages = result.interpolated, result.stages
    if not stages:
        raise DimensionError("total_loss needs at least one stage")
    parents = (pred, *stages)
    dtype = nc.active_dtype()
    target = np.asarray(target, dtype=dtype)
    if any(t.shape != target.shape for t in parents):
        raise DimensionError(f"loss operands do not all match the target's {target.shape}")
    w = dtype(weight)
    d = pred.data - target
    l1 = np.abs(d).mean()
    ratios, inverses, hdr = [], [], None
    for stage in stages:
        inv = 1.0 / (np.abs(stage.data) + eps)
        r = stage.data - target
        r *= inv
        term = (r * r).mean()
        hdr = term if hdr is None else hdr + term
        ratios.append(r)
        inverses.append(inv)

    def backward(g):
        dpred = np.sign(d)
        dpred *= g / d.size
        grads = [dpred]
        c = (g * w) / target.size
        for r, inv in zip(ratios, inverses):
            cr = r * c
            cr += cr
            cr *= inv
            grads.append(cr)
        return grads

    total = nc._result(l1 + hdr * w, parents, backward)
    return total, Tensor(l1), Tensor(hdr)


# ---- checkpoints -----------------------------------------------------------


_CKPT_FIELDS = tuple(f.name for f in fields(ModelConfig))


def _header_values(config: ModelConfig) -> tuple:
    values = {name: getattr(config, name) for name in _CKPT_FIELDS}
    values["kirm_planes"] = sum(1 << ALL_PLANES.index(p) for p in config.kirm_planes)
    return tuple(values.values())


def _header_config(values: tuple, path: Path) -> ModelConfig:
    kwargs = dict(zip(_CKPT_FIELDS, values, strict=True))
    mask = kwargs["kirm_planes"]
    if mask >> len(ALL_PLANES):
        raise FormatError(f"{path}: plane bitmask {mask:#x} sets a bit no plane owns")
    kwargs["kirm_planes"] = tuple(p for i, p in enumerate(ALL_PLANES) if mask >> i & 1)
    try:
        return ModelConfig(**kwargs)
    except ConfigError as exc:
        raise FormatError(f"{path}: invalid embedded config: {exc}") from exc


def save_params(model: KSpaceInterpolator, path: str | Path) -> None:
    """Write config plus all named tensors (float32 payloads) to ``path``."""
    chunks = [
        _CKPT_HEAD.pack(_CKPT_MAGIC, _CKPT_VERSION),
        _CKPT_CONFIG.pack(*_header_values(model.config)),
        struct.pack("<I", len(model.params)),
    ]
    for name, tensor in model.params.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", tensor.data.ndim))
        chunks.append(struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape))
        chunks.append(tensor.data.astype("<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def _unpack(fmt: str, blob: bytes, at: int, path: Path) -> tuple[tuple, int]:
    """The values of ``fmt`` at offset ``at`` in ``blob``, and the offset after them."""
    end = at + struct.calcsize(fmt)
    if end > len(blob):
        raise FormatError(f"{path}: truncated checkpoint")
    return struct.unpack_from(fmt, blob, at), end


def load_params(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Parse a checkpoint; malformed content raises :class:`FormatError`.

    Each tensor's name and shape are checked against ``param_table`` of the
    embedded config before its payload is read, so a header cannot make the
    loader read or allocate more than the model it names; the tensors come
    back in table order.  The tensor count must fit in the bytes left, and at
    most count + 1 table entries are built to compare against it, so the
    file's size bounds the work whatever the header's ``n_layers``.  A NaN or
    infinite value in any tensor is rejected here rather than failing later as
    a non-finite volume.
    """
    path = Path(path)
    blob = path.read_bytes()
    (magic, version), at = _unpack(_CKPT_HEAD.format, blob, 0, path)
    if magic != _CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _CKPT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    values, at = _unpack(_CKPT_CONFIG.format, blob, at, path)
    config = _header_config(values, path)
    (count,), at = _unpack("<I", blob, at, path)
    if count * _CKPT_MIN_ENTRY > len(blob) - at:
        raise FormatError(f"{path}: truncated checkpoint")
    expected = dict(itertools.islice(_param_entries(config), count + 1))
    if count != len(expected):
        raise FormatError(f"{path}: checkpoint tensor names do not match the model")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,), at = _unpack("<I", blob, at, path)
        (encoded,), at = _unpack(f"<{name_len}s", blob, at, path)
        try:
            name = encoded.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name is not UTF-8") from exc
        # Distinct names from the table, as many as it has: every name once.
        if name not in expected or name in tensors:
            raise FormatError(f"{path}: checkpoint tensor names do not match the model")
        shape = expected[name][0]
        (rank,), at = _unpack("<I", blob, at, path)
        dims, at = _unpack(f"<{rank}I", blob, at, path)
        if dims != shape:
            raise FormatError(f"{path}: checkpoint tensor {name} has shape {dims}")
        n_values = math.prod(shape)
        if at + 4 * n_values > len(blob):
            raise FormatError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(blob, dtype="<f4", count=n_values, offset=at).reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: checkpoint tensor {name} has non-finite values")
        tensors[name] = arr.copy()
        at += 4 * n_values
    if at != len(blob):
        raise FormatError(f"{path}: trailing bytes after tensor table")
    return config, {name: tensors[name] for name in expected}


def from_checkpoint(path: str | Path) -> KSpaceInterpolator:
    """Construct a model from a checkpoint file.

    ``load_params`` checks the tensor table against the header's config, so a
    header alone cannot make it allocate a model.  The parameters are the
    file's tensors cast to the active dtype; nothing is drawn at random.
    """
    config, tensors = load_params(path)
    model = KSpaceInterpolator.__new__(KSpaceInterpolator)
    model._build(config, tensors.items())
    return model

"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force so it cannot share an algorithm
(and therefore a bug) with the library code it checks: the DFT is a direct
matrix product, the metrics loop over explicit windows, and gradients come
from central finite differences.  ``xyt_volume`` builds a volume from
separate (X, Y, T) re/im arrays by an explicit transpose, so tests state
their inputs in the axis order they index.  ``unfused_linear`` and
``unfused_attention`` spell the fused ``numcore`` ops as compositions of
elementary tape ops, whose gradients the FD suite checks one by one.  Three of
those ops, ``matmul``, ``transpose`` and ``softmax_lastaxis``, serve only as
such references, so they live here rather than in the engine; they build
tape nodes from numcore's own ``_coerce``, ``_result``, ``_accumulate`` and
``_unbroadcast``.  ``reference_gelu``, ``reference_layernorm``,
``reference_attention`` and ``scatter_gather`` are the engine's earlier
bodies of ``gelu``, ``layernorm``, ``attention`` and the plane gather: one
temporary per expression, a fresh array per attention chunk and a scatter
for backward.  The engine's in-place ops, reused buffers and ``permute``
must match them bitwise.
``frozen_hdr_loss`` and ``frozen_total_loss`` are the model's losses with
the HDR denominators held at values captured once (``hdr_denominators``),
the objective whose finite differences the loss's stop-gradient must match.
``loop_adam_step`` is Adam as one update per tensor, the reference for
``numcore.adam_step``'s flat buffers.  ``full_grid_frame`` is the phantom
renderer's earlier body, every ellipse evaluated on the whole supersampled
meshgrid; ``phantom._render_frame``, which evaluates each ellipse on its
support box from a broadcast column and row, must match it bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from kinterp import numcore as nc
from kinterp.errors import DimensionError
from kinterp.kspace import ComplexVolume
from kinterp.model import l1_loss
from kinterp.numcore import Tensor, _accumulate, _coerce, _result, _unbroadcast

FD_STEP = 1e-6


def xyt_volume(re, im, domain: str, scale: float = 1.0) -> ComplexVolume:
    """A volume whose ``re``/``im`` views equal the given (X, Y, T) arrays."""
    return ComplexVolume(np.stack([re.T, im.T], axis=-1), domain, scale)


def matmul(a, b) -> Tensor:
    """Batched matrix product; leading batch dims broadcast."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError("matmul requires tensors of rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as exc:
        raise DimensionError(f"matmul batch dims not broadcastable: {a.shape} @ {b.shape}") from exc
    data = a.data @ b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _result(data, (a, b), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    inverse = tuple(int(i) for i in np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))

    def backward(g):
        _accumulate(x, g.transpose(inverse))

    return _result(data, (x,), backward)


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max subtracted first)."""
    x = _coerce(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(x, (g - dot) * data)

    return _result(data, (x,), backward)


def scatter_gather(x: Tensor, index) -> Tensor:
    """A flat-index gather whose backward scatters with ``np.add.at`` into
    -0.0: the plane gather before ``numcore.permute``, which reads the
    gradient back through the inverse table and must match it bitwise."""
    x = _coerce(x)
    idx = np.asarray(index, dtype=np.intp)
    data = x.data.reshape(-1)[idx]

    def backward(g):
        flat = np.full(x.size, -0.0, dtype=x.data.dtype)
        np.add.at(flat, idx.reshape(-1), g.reshape(-1))
        _accumulate(x, flat.reshape(x.shape))

    return _result(data, (x,), backward)


def reference_gelu(x: Tensor) -> Tensor:
    """``numcore.gelu`` written as whole-array expressions, one temporary each."""
    x = _coerce(x)
    v = x.data
    inner = nc._GELU_C * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)

    def backward(g):
        d_inner = nc._GELU_C * (1.0 + 3 * 0.044715 * v**2)
        local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner
        _accumulate(x, g * local)

    return _result(data, (x,), backward)


def reference_layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``numcore.layernorm`` through ``np.mean``/``np.var`` and whole-array
    expressions, one temporary each."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + nc.LAYERNORM_EPS)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, (gy - m1 - xhat * m2) * inv)
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=reduce_axes))
        _accumulate(bias, g.sum(axis=reduce_axes))

    return _result(data, (x, gain, bias), backward)


def reference_attention(q, k, v, heads: int) -> Tensor:
    """``numcore.attention`` with a fresh array per chunk in backward and D
    as the whole ``(dP * P).sum(axis=-1)``; same chunks, same forward."""
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    n, d = q.shape
    dh = d // heads
    scale = q.data.dtype.type(1.0 / math.sqrt(dh))
    rows = max(1, nc.ATTENTION_BLOCK // (heads * n))
    spans = [(s, min(s + rows, n)) for s in range(0, n, rows)]

    def split(a):
        return a.reshape(n, heads, dh).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(n, d)

    qs, kh, vh = split(q.data * scale), split(k.data), split(v.data)
    kt = kh.transpose(0, 2, 1)
    data = np.empty((n, d), dtype=q.data.dtype)
    kept = None
    lse = np.empty((heads, n, 1), dtype=q.data.dtype)
    for s, e in spans:
        p = qs[:, s:e] @ kt
        m = p.max(axis=-1, keepdims=True)
        p -= m
        np.exp(p, out=p)
        l = p.sum(axis=-1, keepdims=True)
        o = p @ vh
        o /= l
        data.reshape(n, heads, dh)[s:e] = o.transpose(1, 0, 2)
        if s == 0 and heads * n <= nc.ATTENTION_BLOCK:
            p /= l
            kept = p
        else:
            np.add(m, np.log(l), out=lse[:, s:e])

    def backward(g):
        gh = split(g)
        dq = np.empty_like(g)
        for s, e in spans:
            if s == 0 and kept is not None:
                p = kept
            else:
                p = qs[:, s:e] @ kt
                p -= lse[:, s:e]
                np.exp(p, out=p)
            gc = gh[:, s:e]
            dv_part = p.transpose(0, 2, 1) @ gc
            gs = gc @ vh.transpose(0, 2, 1)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            dq.reshape(n, heads, dh)[s:e] = (gs @ kh).transpose(1, 0, 2)
            dkt_part = qs[:, s:e].transpose(0, 2, 1) @ gs
            if s == 0:
                dv, dkt = dv_part, dkt_part
            else:
                dv += dv_part
                dkt += dkt_part
        dq *= scale
        _accumulate(v, merge(dv))
        _accumulate(q, dq)
        _accumulate(k, merge(dkt.transpose(0, 2, 1)))

    return _result(data, (q, k, v), backward)


def unfused_linear(x, w, b):
    """``numcore.linear`` as ``matmul`` then a broadcast ``add``."""
    return nc.add(matmul(x, w), b)


def unfused_attention(q, k, v, heads: int):
    """``numcore.attention`` as reshape/transpose/matmul/mul/softmax nodes."""
    n, d = q.shape
    dh = d // heads

    def split(t):
        return transpose(nc.reshape(t, (n, heads, dh)), (1, 0, 2))

    scores = nc.mul(matmul(split(q), transpose(split(k), (0, 2, 1))), 1.0 / math.sqrt(dh))
    out = matmul(softmax_lastaxis(scores), split(v))
    return nc.reshape(transpose(out, (1, 0, 2)), (n, d))


def hdr_denominators(stages, eps: float) -> list[np.ndarray]:
    """The per-stage denominators |stage| + eps that ``model.hdr_loss`` freezes."""
    return [np.abs(stage.data) + eps for stage in stages]


def frozen_hdr_loss(stages, target, denominators) -> Tensor:
    """``model.hdr_loss`` with each stage's denominator given, in the same ops
    and order, so at the capture point both return the same value."""
    total = None
    for stage, denom in zip(stages, denominators):
        ratio = (stage - target) * (1.0 / denom)
        term = nc.mean_all(ratio * ratio)
        total = term if total is None else total + term
    return total


def frozen_total_loss(result, target, weight: float, denominators) -> Tensor:
    """``model.total_loss``'s total with the HDR denominators given."""
    l1 = l1_loss(result.interpolated, target)
    hdr = frozen_hdr_loss(result.stages, target, denominators)
    if weight == 0.0:
        return l1
    return l1 + weight * hdr


@dataclass
class LoopAdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def loop_adam_step(params, grads, state: LoopAdamState, lr: float) -> None:
    """Adam on (name, array) pairs, in place, one tensor at a time."""
    state.step += 1
    b1, b2 = nc.ADAM_BETA1, nc.ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for (name, p), g in zip(params, grads):
        if g is None:
            g = np.zeros_like(p)
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + nc.ADAM_EPS)


def full_grid_frame(u, v, params, amps, edge: float) -> np.ndarray:
    """One phantom frame with every ellipse evaluated at every grid point."""
    uu, vv = np.meshgrid(u, v, indexing="ij")
    frame = np.zeros(uu.shape, dtype=np.complex128)
    for p, amp in zip(params, amps):
        du, dv = uu - p["cx"], vv - p["cy"]
        ct, st = math.cos(p["theta"]), math.sin(p["theta"])
        a = (du * ct + dv * st) / p["rx"]
        b = (-du * st + dv * ct) / p["ry"]
        q = np.sqrt(a * a + b * b)
        w = max(edge / (0.5 * (p["rx"] + p["ry"])), 1e-6)
        ramp = np.clip((1.0 + w - q) / (2.0 * w), 0.0, 1.0)
        frame += amp * (ramp * ramp * (3.0 - 2.0 * ramp))
    return frame


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b)) / denom)


def fd_gradient(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the scalar function f at every entry."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    return grad


def fd_at(f, x: np.ndarray, flat_index: int, h: float = FD_STEP) -> float:
    """Central finite difference of f along one flattened coordinate of x."""
    xp = np.array(x, dtype=np.float64)
    xm = xp.copy()
    xp.reshape(-1)[flat_index] += h
    xm.reshape(-1)[flat_index] -= h
    return (f(xp) - f(xm)) / (2 * h)


def direct_dft2(vol: np.ndarray) -> np.ndarray:
    """Centered orthonormal 2D DFT per frame, as an explicit matrix product."""
    x = np.asarray(vol, dtype=np.complex128)
    n_x, n_y, _ = x.shape
    jx = np.arange(n_x) - n_x // 2
    jy = np.arange(n_y) - n_y // 2
    ex = np.exp(-2j * np.pi * np.outer(jx, jx) / n_x)
    ey = np.exp(-2j * np.pi * np.outer(jy, jy) / n_y)
    return np.einsum("km,ln,mnt->klt", ex, ey, x) / math.sqrt(n_x * n_y)


def brute_psnr(estimate: np.ndarray, reference: np.ndarray) -> float:
    err = float(np.mean((estimate - reference) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(float(reference.max()) ** 2 / err)


def brute_nmse(estimate: np.ndarray, reference: np.ndarray) -> float:
    return float(np.sum((estimate - reference) ** 2) / np.sum(reference**2))


def brute_ssim(
    estimate: np.ndarray,
    reference: np.ndarray,
    window: int = 7,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Sliding 7x7 uniform-window SSIM, written as explicit python loops."""
    span = float(reference.max() - reference.min())
    c1, c2 = (k1 * span) ** 2, (k2 * span) ** 2
    n_x, n_y, n_t = reference.shape
    frame_means = []
    for t in range(n_t):
        values = []
        for i in range(n_x - window + 1):
            for j in range(n_y - window + 1):
                a = estimate[i : i + window, j : j + window, t]
                b = reference[i : i + window, j : j + window, t]
                mu_a, mu_b = a.mean(), b.mean()
                var_a, var_b = a.var(), b.var()
                cov = ((a - mu_a) * (b - mu_b)).mean()
                values.append(
                    ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
                )
        frame_means.append(np.mean(values))
    return float(np.mean(frame_means))

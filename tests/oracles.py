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
tape nodes from numcore's own ``_coerce``, ``_result`` and ``_unbroadcast``,
and their backward closures return one gradient per operand, as the
engine's do.  ``composed_attention_sublayer`` and ``composed_mlp_sublayer``
are the model's layers as the single-op nodes they recorded before
numcore's two sublayer nodes, which must match them bitwise; ``gelu`` and
``attention`` are nodes built from numcore's bodies of those ops, which
only these compositions and the tests run.  ``reference_gelu``,
``reference_layernorm`` and ``scatter_gather`` are the engine's earlier
bodies of gelu, layernorm and the plane gather: one temporary per expression
(layernorm's row means and column sums the engine's matvecs) and a scatter
for backward; ``reference_attention`` is attention's algebra with a fresh
array per chunk and per product, and ``attention_shifts`` its rule for when
the row max is subtracted, stated through ``np.linalg.norm``.  The engine's
in-place ops, reused buffers and ``permute`` must match them bitwise.
``exact_attention_gradients`` is attention's dq and dk in ``np.longdouble``
with the error scale each entry is held to, the accuracy contract for
gradients that need not round as the unfused composition does.
``l1_loss``, ``hdr_loss`` and ``composed_total_loss`` are
``model.total_loss`` as the sub, ``abs_``, mul, ``mean_all`` and add nodes
it recorded before its one node, which must match them bitwise; ``abs_``
and ``mean_all`` serve only these compositions and the gradient checks, so
they live here too.  ``frozen_hdr_loss`` and ``frozen_total_loss`` are the
same compositions with the HDR denominators held at values captured once
(``hdr_denominators``), the objective whose finite differences the loss's
stop-gradient must match.
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
from kinterp import DimensionError
from kinterp.kspace import ComplexVolume
from kinterp.numcore import Tensor, _coerce, _result, _unbroadcast

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
        return (
            _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape),
            _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape),
        )

    return _result(data, (a, b), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    inverse = tuple(int(i) for i in np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return _result(data, (x,), backward)


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max subtracted first)."""
    x = _coerce(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return ((g - dot) * data,)

    return _result(data, (x,), backward)


def scatter_gather(x: Tensor, index) -> Tensor:
    """A flat-index gather whose backward scatters with ``np.add.at`` into
    -0.0: the plane gather before ``numcore.permute``, which transposes
    (re, im) pairs both ways and must match it bitwise, given index tables
    written from each plane's coordinates."""
    x = _coerce(x)
    idx = np.asarray(index, dtype=np.intp)
    data = x.data.reshape(-1)[idx]

    def backward(g):
        flat = np.full(x.size, -0.0, dtype=x.data.dtype)
        np.add.at(flat, idx.reshape(-1), g.reshape(-1))
        return (flat.reshape(x.shape),)

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
        return (g * local,)

    return _result(data, (x,), backward)


def reference_layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``numcore.layernorm`` as whole-array expressions, one temporary each,
    with its reductions: each row's mean a matvec against a vector of
    1 / dim, and each column's sum a ones vector times the rows."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    dim = x.shape[-1]
    lead = (*x.shape[:-1], 1)
    avg = np.full(dim, 1 / dim, dtype=x.data.dtype)
    ones = np.ones(x.size // dim, dtype=x.data.dtype)

    def row_means(a):
        return (a.reshape(-1, dim) @ avg).reshape(lead)

    def column_sums(a):
        return ones @ a.reshape(-1, dim)

    centered = x.data - row_means(x.data)
    inv = 1.0 / np.sqrt(row_means(centered * centered) + nc.LAYERNORM_EPS)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        gy = g * gain.data
        dx = (gy - row_means(gy) - xhat * row_means(gy * xhat)) * inv
        return dx, column_sums(g * xhat), column_sums(g)

    return _result(data, (x, gain, bias), backward)


def attention_shifts(q: np.ndarray, k: np.ndarray, heads: int) -> bool:
    """Whether ``numcore``'s attention subtracts each row's max before the
    exp: with one key, or when the bound max |q_i| max |k_j| / (sqrt(d/heads)
    ln 2) on every base-2 score, over every head and in the arrays'
    precision, is above ``nc.SCORE_BOUND`` or is not finite."""
    n, d = q.shape
    dh = d // heads
    scale = q.dtype.type(1.0 / (math.sqrt(dh) * math.log(2.0)))

    def largest_norm(a):
        with np.errstate(over="ignore"):
            return np.linalg.norm(a.reshape(n, heads, dh), axis=-1).max()

    return n == 1 or not largest_norm(q * scale) * largest_norm(k) <= nc.SCORE_BOUND


def reference_attention(q, k, v, heads: int) -> Tensor:
    """``numcore``'s attention body with a fresh array for every chunk and
    every product in place of its reused buffers and in-place passes: the
    same chunks and the same algebra, base-2 scores from q scaled by
    1 / (sqrt(d/heads) ln 2) and exponentiated by ``exp2``, the row sums
    carried by the ones columns of ``[k | 1]`` and ``[v | 1]``, D a matvec
    of ``dO * O``'s per-head rows against ones, every score-shaped product
    against a C-contiguous transposed operand, and the row max subtracted
    only where ``attention_shifts``."""
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    n, d = q.shape
    dh = d // heads
    dtype = q.data.dtype
    scale = dtype.type(1.0 / math.sqrt(dh))
    scale2 = dtype.type(1.0 / (math.sqrt(dh) * math.log(2.0)))
    shift = attention_shifts(q.data, k.data, heads)
    rows = max(1, nc.ATTENTION_BLOCK // (heads * n))
    spans = [(s, min(s + rows, n)) for s in range(0, n, rows)]

    def split(a):
        return a.reshape(n, heads, dh).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(n, d)

    def widened(a, column):
        return np.concatenate([a, column], axis=-1)

    def transposed(a):
        return a.transpose(0, 2, 1).copy()

    ones = np.ones((heads, n, 1), dtype=dtype)
    qs, kh = split(q.data * scale2), split(k.data)
    kx, vx = widened(kh, ones), widened(split(v.data), ones)
    outs, kept, inv_l = [], None, None
    neg_lse = np.zeros((heads, n, 1), dtype=dtype)
    for s, e in spans:
        scores = qs[:, s:e] @ transposed(kh)
        m = scores.max(axis=-1, keepdims=True) if shift else dtype.type(0)
        p = np.exp2(scores - m)
        ol = p @ vx
        l = ol[..., dh:]
        outs.append(ol[..., :dh] / l)
        if s == 0 and heads * n <= nc.ATTENTION_BLOCK:
            kept, inv_l = p, 1 / l
        else:
            neg_lse[:, s:e] = -(m + np.log2(l))
    data = merge(np.concatenate(outs, axis=1))

    def backward(g):
        if n == 1:
            return np.zeros_like(g), np.zeros_like(g), g
        # D = rowsum(dO * O) per head, as a matvec over [n * heads, dh] rows.
        d_rows = (g * data).reshape(n * heads, dh) @ np.ones(dh, dtype=dtype)
        gx = widened(split(g), -d_rows.reshape(n, heads).T[..., None])
        if kept is not None:
            r = kept.shape[1]
            gx = np.concatenate([gx[:, :r] * inv_l, gx[:, r:]], axis=1)
        qx = widened(qs, neg_lse)
        dq_parts, dv, dkt = [], None, None
        for s, e in spans:
            if s == 0 and kept is not None:
                p = kept
            else:
                p = np.exp2(qx[:, s:e] @ transposed(kx))
            gc = gx[:, s:e]
            dv_part = p.transpose(0, 2, 1) @ gc[..., :dh]
            gs = (gc @ transposed(vx)) * p
            dq_parts.append(gs @ kh)
            dkt_part = qs[:, s:e].transpose(0, 2, 1) @ gs
            dv = dv_part if dv is None else dv + dv_part
            dkt = dkt_part if dkt is None else dkt + dkt_part
        dq = merge(np.concatenate(dq_parts, axis=1)) * scale
        dk = merge(dkt.transpose(0, 2, 1)) * dtype.type(math.log(2.0))
        return dq, dk, merge(dv)

    return _result(data, (q, k, v), backward)


def exact_attention_gradients(q, k, v, g, heads: int):
    """dq and dk of attention under the upstream gradient ``g``, computed in
    ``np.longdouble`` from the given values, and the scale each entry's
    rounding error is held to.

    With P the softmax, ``s`` the op's score scale and M = |g| |v|^T per
    head, an entry of dS = P * (g v^T - rowsum(P * g v^T)) is bounded by
    A = P * (M + rowsum(P * M)), so dq's scale is s A |k| and dk's is
    s A^T |q|: a kernel whose dq and dk stay within c eps of them rounds
    only the terms the gradient is made of."""
    n, d = q.shape
    dh = d // heads
    s = np.longdouble(q.dtype.type(1.0 / math.sqrt(dh)))

    def split(a):
        return np.asarray(a, dtype=np.longdouble).reshape(n, heads, dh).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(n, d)

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scores = (qh @ kh.transpose(0, 2, 1)) * s
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = gh @ vh.transpose(0, 2, 1)
    ds = p * (dp - (p * dp).sum(axis=-1, keepdims=True))
    m = np.abs(gh) @ np.abs(vh).transpose(0, 2, 1)
    a = p * (m + (p * m).sum(axis=-1, keepdims=True))
    return (
        merge(s * (ds @ kh)),
        merge(s * (ds.transpose(0, 2, 1) @ qh)),
        merge(s * (a @ np.abs(kh))),
        merge(s * (a.transpose(0, 2, 1) @ np.abs(qh))),
    )


def gelu(x: Tensor) -> Tensor:
    """``numcore``'s gelu body as a node of its own: the model runs it only
    inside the MLP sublayer."""
    x = _coerce(x)
    data, backward = nc._gelu(x.data)
    return _result(data, (x,), backward)


def attention(q, k, v, heads: int) -> Tensor:
    """``numcore``'s attention body as a node of its own: the model runs it
    only inside the attention sublayer."""
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    data, backward = nc._attention(q.data, k.data, v.data, heads)
    return _result(data, (q, k, v), backward)


def composed_attention_sublayer(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, heads: int):
    """``numcore.attention_sublayer`` as the layernorm, linear, attention and
    add nodes the model's layers recorded before it."""
    h = nc.layernorm(x, gain, bias)
    q, k, v = (nc.linear(h, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    return x + nc.linear(attention(q, k, v, heads), wo, bo)


def composed_mlp_sublayer(x, gain, bias, w1, b1, w2, b2):
    """``numcore.mlp_sublayer`` as the layernorm, linear, gelu and add nodes
    the model's layers recorded before it."""
    h = nc.layernorm(x, gain, bias)
    return x + nc.linear(gelu(nc.linear(h, w1, b1)), w2, b2)


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


def abs_(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.abs(x.data)

    def backward(g):
        return (g * np.sign(x.data),)

    return _result(data, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.asarray(x.data.mean(), dtype=x.data.dtype)

    def backward(g):
        return (np.broadcast_to(g / x.size, x.shape).astype(x.data.dtype),)

    return _result(data, (x,), backward)


def l1_loss(pred, target) -> Tensor:
    """Mean absolute error over every real scalar, as sub, abs and mean nodes."""
    return mean_all(abs_(pred - target))


def hdr_denominators(stages, eps: float) -> list[np.ndarray]:
    """The per-stage denominators |stage| + eps that ``model.total_loss`` freezes."""
    return [np.abs(stage.data) + eps for stage in stages]


def frozen_hdr_loss(stages, target, denominators) -> Tensor:
    """The sum over stages of the mean squared ratio of each stage's error
    to its given denominator, as sub, mul, mean and add nodes."""
    total = None
    for stage, denom in zip(stages, denominators):
        ratio = (stage - target) * (1.0 / denom)
        term = mean_all(ratio * ratio)
        total = term if total is None else total + term
    return total


def hdr_loss(stages, target, eps: float) -> Tensor:
    """``frozen_hdr_loss`` with the denominators of the stages' own values."""
    return frozen_hdr_loss(stages, target, hdr_denominators(stages, eps))


def composed_total_loss(result, target, weight: float, eps: float):
    """``model.total_loss`` as the single-op nodes it recorded before its one
    node: (l1 + weight * hdr, l1, hdr)."""
    l1 = l1_loss(result.interpolated, target)
    hdr = hdr_loss(result.stages, target, eps)
    return l1 + weight * hdr, l1, hdr


def frozen_total_loss(result, target, weight: float, denominators) -> Tensor:
    """``model.total_loss``'s total with the HDR denominators given, in the
    composition's ops and order, so at the capture point both give the same
    value."""
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

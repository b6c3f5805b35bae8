"""Dense-tensor engine: tape-based reverse-mode autodiff, Adam, one-cycle LR.

Tensors wrap contiguous numpy arrays and record their producing operation so
that ``backward()`` can replay the tape in reverse topological order.  The
engine runs in one of two global precision modes: ``"test"`` (float64, used
for gradient checks) and ``"train"`` (float32).  The graph is freed as it is
consumed by ``backward()``, so one step's activations never outlive the step.

Finiteness is checked where data enters, not per tensor: ``ComplexVolume``
rejects a non-finite volume, ``load_params`` a non-finite checkpoint tensor,
the training loop a non-finite loss, and ``adam_step`` a non-finite gradient,
naming the parameter.  Seeded draws and built-in tables are finite by
construction, so no tensor, leaf or op output, is scanned; an op that
overflows on finite inputs yields inf/NaN that the next boundary catches.
Transformer layers use the fused ``linear`` and ``attention`` nodes, which
record one tape node each with a hand-written backward.  ``attention`` runs
its query rows in chunks of at most ``ATTENTION_BLOCK`` score entries and
keeps the first chunk's probabilities for backward when they fill at most one
block, recomputing the rest, so a node holds O(n d + block) memory instead of
a [heads, n, n] map.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, RangeError, TrainingError

_MODES = {"test": np.float64, "train": np.float32}
_active_mode = "test"

LAYERNORM_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_GELU_C = math.sqrt(2.0 / math.pi)
# Score entries (heads x query rows x keys) that one attention chunk may hold.
ATTENTION_BLOCK = 1 << 18


def set_mode(mode: str) -> None:
    """Select the global precision mode: "test" (float64) or "train" (float32)."""
    global _active_mode
    if mode not in _MODES:
        raise ValueError(f"unknown precision mode {mode!r}")
    _active_mode = mode


def get_mode() -> str:
    return _active_mode


def active_dtype() -> type:
    return _MODES[_active_mode]


@contextmanager
def use_mode(mode: str):
    previous = _active_mode
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(previous)


class Tensor:
    """A dense real array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=active_dtype()))
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # Operators delegate to the module-level ops so there is a single
    # implementation (and a single gradient rule) per operation.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def backward(self) -> None:
        """Backpropagate from a scalar root, then free the recorded graph."""
        if self.size != 1:
            raise DimensionError("backward() requires a scalar root")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.grad is None:
                continue
            if node._backward is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output node: a tensor that records its grad-requiring parents."""
    out = Tensor(data)
    out._parents = tuple(p for p in parents if p.requires_grad)
    out.requires_grad = bool(out._parents)
    out._backward = backward if out.requires_grad else None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # A C-ordered copy: ``g`` may be a view shared with another operand,
        # and a transposed layout would change later BLAS results.
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _result(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backward)


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


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for [n, d_in] rows as one node."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear needs [n, d_in] @ [d_in, d_out], got {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"linear bias {b.shape} does not match {w.shape[1]} outputs")
    data = x.data @ w.data
    data += b.data

    def backward(g):
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _result(data, (x, w, b), backward)


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [n, d] rows, as one node.

    Splits d into ``heads`` slices, computes softmax(q k^T / sqrt(d/heads)) v
    per head and merges the heads back to [n, d].  Query rows run in chunks of
    at most ``ATTENTION_BLOCK`` score entries, each against every key, so each
    row's softmax is exact.  When ``heads * n <= ATTENTION_BLOCK`` the whole
    map is the first chunk and the node keeps it for backward; otherwise no
    chunk is kept and backward recomputes each one.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.data.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(
            f"attention needs equal [n, d] q/k/v, got {q.shape}, {k.shape}, {v.shape}"
        )
    n, d = q.shape
    if n == 0:
        raise DimensionError("attention needs at least one query row")
    if heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} not divisible by {heads} heads")
    dh = d // heads
    # A float64 scalar would promote the float32 scores to float64.
    scale = q.data.dtype.type(1.0 / math.sqrt(dh))
    rows = max(1, ATTENTION_BLOCK // (heads * n))
    spans = [(s, min(s + rows, n)) for s in range(0, n, rows)]

    def split(a):
        return a.reshape(n, heads, dh).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(n, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)

    def probs(s, e):
        p = qh[:, s:e] @ kh.transpose(0, 2, 1)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        return p

    data = np.empty((n, d), dtype=q.data.dtype)
    kept = None
    for s, e in spans:
        p = probs(s, e)
        data.reshape(n, heads, dh)[s:e] = (p @ vh).transpose(1, 0, 2)
        if s == 0 and heads * n <= ATTENTION_BLOCK:
            kept = p

    def backward(g):
        gh = split(g)
        dq = np.empty_like(g)
        for s, e in spans:
            p = kept if s == 0 and kept is not None else probs(s, e)
            gc = gh[:, s:e]
            dv_part = p.transpose(0, 2, 1) @ gc
            gs = gc @ vh.transpose(0, 2, 1)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            dq.reshape(n, heads, dh)[s:e] = (gs @ kh).transpose(1, 0, 2)
            dkt_part = qh[:, s:e].transpose(0, 2, 1) @ gs  # [heads, dh, n]
            if s == 0:
                dv, dkt = dv_part, dkt_part
            else:
                dv += dv_part
                dkt += dkt_part
        _accumulate(v, merge(dv))
        _accumulate(q, dq)
        _accumulate(k, merge(dkt.transpose(0, 2, 1)))

    return _result(data, (q, k, v), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    inverse = tuple(int(i) for i in np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))

    def backward(g):
        _accumulate(x, g.transpose(inverse))

    return _result(data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _result(data, (x,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise DimensionError("concat_rows needs at least one tensor")
    trailing = parts[0].shape[1:]
    if any(p.shape[1:] != trailing for p in parts):
        raise DimensionError("concat_rows requires matching trailing extents")
    data = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.shape[0] for p in parts]

    def backward(g):
        offset = 0
        for p, n in zip(parts, sizes):
            _accumulate(p, g[offset : offset + n])
            offset += n

    return _result(data, tuple(parts), backward)


def gather(x: Tensor, index) -> Tensor:
    """``x`` flattened and read at ``index``, in the shape of ``index``.

    Repeated indices accumulate gradient.  Backward scatters into a buffer of
    -0.0, the identity of addition, so under a permutation every gradient
    entry passes through bitwise, signed zeros included.
    """
    x = _coerce(x)
    idx = np.asarray(index, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.size):
        raise DimensionError(f"gather index out of range for {x.size} entries")
    data = x.data.reshape(-1)[idx]

    def backward(g):
        flat = np.full(x.size, -0.0, dtype=x.data.dtype)
        np.add.at(flat, idx.reshape(-1), g.reshape(-1))
        if x.grad is None:
            x.grad = flat.reshape(x.shape)
        else:
            x.grad += flat.reshape(x.shape)

    return _result(data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation."""
    x = _coerce(x)
    v = x.data
    inner = _GELU_C * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * v**2)
        local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner
        _accumulate(x, g * local)

    return _result(data, (x,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine-map it."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    dim = x.shape[-1] if x.data.ndim else 0
    if dim < 1:
        raise DimensionError("layernorm needs a non-empty last axis")
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise DimensionError("layernorm gain/bias must match the last axis extent")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
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


def abs_(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.abs(x.data)

    def backward(g):
        _accumulate(x, g * np.sign(x.data))

    return _result(data, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.asarray(x.data.mean(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.broadcast_to(g / x.size, x.shape).astype(x.data.dtype))

    return _result(data, (x,), backward)


@dataclass
class OptimizerState:
    """Adam moments plus the shared step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: list[tuple[str, Tensor]],
    grads: list[np.ndarray | None],
    state: OptimizerState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place on the parameter tensors.

    ``lr`` may be 0 (the update is then the identity); negative rates are
    rejected.  A ``None`` gradient is treated as zero.
    """
    if lr < 0:
        raise ValueError("adam_step requires lr >= 0")
    if len(params) != len(grads):
        raise DimensionError("params and grads must align")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for (name, p), g in zip(params, grads):
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise DimensionError(f"gradient shape mismatch for parameter {name}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass(frozen=True)
class LrSchedule:
    """One-cycle schedule: cosine warmup to ``max_lr``, cosine anneal down."""

    max_lr: float
    total_steps: int
    warmup_fraction: float = 0.3
    initial_div: float = 25.0
    final_div: float = 1e4

    def __post_init__(self):
        # Written as "not in range" so that NaN fails them too.
        if not 0 < self.max_lr < math.inf:
            raise ConfigError(f"max_lr must be positive and finite, got {self.max_lr}")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ConfigError(f"warmup_fraction must lie in (0, 1), got {self.warmup_fraction}")
        if not (self.initial_div > 1 and self.final_div > 1):
            raise ConfigError("initial_div and final_div must exceed 1")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate for ``step`` in [0, total_steps)."""
    total = schedule.total_steps
    if not 0 <= step < total:
        raise RangeError(f"schedule step {step} outside [0, {total})")
    if total == 1:
        return schedule.max_lr
    warmup = int(round(schedule.warmup_fraction * total))
    warmup = min(max(warmup, 1), total - 1)
    lo = schedule.max_lr / schedule.initial_div
    hi = schedule.max_lr
    fin = schedule.max_lr / schedule.final_div
    if step < warmup:
        return lo + (hi - lo) * 0.5 * (1.0 - math.cos(math.pi * step / warmup))
    span = (total - 1) - warmup
    if span == 0:
        return hi
    return fin + (hi - fin) * 0.5 * (1.0 + math.cos(math.pi * (step - warmup) / span))

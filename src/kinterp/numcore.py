"""Dense-tensor engine: tape-based reverse-mode autodiff, Adam, one-cycle LR.

Tensors wrap contiguous numpy arrays and record their producing operation so
that ``backward()`` can replay the tape in reverse topological order.  The
engine runs in one of two global precision modes: ``"train"`` (float32), the
default for training and inference alike, and ``"test"`` (float64), the mode
of the gradient checks.  The graph is freed as it is consumed by
``backward()``, so one step's activations never outlive the step.  Inside
``no_grad()`` ops record nothing, neither parents nor backward closures, so an
inference forward holds each activation only until its last reader is done.

Finiteness is checked where data enters, not per tensor: ``ComplexVolume``
rejects a non-finite volume, ``load_params`` a non-finite checkpoint tensor,
the training loop a non-finite loss, and ``adam_step`` a non-finite gradient,
naming the parameter.  Seeded draws and built-in tables are finite by
construction, so no tensor, leaf or op output, is scanned; an op that
overflows on finite inputs yields inf/NaN that the next boundary catches.

The engine holds only the ops the model runs: ``add``, ``sub``, ``mul``,
``reshape``, ``concat_rows``, ``gather`` (token rows, repeats allowed),
``permute`` (plane entries, by a table and its inverse), ``gelu``,
``layernorm``, ``abs_`` and ``mean_all``, plus the fused ``linear`` and
``attention`` nodes that Transformer layers use, which record one tape node
each with a hand-written backward.  Their unfused references, built from
``matmul``, ``transpose`` and ``softmax_lastaxis`` nodes, live with the test
oracles in ``tests/oracles.py``, as do the earlier bodies that ``gelu``,
``layernorm`` and ``attention`` must match bitwise.  Each op runs only the
passes and allocations its result needs, in the order of its written
expression; an op whose gradient is an array it made hands that array over
as a first gradient (``_adopt``) instead of having it copied
(``_accumulate``).
``attention`` runs its query rows in chunks of at most ``ATTENTION_BLOCK``
score entries, with the scale folded into q and no divide over the scores.
It keeps the first chunk's probabilities for backward when that chunk fits
one block, and for every other chunk only its rows' log-sum-exp, from which
backward recomputes the chunk; so a node holds O(n d + block) memory instead
of a [heads, n, n] map.  Adam runs over flat buffers: ``OptimizerState`` lays
the parameters out once, each ``Tensor.data`` becomes a view into its buffer,
and each ``adam_step`` packs the gradients and updates every parameter in one
pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, RangeError, TrainingError

_MODES = {"test": np.float64, "train": np.float32}
_active_mode = "train"
_recording = True

LAYERNORM_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_GELU_C = math.sqrt(2.0 / math.pi)
# Score entries (heads x query rows x keys) that one attention chunk may hold.
ATTENTION_BLOCK = 1 << 18
# Entries of the row block that attention backward forms dP * P in.
ATTENTION_D_BLOCK = 1 << 15


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


@contextmanager
def no_grad():
    """Run ops without recording the tape; the previous state returns on exit."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A dense real array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=active_dtype(), order="C")
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

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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
    """An op's output node: a tensor that records its grad-requiring parents,
    or none under ``no_grad``."""
    out = Tensor(data)
    if not _recording:
        return out
    out._parents = tuple(p for p in parents if p.requires_grad)
    out.requires_grad = bool(out._parents)
    out._backward = backward if out.requires_grad else None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, storing a first gradient as a C-ordered copy.

    For ``g`` that is the incoming gradient or a view of it (add, reshape,
    concat_rows, sub's first operand): another operand or the producing node
    still holds that memory, and a transposed layout would change later BLAS
    results.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def _adopt(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, taking a first gradient over instead of copying.

    ``g`` must be an array the calling op made in its backward and shares with
    nothing else: not the incoming gradient or a view of it, not an operand or
    a saved activation, and not handed to another operand.  The caller gives
    it up: ``t.grad`` becomes ``g`` itself (or a C-ordered copy, if ``g`` is
    laid out otherwise or has another dtype), so later sums add into it in
    place.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype, order="C")
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
        _adopt(b, _unbroadcast(-g, b.shape))

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        _adopt(a, _unbroadcast(g * b.data, a.shape))
        _adopt(b, _unbroadcast(g * a.data, b.shape))

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
        _adopt(x, g @ w.data.T)
        _adopt(w, x.data.T @ g)
        _adopt(b, g.sum(axis=0))

    return _result(data, (x, w, b), backward)


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [n, d] rows, as one node.

    Splits d into ``heads`` slices, computes softmax(q k^T / sqrt(d/heads)) v
    per head and merges the heads back to [n, d].  The scale multiplies q once
    (n d entries), and each row's output is divided by its exponent sum after
    the ``p @ v`` product, so no pass over the scores scales or divides them.
    Query rows run in chunks of at most ``ATTENTION_BLOCK`` score entries,
    each against every key, so each row's softmax is exact.  When ``heads * n
    <= ATTENTION_BLOCK`` the first ``ATTENTION_BLOCK // (heads * n)`` rows
    form the first chunk, which the node keeps, normalized, for backward; the
    whole map is one kept chunk only when ``heads * n * n <= ATTENTION_BLOCK``.
    Every other chunk keeps only its rows' log-sum-exp L, and backward
    recomputes its probabilities P as exp(q k^T - L): one matmul and two
    passes, into a buffer every recomputed chunk reuses, as every chunk's dP
    reuses another.  Backward applies the scale once, to dq.  Under
    ``no_grad`` nothing is kept.
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
        if not _recording:
            continue
        if s == 0 and heads * n <= ATTENTION_BLOCK:
            p /= l
            kept = p
        else:
            np.add(m, np.log(l), out=lse[:, s:e])

    def backward(g):
        gh = split(g)
        dq = np.empty_like(g)
        block = np.empty((max(1, ATTENTION_D_BLOCK // n), n), dtype=g.dtype)
        # Every recomputed P and every dP go to one reused buffer each, as
        # contiguous prefixes, so the chunk loop allocates no chunk-sized
        # array (a loop that did made glibc trim and refault them at n=1024).
        size = heads * min(rows, n) * n
        d_scores = np.empty(size, dtype=g.dtype)
        recomputes = kept is None or len(spans) > 1
        scores = np.empty(size, dtype=g.dtype) if recomputes else None
        for s, e in spans:
            shape = (heads, e - s, n)
            if s == 0 and kept is not None:
                p = kept
            else:
                p = scores[: heads * (e - s) * n].reshape(shape)
                np.matmul(qs[:, s:e], kt, out=p)
                p -= lse[:, s:e]
                np.exp(p, out=p)
            gc = gh[:, s:e]
            dv_part = p.transpose(0, 2, 1) @ gc
            gs = d_scores[: heads * (e - s) * n].reshape(shape)
            np.matmul(gc, vh.transpose(0, 2, 1), out=gs)
            # D = rowsum(dP * P), summed as the unfused reference's softmax
            # sums it.  Where a row's softmax saturates, dP - D cancels down to
            # D's rounding, so rowsum(dO * O) or an einsum would not match it.
            # The products go through one reused block of rows; each row sums
            # the same contiguous values in the same order.
            flat_gs, flat_p = gs.reshape(-1, n), p.reshape(-1, n)
            total = len(flat_gs)
            d_rows = np.empty((total, 1), dtype=g.dtype)
            for r in range(0, total, len(block)):
                stop = min(r + len(block), total)
                part = np.multiply(flat_gs[r:stop], flat_p[r:stop], out=block[: stop - r])
                part.sum(axis=-1, keepdims=True, out=d_rows[r:stop])
            gs -= d_rows.reshape(heads, e - s, 1)
            gs *= p
            dq.reshape(n, heads, dh)[s:e] = (gs @ kh).transpose(1, 0, 2)
            dkt_part = qs[:, s:e].transpose(0, 2, 1) @ gs  # [heads, dh, n]
            if s == 0:
                dv, dkt = dv_part, dkt_part
            else:
                dv += dv_part
                dkt += dkt_part
        dq *= scale
        _adopt(v, merge(dv))
        _adopt(q, dq)
        _adopt(k, merge(dkt.transpose(0, 2, 1)))

    return _result(data, (q, k, v), backward)


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

    Repeated indices accumulate gradient: backward scatters into a buffer of
    -0.0, the identity of addition.  A permutation moves through ``permute``.
    """
    x = _coerce(x)
    idx = np.asarray(index, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.size):
        raise DimensionError(f"gather index out of range for {x.size} entries")
    data = x.data.reshape(-1)[idx]

    def backward(g):
        flat = np.full(x.size, -0.0, dtype=x.data.dtype)
        np.add.at(flat, idx.reshape(-1), g.reshape(-1))
        _adopt(x, flat.reshape(x.shape))

    return _result(data, (x,), backward)


def permute(x: Tensor, index: np.ndarray, inverse: np.ndarray) -> Tensor:
    """``x`` flattened and read at ``index``, a permutation of its entries.

    ``inverse`` is the inverse permutation in ``x``'s shape, and backward
    reads the gradient at it: a gather both ways, where ``gather`` scatters.
    Since -0.0 + g = g for every g, that equals ``gather``'s scatter bitwise,
    signed zeros included.  The caller owns the permutation property (the
    model checks its plane tables once per geometry); a call checks shapes.
    """
    x = _coerce(x)
    if index.size != x.size or inverse.shape != x.shape:
        raise DimensionError(
            f"permute of {x.shape} needs {x.size} indices and an inverse of that shape"
        )
    data = x.data.reshape(-1)[index]

    def backward(g):
        _adopt(x, g.reshape(-1)[inverse])

    return _result(data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation.

    Each expression runs in its written order, in place on three buffers;
    ``empty_like`` allocates them, since arithmetic on a 0-d array would
    return a scalar.  Backward keeps only ``x`` and the tanh.
    """
    x = _coerce(x)
    v = x.data
    # t = tanh(_GELU_C * (v + 0.044715 * (v * v * v)))
    t = np.multiply(v, v, out=np.empty_like(v))
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    # data = 0.5 * v * (1.0 + t)
    data = np.multiply(v, 0.5, out=np.empty_like(v))
    data *= np.add(t, 1.0, out=np.empty_like(v))

    def backward(g):
        # d_inner = _GELU_C * (1.0 + 3 * 0.044715 * v**2)
        d_inner = np.multiply(v, v, out=np.empty_like(v))
        d_inner *= 3 * 0.044715
        d_inner += 1.0
        d_inner *= _GELU_C
        # local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner
        slope = np.multiply(t, t, out=np.empty_like(v))
        np.subtract(1.0, slope, out=slope)
        local = np.multiply(v, 0.5, out=np.empty_like(v))
        local *= slope
        local *= d_inner
        np.add(t, 1.0, out=slope)
        slope *= 0.5
        slope += local
        slope *= g
        _adopt(x, slope)

    return _result(data, (x,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine-map it.

    The variance is the sequence ``np.var`` runs (sum, divide, subtract,
    square, sum, divide) with the subtraction kept as the normalized input,
    so one subtract and one sum are saved and the bits are ``np.var``'s.
    """
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    dim = x.shape[-1] if x.data.ndim else 0
    if dim < 1:
        raise DimensionError("layernorm needs a non-empty last axis")
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise DimensionError("layernorm gain/bias must match the last axis extent")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    data = np.square(xhat)  # the squares first, then the output
    inv = data.sum(axis=-1, keepdims=True)
    inv /= dim
    # inv = 1.0 / sqrt(var + eps)
    inv += LAYERNORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def backward(g):
        gy = g * gain.data
        scratch = gy * xhat
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = scratch.mean(axis=-1, keepdims=True)
        # dx = ((gy - m1) - xhat * m2) * inv
        gy -= m1
        gy -= np.multiply(xhat, m2, out=scratch)
        gy *= inv
        _adopt(x, gy)
        reduce_axes = tuple(range(g.ndim - 1))
        _adopt(gain, np.multiply(g, xhat, out=scratch).sum(axis=reduce_axes))
        _adopt(bias, g.sum(axis=reduce_axes))

    return _result(data, (x, gain, bias), backward)


def abs_(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.abs(x.data)

    def backward(g):
        _adopt(x, g * np.sign(x.data))

    return _result(data, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.asarray(x.data.mean(), dtype=x.data.dtype)

    def backward(g):
        _adopt(x, np.broadcast_to(g / x.size, x.shape).astype(x.data.dtype))

    return _result(data, (x,), backward)


@dataclass
class OptimizerState:
    """Adam's step counter and flat buffers, laid out by the first ``adam_step``.

    ``names`` records the parameter list in order, and parameter ``i`` owns
    entries ``ends[i - 1]:ends[i]`` of every buffer.  ``params`` holds the
    parameters' values, and each ``Tensor.data`` is a view into it (``views``,
    which also fix the shapes).  ``grads`` is where each step packs the
    gradients, ``m`` and ``v`` are the moments, and ``scratch`` holds two
    temporaries.  All are in the parameters' dtype.
    """

    step: int = 0
    names: tuple[str, ...] = ()
    ends: np.ndarray | None = None
    params: np.ndarray | None = None
    grads: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple[np.ndarray, ...] = ()
    views: list[np.ndarray] = field(default_factory=list)
    grad_views: list[np.ndarray] = field(default_factory=list)


def _layout(state: OptimizerState, params: list[tuple[str, Tensor]]) -> None:
    """Allocate ``state``'s buffers for ``params``, in list order."""
    dtype = params[0][1].data.dtype if params else active_dtype()
    state.names = tuple(name for name, _ in params)
    state.ends = np.cumsum([p.size for _, p in params], dtype=np.intp)
    total = int(state.ends[-1]) if params else 0
    state.params, state.grads, state.m, state.v, *scratch = (
        np.zeros(total, dtype=dtype) for _ in range(6)
    )
    state.scratch = tuple(scratch)
    spans = list(zip([0, *state.ends[:-1]], state.ends, (p.shape for _, p in params)))

    def views(flat):
        return [flat[s:e].reshape(shape) for s, e, shape in spans]

    state.views, state.grad_views = views(state.params), views(state.grads)


def adam_step(
    params: list[tuple[str, Tensor]],
    grads: list[np.ndarray | None],
    state: OptimizerState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, in place on the parameter tensors.

    The first call lays ``params`` out in ``state``'s flat buffers and rebinds
    each ``Tensor.data`` to its view, so every holder of a parameter tensor
    sees the updates; a ``.data`` rebound since is copied back in.  Each call
    packs the gradients, scans them once for non-finite values and then
    updates all parameters in one pass, in the per-tensor loop's elementwise
    order.  A rejected call leaves the parameters' values, the moments and
    the step count as they were.
    ``lr`` may be 0 (the update is then the identity); negative rates are
    rejected.  A ``None`` gradient is treated as zero.  A state serves one
    parameter list: other names, shapes or dtypes raise ``DimensionError``.
    """
    if lr < 0:
        raise ValueError("adam_step requires lr >= 0")
    if len(params) != len(grads):
        raise DimensionError("params and grads must align")
    if state.params is None:
        _layout(state, params)
    elif tuple(name for name, _ in params) != state.names:
        raise DimensionError("adam_step state was laid out for another parameter list")
    for (name, p), view in zip(params, state.views):
        if p.data is view:
            continue
        if p.data.shape != view.shape or p.data.dtype != view.dtype:
            raise DimensionError(f"parameter {name} does not match the optimizer's layout")
        view[...] = p.data
        p.data = view
    for name, view, g in zip(state.names, state.grad_views, grads):
        if g is None:
            view.fill(0.0)
        elif g.shape != view.shape:
            raise DimensionError(f"gradient shape mismatch for parameter {name}")
        else:
            view[...] = g
    finite = np.isfinite(state.grads)
    if not finite.all():
        bad = state.names[int(np.searchsorted(state.ends, np.argmin(finite), side="right"))]
        raise TrainingError(f"non-finite gradient for parameter {bad}")

    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    g, m, v, (a, b) = state.grads, state.m, state.v, state.scratch
    m *= b1
    np.multiply(g, 1.0 - b1, out=a)
    m += a
    v *= b2
    np.multiply(g, 1.0 - b2, out=a)
    a *= g
    v += a
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    state.params -= a


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

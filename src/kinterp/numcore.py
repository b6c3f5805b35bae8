"""Dense-tensor engine: tape-based reverse-mode autodiff, Adam, one-cycle LR.

Tensors wrap contiguous numpy arrays and record their producing operation so
that ``backward()`` can replay the tape's op nodes in reverse topological
order.  The engine runs in one of two global precision modes: ``"train"``
(float32), the default for training and inference alike, and ``"test"``
(float64), the mode of the gradient checks.  The graph is freed as it is
consumed by ``backward()``, so one step's activations never outlive the
step.  Inside ``no_grad()`` ops record nothing, neither parents nor backward
closures, so an inference forward holds each activation only until its last
reader is done.

Finiteness is checked where data enters, not per tensor: ``ComplexVolume``
rejects a non-finite volume, ``load_params`` a non-finite checkpoint tensor,
the training loop a non-finite loss, and ``adam_step`` a non-finite gradient,
naming the parameter.  Seeded draws and built-in tables are finite by
construction, so no tensor, leaf or op output, is scanned; an op that
overflows on finite inputs yields inf/NaN that the next boundary catches.

The engine holds only the ops the model runs: ``add``, ``sub``, ``mul``,
``reshape``, ``concat_rows``, ``gather`` (token rows, repeats allowed),
``permute`` ((re, im) pairs, by a split and an axis order), ``linear`` and
``layernorm``, plus one node per pre-LN Transformer sublayer:
``attention_sublayer`` (layernorm, the q, k and v linears, attention, the
output linear and the residual add) and ``mlp_sublayer`` (layernorm,
linear, gelu, linear and the residual add).  The training loss is one node
too, which ``model.total_loss`` builds with ``_result``.
linear, layernorm, gelu and attention each have one body (``_linear``,
``_layernorm``, ``_gelu``, ``_attention``) on arrays, returning the output
and a backward closure that keeps what backward needs; the single-op nodes
and both sublayer nodes are built from these bodies.  So a sublayer node
keeps only what its bodies' closures keep (layernorm's normalized input and
1 / sigma, each linear's input, attention's scaled q, k, ``[v | 1]``, output,
kept chunk, 1 / l and log-sum-exp, gelu's input and tanh), not the outputs
that the tape of single ops held, such as q and the output linear's result.
The composition of single ops that each sublayer must match bitwise, and
the gelu and attention nodes it uses, live with the test oracles in
``tests/oracles.py``, as do the loss's composition of ``abs_`` and
``mean_all`` nodes, the unfused references built from ``matmul``,
``transpose`` and ``softmax_lastaxis`` nodes and the reference bodies that
gelu, layernorm and attention must match bitwise.  Each op runs only the
passes and allocations its result needs, in the order of its written
expression.  Every reduction over a narrow axis is a matrix-vector product,
which BLAS runs in one call where a NumPy axis reduction runs one inner loop
per row: layernorm's row means are its [rows, dim] views times a vector of
1 / dim, the gain, bias and linear bias gradients a ones vector times the
rows, and attention's per-head row sums its [n heads, dh] rows times ones.
Attention runs its query rows in chunks of at most ``ATTENTION_BLOCK``
score entries, with the scale and log2 e folded into q, so the scores are
in base 2 and exponentiated by ``exp2``, every sum of a row over its keys
inside a matmul and every score-shaped matmul against a C-contiguous
transposed operand built once per call (``_attention`` says how).  When
one O(n d) bound puts every score within ``SCORE_BOUND``, the exp cannot
overflow without a row max, so a chunk costs one pass over its scores
forward (the exp); otherwise the row max is subtracted first, three passes
(max, subtract, exp).  A kept chunk costs one pass backward.  Attention
keeps the first chunk unnormalized, as exp2(S - m) and 1 / l, when that
chunk fits one block, and for every other chunk only its rows' log-sum-exp,
from which backward recomputes the chunk; so a node holds O(n d + block)
memory instead of a [heads, n, n] map.  A call of more than one chunk,
on a process that may use two CPUs, runs its chunk loops for the two
halves of its heads on two threads, the calling one and one helper joined
before the loop returns; as a stacked matmul makes one BLAS call per head
and every other pass is elementwise or per row, the bytes are the serial
loop's.  Adam runs over flat buffers:
``OptimizerState`` lays the parameters out once, each ``Tensor.data``
becomes a view into its buffer, and each ``adam_step`` packs the gradients
and updates every parameter in one pass.

An op's backward closure returns one gradient per operand, in operand order,
each ``g`` (the incoming gradient) or a view of it, an array the op made for
that operand alone, or None for an operand that records none (``add``,
``sub``, ``mul`` and ``linear`` form no product for one).
``Tensor.backward`` walks depth first from the root through op nodes only,
the tensors that hold a closure; a parameter or other leaf is never visited,
so the walk's bookkeeping grows with the op nodes, not with the parameters.
Each gradient lands on the edge from the node that returned it, by one rule
for op nodes and leaves alike: an operand that records none is skipped, a
first gradient that is ``g`` or a view that may share memory with it is
stored as a C-ordered copy (the node or another operand still holds that
memory), any other first gradient is taken over, and later ones are added
in place.  Only a view needs the memory test: an array that owns its memory
and is not ``g`` is one the op made.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import ConfigError, DimensionError, TrainingError

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
# Largest bound on |score| under which attention exponentiates its scores
# without a row max.  The scores are in base 2, so 2^SCORE_BOUND = e^16:
# n e^16 stays far below float32's maximum, and e^-16 (1.1e-7) far above
# its smallest normal.
SCORE_BOUND = 16.0 / math.log(2.0)


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
        """Backpropagate from a scalar root through its op nodes, then free them."""
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
                if parent._backward is not None:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.grad is None:
                continue
            if node._backward is not None:
                for parent, g in zip(node._parents, node._backward(node.grad), strict=True):
                    if not parent.requires_grad:
                        continue
                    if parent.grad is None:
                        # ``g`` or a view of it is copied, never shared; an
                        # array that owns its memory and is not ``g`` is one
                        # the op made.
                        shares = g is node.grad or (
                            g.base is not None and np.may_share_memory(g, node.grad)
                        )
                        copy = True if shares else None
                        parent.grad = np.array(g, parent.data.dtype, copy=copy, order="C")
                    else:
                        parent.grad += g
            node._backward = None
            node._parents = ()


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output node: a tensor that records its operands and ``backward``
    when any operand records a gradient, and nothing under ``no_grad``."""
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


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
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), backward)


# The bodies of linear, attention, gelu and layernorm take and return arrays:
# the output and a backward closure that keeps what it needs and maps the
# incoming gradient to one gradient per operand.  The single-op nodes and the
# two sublayer nodes below are built from them.


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """``x @ w + b`` for [n, d_in] rows.  Backward takes which operands want
    a gradient (all by default) and returns None for the others."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear needs [n, d_in] @ [d_in, d_out], got {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"linear bias {b.shape} does not match {w.shape[1]} outputs")
    data = x @ w
    data += b

    def backward(g, wants=(True, True, True)):
        want_x, want_w, want_b = wants
        return (
            g @ w.T if want_x else None,
            x.T @ g if want_w else None,
            np.ones(len(g), dtype=g.dtype) @ g if want_b else None,
        )

    return data, backward


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int):
    """Multi-head scaled dot-product attention over [n, d] rows.

    Splits d into ``heads`` slices, computes softmax(q k^T / sqrt(d/heads)) v
    per head and merges the heads back to [n, d].  The scores are in base
    2: q is multiplied once (n d entries) by ``scale2 = 1 / (sqrt(d/heads)
    ln 2)``, so ``S = (q * scale2) k^T`` and ``exp2(S)`` is the softmax's
    exponent, and ``exp2`` is the cheaper pass.  Every sum of a row over
    its keys runs inside a matmul, against a column appended to one operand,
    so the passes over the scores are at most the row max, its subtraction
    and the exp: ``E = exp2(S - m)`` times ``[v | 1]`` gives ``E v`` and the
    exponent sum l in one product, and each row's output is ``E v / l``.
    The right operand of every score-shaped matmul, ``K^T`` forward and
    ``[k | 1]^T`` and ``[v | 1]^T`` backward, is a C-contiguous [heads,
    dh(+1), n] copy made once per call (O(n d)), which BLAS reads faster
    than a transposed view.

    The row max m is there only to keep the exp from overflowing.  Before
    the chunks, one O(n d) pass bounds every score, over every head, by
    ``max_i |q_i * scale2| * max_j |k_j|`` (Cauchy-Schwarz), each squared
    norm a matvec of the squares' [n heads, dh] rows against ones; a square
    or a sum that overflows makes the bound inf.  When that
    bound is at most ``SCORE_BOUND``, m is 0: each chunk's one pass over its
    scores forward is the exp, and L is log2 l.  A larger bound, a NaN or
    inf one, or a single key (whose shifted output is exactly v) takes the
    shifted path, with the row max and its subtraction.

    Query rows run in chunks of at most ``ATTENTION_BLOCK`` score entries,
    each against every key, so each row's softmax is exact.  When ``heads * n
    <= ATTENTION_BLOCK`` the first ``ATTENTION_BLOCK // (heads * n)`` rows
    form the first chunk, which backward keeps unnormalized, as E and 1/l;
    the whole map is one kept chunk only when ``heads * n * n <=
    ATTENTION_BLOCK``.  Every other chunk keeps only its rows' base-2
    log-sum-exp L = m + log2 l, and backward recomputes its probabilities
    as ``P = exp2([q * scale2 | -L] @ [k | 1]^T)``: one matmul and one
    pass, into a buffer every recomputed chunk reuses, as every chunk's dS
    reuses another.  Backward widens q and k only when some chunk is
    recomputed, and forward only v.

    Backward takes D = rowsum(dO * O) from the output (n d entries), as
    ``dO * O``'s [n heads, dh] rows times ones, and forms
    dS = P * (dO v^T - D) as ``[dO | -D] @ [v | 1]^T`` times P: one matmul
    and one pass.  For the kept chunk the rows ``[dO | -D]`` are divided by
    l first, so E stands in for P there.  With one key the softmax is the
    constant 1, and backward returns exact zeros for q and k and dO for v.
    Backward applies the natural scale once, to dq, and ln 2 once to dk,
    which it forms from the base-2 q, and returns dk as a column-major
    view.  Under ``no_grad`` nothing is kept.

    Heads are independent, so the forward and backward chunk loops each run
    over a range of heads.  A call with more than one chunk (``heads * n *
    n > ATTENTION_BLOCK``), at least two heads and at least two CPUs that
    the process may use runs heads [0, heads // 2) on the calling thread
    and the rest on one helper thread, started for that loop and joined
    before it returns.  The split is bitwise: a stacked matmul makes one
    BLAS call per head slice, every other pass is elementwise or per row,
    and each half keeps the serial order (the same chunk spans, its head
    slice of the kept chunk, dv and dk^T summed in chunk order, and its own
    part of each score buffer), writing disjoint head slices.  Everything else, the
    bound under ``np.errstate`` included, runs on the calling thread before
    the split.  A one-chunk call runs the loop once over every head.
    """
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
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
    ln2 = q.dtype.type(math.log(2.0))
    scale = q.dtype.type(1.0 / math.sqrt(dh))
    scale2 = q.dtype.type(1.0 / (math.sqrt(dh) * math.log(2.0)))
    rows = max(1, ATTENTION_BLOCK // (heads * n))
    spans = [(s, min(s + rows, n)) for s in range(0, n, rows)]

    def split(a):
        return a.reshape(n, heads, dh).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(n, d)

    def widened(a, column):
        """Per-head [heads, n, dh] rows with one more column."""
        out = np.empty((heads, n, dh + 1), dtype=a.dtype)
        out[..., :dh] = a
        out[..., dh:] = column
        return out

    def transposed(a):
        """Per-head [heads, n, c] rows as a C-contiguous [heads, c, n] array,
        the right operand of a score-shaped matmul."""
        return np.ascontiguousarray(a.transpose(0, 2, 1))

    ones = np.ones(dh, dtype=q.dtype)

    def head_sums(a):
        """The sum of each head's slice of each row of [n, d] ``a``, as
        [heads, n, 1]: one matvec over [n * heads, dh] rows."""
        return (a.reshape(n * heads, dh) @ ones).reshape(n, heads).T[..., None]

    def largest_norm(a):
        """The largest norm of a head's slice of a row of [n, d] ``a``; inf
        where a square overflows."""
        with np.errstate(over="ignore"):
            return math.sqrt(head_sums(np.square(a)).max())

    qs = q * scale2
    # No score exceeds this bound in magnitude (Cauchy-Schwarz).
    bound = largest_norm(qs) * largest_norm(k)
    shift = n == 1 or not bound <= SCORE_BOUND
    recording = _recording
    # A one-chunk call (n <= 256 at 4 heads) gained nothing from a second thread.
    two = len(spans) > 1 and heads > 1 and _usable_cpus() > 1
    qs, kh, vx = split(qs), split(k), widened(split(v), 1)
    kt = transposed(kh)

    data = np.empty((n, d), dtype=q.dtype)
    out = split(data)
    lse = np.empty((heads, n, 1), dtype=q.dtype)
    kept = inv_l = None
    if recording and heads * n <= ATTENTION_BLOCK:
        kept = np.empty((heads, spans[0][1], n), dtype=q.dtype)
        inv_l = np.empty((heads, spans[0][1], 1), dtype=q.dtype)

    def forward(h0, h1):
        """The chunk loop over heads [h0, h1)."""
        for s, e in spans:
            first = s == 0 and kept is not None
            p = np.matmul(qs[h0:h1, s:e], kt[h0:h1], out=kept[h0:h1] if first else None)
            if shift:
                m = p.max(axis=-1, keepdims=True)
                p -= m
            np.exp2(p, out=p)
            ol = p @ vx[h0:h1]  # [E v | l]
            l = ol[..., dh:]
            np.divide(ol[..., :dh], l, out=out[h0:h1, s:e])
            if first:
                np.divide(1, l, out=inv_l[h0:h1])
            elif not recording:
                continue
            elif shift:
                np.add(m, np.log2(l), out=lse[h0:h1, s:e])
            else:
                np.log2(l, out=lse[h0:h1, s:e])

    if two:
        _on_two_threads(forward, heads)
    else:
        forward(0, heads)

    def backward(g):
        if n == 1:  # one key: P is the constant 1, whatever q and k are
            return np.zeros_like(g), np.zeros_like(g), g
        # [dO | -D] per head, D = rowsum(dO * O); the kept rows divided by l.
        gx = widened(split(g), -head_sums(g * data))
        if kept is not None:
            gx[:, : kept.shape[1]] *= inv_l
        gh = gx[..., :dh]
        dq = np.empty_like(g)
        # Every recomputed P and every dS go to one reused buffer each, as
        # contiguous prefixes, so the chunk loop allocates no chunk-sized
        # array (a loop that did made glibc trim and refault them at n=1024).
        size = heads * min(rows, n) * n
        d_scores = np.empty(size, dtype=g.dtype)
        if kept is None or len(spans) > 1:
            scores = np.empty(size, dtype=g.dtype)
            # [q * scale2 | -L] @ [k | 1]^T is S - L; the kept rows' L is unused.
            qx, kxt = widened(qs, -lse), transposed(widened(kh, 1))
        vxt = transposed(vx)

        def chunks(h0, h1):
            """The chunk loop over heads [h0, h1), in their own part of each
            buffer (heads [0, h0) own the part before it): their dv and dk^T."""
            at = h0 * min(rows, n) * n
            for s, e in spans:
                shape = (h1 - h0, e - s, n)
                part = slice(at, at + math.prod(shape))
                if s == 0 and kept is not None:
                    p = kept[h0:h1]
                else:
                    p = scores[part].reshape(shape)
                    np.matmul(qx[h0:h1, s:e], kxt[h0:h1], out=p)
                    np.exp2(p, out=p)
                dv_part = p.transpose(0, 2, 1) @ gh[h0:h1, s:e]
                gs = d_scores[part].reshape(shape)
                np.matmul(gx[h0:h1, s:e], vxt[h0:h1], out=gs)
                gs *= p
                dq.reshape(n, heads, dh)[s:e, h0:h1] = (gs @ kh[h0:h1]).transpose(1, 0, 2)
                dkt_part = qs[h0:h1, s:e].transpose(0, 2, 1) @ gs  # [heads, dh, n]
                if s == 0:
                    dv, dkt = dv_part, dkt_part
                else:
                    dv += dv_part
                    dkt += dkt_part
            return dv, dkt

        if two:
            halves = _on_two_threads(chunks, heads)
            dv, dkt = (np.concatenate(parts) for parts in zip(*halves))
        else:
            dv, dkt = chunks(0, heads)
        dq *= scale
        dkt *= ln2  # qs carries 1 / ln 2
        return dq, merge(dkt.transpose(0, 2, 1)), merge(dv)

    return data, backward


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_two_threads(loop, heads: int):
    """``loop(0, heads // 2)`` on this thread and ``loop(heads // 2, heads)``
    on one helper thread, joined before return, also when either raises;
    their two results in head order.  The helper runs in a copy of this
    thread's context, so NumPy's error state is the caller's, and an
    exception it raises is raised here after the join."""
    half = heads // 2
    result = error = None

    def helper():
        nonlocal result, error
        try:
            result = loop(half, heads)
        except BaseException as exc:  # re-raised on the calling thread
            error = exc

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        mine = loop(0, half)
    finally:
        thread.join()
    if error is not None:
        raise error
    return mine, result


def _gelu(v: np.ndarray):
    """GELU with the tanh approximation.

    Each expression runs in its written order, in place on three buffers;
    ``empty_like`` allocates them, since arithmetic on a 0-d array would
    return a scalar.  Backward keeps only ``v`` and the tanh.
    """
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
        return (slope,)

    return data, backward


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize the last axis to zero mean / unit variance, then affine-map it.

    The input viewed as [rows, dim] times a vector of 1 / dim gives each
    row's mean, and the squares of the centred input times the same vector
    its variance; the centred input is kept as the normalized input, so no
    row's deviation is formed twice.  So a row's statistics are sums of its
    entries times 1 / dim in BLAS's order, not ``np.var``'s bits.  Backward
    keeps the normalized input and 1 / sigma, takes its two row means by
    the same matvec, and the gain and bias gradients as a ones vector times
    the [rows, dim] views of ``g * xhat`` and ``g``.
    """
    dim = x.shape[-1] if x.ndim else 0
    if dim < 1:
        raise DimensionError("layernorm needs a non-empty last axis")
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise DimensionError("layernorm gain/bias must match the last axis extent")
    lead = (*x.shape[:-1], 1)
    avg = np.full(dim, 1 / dim, dtype=x.dtype)

    def row_means(a):
        return (a.reshape(-1, dim) @ avg).reshape(lead)

    def column_sums(a):
        return np.ones(a.size // dim, dtype=a.dtype) @ a.reshape(-1, dim)

    xhat = x - row_means(x)
    data = np.square(xhat)  # the squares first, then the output
    inv = row_means(data)
    # inv = 1.0 / sqrt(var + eps)
    inv += LAYERNORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=data)
    data += bias

    def backward(g):
        gy = g * gain
        scratch = gy * xhat
        m1, m2 = row_means(gy), row_means(scratch)
        # dx = ((gy - m1) - xhat * m2) * inv
        gy -= m1
        gy -= np.multiply(xhat, m2, out=scratch)
        gy *= inv
        return gy, column_sums(np.multiply(g, xhat, out=scratch)), column_sums(g)

    return data, backward


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for [n, d_in] rows as one node.  An operand that records
    no gradient gets no product in backward."""
    parents = x, w, b = _coerce(x), _coerce(w), _coerce(b)
    data, grads = _linear(x.data, w.data, b.data)

    def backward(g):
        return grads(g, [p.requires_grad for p in parents])

    return _result(data, parents, backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    data, backward = _layernorm(x.data, gain.data, bias.data)
    return _result(data, (x, gain, bias), backward)


def attention_sublayer(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, heads: int) -> Tensor:
    """A pre-LN attention sublayer as one node: with ``h = layernorm(x, gain,
    bias)`` and ``q, k, v`` its three linears, ``x + linear(attention(q, k,
    v), wo, bo)``.

    The op bodies run in that order.  Backward keeps the layernorm's
    normalized input and 1 / sigma, ``h``, what attention keeps and its
    output; not q (attention keeps it scaled) nor wo's output.  It copies
    the q/k/v gradients C-ordered, as the tape stored them, and sums h's
    three gradients as ``(q + k) + v``, the tape's order, so every gradient
    is bitwise the composition's.
    """
    parents = tuple(_coerce(t) for t in (x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo))
    x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo = (t.data for t in parents)
    h, ln_grads = _layernorm(x, gain, bias)
    q, q_grads = _linear(h, wq, bq)
    k, k_grads = _linear(h, wk, bk)
    v, v_grads = _linear(h, wv, bv)
    a, attention_grads = _attention(q, k, v, heads)
    data, o_grads = _linear(a, wo, bo)
    if data.shape != x.shape:
        raise DimensionError(f"sublayer output {data.shape} does not match its input {x.shape}")
    data += x  # the residual's two terms commute

    def backward(g):
        da, dwo, dbo = o_grads(g)
        dq, dk, dv = (np.ascontiguousarray(d) for d in attention_grads(da))
        dh, dwq, dbq = q_grads(dq)
        dh_k, dwk, dbk = k_grads(dk)
        dh += dh_k
        dh_v, dwv, dbv = v_grads(dv)
        dh += dh_v
        dx, dgain, dbias = ln_grads(dh)
        dx += g
        return dx, dgain, dbias, dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo

    return _result(data, parents, backward)


def mlp_sublayer(x, gain, bias, w1, b1, w2, b2) -> Tensor:
    """A pre-LN MLP sublayer as one node: with ``h = layernorm(x, gain,
    bias)``, ``x + linear(gelu(linear(h, w1, b1)), w2, b2)``.

    The op bodies run in that order.  Backward keeps the layernorm's
    normalized input and 1 / sigma, ``h``, w1's output, the tanh and the
    gelu output; not w2's output.
    """
    parents = tuple(_coerce(t) for t in (x, gain, bias, w1, b1, w2, b2))
    x, gain, bias, w1, b1, w2, b2 = (t.data for t in parents)
    h, ln_grads = _layernorm(x, gain, bias)
    u, up_grads = _linear(h, w1, b1)
    u, gelu_grads = _gelu(u)
    data, down_grads = _linear(u, w2, b2)
    if data.shape != x.shape:
        raise DimensionError(f"sublayer output {data.shape} does not match its input {x.shape}")
    data += x  # the residual's two terms commute

    def backward(g):
        du, dw2, db2 = down_grads(g)
        (du,) = gelu_grads(du)
        dh, dw1, db1 = up_grads(du)
        dx, dgain, dbias = ln_grads(dh)
        dx += g
        return dx, dgain, dbias, dw1, db1, dw2, db2

    return _result(data, parents, backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _result(data, (x,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise DimensionError("concat_rows needs at least one tensor")
    trailing = parts[0].shape[1:]
    if any(p.shape[1:] != trailing for p in parts):
        raise DimensionError("concat_rows requires matching trailing extents")
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([p.shape[0] for p in parts[:-1]], dtype=np.intp)

    def backward(g):
        return np.split(g, offsets)

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
        return (flat.reshape(x.shape),)

    return _result(data, (x,), backward)


def _pairs(a: np.ndarray) -> np.ndarray:
    """A real array's entries as one flat run of complex (re, im) pairs."""
    return np.ascontiguousarray(a).reshape(-1).view(f"c{2 * a.itemsize}")


def permute(x: Tensor, split: tuple, axes: tuple, shape: tuple) -> Tensor:
    """``x``'s (re, im) pairs split into ``split``, put in ``axes`` order and
    laid out in ``shape``.

    Each pair moves as one complex item: forward is one C-ordered copy of the
    transposed view, and backward one copy of the gradient's pairs into that
    view of a fresh buffer, so every entry, -0.0 included, lands once, as is.
    """
    x = _coerce(x)
    sizes = {2 * math.prod(split), math.prod(shape)}
    if sizes != {x.size} or sorted(axes) != [*range(len(split))]:
        raise DimensionError(f"permute of {x.shape} cannot move its pairs by {split}, {axes}")
    data = _pairs(x.data).reshape(split).transpose(axes).copy().view(x.data.dtype).reshape(shape)

    def backward(g):
        pairs = _pairs(g)
        grad = np.empty(split, dtype=pairs.dtype)
        grad.transpose(axes)[...] = pairs.reshape([split[a] for a in axes])
        return (grad.view(g.dtype).reshape(x.shape),)

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
        raise ValueError(f"schedule step {step} outside [0, {total})")
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

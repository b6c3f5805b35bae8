"""Autodiff engine, Adam, and learning-rate schedule tests.

Every differentiable op is checked against the central finite-difference
oracle in 64-bit mode (h=1e-6, rel. 1e-4), per the gradient acceptance gate.
"""

import itertools
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from kinterp import numcore as nc
from kinterp import ConfigError, DimensionError, TrainingError
from kinterp.numcore import (
    LrSchedule,
    OptimizerState,
    Tensor,
    adam_step,
    lr_at,
)

RNG = np.random.default_rng(42)


def check_grad(build, *arrays, tol=1e-4):
    """AD gradient of a scalar-valued composite vs finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for i, t in enumerate(tensors):

        def scalar(x, i=i):
            args = [Tensor(a.copy()) for a in arrays]
            args[i] = Tensor(x)
            return build(*args).item()

        fd = oracles.fd_gradient(scalar, arrays[i])
        assert oracles.rel_err(t.grad, fd) < tol, f"operand {i}"


# ---- elementwise and shape ops ----------------------------------------------


def test_add_gradients_with_broadcast():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    check_grad(lambda x, y: oracles.mean_all((x + y) * (x + y)), a, b)


def test_sub_mul_gradients():
    a = RNG.normal(size=(2, 5))
    b = RNG.normal(size=(2, 5))
    check_grad(lambda x, y: oracles.mean_all((x - y) * x * y), a, b)


def test_mul_broadcast_scalar_gradient():
    a = RNG.normal(size=(3, 2))
    b = np.array(0.7)
    check_grad(lambda x, y: oracles.mean_all(x * y * x), a, b)


def test_matmul_identity():
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = oracles.matmul(Tensor(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_annihilator():
    a = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = Tensor(np.array([[0.0], [5.0]]))
    assert np.array_equal(oracles.matmul(a, b).data, np.zeros((2, 1)))


def test_matmul_gradient_matches_finite_differences():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    check_grad(lambda x, y: oracles.mean_all(oracles.matmul(x, y)), a, b, tol=1e-5)


def test_matmul_batched_gradient():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(4, 5))
    check_grad(lambda x, y: oracles.mean_all(oracles.matmul(x, y) * oracles.matmul(x, y)), a, b)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        oracles.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_transpose_reshape_gradients():
    a = RNG.normal(size=(2, 3, 4))
    check_grad(
        lambda x: oracles.mean_all(nc.reshape(oracles.transpose(x, (2, 0, 1)), (8, 3)) * 2.0), a
    )


def test_concat_rows_gradient():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(4, 3))

    def build(x, y):
        joined = nc.concat_rows([x, y])
        return oracles.mean_all(joined * joined)

    check_grad(build, a, b)


def test_gather_rows_gradient_sums_duplicates():
    a = RNG.normal(size=(4, 3))
    idx = np.array([0, 2, 2, 1])[:, None] * 3 + np.arange(3)
    check_grad(lambda x: oracles.mean_all(nc.gather(x, idx) * nc.gather(x, idx)), a)


def test_gather():
    rng = np.random.default_rng(781)
    a = rng.normal(size=(3, 4))
    idx = np.array([[5, 0, 11], [5, 5, 2]])
    out = nc.gather(Tensor(a), idx)
    assert out.shape == idx.shape
    assert np.array_equal(out.data, a.reshape(-1)[idx])
    # repeated indices accumulate
    rows = np.array([2, 0, 2, 2])
    weight = rng.normal(size=(4, 4))
    leaf = Tensor(a, requires_grad=True)
    oracles.mean_all(nc.gather(leaf, rows[:, None] * 4 + np.arange(4)) * Tensor(weight)).backward()
    want = np.zeros_like(a)
    np.add.at(want, rows, weight / weight.size)
    assert np.array_equal(leaf.grad, want)
    for bad in (np.array([-1]), np.array([12]), np.array([[0, 99]])):
        with pytest.raises(DimensionError):
            nc.gather(Tensor(a), bad)
    # a permutation passes every gradient entry through, -0.0 included
    perm = rng.permutation(12)
    g = rng.normal(size=12)
    g[[3, 7]] = -0.0
    leaf = Tensor(a, requires_grad=True)
    oracles.mean_all(nc.gather(leaf, perm) * Tensor(g)).backward()
    want = np.empty(12)
    want[perm] = np.full(12, 1.0 / 12) * g  # the upstream gradient, entry by entry
    assert np.array_equal(leaf.grad.reshape(-1), want)
    assert np.array_equal(np.signbit(leaf.grad.reshape(-1)), np.signbit(want))


def test_permute_moves_pairs_both_ways():
    rng = np.random.default_rng(782)
    a = rng.normal(size=(2, 3, 4))
    split, axes, shape = (2, 3, 2), (2, 0, 1), (4, 6)
    leaf = Tensor(a, requires_grad=True)
    out = nc.permute(leaf, split, axes, shape)
    weight = rng.normal(size=shape)
    oracles.mean_all(out * Tensor(weight)).backward()
    # pair (i, j, k), entries a[i, j, 2k:2k+2], lands at pair (k, i, j) of [2, 2, 3]
    at = {(i, j, k): 2 * ((k * 2 + i) * 3 + j) for i, j, k in np.ndindex(split)}
    assert sorted(at.values()) == list(range(0, a.size, 2))
    values, upstream = out.data.reshape(-1), weight.reshape(-1) * (1.0 / weight.size)
    for (i, j, k), s in at.items():
        assert np.array_equal(values[s : s + 2], a[i, j, 2 * k : 2 * k + 2])
        assert np.array_equal(leaf.grad[i, j, 2 * k : 2 * k + 2], upstream[s : s + 2])
    check_grad(lambda x: oracles.mean_all(nc.permute(x, split, axes, shape) * Tensor(weight)), a)
    for bad in (
        ((2, 3, 3), axes, shape),  # a split of other than the pairs
        (split, (0, 0, 1), shape),  # an axis twice
        (split, (0, 1), shape),  # an axis left out
        (split, axes, (5, 5)),  # a shape of another size
    ):
        with pytest.raises(DimensionError):
            nc.permute(Tensor(a), *bad)


def _assert_own_gradients(leaves, others):
    """Each leaf's gradient is its own buffer: it shares memory with no other
    tensor's gradient, and adding into it in place changes none of them."""
    tensors = [*leaves, *others]
    for leaf in leaves:
        for t in tensors:
            assert t is leaf or not np.shares_memory(leaf.grad, t.grad)
        before = [t.grad.copy() for t in tensors if t is not leaf]
        leaf.grad += 1.0
        after = [t.grad for t in tensors if t is not leaf]
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]


def test_first_gradients_sum_and_share_no_buffer():
    """The engine sums every gradient a leaf receives, and the sum is its
    own: through the q/k/v linears into attention, through an operand used
    twice by one op, and through ops whose gradients are views of their
    incoming gradient (reshape, concat_rows, a broadcast add)."""
    rng = np.random.default_rng(783)
    n, d, heads = 6, 8, 2
    h = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    weights = [Tensor(rng.normal(size=(d, d)), requires_grad=True) for _ in range(3)]
    biases = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(3)]
    q, k, v = (nc.linear(h, w, b) for w, b in zip(weights, biases))
    out = oracles.attention(q, k, v, heads)
    oracles.mean_all(out * Tensor(rng.normal(size=(n, d)))).backward()
    want = sum(t.grad @ w.data.T for t, w in zip((q, k, v), weights))
    assert oracles.rel_err(h.grad, want) <= 1e-12
    _assert_own_gradients([h, *weights, *biases], [out, q, k, v])

    # One operand twice in one op: add hands it two views of one gradient,
    # mul two products.
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    doubled = x + x
    oracles.mean_all(doubled * Tensor(rng.normal(size=(3, 4)))).backward()
    assert x.grad.tobytes() == (doubled.grad + doubled.grad).tobytes()
    _assert_own_gradients([x], [doubled])
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    squared = x * x
    oracles.mean_all(squared * Tensor(rng.normal(size=(3, 4)))).backward()
    assert x.grad.tobytes() == (squared.grad * x.data + squared.grad * x.data).tobytes()
    _assert_own_gradients([x], [squared])

    # Leaves reached only through view-returning ops.
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    bias = Tensor(rng.normal(size=2), requires_grad=True)
    rows = nc.reshape(a, (3, 2))
    joined = nc.concat_rows([rows, c])
    shifted = joined + bias
    oracles.mean_all(shifted * Tensor(rng.normal(size=(5, 2)))).backward()
    g = shifted.grad
    assert a.grad.tobytes() == g[:3].reshape(2, 3).tobytes()
    assert c.grad.tobytes() == g[3:].tobytes()
    assert bias.grad.tobytes() == g.sum(axis=0).tobytes()
    _assert_own_gradients([a, c, bias], [rows, joined, shifted])


def test_backward_rejects_a_wrong_number_of_gradients():
    """A closure must return one gradient per operand: one more or one fewer
    raises instead of being dropped."""
    x = Tensor(np.ones(3), requires_grad=True)
    for returned in (lambda g: (g, g), lambda g: ()):
        node = nc._result(x.data.copy(), (x,), returned)
        with pytest.raises(ValueError):
            oracles.mean_all(node).backward()


_REFERENCE_SHAPES = [(), (1,), (7,), (1, 6), (4, 6), (2, 3, 5)]


@given(
    shape=st.sampled_from(_REFERENCE_SHAPES),
    mode=st.sampled_from(["test", "train"]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**16),
)
def test_in_place_ops_match_their_reference_bodies_bitwise(shape, mode, scale, seed):
    """``gelu`` and ``layernorm`` equal the whole-array bodies in
    ``oracles`` bit for bit: outputs and every input gradient.

    A 0-d gelu is held to the reference on the same value as one entry: on
    a 0-d array the reference's chain turns into NumPy scalars, whose
    ``t**2`` can round one ulp off the array square ``t * t``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * scale
    upstream = rng.normal(size=shape)

    def run(op, arrays, reshape=None):
        with nc.use_mode(mode):
            leaves = [Tensor(a if reshape is None else a.reshape(reshape), requires_grad=True)
                      for a in arrays]
            out = op(*leaves)
            w = upstream if reshape is None else upstream.reshape(reshape)
            oracles.mean_all(out * Tensor(w)).backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]

    ref_shape = (1,) if shape == () else None
    assert run(oracles.gelu, [x]) == run(oracles.reference_gelu, [x], ref_shape)
    if shape == ():
        return
    dim = shape[-1]
    arrays = [x, rng.normal(size=dim), rng.normal(size=dim)]
    assert run(nc.layernorm, arrays) == run(oracles.reference_layernorm, arrays)


# c in the bound c * eps * scale that float32 layernorm keeps to a float64
# np.mean / np.var reference, entry by entry (``_layernorm_errors``).  Over
# 20000 draws of the test's strategy the worst was 2.01 (2.45 for the
# earlier np.var body), and over 600 draws at [256, 32], the model's width,
# 2.11 for both.
LAYERNORM_C = 8


def _layernorm_errors(shape, scale, seed):
    """Each of float32 layernorm's output, dx, dgain and dbias as its worst
    |error| over eps * its error scale, against ``np.mean``/``np.var`` in
    float64 on the same float32 inputs and upstream gradient.

    With r a row's max |x| times its float64 1 / sigma (how far its entries
    lie from 0 in normalized units, the mean's rounding included), the
    scales are: output |gain| r + |bias|; dx 1 / sigma times |gy| + mean
    |gy| (1 + r^2), for gy = g * gain; dgain the sum over rows of |g| r; and
    dbias the sum of |g|."""
    rng = np.random.default_rng(seed)
    dim = shape[-1]
    arrays = [rng.normal(size=shape) * scale, rng.normal(size=dim), rng.normal(size=dim)]
    with nc.use_mode("train"):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = nc.layernorm(*leaves)
        oracles.mean_all(out * Tensor(rng.normal(size=shape))).backward()
    x, gain, bias, g = (a.astype(np.float64) for a in (*(t.data for t in leaves), out.grad))
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + nc.LAYERNORM_EPS)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    gy = g * gain
    dx = gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
    rows = tuple(range(x.ndim - 1))
    r = np.abs(x).max(axis=-1, keepdims=True) * inv
    mean_gy = np.abs(gy).mean(axis=-1, keepdims=True)
    checks = [
        (out.data, xhat * gain + bias, np.abs(gain) * r + np.abs(bias)),
        (leaves[0].grad, dx * inv, inv * (np.abs(gy) + mean_gy * (1 + r * r))),
        (leaves[1].grad, (g * xhat).sum(axis=rows), (np.abs(g) * r).sum(axis=rows)),
        (leaves[2].grad, g.sum(axis=rows), np.abs(g).sum(axis=rows)),
    ]
    eps = np.finfo(np.float32).eps
    return [float(np.max(np.abs(got - want) / (eps * s))) for got, want, s in checks]


@given(
    # layernorm needs a last axis, so the 0-d shape is left out.
    shape=st.sampled_from([s for s in _REFERENCE_SHAPES if s]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**16),
)
def test_layernorm_float32_stays_within_c_eps_of_float64(shape, scale, seed):
    """float32 layernorm's output and all three gradients stay within
    ``LAYERNORM_C`` eps of their error scales of the float64 reference: its
    matvec row statistics are not ``np.var``'s bits, but as accurate."""
    errors = _layernorm_errors(shape, scale, seed)
    assert max(errors) <= LAYERNORM_C, errors


# ---- fused ops against their unfused compositions ------------------------------


def _run_with_grads(build, arrays, weight):
    """Output and per-operand gradients of ``mean(build(*leaves) * weight)``,
    and the gradient the output received."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    oracles.mean_all(out * Tensor(weight)).backward()
    return out.data, [t.grad for t in leaves], out.grad


def _assert_matches_composition(fused, unfused, arrays, weight):
    out, grads, _ = _run_with_grads(fused, arrays, weight)
    ref_out, ref_grads, _ = _run_with_grads(unfused, arrays, weight)
    assert out.shape == ref_out.shape
    assert oracles.rel_err(out, ref_out) <= 1e-12
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.shape == ref.shape, f"operand {i}"
        assert oracles.rel_err(g, ref) <= 1e-12, f"operand {i}"


# c in the bound c * eps * scale that attention's dq and dk keep to the exact
# gradients, entry by entry (``oracles.exact_attention_gradients``).  Over
# 20000 draws of the fused-op test's strategy the worst was 10.7 on the
# shifted path and 8.0 on the shift-free one, and 10.5 for the unfused
# composition; with the draws at 0.25 instead of 2.0, 2.2 and 1.9.
ATTENTION_GRAD_C = 32


def _assert_attention_gradients_accurate(qkv, g, heads, dq, dk):
    """dq and dk within ``ATTENTION_GRAD_C`` eps times their error scale of
    the ``np.longdouble`` gradients, entry by entry."""
    want_q, want_k, scale_q, scale_k = oracles.exact_attention_gradients(*qkv, g, heads)
    bound = ATTENTION_GRAD_C * np.finfo(dq.dtype).eps
    for name, got, want, scale in (("dq", dq, want_q, scale_q), ("dk", dk, want_k, scale_k)):
        assert got.shape == want.shape, name
        assert np.all(np.abs(got.astype(np.longdouble) - want) <= bound * scale), name


def _assert_attention_matches_composition(qkv, weight, heads):
    """The output and dv agree with the unfused composition to 1e-12, and dq
    and dk meet the accuracy bound.  They are not held to the composition's
    rounding: where a row's softmax saturates, dP - D cancels down to D's
    rounding, and D = rowsum(dO * O) rounds otherwise than rowsum(dP * P)."""
    out, (dq, dk, dv), g = _run_with_grads(
        lambda q, k, v: oracles.attention(q, k, v, heads), qkv, weight
    )
    ref_out, ref_grads, _ = _run_with_grads(
        lambda q, k, v: oracles.unfused_attention(q, k, v, heads), qkv, weight
    )
    assert out.shape == ref_out.shape and dv.shape == ref_grads[2].shape
    assert oracles.rel_err(out, ref_out) <= 1e-12
    assert oracles.rel_err(dv, ref_grads[2]) <= 1e-12
    _assert_attention_gradients_accurate(qkv, g, heads, dq, dk)


@given(
    n=st.integers(1, 9),
    heads=st.sampled_from([1, 2, 4]),
    head_dim=st.integers(1, 3),
    d_out=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@example(n=1, heads=1, head_dim=1, d_out=1, seed=0)
@example(n=1, heads=4, head_dim=2, d_out=3, seed=1)
def test_fused_ops_match_unfused_composition(n, heads, head_dim, d_out, seed):
    assert nc.get_mode() == "test"  # float64
    rng = np.random.default_rng(seed)
    d = heads * head_dim
    x, w, b = rng.normal(size=(n, d)), rng.normal(size=(d, d_out)), rng.normal(size=d_out)
    _assert_matches_composition(
        nc.linear, oracles.unfused_linear, [x, w, b], rng.normal(size=(n, d_out))
    )
    qkv = [rng.normal(size=(n, d)) * 2.0 for _ in range(3)]
    _assert_attention_matches_composition(qkv, rng.normal(size=(n, d)), heads)


def test_fused_ops_reject_mismatched_shapes():
    x = Tensor(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        nc.linear(x, Tensor(np.ones((5, 2))), Tensor(np.ones(2)))  # inner extents
    with pytest.raises(DimensionError):
        nc.linear(x, Tensor(np.ones((4, 2))), Tensor(np.ones(3)))  # bias width
    with pytest.raises(DimensionError):
        nc.linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
    with pytest.raises(DimensionError):
        oracles.attention(x, x, Tensor(np.ones((3, 2))), 2)  # v width
    with pytest.raises(DimensionError):
        oracles.attention(x, Tensor(np.ones((2, 4))), x, 2)  # k rows
    with pytest.raises(DimensionError):
        oracles.attention(x, x, x, 3)  # 4 not divisible by 3 heads
    with pytest.raises(DimensionError):
        oracles.attention(Tensor(np.ones(4)), Tensor(np.ones(4)), Tensor(np.ones(4)), 1)
    empty = Tensor(np.ones((0, 4)))
    with pytest.raises(DimensionError):
        oracles.attention(empty, empty, empty, 2)  # no query rows


# Attention's two paths, by the scale of the draws: at 0.25 every case below
# bounds its scores within ``nc.SCORE_BOUND`` and takes the shift-free path,
# and at the scale the cases drew at before that path (2.0 for q, k and v)
# most take the shifted one.  Each case asserts the path it takes.
SHIFT_FREE = 0.25


def _path_cases(cases, shifted=2.0, free_at_shifted=()):
    """Each (id, *args) case at the draw scale ``shifted`` under its id and
    at ``SHIFT_FREE`` under id-shift-free, with whether it shifts: at
    ``shifted`` it does, but for the ids in ``free_at_shifted``."""
    return [
        pytest.param(
            *args,
            scale,
            scale == shifted and name not in free_at_shifted,
            id=name if scale == shifted else f"{name}-shift-free",
        )
        for scale in (shifted, SHIFT_FREE)
        for name, *args in cases
    ]


# rows per chunk = max(1, block // (heads * n)): 1 with every chunk over the
# block (none kept); 4, as chunks of 4 + 4 + 1 rows (the first kept); 2, as
# four chunks of 32 entries of which only the first fits the block of 40; and
# 5, the whole map as one kept chunk, whose scores at 2.0 stay within the
# bound (19.0 in base-2 units, 13.2 natural).  Every other chunk keeps its
# rows' log-sum-exp, and the output must not depend on whether the tape
# records.
@pytest.mark.parametrize(
    "n, heads, block, scale, shifts",
    _path_cases(
        [
            ("one-row-chunks", 7, 2, 9),
            ("ragged-last-chunk", 9, 2, 72),
            ("partly-kept-prefix", 8, 2, 40),
            ("whole-map-kept", 5, 2, 50),
        ],
        free_at_shifted=("whole-map-kept",),
    ),
)
def test_chunked_attention_matches_unfused_composition(monkeypatch, n, heads, block, scale, shifts):
    assert nc.get_mode() == "test"  # float64
    monkeypatch.setattr(nc, "ATTENTION_BLOCK", block)
    rng = np.random.default_rng(n * heads)
    d = heads * 3
    qkv = [rng.normal(size=(n, d)) * scale for _ in range(3)]
    assert oracles.attention_shifts(*qkv[:2], heads) == shifts
    _assert_attention_matches_composition(qkv, rng.normal(size=(n, d)), heads)
    taped = oracles.attention(*(Tensor(a, requires_grad=True) for a in qkv), heads)
    with nc.no_grad():
        untaped = oracles.attention(*(Tensor(a, requires_grad=True) for a in qkv), heads)
    assert taped.requires_grad and not untaped.requires_grad
    assert taped.data.tobytes() == untaped.data.tobytes()


@pytest.mark.parametrize("mode", ["test", "train"])
@pytest.mark.parametrize("grad_rows", [slice(-1, None), slice(0, 3), None], ids=["row", "3-rows", "default"])
@pytest.mark.parametrize(
    "n, heads, block, scale, shifts",
    _path_cases(
        [
            ("one-kept-chunk", 10, 2, None),
            ("one-row-chunks", 7, 2, 9),
            ("ragged-last-chunk", 10, 2, 60),
            ("partly-kept-prefix", 8, 2, 40),
        ]
    ),
)
def test_attention_matches_its_reference_body_bitwise(
    monkeypatch, mode, grad_rows, n, heads, block, scale, shifts
):
    """Reused chunk buffers, in-place passes and the widened operands built
    once give the bytes of a fresh array per chunk and per product, with the
    upstream gradient on every query row (the default), or on the last row
    or the first three only, so that other chunks' rows of dO and D are zero
    and their scores go through the reused buffers as zeros.  The reference
    subtracts the row max on the shifted path and 0 on the other."""
    if block is not None:
        monkeypatch.setattr(nc, "ATTENTION_BLOCK", block)
    rng = np.random.default_rng(784)
    arrays = [rng.normal(size=(n, 2 * heads)) * scale for _ in range(4)]
    with nc.use_mode(mode):
        q, k = (Tensor(a).data for a in arrays[:2])
    assert oracles.attention_shifts(q, k, heads) == shifts
    if grad_rows is not None:
        weight = np.zeros_like(arrays[3])
        weight[grad_rows] = arrays[3][grad_rows]
        arrays[3] = weight

    def run(op):
        with nc.use_mode(mode):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays[:3])
            out = op(q, k, v, heads)
            oracles.mean_all(out * Tensor(arrays[3])).backward()
        return [t.tobytes() for t in (out.data, q.grad, k.grad, v.grad)]

    assert run(oracles.attention) == run(oracles.reference_attention)


@pytest.mark.parametrize("mode", ["test", "train"])
def test_kept_and_recomputed_chunks_agree(monkeypatch, mode):
    """One q, k and v through both backward paths: the whole map kept as E
    and 1/l, and one-row chunks, with the first kept and with every one
    recomputed from its rows' L.  The two one-row runs share their forward
    and give identical output bytes.  The whole map's output is the same to
    rounding only: a one-row matmul rounds a row's products otherwise than
    the same row of a larger one.  Every run's dq and dk meet the accuracy
    bound, and the three dv agree."""
    n, heads, head_dim = 12, 2, 4
    d = heads * head_dim
    rng = np.random.default_rng(788)
    qkv = [rng.normal(size=(n, d)) * 2.0 for _ in range(3)]
    weight = rng.normal(size=(n, d))
    runs = []
    for block in (heads * n * n, heads * n, heads * n - 1):
        monkeypatch.setattr(nc, "ATTENTION_BLOCK", block)
        with nc.use_mode(mode):
            leaves = [Tensor(a, requires_grad=True) for a in qkv]
            out = oracles.attention(*leaves, heads)
            oracles.mean_all(out * Tensor(weight)).backward()
        q, k, v = leaves
        _assert_attention_gradients_accurate(
            [t.data for t in leaves], out.grad, heads, q.grad, k.grad
        )
        runs.append((out.data, v.grad))
    (whole, dv), (kept, dv_kept), (recomputed, dv_recomputed) = runs
    assert kept.tobytes() == recomputed.tobytes()
    tol = 64 * np.finfo(whole.dtype).eps
    assert oracles.rel_err(whole, kept) <= tol
    assert oracles.rel_err(dv_kept, dv) <= tol and oracles.rel_err(dv_recomputed, dv) <= tol


@pytest.mark.parametrize("mode", ["test", "train"])
@pytest.mark.parametrize("heads, head_dim", [(1, 1), (2, 3), (4, 2), (4, 8)])
def test_attention_over_one_key_passes_gradient_only_to_v(mode, heads, head_dim):
    # One key makes the softmax the constant 1: the output is v, dv is the
    # upstream gradient and dq, dk are exactly zero, in either precision.
    # The closure returns the upstream gradient itself for v, so v's stored
    # gradient must be a copy of it.  A linear reads the output, so that
    # gradient is an array that owns its memory, not a view.
    rng = np.random.default_rng(10 * heads + head_dim)
    d = heads * head_dim
    with nc.use_mode(mode):
        q, k, v = (Tensor(rng.normal(size=(1, d)) * 2.0, requires_grad=True) for _ in range(3))
        out = oracles.attention(q, k, v, heads)
        oracles.mean_all(nc.linear(out, rng.normal(size=(d, d)), np.zeros(d))).backward()
        assert out.grad.base is None
        assert out.data.dtype == nc.active_dtype()
    assert np.array_equal(out.data, v.data)
    assert v.grad.tobytes() == out.grad.tobytes()
    assert np.all(q.grad == 0) and np.all(k.grad == 0)
    _assert_own_gradients([v], [out])


@pytest.mark.parametrize("case", ["squares-overflow", "scores-above-88"])
def test_attention_shifts_float32_scores_it_cannot_bound(monkeypatch, case):
    """In float32, q whose squared norms overflow (its true bound is small,
    but the computed one is inf) and scores above 88, where exp overflows,
    take the shifted path: the output is finite, and output and gradients
    are the reference body's bytes.  Unshifted, the scores above 88 would
    give a non-finite output."""
    rng = np.random.default_rng(789)
    n, heads, d = 6, 2, 8
    q, k, v, weight = (rng.normal(size=(n, d)) for _ in range(4))
    if case == "squares-overflow":
        q, k = q * 1e20, k * 1e-20
        assert not oracles.attention_shifts(q, k, heads)  # in float64
    else:
        q, k = q * 12.0, k * 12.0
        scores = np.einsum("ihc,jhc->hij", q.reshape(n, heads, -1), k.reshape(n, heads, -1))
        assert scores.max() / math.sqrt(d // heads) > 88.0

    def run(op):
        with nc.use_mode("train"):
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = op(*leaves, heads)
            oracles.mean_all(out * Tensor(weight)).backward()
        assert out.data.dtype == np.float32 and np.all(np.isfinite(out.data))
        return [t.tobytes() for t in (out.data, *(t.grad for t in leaves))]

    assert oracles.attention_shifts(q.astype(np.float32), k.astype(np.float32), heads)
    assert run(oracles.attention) == run(oracles.reference_attention)
    if case == "scores-above-88":
        monkeypatch.setattr(nc, "SCORE_BOUND", math.inf)
        with nc.use_mode("train"), np.errstate(over="ignore", invalid="ignore"):
            unshifted = oracles.attention(*(Tensor(a) for a in (q, k, v)), heads)
        assert not np.all(np.isfinite(unshifted.data))


@pytest.mark.parametrize("mode", ["test", "train"])
def test_attention_bounds_scores_head_by_head(mode):
    """The bound that lets attention skip the row max is taken per head:
    every head's slice of every q and k row has the same norm, so each
    head bounds its base-2 scores by 20, within ``SCORE_BOUND``, while the
    whole rows' norms would bound them by 80.  The call takes the
    shift-free path and gives the reference body's bytes there."""
    rng = np.random.default_rng(790)
    n, heads, dh = 6, 4, 2
    d = heads * dh
    radius = math.sqrt(20.0 * math.sqrt(dh) * math.log(2.0))

    def even_heads(a):
        h = a.reshape(n, heads, dh)
        return (h * (radius / np.linalg.norm(h, axis=-1, keepdims=True))).reshape(n, d)

    q, k = (even_heads(rng.normal(size=(n, d))) for _ in range(2))
    v, weight = rng.normal(size=(2, n, d))
    assert not oracles.attention_shifts(q, k, heads)
    assert oracles.attention_shifts(q, k, 1)  # one head of width d

    def run(op):
        with nc.use_mode(mode):
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = op(*leaves, heads)
            oracles.mean_all(out * Tensor(weight)).backward()
        return [t.tobytes() for t in (out.data, *(t.grad for t in leaves))]

    assert run(oracles.attention) == run(oracles.reference_attention)


def test_attention_memory_stays_below_half_a_probability_map():
    n, heads, d = 1024, 4, 32
    half_map = heads * n * n * np.dtype(np.float32).itemsize // 2  # 8 MiB
    rng = np.random.default_rng(5)
    with nc.use_mode("train"):
        q, k, v = (Tensor(rng.normal(size=(n, d)), requires_grad=True) for _ in range(3))
        w = Tensor(rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            oracles.mean_all(oracles.attention(q, k, v, heads) * w).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert all(t.grad is not None and t.grad.dtype == np.float32 for t in (q, k, v))
    assert peak < half_map, f"peak {peak / 2**20:.1f} MiB"


# ---- attention's head halves on two threads ------------------------------------


def _spy_threads(monkeypatch) -> list:
    """The threads started from here on, as a list that fills as they start."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


def _attention_run(arrays, heads, mode="train"):
    """Output and q, k, v gradients of ``mean(attention(q, k, v) * weight)``
    as bytes, then the output under ``no_grad``."""
    q, k, v, weight = arrays
    with nc.use_mode(mode):
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = oracles.attention(*leaves, heads)
        oracles.mean_all(out * Tensor(weight)).backward()
        with nc.no_grad():
            untaped = oracles.attention(*leaves, heads)
    return [t.tobytes() for t in (out.data, *(t.grad for t in leaves), untaped.data)]


@pytest.mark.parametrize("mode", ["test", "train"])
@pytest.mark.parametrize("heads", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "block, scale, shifts",
    _path_cases([("one-kept-chunk", None), ("ragged", 72), ("one-row", 9)], shifted=3.0),
)
def test_head_split_gives_the_serial_bytes(monkeypatch, mode, heads, block, scale, shifts):
    """Attention with its head halves on two threads (two usable CPUs) and
    on one (one CPU) gives the same output, taped and under ``no_grad``,
    and the same three gradients, byte for byte.  Three heads split 1 + 2.
    With 9 rows, the ragged block gives chunks of 8 + 1 rows at one head
    and 4 + 4 + 1 or 2 + 2 + 2 + 2 + 1 at more, the first kept; the
    one-row block keeps the first chunk at one head and none at more.
    Only a call of more than one chunk over two or more heads splits:
    forward taped, backward and forward under ``no_grad``, one thread
    each."""
    if block is not None:
        monkeypatch.setattr(nc, "ATTENTION_BLOCK", block)
    rng = np.random.default_rng(791 + heads)
    arrays = [rng.normal(size=(9, 3 * heads)) * scale for _ in range(4)]
    with nc.use_mode(mode):
        q, k = (Tensor(a).data for a in arrays[:2])
    assert oracles.attention_shifts(q, k, heads) == shifts
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(nc, "_usable_cpus", lambda cpus=cpus: cpus)
        started = _spy_threads(monkeypatch)
        runs.append(_attention_run(arrays, heads, mode))
        assert len(started) == (3 if cpus > 1 and block is not None and heads > 1 else 0)
    assert runs[0] == runs[1]


class _Injected(Exception):
    pass


@pytest.mark.parametrize("stage", ["forward", "backward"])
def test_head_split_raises_the_helpers_error_and_leaves_no_thread(monkeypatch, stage):
    """An exception raised in the helper's head range, forward or backward,
    reaches the caller, and no thread outlives a call, whether it returns
    or raises.  Three heads split 1 + 2, so a 2-head slice is the helper's
    alone."""
    monkeypatch.setattr(nc, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(nc, "ATTENTION_BLOCK", 72)
    rng = np.random.default_rng(792)
    q, k, v, weight = (rng.normal(size=(9, 6)) for _ in range(4))
    before = threading.active_count()
    _attention_run([q, k, v, weight], 3)
    assert threading.active_count() == before
    exp2, raised_on = np.exp2, []

    def failing(p, *args, **kwargs):
        if p.shape[0] == 2:
            raised_on.append(threading.current_thread())
            raise _Injected
        return exp2(p, *args, **kwargs)

    with nc.use_mode("train"):
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with pytest.raises(_Injected):
            if stage == "backward":
                out = oracles.attention(*leaves, 3)
                monkeypatch.setattr(np, "exp2", failing)
            else:
                monkeypatch.setattr(np, "exp2", failing)
                out = oracles.attention(*leaves, 3)
            oracles.mean_all(out * Tensor(weight)).backward()
    assert raised_on and threading.main_thread() not in raised_on
    assert threading.active_count() == before


@pytest.mark.parametrize("case", ["one-chunk", "one-cpu", "four-chunks"])
def test_head_split_only_where_chunks_and_cpus_allow(monkeypatch, case):
    """A spy on ``threading.Thread``: a one-chunk call (256 rows over 4
    heads fill ``ATTENTION_BLOCK`` exactly) starts no thread with two
    CPUs, nor does a 4-chunk call (512 rows) on a process pinned to one
    CPU, while with two CPUs that call starts one thread forward and one
    backward."""
    n = 256 if case == "one-chunk" else 512
    rng = np.random.default_rng(793)
    q, k, v, weight = (rng.normal(size=(n, 32)) for _ in range(4))
    if case == "one-cpu":
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity call on this platform")
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    else:
        cpus = None
        monkeypatch.setattr(nc, "_usable_cpus", lambda: 2)
    started = _spy_threads(monkeypatch)
    try:
        with nc.use_mode("train"):
            out = oracles.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), 4)
            forward = len(started)
            oracles.mean_all(out * Tensor(weight)).backward()
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    expected = 1 if case == "four-chunks" else 0
    assert (forward, len(started) - forward) == (expected, expected)


def test_head_split_keeps_the_callers_numpy_error_state(monkeypatch):
    """The helper thread runs under the caller's ``np.errstate``: with the
    row max off, scores above 128 in the helper's two heads alone overflow
    float32's exp2, which raises there as it does in the serial loop."""
    monkeypatch.setattr(nc, "ATTENTION_BLOCK", 72)
    monkeypatch.setattr(nc, "SCORE_BOUND", math.inf)
    rng = np.random.default_rng(794)
    q, k, v = (rng.normal(size=(9, 6)) for _ in range(3))
    q[:, 2:] *= 30.0
    k[:, 2:] *= 30.0
    for cpus in (2, 1):
        monkeypatch.setattr(nc, "_usable_cpus", lambda cpus=cpus: cpus)
        with nc.use_mode("train"), np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                oracles.attention(*(Tensor(a) for a in (q, k, v)), 3)


def _sublayer_operands(rng, n, d, hidden):
    """An input row block and both sublayers' parameters, in their nodes'
    argument order."""
    x = rng.normal(size=(n, d))
    attention = [rng.normal(size=s) for s in [(d,), (d,)] + [(d, d), (d,)] * 4]
    mlp = [rng.normal(size=s) for s in [(d,), (d,), (d, hidden), (hidden,), (hidden, d), (d,)]]
    return x, attention, mlp


# 9 rows of 2 heads: one kept chunk, chunks of 4 + 4 + 1 rows (the first
# kept) and one-row chunks that are all recomputed; the attention
# sublayer's parameters drawn at scale 1 or ``SHIFT_FREE``.
@pytest.mark.parametrize("mode", ["test", "train"])
@pytest.mark.parametrize(
    "block, scale, shifts",
    _path_cases([("one-kept-chunk", None), ("ragged", 72), ("one-row", 9)], shifted=1.0),
)
def test_sublayers_match_their_composition_bitwise(monkeypatch, mode, block, scale, shifts):
    """Each sublayer node gives the bytes of the nodes it replaces: its
    output, every operand's gradient, and its output under ``no_grad``."""
    if block is not None:
        monkeypatch.setattr(nc, "ATTENTION_BLOCK", block)
    rng = np.random.default_rng(785)
    n, heads = 9, 2
    x, attention, mlp = _sublayer_operands(rng, n, 4 * heads, 16 * heads)
    attention = [a * scale for a in attention]
    weight = rng.normal(size=x.shape)
    with nc.use_mode(mode):
        h = nc.layernorm(*(Tensor(a) for a in [x, *attention[:2]]))
        q, k = (nc.linear(h, *(Tensor(a) for a in wb)).data for wb in (attention[2:4], attention[4:6]))
    assert oracles.attention_shifts(q, k, heads) == shifts
    cases = {
        "attention": (
            lambda *t: nc.attention_sublayer(*t, heads=heads),
            lambda *t: oracles.composed_attention_sublayer(*t, heads=heads),
            attention,
        ),
        "mlp": (nc.mlp_sublayer, oracles.composed_mlp_sublayer, mlp),
    }

    def run(op, params):
        with nc.use_mode(mode):
            leaves = [Tensor(a, requires_grad=True) for a in [x, *params]]
            out = op(*leaves)
            oracles.mean_all(out * Tensor(weight)).backward()
            with nc.no_grad():
                untaped = op(*(Tensor(a, requires_grad=True) for a in [x, *params]))
        assert not untaped.requires_grad and untaped._parents == ()
        return [out.data.tobytes(), untaped.data.tobytes()] + [t.grad.tobytes() for t in leaves]

    for name, (fused, composed, params) in cases.items():
        got, want = run(fused, params), run(composed, params)
        assert got[0] == got[1], name  # the tape does not change the output
        for i, (a, b) in enumerate(zip(got, want)):
            assert a == b, f"{name}: entry {i}"


def test_sublayers_reject_mismatched_shapes():
    rng = np.random.default_rng(786)
    x, attention, mlp = _sublayer_operands(rng, 3, 4, 8)
    for name, op, params, at in (
        ("attention", lambda *t: nc.attention_sublayer(*t, heads=2), attention, 8),
        ("mlp", nc.mlp_sublayer, mlp, 4),
    ):
        bad = [*params]  # an output projection to 2 of the input's 4 channels
        bad[at], bad[at + 1] = rng.normal(size=(len(params[at]), 2)), np.ones(2)
        with pytest.raises(DimensionError, match="does not match its input"):
            op(Tensor(x), *(Tensor(a) for a in bad))
        with pytest.raises(DimensionError):  # a layernorm gain of the wrong width
            op(Tensor(x), Tensor(np.ones(3)), *(Tensor(a) for a in params[1:]))
    with pytest.raises(DimensionError):
        nc.attention_sublayer(Tensor(x), *(Tensor(a) for a in attention), heads=3)


def test_gradients_only_for_operands_that_record_one():
    """add, sub, mul and linear hand back None, not a product, for an operand
    that records no gradient; the operands that record one get the same
    bytes as when every operand records one."""
    rng = np.random.default_rng(787)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    w, bias = rng.normal(size=(4, 2)), rng.normal(size=2)
    g = rng.normal(size=(3, 4))
    for op in (nc.add, nc.sub, nc.mul):
        for wants in ((True, False), (False, True)):
            node = op(*(Tensor(v, requires_grad=r) for v, r in zip((a, b), wants)))
            full = op(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
            for got, want, recorded in zip(node._backward(g), full._backward(g), wants):
                assert (got is None) != recorded
                assert got is None or got.tobytes() == want.tobytes()
    g = rng.normal(size=(3, 2))
    full = nc.linear(*(Tensor(v, requires_grad=True) for v in (a, w, bias)))._backward(g)
    for wants in itertools.product((True, False), repeat=3):
        if not any(wants):
            continue  # a node with no recording operand keeps no backward
        node = nc.linear(*(Tensor(v, requires_grad=r) for v, r in zip((a, w, bias), wants)))
        for got, want, recorded in zip(node._backward(g), full, wants):
            assert (got is None) != recorded
            assert got is None or got.tobytes() == want.tobytes()


def test_gelu_values_and_gradient():
    assert oracles.gelu(Tensor(np.array(0.0))).item() == 0.0
    assert abs(oracles.gelu(Tensor(np.array(10.0))).item() - 10.0) < 1e-6
    x = np.array([-2.0, -0.5, 0.5, 2.0])
    check_grad(lambda t: oracles.mean_all(oracles.gelu(t)), x)


def test_layernorm_constant_input_is_zero():
    out = nc.layernorm(
        Tensor(np.ones((1, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3))
    )
    assert np.allclose(out.data, 0.0)


def test_layernorm_symmetric_input():
    out = nc.layernorm(
        Tensor(np.array([[-1.0, 1.0]])), Tensor(np.ones(2)), Tensor(np.zeros(2))
    )
    expected = np.array([[-1.0, 1.0]]) / math.sqrt(1.0 + nc.LAYERNORM_EPS)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_layernorm_gradient():
    x = RNG.normal(size=(2, 5))
    g = RNG.normal(size=(5,))
    b = RNG.normal(size=(5,))
    check_grad(
        lambda t, gg, bb: oracles.mean_all(
            nc.layernorm(t, gg, bb) * nc.layernorm(t, gg, bb)
        ),
        x,
        g,
        b,
    )


def test_softmax_symmetry_and_stability():
    out = oracles.softmax_lastaxis(Tensor(np.array([0.0, 0.0])))
    assert np.allclose(out.data, [0.5, 0.5])
    out = oracles.softmax_lastaxis(Tensor(np.array([1000.0, 0.0])))
    assert abs(out.data[0] - 1.0) < 1e-12 and out.data[1] < 1e-12


def test_softmax_gradient():
    x = RNG.normal(size=(3, 4))
    w = RNG.normal(size=(3, 4))
    check_grad(lambda t: oracles.mean_all(oracles.softmax_lastaxis(t) * Tensor(w)), x)


@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8))
@example([3.7])
def test_softmax_rows_sum_to_one(values):
    out = oracles.softmax_lastaxis(Tensor(np.array(values)))
    assert abs(float(out.data.sum()) - 1.0) < 1e-6
    if len(values) == 1:  # attention over a single key is exactly one
        assert out.data[0] == 1.0


def test_abs_and_mean_gradients_away_from_kink():
    x = RNG.normal(size=(3, 3)) + np.sign(RNG.normal(size=(3, 3))) * 0.5
    check_grad(lambda t: oracles.mean_all(oracles.abs_(t)), x)


def test_two_layer_mlp_composite_gradient():
    x = RNG.normal(size=(4, 6))
    w1 = RNG.normal(size=(6, 8)) * 0.5
    b1 = RNG.normal(size=(8,)) * 0.1
    w2 = RNG.normal(size=(8, 1)) * 0.5

    def mlp(xx, ww1, bb1, ww2):
        return oracles.mean_all(oracles.matmul(oracles.gelu(oracles.matmul(xx, ww1) + bb1), ww2))

    check_grad(mlp, x, w1, b1, w2)


def test_backward_requires_scalar_root():
    t = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        (t * 2.0).backward()


def test_nan_parameter_is_caught_at_adam():
    # A leaf is not scanned: a NaN parameter flows through forward and
    # backward, and the optimizer names it.
    p = Tensor(np.array([1.0, np.nan]), requires_grad=True)
    loss = oracles.mean_all(p * p)
    loss.backward()
    assert np.isnan(p.grad).any()
    with pytest.raises(TrainingError, match="dec.w"):
        adam_step([("dec.w", p)], [p.grad], OptimizerState(), lr=0.1)


def test_overflowing_op_is_caught_at_adam_not_per_op():
    # Finiteness is checked at the boundaries: an op on finite leaves may
    # overflow without raising; the optimizer then names the bad parameter.
    p = Tensor(np.array([1e200, 1.0]), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = oracles.mean_all(p * p * p)
        assert not np.isfinite(loss.data).all()
        loss.backward()
    assert not np.isfinite(p.grad).all()
    with pytest.raises(TrainingError, match="enc.w"):
        adam_step([("enc.w", p)], [p.grad], OptimizerState(), lr=0.1)


def test_grad_shape_matches_parameter():
    t = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    oracles.mean_all(t * t).backward()
    assert t.grad.shape == t.data.shape


# ---- precision modes ---------------------------------------------------------


def test_mode_controls_dtype():
    nc.set_mode("train")
    try:
        assert Tensor(np.zeros(2)).data.dtype == np.float32
    finally:
        nc.set_mode("test")
    assert Tensor(np.zeros(2)).data.dtype == np.float64


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        nc.set_mode("fast")


def test_no_grad_records_nothing_and_restores_recording():
    x = Tensor(np.ones(3), requires_grad=True)

    def recorded():
        y = x * 2.0
        return y.requires_grad and x in y._parents

    with nc.no_grad():
        y = x * 2.0
        with nc.no_grad():
            assert not recorded()
        assert not recorded()  # the inner exit keeps the outer block's state
    assert y.requires_grad is False and y._parents == () and y._backward is None
    assert recorded()
    with pytest.raises(RuntimeError, match="inside"):
        with nc.no_grad():
            raise RuntimeError("raised inside")
    assert recorded()


# ---- Adam --------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = np.array([0.3, -0.7])
    adam_step([("w", p)], [g], OptimizerState(), lr=0.01)
    # with m̂/√v̂ = g/|g| the first update is -lr·sign(g) up to eps
    assert np.allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)


def test_adam_updates_a_zero_dim_parameter():
    # A 0-d array keeps its shape in a Tensor, so a 0-d gradient matches it.
    p = Tensor(np.array(1.5), requires_grad=True)
    adam_step([("w", p)], [np.array(0.3)], OptimizerState(), lr=0.01)
    assert p.shape == () and abs(float(p.data) - (1.5 - 0.01)) < 1e-6


def test_adam_zero_grad_keeps_parameters():
    p = Tensor(np.array([1.5]), requires_grad=True)
    adam_step([("w", p)], [np.zeros(1)], OptimizerState(), lr=0.1)
    assert np.array_equal(p.data, [1.5])


def test_adam_two_steps_descend_quadratic():
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimizerState()
    values = [float(w.data[0] ** 2)]
    for _ in range(2):
        adam_step([("w", w)], [2.0 * w.data], state, lr=0.05)
        values.append(float(w.data[0] ** 2))
    assert values[1] < values[0] and values[2] < values[1]


def test_adam_step_counter_increments():
    state = OptimizerState()
    p = Tensor(np.array([0.5]), requires_grad=True)
    for expected in (1, 2, 3):
        adam_step([("w", p)], [np.ones(1)], state, lr=0.01)
        assert state.step == expected


@given(st.integers(1, 5), st.integers(1, 4))
def test_adam_lr_zero_is_identity(rows, cols):
    data = np.arange(rows * cols, dtype=float).reshape(rows, cols)
    p = Tensor(data.copy(), requires_grad=True)
    adam_step([("w", p)], [np.ones_like(data)], OptimizerState(), lr=0.0)
    assert np.array_equal(p.data, data)


def test_adam_negative_lr_rejected():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        adam_step([("w", p)], [np.ones(1)], OptimizerState(), lr=-0.1)


def test_adam_nan_grad_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(TrainingError, match="encoder.w"):
        adam_step([("encoder.w", p)], [np.array([np.nan])], OptimizerState(), lr=0.1)


def test_adam_rejected_step_changes_nothing():
    params = [
        ("a", Tensor(np.array([1.0, 2.0]), requires_grad=True)),
        ("empty", Tensor(np.zeros((0, 3)), requires_grad=True)),
        ("b", Tensor(np.array([[3.0], [4.0]]), requires_grad=True)),
        ("c", Tensor(np.array([5.0]), requires_grad=True)),
    ]
    state = OptimizerState()
    grads = [np.array([0.5, -0.5]), np.zeros((0, 3)), np.array([[1.0], [2.0]]), None]
    adam_step(params, grads, state, lr=0.1)
    values = [p.data.copy() for _, p in params]
    m, v = state.m.copy(), state.v.copy()
    grads[2] = np.array([[1.0], [np.inf]])
    with pytest.raises(TrainingError, match="parameter b$"):
        adam_step(params, grads, state, lr=0.1)
    assert state.step == 1
    assert all(np.array_equal(p.data, x) for (_, p), x in zip(params, values))
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    # The same holds for a fresh state: nothing moves before the scan.
    fresh = OptimizerState()
    with pytest.raises(TrainingError, match="parameter b$"):
        adam_step(params, grads, fresh, lr=0.1)
    assert fresh.step == 0 and not fresh.m.any() and not fresh.v.any()
    assert all(np.array_equal(p.data, x) for (_, p), x in zip(params, values))


def test_adam_state_serves_one_parameter_list():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    state = OptimizerState()
    adam_step([("w", p)], [np.ones(2)], state, lr=0.1)
    for other in (
        [("u", p)],
        [("w", p), ("u", Tensor(np.ones(1), requires_grad=True))],
        [("w", Tensor(np.ones(3), requires_grad=True))],
    ):
        with pytest.raises(DimensionError):
            adam_step(other, [None] * len(other), state, lr=0.1)
    with nc.use_mode("train"):
        single = [("w", Tensor(np.ones(2), requires_grad=True))]
    with pytest.raises(DimensionError):
        adam_step(single, [None], state, lr=0.1)
    assert state.step == 1
    with pytest.raises(DimensionError, match="gradient shape"):
        adam_step([("w", p)], [np.ones(3)], state, lr=0.1)
    assert state.step == 1


_SHAPES = st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), min_size=1, max_size=5)


@given(
    _SHAPES,
    st.sampled_from(["test", "train"]),
    st.lists(st.sampled_from([0.0, 1e-3, 0.1, 2.5]), min_size=3, max_size=3),
    st.integers(0, 2**31 - 1),
)
@example(shapes=[(2, 3), (0,), (4,)], mode="train", lrs=[0.0, 0.1, 1e-3], seed=0)
@example(shapes=[(3,), (1, 2)], mode="test", lrs=[1e-3, 0.0, 2.5], seed=1)
def test_adam_matches_per_tensor_loop_bitwise(shapes, mode, lrs, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.2] = -0.0
        return x.astype(nc.active_dtype())

    with nc.use_mode(mode):
        params = [(f"p{i}", Tensor(draw(s), requires_grad=True)) for i, s in enumerate(shapes)]
        reference = [(name, p.data.copy()) for name, p in params]
        state, ref_state = OptimizerState(), oracles.LoopAdamState()
        for lr in lrs:
            grads = [draw(p.shape) for _, p in params]
            grads[int(rng.integers(len(grads)))] = None
            adam_step(params, grads, state, lr)
            oracles.loop_adam_step(reference, grads, ref_state, lr)
            for (_, p), (_, r) in zip(params, reference):
                assert p.data.dtype == r.dtype and p.data.tobytes() == r.tobytes()
            for ours, theirs in ((state.m, ref_state.m), (state.v, ref_state.v)):
                flat = np.concatenate([theirs[name].reshape(-1) for name, _ in params])
                assert ours.tobytes() == flat.tobytes()
        assert state.step == ref_state.step == 3


# ---- one-cycle schedule -------------------------------------------------------


def test_schedule_boundaries():
    sched = LrSchedule(max_lr=1e-4, total_steps=100)
    assert lr_at(sched, 0) == pytest.approx(1e-4 / 25.0)
    warmup = round(0.3 * 100)
    assert lr_at(sched, warmup) == 1e-4
    assert lr_at(sched, 99) == pytest.approx(1e-4 / 1e4, rel=1e-6)


def test_schedule_out_of_range():
    sched = LrSchedule(max_lr=1e-4, total_steps=10)
    with pytest.raises(ValueError):
        lr_at(sched, 10)
    with pytest.raises(ValueError):
        lr_at(sched, -1)


def test_schedule_unimodal_and_positive():
    sched = LrSchedule(max_lr=1e-4, total_steps=100)
    values = [lr_at(sched, s) for s in range(100)]
    assert all(v > 0 for v in values)
    peak = values.index(max(values))
    assert all(values[i] <= values[i + 1] + 1e-18 for i in range(peak))
    assert all(values[i] >= values[i + 1] - 1e-18 for i in range(peak, 99))
    assert max(values) == 1e-4


@given(
    st.integers(1, 500),
    st.floats(0.05, 0.95),
    st.floats(2.0, 100.0),
    st.floats(10.0, 1e6),
)
# A one-step schedule has no warmup step left and runs at max_lr.
@example(total=1, frac=0.01, idiv=25.0, fdiv=1e4)
@example(total=1, frac=0.3, idiv=25.0, fdiv=1e4)
@example(total=1, frac=0.5, idiv=25.0, fdiv=1e4)
@example(total=1, frac=0.99, idiv=25.0, fdiv=1e4)
def test_schedule_positive_peaks_at_max(total, frac, idiv, fdiv):
    sched = LrSchedule(
        max_lr=3e-4,
        total_steps=total,
        warmup_fraction=frac,
        initial_div=idiv,
        final_div=fdiv,
    )
    values = [lr_at(sched, s) for s in range(total)]
    assert all(v > 0 for v in values)
    assert max(values) == pytest.approx(3e-4, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        LrSchedule(max_lr=-1.0, total_steps=10)
    with pytest.raises(ConfigError):
        LrSchedule(max_lr=1e-4, total_steps=0)
    with pytest.raises(ConfigError):
        LrSchedule(max_lr=1e-4, total_steps=10, warmup_fraction=1.0)
    for bad in (dict(max_lr=math.nan), dict(max_lr=math.inf), dict(initial_div=math.nan),
                dict(final_div=math.nan), dict(warmup_fraction=math.nan)):
        with pytest.raises(ConfigError):
            LrSchedule(**{"max_lr": 1e-4, "total_steps": 10, **bad})


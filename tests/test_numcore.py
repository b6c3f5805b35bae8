"""Autodiff engine, Adam, and learning-rate schedule tests.

Every differentiable op is checked against the central finite-difference
oracle in 64-bit mode (h=1e-6, rel. 1e-4), per the gradient acceptance gate.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from kinterp import numcore as nc
from kinterp.errors import (
    ConfigError,
    DimensionError,
    RangeError,
    TrainingError,
)
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
    check_grad(lambda x, y: nc.mean_all((x + y) * (x + y)), a, b)


def test_sub_mul_gradients():
    a = RNG.normal(size=(2, 5))
    b = RNG.normal(size=(2, 5))
    check_grad(lambda x, y: nc.mean_all((x - y) * x * y), a, b)


def test_mul_broadcast_scalar_gradient():
    a = RNG.normal(size=(3, 2))
    b = np.array(0.7)
    check_grad(lambda x, y: nc.mean_all(x * y * x), a, b)


def test_matmul_identity():
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = Tensor(np.eye(2)) @ m
    assert np.array_equal(out.data, m.data)


def test_matmul_annihilator():
    a = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = Tensor(np.array([[0.0], [5.0]]))
    assert np.array_equal((a @ b).data, np.zeros((2, 1)))


def test_matmul_gradient_matches_finite_differences():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    check_grad(lambda x, y: nc.mean_all(x @ y), a, b, tol=1e-5)


def test_matmul_batched_gradient():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(4, 5))
    check_grad(lambda x, y: nc.mean_all((x @ y) * (x @ y)), a, b)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_transpose_reshape_gradients():
    a = RNG.normal(size=(2, 3, 4))
    check_grad(
        lambda x: nc.mean_all(nc.reshape(nc.transpose(x, (2, 0, 1)), (8, 3)) * 2.0), a
    )


def test_concat_rows_gradient():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(4, 3))

    def build(x, y):
        joined = nc.concat_rows([x, y])
        return nc.mean_all(joined * joined)

    check_grad(build, a, b)


def test_gather_rows_gradient_accumulates_duplicates():
    a = RNG.normal(size=(4, 3))
    idx = np.array([0, 2, 2, 1])[:, None] * 3 + np.arange(3)
    check_grad(lambda x: nc.mean_all(nc.gather(x, idx) * nc.gather(x, idx)), a)


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
    nc.mean_all(nc.gather(leaf, rows[:, None] * 4 + np.arange(4)) * Tensor(weight)).backward()
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
    nc.mean_all(nc.gather(leaf, perm) * Tensor(g)).backward()
    want = np.empty(12)
    want[perm] = np.full(12, 1.0 / 12) * g  # the upstream gradient, entry by entry
    assert np.array_equal(leaf.grad.reshape(-1), want)
    assert np.array_equal(np.signbit(leaf.grad.reshape(-1)), np.signbit(want))


# ---- fused ops against their unfused compositions ------------------------------


def _run_with_grads(build, arrays, weight):
    """Output and per-operand gradients of ``mean(build(*leaves) * weight)``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    nc.mean_all(out * Tensor(weight)).backward()
    return out.data, [t.grad for t in leaves]


def _assert_matches_composition(fused, unfused, arrays, weight):
    out, grads = _run_with_grads(fused, arrays, weight)
    ref_out, ref_grads = _run_with_grads(unfused, arrays, weight)
    assert out.shape == ref_out.shape
    assert oracles.rel_err(out, ref_out) <= 1e-12
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.shape == ref.shape, f"operand {i}"
        assert oracles.rel_err(g, ref) <= 1e-12, f"operand {i}"


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
    _assert_matches_composition(
        lambda q, k, v: nc.attention(q, k, v, heads),
        lambda q, k, v: oracles.unfused_attention(q, k, v, heads),
        qkv,
        rng.normal(size=(n, d)),
    )


def test_fused_ops_reject_mismatched_shapes():
    x = Tensor(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        nc.linear(x, Tensor(np.ones((5, 2))), Tensor(np.ones(2)))  # inner extents
    with pytest.raises(DimensionError):
        nc.linear(x, Tensor(np.ones((4, 2))), Tensor(np.ones(3)))  # bias width
    with pytest.raises(DimensionError):
        nc.linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
    with pytest.raises(DimensionError):
        nc.attention(x, x, Tensor(np.ones((3, 2))), 2)  # v width
    with pytest.raises(DimensionError):
        nc.attention(x, Tensor(np.ones((2, 4))), x, 2)  # k rows
    with pytest.raises(DimensionError):
        nc.attention(x, x, x, 3)  # 4 not divisible by 3 heads
    with pytest.raises(DimensionError):
        nc.attention(Tensor(np.ones(4)), Tensor(np.ones(4)), Tensor(np.ones(4)), 1)
    empty = Tensor(np.ones((0, 4)))
    with pytest.raises(DimensionError):
        nc.attention(empty, empty, empty, 2)  # no query rows


# rows per chunk = max(1, block // (heads * n)): 1 with every chunk over the
# block (none kept); 4, as chunks of 4 + 4 + 1 rows (the first kept); and 2,
# as four chunks of 32 entries of which only the first fits the block of 40.
@pytest.mark.parametrize(
    "n, heads, block",
    [(7, 2, 9), (9, 2, 72), (8, 2, 40)],
    ids=["one-row-chunks", "ragged-last-chunk", "partly-kept-prefix"],
)
def test_chunked_attention_matches_unfused_composition(monkeypatch, n, heads, block):
    assert nc.get_mode() == "test"  # float64
    monkeypatch.setattr(nc, "ATTENTION_BLOCK", block)
    rng = np.random.default_rng(n * heads)
    d = heads * 3
    _assert_matches_composition(
        lambda q, k, v: nc.attention(q, k, v, heads),
        lambda q, k, v: oracles.unfused_attention(q, k, v, heads),
        [rng.normal(size=(n, d)) * 2.0 for _ in range(3)],
        rng.normal(size=(n, d)),
    )


def test_attention_memory_stays_below_half_a_probability_map():
    n, heads, d = 1024, 4, 32
    half_map = heads * n * n * np.dtype(np.float32).itemsize // 2  # 8 MiB
    rng = np.random.default_rng(5)
    with nc.use_mode("train"):
        q, k, v = (Tensor(rng.normal(size=(n, d)), requires_grad=True) for _ in range(3))
        w = Tensor(rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            nc.mean_all(nc.attention(q, k, v, heads) * w).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert all(t.grad is not None and t.grad.dtype == np.float32 for t in (q, k, v))
    assert peak < half_map, f"peak {peak / 2**20:.1f} MiB"


def test_gelu_values_and_gradient():
    assert nc.gelu(Tensor(np.array(0.0))).item() == 0.0
    assert abs(nc.gelu(Tensor(np.array(10.0))).item() - 10.0) < 1e-6
    x = np.array([-2.0, -0.5, 0.5, 2.0])
    check_grad(lambda t: nc.mean_all(nc.gelu(t)), x)


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
        lambda t, gg, bb: nc.mean_all(
            nc.layernorm(t, gg, bb) * nc.layernorm(t, gg, bb)
        ),
        x,
        g,
        b,
    )


def test_softmax_symmetry_and_stability():
    out = nc.softmax_lastaxis(Tensor(np.array([0.0, 0.0])))
    assert np.allclose(out.data, [0.5, 0.5])
    out = nc.softmax_lastaxis(Tensor(np.array([1000.0, 0.0])))
    assert abs(out.data[0] - 1.0) < 1e-12 and out.data[1] < 1e-12


def test_softmax_gradient():
    x = RNG.normal(size=(3, 4))
    w = RNG.normal(size=(3, 4))
    check_grad(lambda t: nc.mean_all(nc.softmax_lastaxis(t) * Tensor(w)), x)


@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8))
@example([3.7])
def test_softmax_rows_sum_to_one(values):
    out = nc.softmax_lastaxis(Tensor(np.array(values)))
    assert abs(float(out.data.sum()) - 1.0) < 1e-6
    if len(values) == 1:  # attention over a single key is exactly one
        assert out.data[0] == 1.0


def test_abs_and_mean_gradients_away_from_kink():
    x = RNG.normal(size=(3, 3)) + np.sign(RNG.normal(size=(3, 3))) * 0.5
    check_grad(lambda t: nc.mean_all(nc.abs_(t)), x)


def test_two_layer_mlp_composite_gradient():
    x = RNG.normal(size=(4, 6))
    w1 = RNG.normal(size=(6, 8)) * 0.5
    b1 = RNG.normal(size=(8,)) * 0.1
    w2 = RNG.normal(size=(8, 1)) * 0.5

    def mlp(xx, ww1, bb1, ww2):
        return nc.mean_all(nc.gelu(xx @ ww1 + bb1) @ ww2)

    check_grad(mlp, x, w1, b1, w2)


def test_backward_requires_scalar_root():
    t = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        (t * 2.0).backward()


def test_nan_parameter_is_caught_at_adam():
    # A leaf is not scanned: a NaN parameter flows through forward and
    # backward, and the optimizer names it.
    p = Tensor(np.array([1.0, np.nan]), requires_grad=True)
    loss = nc.mean_all(p * p)
    loss.backward()
    assert np.isnan(p.grad).any()
    with pytest.raises(TrainingError, match="dec.w"):
        adam_step([("dec.w", p)], [p.grad], OptimizerState(), lr=0.1)


def test_overflowing_op_is_caught_at_adam_not_per_op():
    # Finiteness is checked at the boundaries: an op on finite leaves may
    # overflow without raising; the optimizer then names the bad parameter.
    p = Tensor(np.array([1e200, 1.0]), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = nc.mean_all(p * p * p)
        assert not np.isfinite(loss.data).all()
        loss.backward()
    assert not np.isfinite(p.grad).all()
    with pytest.raises(TrainingError, match="enc.w"):
        adam_step([("enc.w", p)], [p.grad], OptimizerState(), lr=0.1)


def test_grad_shape_matches_parameter():
    t = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    nc.mean_all(t * t).backward()
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


# ---- Adam --------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = np.array([0.3, -0.7])
    adam_step([("w", p)], [g], OptimizerState(), lr=0.01)
    # with m̂/√v̂ = g/|g| the first update is -lr·sign(g) up to eps
    assert np.allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)


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


# ---- one-cycle schedule -------------------------------------------------------


def test_schedule_boundaries():
    sched = LrSchedule(max_lr=1e-4, total_steps=100)
    assert lr_at(sched, 0) == pytest.approx(1e-4 / 25.0)
    warmup = round(0.3 * 100)
    assert lr_at(sched, warmup) == 1e-4
    assert lr_at(sched, 99) == pytest.approx(1e-4 / 1e4, rel=1e-6)


def test_schedule_out_of_range():
    sched = LrSchedule(max_lr=1e-4, total_steps=10)
    with pytest.raises(RangeError):
        lr_at(sched, 10)
    with pytest.raises(RangeError):
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
    st.integers(2, 500),
    st.floats(0.05, 0.95),
    st.floats(2.0, 100.0),
    st.floats(10.0, 1e6),
)
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

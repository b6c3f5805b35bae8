"""Interpolator architecture invariants, losses, and checkpoint I/O.

The end-to-end gradient check freezes the relative-error denominators at the
base point, matching the stop-gradient convention of the loss itself, and
compares autodiff against central finite differences of the oracles'
frozen-denominator loss entry-by-entry.
"""

import dataclasses
import math
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from kinterp import numcore as nc
from kinterp import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    FormatError,
)
from kinterp.kspace import DOMAIN_IMAGE, DOMAIN_KSPACE, normalize
from kinterp.model import (
    ALL_PLANES,
    PLANE_KX_KY,
    PLANE_KX_T,
    PLANE_KY_T,
    ForwardResult,
    KSpaceInterpolator,
    ModelConfig,
    TokenBatch,
    _plane_dims,
    array_to_volume,
    from_checkpoint,
    full_config,
    load_params,
    param_table,
    save_params,
    tiny_config,
    total_loss,
    volume_to_array,
)
from kinterp.numcore import Tensor
from kinterp.pipeline import infer
from kinterp.sampling import SamplingMask, apply_mask, generate_mask

RNG = np.random.default_rng(123)


def kvol(x, y, t, rng=RNG):
    return oracles.xyt_volume(
        rng.standard_normal((x, y, t)), rng.standard_normal((x, y, t)), DOMAIN_KSPACE
    )


# ------------------------------------------------------------------- config


def test_config_presets():
    tiny = tiny_config(32, 32, 8)
    assert (tiny.embed_dim, tiny.n_heads, tiny.n_layers) == (32, 4, 2)
    full = full_config(128, 128, 16)
    assert (full.embed_dim, full.n_heads, full.n_layers) == (512, 8, 8)
    assert full.mlp_ratio == 4 and full.kirm_patch == 4
    assert full.kirm_planes == ALL_PLANES


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(0, 8, 2)
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, embed_dim=30)  # not a multiple of 4
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, embed_dim=32, n_heads=5)
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, n_layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, mlp_ratio=0)
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, kirm_patch=3)  # does not divide X=Y=8
    for patch in (0, -1):  # a patch size is positive even with kx-ky disabled
        with pytest.raises(ConfigError):
            ModelConfig(8, 8, 2, kirm_planes=(PLANE_KY_T,), kirm_patch=patch)
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, kirm_planes=("ky-t", "ky-t"))
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, kirm_planes=("diagonal",))
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, hdr_eps=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(8, 8, 2, loss_weight_hdr=-1.0)
    for bad in (dict(hdr_eps=math.nan), dict(hdr_eps=math.inf), dict(loss_weight_hdr=math.nan),
                dict(loss_weight_hdr=math.inf)):
        with pytest.raises(ConfigError):
            ModelConfig(8, 8, 2, **bad)
    with pytest.raises(ConfigError, match="seed"):
        KSpaceInterpolator(ModelConfig(8, 8, 2), seed=-1)


def test_config_plane_order_canonicalized():
    cfg = ModelConfig(8, 8, 2, kirm_planes=("kx-t", "ky-t"))
    assert cfg.kirm_planes == (PLANE_KY_T, PLANE_KX_T)


def test_patch_constraint_only_applies_to_enabled_plane():
    cfg = ModelConfig(6, 6, 2, kirm_planes=(PLANE_KY_T,), kirm_patch=4)
    assert PLANE_KX_KY not in cfg.kirm_planes


# ------------------------------------------------------------ tokenization


def test_array_volume_roundtrip():
    v = kvol(4, 3, 2)
    arr = volume_to_array(v)
    assert arr.shape == (2, 3, 4, 2)
    assert arr[1, 2, 3, 0] == v.re[3, 2, 1]
    assert arr[0, 1, 0, 1] == v.im[0, 1, 0]
    back = array_to_volume(arr, DOMAIN_KSPACE, scale=2.0)
    assert np.array_equal(back.re, v.re)
    assert np.array_equal(back.im, v.im)
    assert back.scale == 2.0
    with pytest.raises(DimensionError):
        array_to_volume(np.zeros((2, 3, 4)), DOMAIN_KSPACE)
    with pytest.raises(DimensionError):
        array_to_volume(np.zeros((2, 3, 4, 3)), DOMAIN_KSPACE)


def test_token_count_and_coords():
    cfg = ModelConfig(
        4, 3, 2,
        embed_dim=8,
        n_heads=2,
        n_layers=1,
        kirm_planes=(PLANE_KY_T, PLANE_KX_T),  # Y=3 cannot host 4x4 patches
    )
    m = KSpaceInterpolator(cfg)
    batch = m.tokenize_kyt(kvol(4, 3, 2))
    assert batch.tokens.shape == (6, 8)  # one token per (ky, t)
    # ky varies fastest; the second coordinate is the frame index
    expected = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    assert m.plane_coords(PLANE_KY_T).tolist() == expected


def test_plane_channels():
    channels = lambda plane: _plane_dims(8, 16, 2, 4, plane)[2]
    assert channels(PLANE_KY_T) == 16
    assert channels(PLANE_KX_T) == 32
    assert channels(PLANE_KX_KY) == 2 * 16 * 2
    with pytest.raises(ConfigError):
        channels("diagonal")


def test_plane_helpers_reject_planes_the_model_does_not_run():
    # 3 divides neither X nor Y, which only an enabled kx-ky plane must satisfy
    m = KSpaceInterpolator(ModelConfig(8, 8, 2, kirm_patch=3, kirm_planes=(PLANE_KY_T,)))
    assert m._dims(PLANE_KY_T)[2] == 16
    for plane in (PLANE_KX_T, PLANE_KX_KY):
        helpers = (
            m._layout,
            m.plane_coords,
            lambda plane: m._plane_raw(Tensor(np.zeros((2, 8, 8, 2))), plane),
            lambda plane: m._plane_restore(Tensor(np.zeros((16, 16))), plane),
        )
        for helper in helpers:
            with pytest.raises(ConfigError, match=plane):
                helper(plane)


def test_kxky_token_count():
    m = KSpaceInterpolator(ModelConfig(8, 16, 2))
    assert len(m.plane_coords(PLANE_KX_KY)) == (8 // 4) * (16 // 4)


def test_zero_volume_tokens_are_position_codes():
    """With zero k-space and zero-init bias the tokens reduce to the table."""
    m = KSpaceInterpolator(ModelConfig(8, 8, 2))
    z = np.zeros((8, 8, 2))
    batch = m.tokenize_kyt(oracles.xyt_volume(z, z, DOMAIN_KSPACE))
    assert np.array_equal(batch.tokens.data, m._layout(PLANE_KY_T).pos)


def test_tokenize_recoverable_by_pseudoinverse():
    """embed_dim >= channels, so the input projection loses nothing."""
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=1)
    v = kvol(8, 8, 2)
    raw = volume_to_array(v).reshape(16, 16)
    batch = m.tokenize_kyt(v)
    w = m.params["kgin.proj_in.w"].data
    lifted = batch.tokens.data - m._layout(PLANE_KY_T).pos
    rec = (lifted @ np.linalg.pinv(w)) / m._token_scale
    assert oracles.rel_err(rec, raw) < 1e-5


def test_position_table_rows_unique():
    m = KSpaceInterpolator(ModelConfig(8, 32, 8))
    for plane in (PLANE_KY_T, PLANE_KX_T, PLANE_KX_KY):
        table = m._layout(plane).pos
        assert len(np.unique(table.round(12), axis=0)) == len(table)


def test_tokenize_rejects_bad_inputs():
    m = KSpaceInterpolator(ModelConfig(8, 8, 2))
    img = oracles.xyt_volume(np.zeros((8, 8, 2)), np.zeros((8, 8, 2)), DOMAIN_IMAGE)
    with pytest.raises(DomainError):
        m.tokenize_kyt(img)
    with pytest.raises(DimensionError):
        m.tokenize_kyt(kvol(8, 8, 3))


def test_split_by_mask_counts():
    """At acceleration R a (Y, T) grid keeps Y*T/R tokens."""
    m = KSpaceInterpolator(ModelConfig(8, 32, 8))
    mask = generate_mask(32, 8, 4.0, seed=0)
    batch = m.tokenize_kyt(kvol(8, 32, 8))
    sampled, unsampled = m.split_by_mask(batch, mask)
    assert sampled.tokens.shape[0] == 32 * 8 // 4
    assert np.count_nonzero(unsampled) == 32 * 8 - 32 * 8 // 4
    # one flag per (ky, t) row, ky fastest; the sampled rows in grid order
    assert np.array_equal(unsampled, mask.bits.T.reshape(-1) == 0)
    assert np.array_equal(sampled.tokens.data, batch.tokens.data[~unsampled])
    with pytest.raises(DimensionError):
        m.split_by_mask(m.tokenize_kyt(kvol(8, 32, 8)), generate_mask(32, 4, 4.0, 0))


# ----------------------------------------------------------------- network


def test_encoder_permutation_equivariance():
    m = KSpaceInterpolator(ModelConfig(8, 16, 2), seed=2)
    mask = generate_mask(16, 2, 4.0, seed=0)
    sampled, _ = m.split_by_mask(m.tokenize_kyt(kvol(8, 16, 2)), mask)
    out = m.encode(sampled).tokens.data
    perm = np.random.default_rng(0).permutation(sampled.tokens.shape[0])
    shuffled = TokenBatch(Tensor(sampled.tokens.data[perm]))
    out_perm = m.encode(shuffled).tokens.data
    assert oracles.rel_err(out_perm, out[perm]) < 1e-6


def test_encode_rejects_empty_batch():
    m = KSpaceInterpolator(ModelConfig(8, 8, 2))
    empty_mask = SamplingMask(np.zeros((8, 2)), 2.0)
    sampled, _ = m.split_by_mask(m.tokenize_kyt(kvol(8, 8, 2)), empty_mask)
    with pytest.raises(DegenerateInputError):
        m.encode(sampled)


def test_forward_shapes_and_determinism():
    m = KSpaceInterpolator(ModelConfig(8, 16, 2), seed=3)
    v = kvol(8, 16, 2)
    mask = generate_mask(16, 2, 4.0, seed=1)
    a = m.forward(v, mask)
    b = m.forward(v, mask)
    assert a.interpolated.shape == (2, 16, 8, 2)
    assert np.array_equal(a.interpolated.data, b.interpolated.data)
    for sa, sb in zip(a.stages, b.stages):
        assert np.array_equal(sa.data, sb.data)


@pytest.mark.parametrize("mode", ["test", "train"])
def test_forward_without_tape_matches_taped_forward(mode):
    """``no_grad`` runs the same NumPy calls and only leaves the tape out."""
    rng = np.random.default_rng(8)
    with nc.use_mode(mode):
        m = KSpaceInterpolator(ModelConfig(8, 16, 2), seed=3)
        for plane in ALL_PLANES:  # every refinement stage adds a correction
            w = m.params[f"kirm.{plane}.proj_out.w"]
            w.data[:] = rng.normal(0.0, 0.1, size=w.shape)
        v = kvol(8, 16, 2)
        mask = generate_mask(16, 2, 4.0, seed=1)
        taped = m.forward(v, mask)
        with nc.no_grad():
            bare = m.forward(v, mask)
        dtype = nc.active_dtype()
    for a, b in zip((taped.interpolated, *taped.stages), (bare.interpolated, *bare.stages)):
        assert b.data.dtype == dtype
        assert a.data.tobytes() == b.data.tobytes()
        assert a.requires_grad and a._parents
        assert b.requires_grad is False and b._parents == () and b._backward is None


def _tiny_step_loss(x_dim, y_dim, t_dim, seed=0, loss=total_loss):
    """The loss of one tiny-preset training step's forward, as ``train``
    builds it: a normalized masked volume in, its own target as the array."""
    rng = np.random.default_rng(seed)
    model = KSpaceInterpolator(tiny_config(x_dim, y_dim, t_dim), seed=seed)
    for plane in ALL_PLANES:  # every refinement stage adds a correction
        w = model.params[f"kirm.{plane}.proj_out.w"]
        w.data[:] = rng.normal(0.0, 0.05, size=w.shape)
    volume = kvol(x_dim, y_dim, t_dim, rng)
    mask = generate_mask(y_dim, t_dim, 4.0, seed=1)
    masked, _ = apply_mask(volume, mask)
    normed = normalize(masked)
    target = volume_to_array(volume) / (normed.scale / volume.scale)
    cfg = model.config
    total, _, _ = loss(model.forward(normed, mask), target, cfg.loss_weight_hdr, cfg.hdr_eps)
    return model, total


def _op_nodes(root: Tensor) -> int:
    """The recorded op nodes that ``root``'s backward would visit."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def test_a_tiny_step_records_one_tape_node_per_sublayer():
    """A tiny step's tape has 56 op nodes at every extent: each of the ten
    Transformer layers (two per stack, five stacks) records one node per
    sublayer, where it recorded twelve as single ops, and the loss is one
    node, where it was nineteen."""
    assert [_op_nodes(_tiny_step_loss(*dims)[1]) for dims in ((8, 8, 2), (16, 16, 4))] == [56, 56]


@pytest.mark.parametrize("mode", ["test", "train"])
def test_sublayer_nodes_give_the_composed_layers_bits(monkeypatch, mode):
    """A tiny step through the two sublayer nodes gives the loss and every
    parameter gradient of one through the single-op nodes they replace."""
    results = []
    for composed in (False, True):
        with monkeypatch.context() as patch:
            if composed:
                patch.setattr(nc, "attention_sublayer", oracles.composed_attention_sublayer)
                patch.setattr(nc, "mlp_sublayer", oracles.composed_mlp_sublayer)
            with nc.use_mode(mode):
                model, total = _tiny_step_loss(8, 8, 2)
                total.backward()
        results.append([total.data.tobytes()] + [p.grad.tobytes() for p in model.params.values()])
    assert len(results[0]) == 1 + len(model.params)
    assert results[0] == results[1]


def test_infer_peaks_below_a_quarter_of_a_taped_forward():
    """A forward that records no tape frees each activation after its last use."""
    with nc.use_mode("train"):
        m = KSpaceInterpolator(tiny_config(32, 32, 8), seed=0)
        mask = generate_mask(32, 8, 4.0, seed=3)
        masked, _ = apply_mask(kvol(32, 32, 8), mask)
        normed = normalize(masked)
        infer(m, masked, mask)  # builds the shared plane tables outside the count
        peaks = []
        for run in (lambda: m.forward(normed, mask), lambda: infer(m, masked, mask)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    taped, untaped = peaks
    assert untaped < taped / 4, f"infer {untaped / 2**20:.1f} MiB, forward {taped / 2**20:.1f} MiB"


def test_full_mask_ignores_mask_token():
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=4)
    v = kvol(8, 8, 2)
    full = SamplingMask(np.ones((8, 2)), 1.0)
    before = m.forward(v, full).interpolated.data.copy()
    m.params["kgin.mask_token"].data[:] = 99.0
    after = m.forward(v, full).interpolated.data
    assert np.array_equal(before, after)


def test_mask_token_receives_gradient():
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=5)
    mask = generate_mask(8, 2, 2.0, seed=0)
    result = m.forward(kvol(8, 8, 2), mask)
    target = RNG.standard_normal((2, 8, 8, 2))
    total, _, _ = total_loss(result, target, weight=1.0, eps=0.5)
    total.backward()
    g = m.params["kgin.mask_token"].grad
    assert g is not None and np.abs(g).max() > 0


def test_decode_rejects_bad_flags():
    m = KSpaceInterpolator(ModelConfig(8, 8, 2))
    mask = generate_mask(8, 2, 2.0, seed=0)
    sampled, unsampled = m.split_by_mask(m.tokenize_kyt(kvol(8, 8, 2)), mask)
    feats = m.encode(sampled)
    flipped = unsampled.copy()
    flipped[0] = ~flipped[0]  # one more or one fewer row than features
    old_style = m.plane_coords(PLANE_KY_T)[unsampled]  # (n, 2) coordinates
    for bad in (unsampled[:-1], flipped, old_style):
        with pytest.raises(DimensionError):
            m.decode(feats, bad)


@settings(max_examples=8)
@given(
    bits=arrays(
        np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 3)), elements=st.integers(0, 1)
    )
)
def test_split_and_decode_follow_any_mask(bits):
    """Any [Y, T] pattern, frames with different line counts included."""
    y_dim, t_dim = bits.shape
    cfg = ModelConfig(4, y_dim, t_dim, embed_dim=8, n_heads=2, n_layers=1, kirm_planes=())
    m = KSpaceInterpolator(cfg)
    mask = SamplingMask(bits, 2.0)
    batch = m.tokenize_kyt(kvol(4, y_dim, t_dim))
    sampled, unsampled = m.split_by_mask(batch, mask)
    assert np.array_equal(unsampled, bits.T.reshape(-1) == 0)
    assert np.array_equal(sampled.tokens.data, batch.tokens.data[~unsampled])
    # an all-zero mask has no rows to encode, so decode takes the sampled rows as they are
    assert m.decode(sampled, unsampled).shape == (t_dim, y_dim, 4, 2)


def test_refinement_is_identity_at_init():
    """Zero-initialized output projections: every stage equals the input."""
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=6)
    mask = generate_mask(8, 2, 2.0, seed=0)
    result = m.forward(kvol(8, 8, 2), mask)
    for stage in result.stages:
        assert np.array_equal(stage.data, result.interpolated.data)


def test_disabled_planes_are_exact_identities():
    cfg = ModelConfig(8, 8, 2, kirm_planes=(PLANE_KX_T,))
    m = KSpaceInterpolator(cfg, seed=7)
    # force a visible correction on the one enabled plane
    w = m.params["kirm.kx-t.proj_out.w"]
    w.data = np.random.default_rng(1).normal(0, 0.1, size=w.data.shape)
    mask = generate_mask(8, 2, 2.0, seed=0)
    result = m.forward(kvol(8, 8, 2), mask)
    s1, s2, s3 = result.stages
    assert np.array_equal(s1.data, result.interpolated.data)  # ky-t disabled
    assert not np.array_equal(s2.data, s1.data)  # kx-t acts
    assert np.array_equal(s3.data, s2.data)  # kx-ky disabled


def _token_place(t_d, y_d, x_d, p):
    """Each plane's (token, channel) of volume entry (t, y, x, c), written out."""
    return {
        PLANE_KY_T: lambda t, y, x, c: (t * y_d + y, 2 * x + c),
        PLANE_KX_T: lambda t, y, x, c: (t * x_d + x, 2 * y + c),
        PLANE_KX_KY: lambda t, y, x, c: (
            (y // p) * (x_d // p) + x // p,
            ((y % p) * p + x % p) * t_d * 2 + 2 * t + c,
        ),
    }


def test_plane_token_layout():
    """Each volume entry holds its own flat (t, y, x, c) index, so a swapped
    but self-consistent tiling fails where a round trip would not."""
    t_d, y_d, x_d, p = 2, 8, 4, 2
    m = KSpaceInterpolator(ModelConfig(x_d, y_d, t_d, kirm_patch=p))
    volume = np.arange(t_d * y_d * x_d * 2, dtype=float).reshape(t_d, y_d, x_d, 2)
    for plane, where in _token_place(t_d, y_d, x_d, p).items():
        tokens = m._plane_raw(Tensor(volume), plane).data
        for (t, y, x, c), entry in np.ndenumerate(volume):
            assert tokens[where(t, y, x, c)] == entry, (plane, t, y, x, c)


def test_plane_raw_restore_inverse():
    m = KSpaceInterpolator(ModelConfig(8, 16, 2))
    arr = RNG.standard_normal((2, 16, 8, 2))
    for plane in ALL_PLANES:
        tokens = m._plane_raw(Tensor(arr), plane)
        assert tokens.shape == (len(m.plane_coords(plane)), m._dims(plane)[2])
        back = m._plane_restore(tokens, plane)
        assert np.array_equal(back.data, arr)


@pytest.mark.parametrize("mode", ["test", "train"])
@pytest.mark.parametrize("plane", ALL_PLANES)
def test_plane_permute_matches_scatter_gather_bitwise(plane, mode):
    """Both directions of a plane move through ``nc.permute``; its values
    and gradients equal the scatter-backed gather's bit for bit, signed
    zeros included.  The gather's index tables come from the written
    coordinates of ``_token_place``, not from the model."""
    t_d, y_d, x_d, p = 2, 4, 8, 2
    m = KSpaceInterpolator(ModelConfig(x_d, y_d, t_d, kirm_patch=p))
    where = _token_place(t_d, y_d, x_d, p)[plane]
    shape = (t_d, y_d, x_d, 2)
    cells = [where(*entry) for entry in np.ndindex(shape)]
    token_shape = tuple(np.max(cells, axis=0) + 1)
    to_volume = np.array([np.ravel_multi_index(cell, token_shape) for cell in cells])
    assert sorted(to_volume) == list(range(len(cells)))  # the written map is a bijection
    to_tokens = np.empty(token_shape, dtype=np.intp)
    for offset, cell in enumerate(cells):
        to_tokens[cell] = offset
    rng = np.random.default_rng(785)
    volume = rng.standard_normal(shape)
    tokens = rng.standard_normal(token_shape)
    moves = [
        (m._plane_raw, volume, to_tokens),
        (m._plane_restore, tokens, to_volume.reshape(shape)),
    ]
    for move, source, index in moves:
        upstream = rng.standard_normal(index.shape)
        upstream.reshape(-1)[::5] = -0.0
        upstream.reshape(-1)[1::5] = 0.0
        results = []
        for op in (lambda t: move(t, plane), lambda t: oracles.scatter_gather(t, index)):
            with nc.use_mode(mode):
                leaf = Tensor(source, requires_grad=True)
                out = op(leaf)
                oracles.mean_all(out * Tensor(upstream)).backward()
            results.append((out.data.tobytes(), leaf.grad.tobytes()))
        assert results[0] == results[1]
        assert np.signbit(leaf.grad).any() and (leaf.grad == 0).sum() >= 2 * index.size // 5


def test_plane_layouts_are_shared_per_geometry_and_read_only():
    # Models that differ only in what the layouts do not depend on share them.
    a = KSpaceInterpolator(ModelConfig(8, 16, 2), seed=0)
    b = KSpaceInterpolator(ModelConfig(8, 16, 2, kirm_planes=(PLANE_KX_T,), n_layers=1), seed=1)
    for plane in (PLANE_KY_T, PLANE_KX_T):
        assert a._layout(plane) is b._layout(plane)
        pos = a._layout(plane).pos
        assert not pos.flags.writeable
        with pytest.raises(ValueError):
            pos.reshape(-1)[0] = 0


# ------------------------------------------------------------------- losses


def test_l1_value_and_gradient():
    pred = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    target = np.array([[0.0, 0.0], [0.0, 0.0]])
    loss, l1, _ = total_loss(ForwardResult(pred, (Tensor(target),)), target, 0.0, eps=0.5)
    assert abs(l1.item() - (1 + 2 + 0.5 + 3) / 4) < 1e-12
    assert loss.item() == l1.item()
    loss.backward()
    assert np.array_equal(pred.grad, np.sign(pred.data) / 4)


def test_hdr_value():
    target = np.zeros((2, 2))
    stages = tuple(Tensor(np.ones((2, 2))) for _ in range(3))
    _, _, hdr = total_loss(ForwardResult(Tensor(target), stages), target, 1.0, eps=0.5)
    assert abs(hdr.item() - 3 * (1.0 / 1.5) ** 2) < 1e-12


def test_hdr_validation():
    ones = Tensor(np.ones(2))
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            total_loss(ForwardResult(ones, (ones,)), np.zeros(2), weight=1.0, eps=eps)
    with pytest.raises(DimensionError):
        total_loss(ForwardResult(ones, ()), np.zeros(2), weight=1.0, eps=0.5)
    with pytest.raises(DimensionError):
        total_loss(ForwardResult(ones, (Tensor(np.ones(3)),)), np.zeros(2), 1.0, 0.5)


def test_hdr_gradient_freezes_denominator():
    """Autodiff must match the frozen-denominator objective and must not
    match the one where the denominator is re-evaluated."""
    rng = np.random.default_rng(9)
    base = rng.uniform(0.5, 1.5, size=(2, 3))  # away from the |.| kink
    target = rng.uniform(-0.5, 0.5, size=(2, 3))
    pred = Tensor(target)  # the l1 term is 0 and records nothing
    stage = Tensor(base.copy(), requires_grad=True)
    total_loss(ForwardResult(pred, (stage,)), target, 1.0, eps=0.5)[0].backward()
    frozen = oracles.hdr_denominators([Tensor(base)], eps=0.5)

    def f_frozen(x):
        result = ForwardResult(pred, (Tensor(x),))
        return oracles.frozen_total_loss(result, target, 1.0, frozen).item()

    def f_live(x):
        return total_loss(ForwardResult(pred, (Tensor(x),)), target, 1.0, eps=0.5)[0].item()

    assert f_frozen(base) == f_live(base)
    fd_frozen = oracles.fd_gradient(f_frozen, base)
    fd_live = oracles.fd_gradient(f_live, base)
    assert oracles.rel_err(stage.grad, fd_frozen) < 1e-6
    assert oracles.rel_err(stage.grad, fd_live) > 1e-3


def _loss_operands(rng):
    """An interpolated volume equal to the target at a quarter of its entries
    (so sign 0 there) and three stages, the second with exact zeros (so a
    denominator of eps there)."""
    shape = (2, 4, 4, 2)
    target = rng.normal(size=shape)
    pred = rng.normal(size=shape)
    ties = rng.random(shape) < 0.25
    pred[ties] = target[ties]
    stages = [rng.normal(size=shape) for _ in range(3)]
    stages[1][rng.random(shape) < 0.25] = 0.0
    return target, pred, stages


@pytest.mark.parametrize("mode", ["test", "train"])
@pytest.mark.parametrize("weight", [0.0, 1.0])
def test_loss_node_matches_its_composition_bitwise(mode, weight):
    """The loss node gives the total, l1, hdr and every operand's gradient
    of the single-op composition it replaces, to the bit."""
    target, pred, stages = _loss_operands(np.random.default_rng(31))
    results = []
    with nc.use_mode(mode):
        for loss in (total_loss, oracles.composed_total_loss):
            leaves = [Tensor(a, requires_grad=True) for a in (pred, *stages)]
            total, l1, hdr = loss(ForwardResult(leaves[0], tuple(leaves[1:])), target, weight, 0.5)
            total.backward()
            assert all(t.grad.dtype == nc.active_dtype() for t in leaves)
            results.append([t.data.tobytes() for t in (total, l1, hdr)]
                           + [t.grad.tobytes() for t in leaves])
    assert results[0] == results[1]
    assert np.count_nonzero(leaves[0].grad == 0) > 0  # the ties' sign-0 entries


@pytest.mark.parametrize("mode", ["test", "train"])
def test_a_tiny_step_through_the_loss_node_gives_the_composed_loss_bits(mode):
    """The node is the tape's root, so each stage's loss gradient still
    arrives before the refinement's: every parameter gradient of a tiny
    step is bitwise that of the single-op loss."""
    results = []
    for loss in (total_loss, oracles.composed_total_loss):
        with nc.use_mode(mode):
            model, total = _tiny_step_loss(8, 8, 2, loss=loss)
            total.backward()
        results.append([total.data.tobytes()] + [p.grad.tobytes() for p in model.params.values()])
    assert len(results[0]) == 1 + len(model.params)
    assert results[0] == results[1]


def test_total_loss_composition():
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=8)
    mask = generate_mask(8, 2, 2.0, seed=0)
    result = m.forward(kvol(8, 8, 2), mask)
    target = RNG.standard_normal((2, 8, 8, 2))
    total, l1, hdr = total_loss(result, target, weight=2.0, eps=0.5)
    assert abs(total.item() - (l1.item() + 2.0 * hdr.item())) < 1e-12
    total0, l10, hdr0 = total_loss(result, target, weight=0.0, eps=0.5)
    assert total0.item() == l10.item()
    assert hdr0.item() > 0  # still reported even when unweighted


# ------------------------------------------------- end-to-end gradient check


def _fd_model():
    cfg = ModelConfig(4, 4, 2, embed_dim=8, n_heads=2, n_layers=1, mlp_ratio=2)
    m = KSpaceInterpolator(cfg, seed=11)
    rng = np.random.default_rng(12)
    # zero-init output projections would zero most refinement gradients
    for plane in cfg.kirm_planes:
        w = m.params[f"kirm.{plane}.proj_out.w"]
        w.data = rng.normal(0, 0.05, size=w.data.shape)
    bits = np.zeros((4, 2))
    bits[[0, 2], 0] = 1
    bits[[1, 2], 1] = 1
    mask = SamplingMask(bits, 2.0)
    v = kvol(4, 4, 2, rng=rng)
    target = rng.standard_normal((2, 4, 4, 2))
    return m, v, mask, target


def test_end_to_end_gradients_match_finite_differences():
    m, v, mask, target = _fd_model()
    result = m.forward(v, mask)
    frozen = oracles.hdr_denominators(result.stages, eps=m.config.hdr_eps)
    total, _, _ = total_loss(result, target, weight=1.0, eps=m.config.hdr_eps)
    assert oracles.frozen_total_loss(result, target, 1.0, frozen).item() == total.item()
    total.backward()

    for name, p in m.parameters():
        assert p.grad is not None, name
        base = p.data.copy()
        size = base.size
        picks = sorted({0, size // 2, size - 1})

        def objective(flat_value, flat_index):
            p.data = base.copy()
            p.data.reshape(-1)[flat_index] = flat_value
            res = m.forward(v, mask)
            return oracles.frozen_total_loss(res, target, 1.0, frozen).item()

        for i in picks:
            x0 = base.reshape(-1)[i]
            fd = (objective(x0 + 1e-6, i) - objective(x0 - 1e-6, i)) / 2e-6
            ad = p.grad.reshape(-1)[i]
            assert abs(ad - fd) < 1e-6 + 1e-4 * abs(fd), (
                f"{name}[{i}]: autodiff {ad} vs fd {fd}"
            )
        p.data = base


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=13)
    path = tmp_path / "m.kgin"
    save_params(m, path)
    assert path.read_bytes()[:4] == b"KGIN"
    quantized = from_checkpoint(path)  # the source model at the stored float32
    assert quantized.config == m.config
    for name, p in m.parameters():
        assert np.array_equal(quantized.params[name].data, p.data.astype(np.float32)), name
    # a second save of the quantized model reproduces the file bitwise
    again = tmp_path / "m2.kgin"
    save_params(quantized, again)
    assert path.read_bytes() == again.read_bytes()
    loaded = from_checkpoint(again)
    for name, p in quantized.parameters():
        assert np.array_equal(loaded.params[name].data, p.data), name
    v = kvol(8, 8, 2)
    mask = generate_mask(8, 2, 2.0, seed=0)
    a = quantized.forward(v, mask).stages[2].data
    b = loaded.forward(v, mask).stages[2].data
    assert np.array_equal(a, b)


def test_checkpoint_preserves_plane_subset(tmp_path):
    cfg = ModelConfig(8, 8, 2, kirm_planes=(PLANE_KY_T, PLANE_KX_KY))
    m = KSpaceInterpolator(cfg, seed=14)
    path = tmp_path / "m.kgin"
    save_params(m, path)
    assert from_checkpoint(path).config.kirm_planes == (PLANE_KY_T, PLANE_KX_KY)


# Every ModelConfig field at a value other than its default.
NON_DEFAULT_CONFIG = ModelConfig(
    12, 8, 3, embed_dim=8, n_heads=2, n_layers=1, mlp_ratio=2, kirm_patch=2,
    kirm_planes=(PLANE_KY_T, PLANE_KX_KY), loss_weight_hdr=0.25, hdr_eps=0.125,
)


def test_checkpoint_keeps_every_config_field(tmp_path):
    defaults = ModelConfig(12, 8, 3)
    for f in dataclasses.fields(ModelConfig):
        if f.name not in ("x_dim", "y_dim", "t_dim"):
            assert getattr(NON_DEFAULT_CONFIG, f.name) != getattr(defaults, f.name), f.name
    path = tmp_path / "m.kgin"
    save_params(KSpaceInterpolator(NON_DEFAULT_CONFIG, seed=16), path)
    config, _ = load_params(path)
    assert config == NON_DEFAULT_CONFIG
    again = tmp_path / "m2.kgin"
    save_params(from_checkpoint(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_header_layout_is_pinned(tmp_path):
    """The config block is ModelConfig's fields in this order.  A field added
    or moved changes checkpoint.kgin's format, so this fails until the format
    is decided on purpose."""
    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "x_dim", "y_dim", "t_dim", "embed_dim", "n_heads", "n_layers", "mlp_ratio",
        "kirm_patch", "kirm_planes", "loss_weight_hdr", "hdr_eps",
    ]
    path = tmp_path / "m.kgin"
    save_params(KSpaceInterpolator(NON_DEFAULT_CONFIG, seed=16), path)
    block = struct.pack("<9Idd", 12, 8, 3, 8, 2, 1, 2, 2, 0b101, 0.25, 0.125)
    head = path.read_bytes()[: 8 + len(block) + 4]
    assert head == b"KGIN" + struct.pack("<I", 1) + block + struct.pack(
        "<I", len(param_table(NON_DEFAULT_CONFIG))
    )


def test_checkpoint_rejects_malformed(tmp_path):
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=15)
    path = tmp_path / "m.kgin"
    save_params(m, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.kgin"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_params(bad)
    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_params(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError):
        load_params(bad)
    at = blob.index(b"kgin.proj_in.w")
    bad.write_bytes(blob[:at] + b"\xff" + blob[at + 1 :])  # tensor name not UTF-8
    with pytest.raises(FormatError):
        load_params(bad)
    at += len(b"kgin.proj_in.w")
    (rank,) = struct.unpack_from("<I", blob, at)
    huge = struct.pack("<4I", 3, 2**20, 2**20, 2**24)  # 2**64 values: 0 in int64
    bad.write_bytes(blob[:at] + huge + blob[at + 4 + 4 * rank :])
    with pytest.raises(FormatError):
        load_params(bad)
    at = blob.index(b"kgin.proj_out.b") + len(b"kgin.proj_out.b")
    (rank,) = struct.unpack_from("<I", blob, at)
    payload = at + 4 + 4 * rank
    for value in (np.nan, np.inf, -np.inf):  # named at load, not blamed on a volume later
        stored = np.array([value], dtype="<f4").tobytes()
        bad.write_bytes(blob[:payload] + stored + blob[payload + 4 :])
        with pytest.raises(FormatError, match="kgin.proj_out.b"):
            load_params(bad)
    planes_at = 8 + 8 * 4  # magic, version, eight integers
    assert struct.unpack_from("<I", blob, planes_at) == (0b111,)
    for bit in (3, 5, 31):  # a plane bit that no plane owns
        flipped = struct.pack("<I", 0b111 | 1 << bit)
        bad.write_bytes(blob[:planes_at] + flipped + blob[planes_at + 4 :])
        with pytest.raises(FormatError, match="no plane owns"):
            load_params(bad)
    eps_at = 8 + 9 * 4 + 8  # magic, version, nine integers, loss_weight_hdr
    for eps in (math.nan, math.inf):
        bad.write_bytes(blob[:eps_at] + struct.pack("<d", eps) + blob[eps_at + 8 :])
        with pytest.raises(FormatError, match="hdr_eps"):
            load_params(bad)
    # one tensor stored twice in place of another: the count still matches
    first, second, third = (
        blob.index(name) - 4 for name in (b"kgin.proj_in.b", b"kgin.mask_token", b"kgin.enc.0.")
    )
    bad.write_bytes(blob[:second] + blob[first:second] + blob[third:])
    with pytest.raises(FormatError):
        load_params(bad)


@pytest.mark.parametrize("mode", ["test", "train"])
def test_seeded_init_draws_in_param_table_order(mode):
    """Clipped N(0, 0.02) draws from the seed, in table order, cast to the mode."""
    cfg = ModelConfig(8, 8, 2)
    with nc.use_mode(mode):
        m = KSpaceInterpolator(cfg, seed=19)
        dtype = nc.active_dtype()
    rng = np.random.default_rng(19)
    assert list(m.params) == list(param_table(cfg))
    for name, (shape, init) in param_table(cfg).items():
        if init == "normal":
            want = np.clip(rng.normal(0.0, 0.02, size=shape), -0.04, 0.04)
        else:
            want = np.zeros(shape) if init == "zeros" else np.ones(shape)
        assert m.params[name].data.dtype == dtype, name
        assert np.array_equal(m.params[name].data, want.astype(dtype)), name


def test_construction_holds_one_float64_draw_at_a_time():
    """Each float64 draw is cast to a parameter before the next is made."""
    cfg = ModelConfig(32, 32, 8, embed_dim=256, n_heads=8, n_layers=4)
    with nc.use_mode("train"):
        tracemalloc.start()
        try:
            m = KSpaceInterpolator(cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    param_bytes = sum(p.data.nbytes for p in m.params.values())
    assert peak < param_bytes + 8 * 2**20, (
        f"construction peak {peak / 2**20:.1f} MiB, parameters {param_bytes / 2**20:.1f} MiB"
    )


@pytest.mark.parametrize("mode", ["test", "train"])
def test_from_checkpoint_fills_parameters_without_drawing(tmp_path, monkeypatch, mode):
    path = tmp_path / "m.kgin"
    save_params(KSpaceInterpolator(ModelConfig(8, 8, 2), seed=18), path)
    _, stored = load_params(path)

    def no_draw(self, shape):
        raise AssertionError("from_checkpoint drew a random init")

    monkeypatch.setattr(KSpaceInterpolator, "_draw", no_draw)
    with nc.use_mode(mode):
        loaded = from_checkpoint(path)
        dtype = nc.active_dtype()
    assert list(loaded.params) == list(param_table(loaded.config))
    for name, p in loaded.params.items():
        assert p.requires_grad, name
        assert p.data.dtype == dtype, name
        assert np.array_equal(p.data, stored[name].astype(dtype)), name


def test_from_checkpoint_checks_tensors_before_building(tmp_path, monkeypatch):
    def never_built(self, *args, **kwargs):
        raise AssertionError("model built before its tensors were checked")

    # A 64-byte file: a full-preset header with an empty tensor table.
    c = full_config(256, 256, 32)
    dims = (c.x_dim, c.y_dim, c.t_dim, c.embed_dim, c.n_heads, c.n_layers, c.mlp_ratio)
    config = (*dims, c.kirm_patch, 0b111, c.loss_weight_hdr, c.hdr_eps)  # 0b111: all planes
    empty = tmp_path / "empty.kgin"
    empty.write_bytes(struct.pack("<4sI9IddI", b"KGIN", 1, *config, 0))
    assert empty.stat().st_size == 64

    # Every name present, but one [chan, d] weight stored as [d, chan].
    m = KSpaceInterpolator(ModelConfig(8, 8, 2), seed=17)
    path = tmp_path / "m.kgin"
    save_params(m, path)
    blob = path.read_bytes()
    at = blob.index(b"kgin.proj_in.w") + len(b"kgin.proj_in.w")
    chan, d = m.params["kgin.proj_in.w"].shape
    swapped = tmp_path / "swapped.kgin"
    swapped.write_bytes(blob[:at] + struct.pack("<3I", 2, d, chan) + blob[at + 12 :])

    monkeypatch.setattr(KSpaceInterpolator, "__init__", never_built)
    for bad in (empty, swapped):
        with pytest.raises(FormatError):
            from_checkpoint(bad)


# Loads a checkpoint in a child whose address space is capped once its imports
# are done; exit 0 means the loader raised FormatError.
_CAPPED_LOAD = """
import resource, sys
from kinterp import FormatError
from kinterp.model import load_params
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
try:
    load_params(sys.argv[1])
except FormatError:
    sys.exit(0)
sys.exit(1)
"""


def test_header_cannot_make_the_loader_build_its_table(tmp_path):
    # n_layers = 2**32 - 1 with an empty tensor table: the loader must reject it
    # from the count alone, not after listing the header's 16 names per layer.
    c = full_config(256, 256, 32)
    config = (c.x_dim, c.y_dim, c.t_dim, c.embed_dim, c.n_heads, 2**32 - 1, c.mlp_ratio,
              c.kirm_patch, 0b111, c.loss_weight_hdr, c.hdr_eps)
    path = tmp_path / "huge.kgin"
    path.write_bytes(struct.pack("<4sI9IddI", b"KGIN", 1, *config, 0))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_LOAD, str(path)], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr

"""Mask generation invariants, masking/data-consistency exactness, .kmask I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from kinterp.errors import DimensionError, DomainError, FormatError, SpecError
from kinterp.kspace import DOMAIN_IMAGE, DOMAIN_KSPACE
from kinterp.sampling import (
    SamplingMask,
    apply_mask,
    center_band,
    data_consistency,
    generate_mask,
    load_mask,
    save_mask,
)

RNG = np.random.default_rng(11)


def kvol(x, y, t, rng=RNG):
    return oracles.xyt_volume(
        rng.standard_normal((x, y, t)), rng.standard_normal((x, y, t)), DOMAIN_KSPACE
    )


# ------------------------------------------------------------------- masks


@given(
    y_exp=st.sampled_from([8, 16, 32, 64]),
    t_dim=st.integers(min_value=1, max_value=12),
    r=st.sampled_from([2.0, 3.0, 4.0, 6.0, 8.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_exact_lines_per_frame(y_exp, t_dim, r, seed):
    """Every frame keeps exactly round(Y/R) lines, so the sampled fraction
    is within one line of 1/R."""
    mask = generate_mask(y_exp, t_dim, r, seed)
    per_frame = mask.bits.sum(axis=0)
    assert np.all(per_frame == round(y_exp / r))
    assert abs(mask.bits.mean() - 1.0 / r) <= 1.0 / y_exp


@given(
    t_dim=st.integers(min_value=1, max_value=8),
    r=st.sampled_from([2.0, 4.0, 8.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_center_band_always_sampled(t_dim, r, seed):
    y_dim = 32
    mask = generate_mask(y_dim, t_dim, r, seed)
    band = center_band(y_dim)
    assert np.all(mask.bits[band, :] == 1)


def test_center_band_width():
    assert list(center_band(8)) == [4]
    assert list(center_band(16)) == [8]
    assert len(center_band(32)) == 2
    assert len(center_band(64)) == 4
    # band straddles the DC line at Y//2
    assert 32 // 2 in center_band(32)


def test_generate_mask_determinism():
    a = generate_mask(32, 8, 4.0, seed=5)
    b = generate_mask(32, 8, 4.0, seed=5)
    assert np.array_equal(a.bits, b.bits)
    c = generate_mask(32, 8, 4.0, seed=6)
    assert not np.array_equal(a.bits, c.bits)


def test_generate_mask_validation():
    with pytest.raises(SpecError):
        generate_mask(32, 8, 1.0, seed=0)  # R must exceed 1
    with pytest.raises(SpecError):
        generate_mask(32, 8, 0.5, seed=0)
    with pytest.raises(SpecError):
        generate_mask(32, 8, 33.0, seed=0)  # R cannot exceed Y
    with pytest.raises(SpecError):
        generate_mask(4, 8, 2.0, seed=0)  # Y too small
    with pytest.raises(SpecError):
        generate_mask(32, 0, 2.0, seed=0)
    with pytest.raises(SpecError, match="seed"):
        generate_mask(32, 8, 4.0, seed=-1)


def test_extreme_acceleration_keeps_single_center_line():
    y_dim = 32
    mask = generate_mask(y_dim, 4, float(y_dim), seed=0)
    assert mask.bits.sum() == 4  # one line per frame
    assert np.all(mask.bits[y_dim // 2, :] == 1)


def test_per_frame_floor():
    """round(Y/R) never drops below ceil(Y/(2R)) for R in (1, Y]."""
    y_dim = 32
    for r in [1.5, 2.0, 3.0, 5.0, 7.0, 13.0, 31.0, 32.0]:
        mask = generate_mask(y_dim, 2, r, seed=1)
        assert mask.bits[:, 0].sum() >= math.ceil(y_dim / (2 * r))


def test_temporal_union_covers_most_lines():
    """Golden-ratio phase stepping spreads samples: over 8 frames at R=4 the
    union of sampled ky lines should cover the grid for every seed tried."""
    y_dim, t_dim = 32, 8
    for seed in range(20):
        mask = generate_mask(y_dim, t_dim, 4.0, seed)
        union = mask.bits.max(axis=1)
        assert union.mean() == 1.0, f"seed {seed} covered {union.mean():.2f}"


def test_frames_differ():
    mask = generate_mask(32, 8, 4.0, seed=0)
    assert not np.array_equal(mask.bits[:, 0], mask.bits[:, 1])


def test_mask_validation():
    with pytest.raises(DimensionError):
        SamplingMask(np.zeros((4, 4, 4)), 2.0)
    with pytest.raises(SpecError):
        SamplingMask(np.full((8, 2), 2), 2.0)
    with pytest.raises(SpecError):
        SamplingMask(np.zeros((8, 2)), 0.0)


# ------------------------------------------------------- masking / consistency


def test_apply_mask_copies_sampled_columns_bitwise():
    v = kvol(16, 32, 4)
    mask = generate_mask(32, 4, 4.0, seed=0)
    masked, flags = apply_mask(v, mask)
    keep = mask.bits.astype(bool)
    assert np.array_equal(masked.re[:, keep], v.re[:, keep])
    assert np.array_equal(masked.im[:, keep], v.im[:, keep])
    assert np.all(masked.re[:, ~keep] == 0.0)
    assert np.all(masked.im[:, ~keep] == 0.0)
    # the flags are the mask's bits in the volume's (t, ky) order
    assert np.array_equal(flags, mask.bits.T == 1)


def test_apply_mask_energy_never_increases():
    v = kvol(8, 16, 3)
    mask = generate_mask(16, 3, 4.0, seed=2)
    masked, _ = apply_mask(v, mask)
    assert np.sum(masked.re**2 + masked.im**2) < np.sum(v.re**2 + v.im**2)


def test_apply_mask_idempotent():
    v = kvol(8, 16, 3)
    mask = generate_mask(16, 3, 4.0, seed=2)
    once, _ = apply_mask(v, mask)
    twice, _ = apply_mask(once, mask)
    assert np.array_equal(once.re, twice.re)
    assert np.array_equal(once.im, twice.im)


def test_apply_mask_full_mask_is_identity():
    v = kvol(4, 8, 2)
    mask = SamplingMask(np.ones((8, 2)), 1.0)
    masked, flags = apply_mask(v, mask)
    assert np.array_equal(masked.re, v.re)
    assert np.array_equal(masked.im, v.im)
    assert np.array_equal(flags, mask.bits.T == 1)


def test_apply_mask_rejects_image_domain_and_bad_dims():
    img = oracles.xyt_volume(np.zeros((4, 8, 2)), np.zeros((4, 8, 2)), DOMAIN_IMAGE)
    mask = generate_mask(8, 2, 2.0, seed=0)
    with pytest.raises(DomainError):
        apply_mask(img, mask)
    v = kvol(4, 8, 3)
    with pytest.raises(DimensionError):
        apply_mask(v, mask)


def test_data_consistency_restores_sampled_columns_bitwise():
    truth = kvol(8, 16, 3)
    mask = generate_mask(16, 3, 4.0, seed=4)
    sampled, _ = apply_mask(truth, mask)
    estimate = kvol(8, 16, 3)
    fixed = data_consistency(estimate, sampled, mask)
    keep = mask.bits.astype(bool)
    assert np.array_equal(fixed.re[:, keep], truth.re[:, keep])
    assert np.array_equal(fixed.im[:, keep], truth.im[:, keep])
    assert np.array_equal(fixed.re[:, ~keep], estimate.re[:, ~keep])
    assert np.array_equal(fixed.im[:, ~keep], estimate.im[:, ~keep])


def test_data_consistency_fixed_point():
    """An estimate that already agrees on sampled columns passes through
    unchanged, and the projection is idempotent."""
    truth = kvol(8, 16, 2)
    mask = generate_mask(16, 2, 4.0, seed=1)
    sampled, _ = apply_mask(truth, mask)
    once = data_consistency(kvol(8, 16, 2), sampled, mask)
    twice = data_consistency(once, sampled, mask)
    assert np.array_equal(once.re, twice.re)
    assert np.array_equal(once.im, twice.im)


def test_data_consistency_all_ones_mask_returns_sampled():
    truth = kvol(4, 8, 2)
    mask = SamplingMask(np.ones((8, 2)), 1.0)
    estimate = kvol(4, 8, 2)
    fixed = data_consistency(estimate, truth, mask)
    assert np.array_equal(fixed.re, truth.re)
    assert np.array_equal(fixed.im, truth.im)


def test_data_consistency_domain_and_shape_checks():
    mask = generate_mask(8, 2, 2.0, seed=0)
    ksp = kvol(4, 8, 2)
    img = oracles.xyt_volume(np.zeros((4, 8, 2)), np.zeros((4, 8, 2)), DOMAIN_IMAGE)
    with pytest.raises(DomainError):
        data_consistency(img, ksp, mask)
    with pytest.raises(DomainError):
        data_consistency(ksp, img, mask)
    with pytest.raises(DimensionError):
        data_consistency(ksp, kvol(8, 8, 2), mask)


# ------------------------------------------------------------------- .kmask


def test_kmask_roundtrip(tmp_path):
    mask = generate_mask(32, 6, 6.0, seed=9)
    path = tmp_path / "m.kmask"
    save_mask(mask, path)
    back = load_mask(path)
    assert np.array_equal(back.bits, mask.bits)
    assert back.r_nominal == mask.r_nominal
    assert back.seed == mask.seed


def test_kmask_is_line_oriented_text(tmp_path):
    mask = generate_mask(16, 2, 4.0, seed=0)
    path = tmp_path / "m.kmask"
    save_mask(mask, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("KMASK v1 16 2")
    assert len(lines) == 3
    assert set(lines[1]) <= {"0", "1"} and len(lines[1]) == 16


def test_kmask_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.kmask"
    path.write_text("")
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_text("KMASK v2 8 1 2 0\n10101010\n")
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_text("KMASK v1 8 2 2 0\n10101010\n")  # row count mismatch
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_text("KMASK v1 8 1 2 0\n1010101\n")  # short row
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_text("KMASK v1 8 1 2 0\n1010102x\n")  # bad chars
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_text("KMASK v1 eight 1 2 0\n10101010\n")
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_text("KMASK v1 -4 2 4 0\n1010\n1010\n")  # negative extent
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_text("KMASK v1 8 0 2 0\n")  # no frames
    with pytest.raises(FormatError):
        load_mask(path)
    path.write_bytes(b"KMASK v1 8 1 2 0\n1010\xff101\n")  # not UTF-8
    with pytest.raises(FormatError):
        load_mask(path)
    for r in ("nan", "0", "-4"):  # acceleration must be finite and positive
        path.write_text(f"KMASK v1 8 1 {r} 0\n10101010\n")
        with pytest.raises(FormatError):
            load_mask(path)

"""Phantom generator invariants and dataset construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from kinterp import phantom
from kinterp import ConfigError
from kinterp.kspace import DOMAIN_IMAGE, fft2, magnitude, read_volume
from kinterp.phantom import DatasetSpec, PhantomSpec, generate, make_dataset


def test_determinism():
    spec = PhantomSpec(32, 32, 4, seed=3)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.re, b.re)
    assert np.array_equal(a.im, b.im)


def test_seeds_differ():
    a = generate(PhantomSpec(32, 32, 2, seed=0))
    b = generate(PhantomSpec(32, 32, 2, seed=1))
    assert not np.array_equal(a.re, b.re)


def test_zero_amplitude_is_static():
    v = generate(PhantomSpec(32, 32, 4, seed=5, motion_amplitude=0.0))
    for t in range(1, v.t_dim):
        assert np.array_equal(v.re[:, :, t], v.re[:, :, 0])
        assert np.array_equal(v.im[:, :, t], v.im[:, :, 0])


def test_default_amplitude_moves():
    v = generate(PhantomSpec(32, 32, 8, seed=4))
    mag = magnitude(v)
    mad = np.abs(np.diff(mag, axis=2)).mean()
    assert mad > 1e-4


def test_output_contract():
    v = generate(PhantomSpec(16, 32, 3, seed=0))
    assert v.domain == DOMAIN_IMAGE
    assert v.scale == 1.0
    assert (v.x_dim, v.y_dim, v.t_dim) == (16, 32, 3)
    assert float(np.max(magnitude(v))) <= 1.0 + 1e-9


def test_spectrum_is_low_frequency_dominated():
    """The centered X/4 x Y/4 k-space block holds most of the energy."""
    for seed in range(10):
        k = fft2(generate(PhantomSpec(32, 32, 2, seed=seed)))
        power = magnitude(k) ** 2
        bx, by = 32 // 4, 32 // 4
        x0, y0 = 16 - bx // 2, 16 - by // 2
        block = power[x0 : x0 + bx, y0 : y0 + by, :].sum()
        frac = block / power.sum()
        assert frac > 0.8, f"seed {seed}: center fraction {frac:.3f}"


def test_validation():
    with pytest.raises(ConfigError):
        generate(PhantomSpec(4, 32, 2, seed=0))
    with pytest.raises(ConfigError):
        generate(PhantomSpec(32, 32, 1, seed=0))
    with pytest.raises(ConfigError):
        generate(PhantomSpec(32, 32, 2, seed=0, n_ellipses=1))
    with pytest.raises(ConfigError):
        generate(PhantomSpec(32, 32, 2, seed=0, n_ellipses=7))
    with pytest.raises(ConfigError):
        generate(PhantomSpec(32, 32, 2, seed=0, motion_amplitude=0.6))
    with pytest.raises(ConfigError):
        generate(PhantomSpec(32, 32, 2, seed=0, motion_amplitude=-0.1))
    with pytest.raises(ConfigError, match="seed"):
        generate(PhantomSpec(32, 32, 2, seed=-1))


def test_fov_rejection_at_extreme_amplitude():
    with pytest.raises(ConfigError, match="field of view"):
        generate(PhantomSpec(32, 32, 2, seed=0, motion_amplitude=0.5))


# ------------------------------------------------------- support-box renderer


_ELLIPSE = st.fixed_dictionaries(
    {
        "cx": st.floats(-0.6, 1.6),
        "cy": st.floats(-0.6, 1.6),
        "rx": st.floats(0.005, 0.5),
        "ry": st.floats(0.005, 0.5),
        "theta": st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, math.pi)),
    }
)


@settings(max_examples=200)
@given(
    xx=st.integers(8, 96),
    yy=st.integers(8, 96),
    params=st.lists(_ELLIPSE, min_size=1, max_size=6),
    edge=st.sampled_from([0.0, 1e-9, 0.01, 0.05, 0.2]),
    seed=st.integers(0, 2**16),
)
# crossing the left border, wholly outside, and each axis-aligned angle with
# w at its 1e-6 floor (edge 0) on a non-square grid
@example(xx=40, yy=24, params=[{"cx": 0.02, "cy": 0.5, "rx": 0.2, "ry": 0.1, "theta": 0.3}],
         edge=0.05, seed=0)
@example(xx=32, yy=32, params=[{"cx": -0.5, "cy": 1.5, "rx": 0.1, "ry": 0.1, "theta": 1.0},
                               {"cx": 0.5, "cy": 0.5, "rx": 0.3, "ry": 0.2, "theta": 2.0}],
         edge=0.05, seed=1)
@example(xx=48, yy=20, params=[{"cx": 0.4, "cy": 0.6, "rx": 0.3, "ry": 0.1, "theta": t}
                               for t in (0.0, math.pi / 2, math.pi)], edge=0.0, seed=2)
def test_support_box_render_matches_full_grid_bitwise(xx, yy, params, edge, seed):
    """Rendering on support boxes only changes no byte of the frame."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-1, 1, len(params)) + 1j * rng.uniform(-1, 1, len(params))
    u = (np.arange(xx) + 0.5) / xx
    v = (np.arange(yy) + 0.5) / yy
    got = phantom._render_frame(u, v, params, amps, edge)
    want = oracles.full_grid_frame(u, v, params, amps, edge)
    assert got.tobytes() == want.tobytes()


def _generate_or_error(spec):
    try:
        return generate(spec).data.tobytes()
    except ConfigError as exc:
        return repr(exc)


@pytest.mark.parametrize("dims", [(32, 32, 8), (16, 16, 4), (24, 20, 4), (8, 8, 2), (64, 64, 3)])
def test_generate_matches_full_grid_renderer(dims, monkeypatch):
    """Every volume (or rejection) equals the one the full-grid renderer gives."""
    specs = [
        PhantomSpec(*dims, seed=seed, n_ellipses=n, motion_amplitude=a)
        for n in (2, 3, 4, 6)
        for a in (0.0, 0.08, 0.11, 0.5)
        for seed in (0, 7, 31)
    ]
    got = [_generate_or_error(spec) for spec in specs]
    monkeypatch.setattr(phantom, "_render_frame", oracles.full_grid_frame)
    want = [_generate_or_error(spec) for spec in specs]
    assert got == want
    assert any(isinstance(g, bytes) for g in got) and any(isinstance(g, str) for g in got)


# ------------------------------------------------------------------ datasets


def test_make_dataset_layout(tmp_path):
    manifest = make_dataset(tmp_path, 3, 2, DatasetSpec(16, 16, 2), seed=0)
    lines = manifest.read_text().splitlines()
    assert len(lines) == (3 + 2) * 2
    for line in lines:
        split, role, name = line.split()
        assert split in ("train", "test")
        assert role in ("image", "kspace")
        assert (tmp_path / name).exists()
    names = [line.split()[2] for line in lines]
    assert "train_000.image.kvol" in names
    assert "test_001.kspace.kvol" in names
    assert len(set(names)) == len(names)


def test_make_dataset_pairs_are_exact_transforms(tmp_path):
    make_dataset(tmp_path, 1, 1, DatasetSpec(16, 16, 2), seed=3)
    for stem in ("train_000", "test_000"):
        image = read_volume(tmp_path / f"{stem}.image.kvol")
        ksp = read_volume(tmp_path / f"{stem}.kspace.kvol")
        want = fft2(image)
        assert oracles.rel_err(ksp.re, want.re) < 1e-6
        assert oracles.rel_err(ksp.im, want.im) < 1e-6


def test_make_dataset_images_normalized(tmp_path):
    make_dataset(tmp_path, 2, 0, DatasetSpec(16, 16, 2), seed=1)
    for i in range(2):
        image = read_volume(tmp_path / f"train_{i:03d}.image.kvol")
        peak = float(np.max(magnitude(image)))
        assert abs(peak - 1.0) < 1e-6  # float32 quantization of a unit peak
        assert image.scale == 1.0


def test_make_dataset_splits_disjoint(tmp_path):
    make_dataset(tmp_path, 2, 2, DatasetSpec(16, 16, 2), seed=2)
    train = read_volume(tmp_path / "train_000.image.kvol")
    test = read_volume(tmp_path / "test_000.image.kvol")
    assert not np.array_equal(train.re, test.re)


def test_make_dataset_determinism(tmp_path):
    make_dataset(tmp_path / "a", 1, 1, DatasetSpec(16, 16, 2), seed=7)
    make_dataset(tmp_path / "b", 1, 1, DatasetSpec(16, 16, 2), seed=7)
    a = (tmp_path / "a" / "train_000.image.kvol").read_bytes()
    b = (tmp_path / "b" / "train_000.image.kvol").read_bytes()
    assert a == b


def test_make_dataset_validation(tmp_path):
    with pytest.raises(ConfigError):
        make_dataset(tmp_path, 0, 1, DatasetSpec(16, 16, 2), seed=0)
    with pytest.raises(ConfigError):
        make_dataset(tmp_path, 1, -1, DatasetSpec(16, 16, 2), seed=0)
    with pytest.raises(ConfigError, match="seed"):  # before anything is written
        make_dataset(tmp_path / "data", 1, 1, DatasetSpec(16, 16, 2), seed=-1)
    for dims in ((7, 8, 2), (8, 7, 2), (32, 32, 1)):  # and so are the extents
        with pytest.raises(ConfigError, match="X, Y >= 8 and T >= 2"):
            make_dataset(tmp_path / "data", 1, 1, DatasetSpec(*dims), seed=0)
    assert not (tmp_path / "data").exists()

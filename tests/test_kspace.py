"""Centered orthonormal FFT vs. a direct DFT oracle, plus .kvol round-trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from kinterp import DegenerateInputError, DimensionError, DomainError, FormatError
from kinterp.kspace import (
    DOMAIN_IMAGE,
    DOMAIN_KSPACE,
    ComplexVolume,
    denormalize,
    fft2,
    ifft2,
    magnitude,
    normalize,
    read_extents,
    read_volume,
    write_volume,
)

RNG = np.random.default_rng(7)


def random_volume(x, y, t, domain=DOMAIN_IMAGE, scale=1.0, rng=RNG):
    return oracles.xyt_volume(
        rng.standard_normal((x, y, t)),
        rng.standard_normal((x, y, t)),
        domain,
        scale,
    )


# ---------------------------------------------------------------- transforms


def test_fft2_matches_direct_dft():
    v = random_volume(8, 8, 1)
    k = fft2(v)
    got = k.re + 1j * k.im
    want = oracles.direct_dft2(v.re + 1j * v.im)
    assert oracles.rel_err(got.real, want.real) < 1e-9
    assert oracles.rel_err(got.imag, want.imag) < 1e-9


@pytest.mark.parametrize(
    "shape",
    [(4, 16, 3), (9, 15, 2), (12, 20, 3), (24, 20, 4)],
    ids=lambda s: "x".join(map(str, s)),
)
def test_fft2_matches_direct_dft_rectangular(shape):
    """Any extent, odd or even: NumPy's transform against the direct DFT."""
    v = random_volume(*shape)
    k = fft2(v)
    got = k.re + 1j * k.im
    want = oracles.direct_dft2(v.re + 1j * v.im)
    assert oracles.rel_err(got.real, want.real) < 1e-9
    assert oracles.rel_err(got.imag, want.imag) < 1e-9


def test_parseval():
    """Orthonormal scaling: total energy is identical in both domains."""
    v = random_volume(16, 8, 2)
    k = fft2(v)
    assert abs(np.sum(magnitude(v) ** 2) - np.sum(magnitude(k) ** 2)) < 1e-10


def test_roundtrip():
    v = random_volume(16, 16, 2)
    back = ifft2(fft2(v))
    assert oracles.rel_err(back.re, v.re) < 1e-10
    assert oracles.rel_err(back.im, v.im) < 1e-10
    assert back.domain == DOMAIN_IMAGE


def test_center_impulse_is_flat_spectrum():
    x, y = 8, 16
    re = np.zeros((x, y, 1))
    re[x // 2, y // 2, 0] = 1.0
    k = fft2(oracles.xyt_volume(re, np.zeros_like(re), DOMAIN_IMAGE))
    assert np.allclose(k.re, 1.0 / np.sqrt(x * y), atol=1e-12)
    assert np.allclose(k.im, 0.0, atol=1e-12)


def test_constant_image_concentrates_at_dc():
    x, y = 8, 8
    ones = np.ones((x, y, 1))
    k = fft2(oracles.xyt_volume(ones, np.zeros_like(ones), DOMAIN_IMAGE))
    want = np.zeros((x, y, 1))
    want[x // 2, y // 2, 0] = np.sqrt(x * y)
    assert oracles.rel_err(k.re, want) < 1e-12
    assert np.allclose(k.im, 0.0, atol=1e-12)


def test_linearity():
    a = random_volume(8, 8, 2)
    b = random_volume(8, 8, 2)
    summed = oracles.xyt_volume(a.re + b.re, a.im + b.im, DOMAIN_IMAGE)
    ka, kb, ks = fft2(a), fft2(b), fft2(summed)
    assert oracles.rel_err(ks.re, ka.re + kb.re) < 1e-12
    assert oracles.rel_err(ks.im, ka.im + kb.im) < 1e-12


def test_transforms_enforce_domain_tags():
    img = random_volume(8, 8, 1, domain=DOMAIN_IMAGE)
    ksp = random_volume(8, 8, 1, domain=DOMAIN_KSPACE)
    with pytest.raises(DomainError):
        fft2(ksp)
    with pytest.raises(DomainError):
        ifft2(img)
    assert fft2(img).domain == DOMAIN_KSPACE
    assert ifft2(ksp).domain == DOMAIN_IMAGE


def test_transforms_preserve_scale():
    v = random_volume(8, 8, 1, scale=3.5)
    assert fft2(v).scale == 3.5


@given(
    xp=st.integers(min_value=1, max_value=16),
    yp=st.integers(min_value=1, max_value=16),
    t=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(xp, yp, t, seed):
    v = random_volume(xp, yp, t, rng=np.random.default_rng(seed))
    back = ifft2(fft2(v))
    assert oracles.rel_err(back.re, v.re) < 1e-9
    assert oracles.rel_err(back.im, v.im) < 1e-9


# ----------------------------------------------------------------- volumes


def test_magnitude():
    v = oracles.xyt_volume(
        np.full((1, 1, 1), 3.0), np.full((1, 1, 1), 4.0), DOMAIN_IMAGE
    )
    assert magnitude(v)[0, 0, 0] == 5.0


def test_volume_validation():
    ok = np.zeros((2, 2, 1))
    with pytest.raises(DimensionError):
        oracles.xyt_volume(np.zeros((2, 2)), np.zeros((2, 2)), DOMAIN_IMAGE)
    with pytest.raises(DimensionError):  # last axis is not (re, im)
        ComplexVolume(np.zeros((1, 2, 2, 3)), DOMAIN_IMAGE)
    with pytest.raises(DomainError):
        oracles.xyt_volume(ok, ok, "frequency")
    bad = ok.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(DegenerateInputError):
        oracles.xyt_volume(bad, ok, DOMAIN_IMAGE)
    with pytest.raises(DegenerateInputError):
        oracles.xyt_volume(ok, ok, DOMAIN_IMAGE, scale=0.0)
    with pytest.raises(DegenerateInputError):
        oracles.xyt_volume(ok, ok, DOMAIN_IMAGE, scale=-1.0)


def test_normalize_peak_and_scale_composition():
    v = random_volume(8, 8, 2, scale=2.0)
    n = normalize(v)
    peak = float(np.max(magnitude(v)))
    assert abs(float(np.max(magnitude(n))) - 1.0) < 1e-12
    assert n.scale == pytest.approx(2.0 * peak)
    # denormalize undoes both the division and the composed tag
    d = denormalize(n)
    assert oracles.rel_err(d.re, v.re * 2.0) < 1e-12
    assert d.scale == 1.0


def test_normalize_rejects_zero_volume():
    z = np.zeros((4, 4, 1))
    with pytest.raises(DegenerateInputError):
        normalize(oracles.xyt_volume(z, z, DOMAIN_IMAGE))


@given(seed=st.integers(min_value=0, max_value=2**31), scale=st.floats(0.1, 10.0))
def test_normalize_roundtrip_property(seed, scale):
    rng = np.random.default_rng(seed)
    v = random_volume(4, 4, 2, scale=scale, rng=rng)
    d = denormalize(normalize(v))
    assert oracles.rel_err(d.re, v.re * scale) < 1e-9
    assert oracles.rel_err(d.im, v.im * scale) < 1e-9


# -------------------------------------------------------------------- .kvol


def test_kvol_roundtrip_bitwise(tmp_path):
    """Float32-representable data must survive a write/read cycle exactly."""
    rng = np.random.default_rng(3)
    re = rng.standard_normal((8, 4, 3)).astype(np.float32).astype(np.float64)
    im = rng.standard_normal((8, 4, 3)).astype(np.float32).astype(np.float64)
    v = oracles.xyt_volume(re, im, DOMAIN_KSPACE, scale=1.25)
    path = tmp_path / "v.kvol"
    write_volume(v, path)
    back = read_volume(path)
    assert np.array_equal(back.re, v.re)
    assert np.array_equal(back.im, v.im)
    assert back.domain == v.domain
    assert back.scale == v.scale
    assert read_extents(path) == (8, 4, 3)


def test_kvol_payload_layout(tmp_path):
    """Payload order is t, ky, kx (fastest), each sample an (re, im) pair."""
    re = np.fromfunction(lambda x, y, t: 100 * t + 10 * y + x, (2, 2, 2))
    im = -re - 0.5
    path = tmp_path / "v.kvol"
    write_volume(oracles.xyt_volume(re, im, DOMAIN_KSPACE), path)
    payload = np.frombuffer(path.read_bytes()[29:], dtype="<f4")  # 29-byte header
    want = [
        value
        for t in range(2)
        for y in range(2)
        for x in range(2)
        for value in (re[x, y, t], im[x, y, t])
    ]
    assert payload.tolist() == want


def test_re_im_are_xyt_views_of_data():
    v = random_volume(4, 3, 2, rng=np.random.default_rng(0))
    assert v.data.shape == (2, 3, 4, 2)
    assert v.re.shape == v.im.shape == (4, 3, 2)
    assert np.shares_memory(v.re, v.data) and np.shares_memory(v.im, v.data)
    v.re[1, 2, 0] = 7.0
    v.im[3, 0, 1] = -7.0
    assert v.data[0, 2, 1, 0] == 7.0
    assert v.data[1, 0, 3, 1] == -7.0


def test_kvol_write_quantizes_to_float32(tmp_path):
    re = np.full((2, 2, 1), 1.0 + 2.0**-40)
    v = oracles.xyt_volume(re, np.zeros_like(re), DOMAIN_IMAGE)
    path = tmp_path / "q.kvol"
    write_volume(v, path)
    assert read_volume(path).re[0, 0, 0] == 1.0


def test_kvol_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.kvol"
    path.write_bytes(b"KVOL\x01")
    for read in (read_volume, read_extents):
        with pytest.raises(FormatError):
            read(path)


def test_kvol_rejects_bad_magic(tmp_path):
    v = random_volume(2, 2, 1)
    path = tmp_path / "bad.kvol"
    write_volume(v, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    for read in (read_volume, read_extents):
        with pytest.raises(FormatError):
            read(path)


def test_kvol_rejects_payload_length_mismatch(tmp_path):
    v = random_volume(4, 4, 2)
    path = tmp_path / "trunc.kvol"
    write_volume(v, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(FormatError):
        read_volume(path)
    assert read_extents(path) == (4, 4, 2)  # the header alone holds
    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_volume(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kvol_rejects_non_finite_payload(tmp_path, bad):
    v = random_volume(4, 4, 2)
    path = tmp_path / "nan.kvol"
    write_volume(v, path)
    blob = bytearray(path.read_bytes())
    # overwrite the first payload float
    payload_at = len(blob) - v.data.size * 4
    blob[payload_at : payload_at + 4] = np.array([bad], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="nan.kvol"):
        read_volume(path)


def test_kvol_rejects_bad_version_and_domain(tmp_path):
    import struct

    v = random_volume(2, 2, 1)
    path = tmp_path / "v.kvol"
    write_volume(v, path)
    blob = bytearray(path.read_bytes())
    good = bytes(blob)

    struct.pack_into("<I", blob, 4, 99)  # version field
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_volume(path)

    blob = bytearray(good)
    struct.pack_into("<B", blob, 20, 7)  # domain tag
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_volume(path)


def test_kvol_rejects_bad_scale(tmp_path):
    import struct

    v = random_volume(2, 2, 1)
    path = tmp_path / "v.kvol"
    write_volume(v, path)
    blob = path.read_bytes()
    for scale in (-1.0, 0.0, np.nan):
        bad = bytearray(blob)
        struct.pack_into("<d", bad, 21, scale)
        path.write_bytes(bytes(bad))
        with pytest.raises(FormatError, match="scale"):
            read_volume(path)

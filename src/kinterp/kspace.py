"""Complex 2D+t volumes, centered orthonormal FFTs, and .kvol binary I/O.

A volume is one real [T, Y, X, 2] float64 array holding (re, im) on the last
axis: the layout the model tokenizes, the losses compare and the .kvol
payload stores.  ``re`` and ``im`` are (X, Y, T) views of that array.
Volumes carry a domain tag ("image" or "kspace") that only the transforms
flip, plus a ``scale`` field recording the divisor that maps the current data
back to its source frame.  The 2D transform is NumPy's FFT applied per
frame with the DC component at (X//2, Y//2) and orthonormal scaling, so
Parseval holds exactly up to roundoff.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import DegenerateInputError, DimensionError, DomainError, FormatError

DOMAIN_IMAGE = "image"
DOMAIN_KSPACE = "kspace"

_KVOL_MAGIC = b"KVOL"
_KVOL_VERSION = 1
_HEADER = struct.Struct("<4sIIIIBd")


@dataclass
class ComplexVolume:
    """A complex X x Y x T volume stored as one float64 [T, Y, X, 2] array.

    ``re`` and ``im`` are (X, Y, T) views of ``data``; writes through them
    land in ``data``.
    """

    data: np.ndarray
    domain: str
    scale: float = 1.0

    def __post_init__(self):
        self.data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 4 or self.data.shape[-1] != 2:
            raise DimensionError("volume needs a [T, Y, X, 2] array")
        if self.domain not in (DOMAIN_IMAGE, DOMAIN_KSPACE):
            raise DomainError(f"unknown volume domain {self.domain!r}")
        if not np.all(np.isfinite(self.data)):
            raise DegenerateInputError("volume contains non-finite values")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise DegenerateInputError(f"volume scale must be positive, got {self.scale}")

    @property
    def re(self) -> np.ndarray:
        return self.data[..., 0].T

    @property
    def im(self) -> np.ndarray:
        return self.data[..., 1].T

    @property
    def x_dim(self) -> int:
        return self.data.shape[2]

    @property
    def y_dim(self) -> int:
        return self.data.shape[1]

    @property
    def t_dim(self) -> int:
        return self.data.shape[0]


def magnitude(v: ComplexVolume) -> np.ndarray:
    """|v| as a C-contiguous (X, Y, T) array, which fixes the metrics' summation order."""
    return np.ascontiguousarray(np.hypot(v.re, v.im))


def _centered(transform, v: ComplexVolume) -> np.ndarray:
    """Apply an orthonormal ``np.fft`` transform per frame, DC at (X//2, Y//2).

    Axes (2, 1) make NumPy transform Y first, then X; that order fixes the
    rounding of the result.
    """
    work = np.fft.ifftshift(v.data[..., 0] + 1j * v.data[..., 1], axes=(1, 2))
    work = np.fft.fftshift(transform(work, axes=(2, 1), norm="ortho"), axes=(1, 2))
    return np.stack([work.real, work.imag], axis=-1)


def fft2(v: ComplexVolume) -> ComplexVolume:
    """Centered orthonormal 2D FFT applied independently per frame."""
    if v.domain != DOMAIN_IMAGE:
        raise DomainError("fft2 expects an image-domain volume")
    return ComplexVolume(_centered(np.fft.fft2, v), DOMAIN_KSPACE, v.scale)


def ifft2(v: ComplexVolume) -> ComplexVolume:
    """Inverse of :func:`fft2`."""
    if v.domain != DOMAIN_KSPACE:
        raise DomainError("ifft2 expects a k-space volume")
    return ComplexVolume(_centered(np.fft.ifft2, v), DOMAIN_IMAGE, v.scale)


def normalize(v: ComplexVolume) -> ComplexVolume:
    """Divide by the max complex magnitude; the divisor composes into ``scale``."""
    peak = float(np.max(magnitude(v)))
    if peak == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero volume")
    return ComplexVolume(v.data / peak, v.domain, v.scale * peak)


def denormalize(v: ComplexVolume) -> ComplexVolume:
    """Multiply the data by ``scale`` and reset the tag to 1."""
    return ComplexVolume(v.data * v.scale, v.domain, 1.0)


def write_volume(v: ComplexVolume, path: str | Path) -> None:
    """Serialize to .kvol: header + interleaved (re, im) float32, kx fastest.

    The payload is always 32-bit, so values that are not float32-representable
    are quantized on write.
    """
    path = Path(path)
    domain_code = 0 if v.domain == DOMAIN_IMAGE else 1
    header = _HEADER.pack(
        _KVOL_MAGIC, _KVOL_VERSION, v.x_dim, v.y_dim, v.t_dim, domain_code, v.scale
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(v.data.astype("<f4").tobytes())


def _read_header(fh, path: Path) -> tuple[int, int, int, str, float]:
    """Read and check the .kvol header of an open file; return its X, Y, T,
    domain and scale."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, x, y, t, domain_code, scale = _HEADER.unpack_from(head)
    if magic != _KVOL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _KVOL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if min(x, y, t) < 1:
        raise FormatError(f"{path}: non-positive extent in header")
    if domain_code not in (0, 1):
        raise FormatError(f"{path}: bad domain tag {domain_code}")
    return x, y, t, DOMAIN_IMAGE if domain_code == 0 else DOMAIN_KSPACE, float(scale)


def read_extents(path: str | Path) -> tuple[int, int, int]:
    """The (X, Y, T) extents of a .kvol file, from its header alone."""
    path = Path(path)
    with open(path, "rb") as fh:
        x, y, t, _, _ = _read_header(fh, path)
    return x, y, t


def read_volume(path: str | Path) -> ComplexVolume:
    """Parse a .kvol file; malformed content raises :class:`FormatError`."""
    path = Path(path)
    with open(path, "rb") as fh:
        x, y, t, domain, scale = _read_header(fh, path)
        payload = fh.read()
    expected = x * y * t * 2 * 4
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(t, y, x, 2)
    # ComplexVolume owns the finite-payload and positive-scale rules.
    try:
        return ComplexVolume(data, domain, scale)
    except DegenerateInputError as exc:
        raise FormatError(f"{path}: {exc}") from exc

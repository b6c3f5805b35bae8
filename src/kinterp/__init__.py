"""Transformer-based global k-space interpolation for dynamic MRI.

The package reconstructs 2D+t cine sequences from undersampled Cartesian
k-space: a masked-token Transformer autoencoder interpolates the missing
ky-t lines from the acquired ones, and a three-plane residual refinement
stage sharpens the estimate before data-consistent image reconstruction.
Everything runs on numpy at desk scale; see the ``kinterp`` CLI for the
dataset / mask / train / infer / eval workflow.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    FormatError,
    KInterpError,
    RangeError,
    SpecError,
    TrainingError,
    UnsupportedSizeError,
)
from .kspace import (
    DOMAIN_IMAGE,
    DOMAIN_KSPACE,
    ComplexVolume,
    denormalize,
    fft2,
    ifft2,
    magnitude,
    normalize,
    read_volume,
    write_volume,
)
from .model import (
    ALL_PLANES,
    KSpaceInterpolator,
    ModelConfig,
    full_config,
    tiny_config,
)
from .phantom import DatasetSpec, PhantomSpec, generate, make_dataset
from .pipeline import (
    ReconReport,
    ReconResult,
    TrainConfig,
    TrainResult,
    evaluate,
    infer,
    load_manifest,
    nmse,
    psnr,
    ssim,
    train,
    zero_filled,
)
from .sampling import (
    SamplingMask,
    apply_mask,
    data_consistency,
    generate_mask,
    load_mask,
    save_mask,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PLANES",
    "CheckpointError",
    "ComplexVolume",
    "ConfigError",
    "DOMAIN_IMAGE",
    "DOMAIN_KSPACE",
    "DatasetSpec",
    "DegenerateInputError",
    "DimensionError",
    "DomainError",
    "FormatError",
    "KInterpError",
    "KSpaceInterpolator",
    "ModelConfig",
    "PhantomSpec",
    "RangeError",
    "ReconReport",
    "ReconResult",
    "SamplingMask",
    "SpecError",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "UnsupportedSizeError",
    "apply_mask",
    "data_consistency",
    "denormalize",
    "evaluate",
    "fft2",
    "full_config",
    "generate",
    "generate_mask",
    "ifft2",
    "infer",
    "load_manifest",
    "load_mask",
    "magnitude",
    "make_dataset",
    "nmse",
    "normalize",
    "psnr",
    "read_volume",
    "save_mask",
    "ssim",
    "tiny_config",
    "train",
    "write_volume",
    "zero_filled",
    "__version__",
]

"""Transformer-based global k-space interpolation for dynamic MRI.

The package reconstructs 2D+t cine sequences from undersampled Cartesian
k-space: a masked-token Transformer autoencoder interpolates the missing
ky-t lines from the acquired ones, and a three-plane residual refinement
stage sharpens the estimate before data-consistent image reconstruction.
Everything runs on numpy at desk scale; see the ``kinterp`` CLI for the
dataset / mask / train / infer / eval workflow.

The top level holds only the error taxonomy and ``__version__``, so importing
it loads no NumPy; everything else is imported from its own module
(``kinterp.pipeline``, ``kinterp.model``, ``kinterp.kspace``, ...).
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
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "DegenerateInputError",
    "DimensionError",
    "DomainError",
    "FormatError",
    "KInterpError",
    "RangeError",
    "SpecError",
    "TrainingError",
    "__version__",
]

"""Transformer-based global k-space interpolation for dynamic MRI.

The package reconstructs 2D+t cine sequences from undersampled Cartesian
k-space: a masked-token Transformer autoencoder interpolates the missing
ky-t lines from the acquired ones, and a three-plane residual refinement
stage sharpens the estimate before data-consistent image reconstruction.
Everything runs on numpy at desk scale; see the ``kinterp`` CLI for the
dataset / mask / train / infer / eval workflow.

The top level defines only the error taxonomy and ``__version__``, so
importing it loads no NumPy; everything else is imported from its own module
(``kinterp.pipeline``, ``kinterp.model``, ``kinterp.kspace``, ...).  Every
failure the package raises on bad input derives from ``KInterpError``, and
each class names a rule the package enforces and is raised somewhere in it,
so callers (and the CLI) map errors to exit codes without string matching.
"""

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateInputError",
    "DimensionError",
    "DomainError",
    "FormatError",
    "KInterpError",
    "TrainingError",
    "__version__",
]


class KInterpError(Exception):
    """Base class of the package's error taxonomy."""


class ConfigError(KInterpError):
    """A configuration or generation parameter (phantom, mask) is invalid,
    unsatisfiable, or an unknown key was supplied."""


class FormatError(KInterpError):
    """A serialized artifact (.kvol, .kmask, .kgin checkpoint, manifest) is
    malformed or inconsistent with the model it names."""


class DomainError(KInterpError):
    """A volume is tagged with the wrong domain for the requested transform."""


class DimensionError(KInterpError):
    """Shapes or extents are inconsistent with what an operation requires;
    the transforms accept any extent, but extents must agree."""


class DegenerateInputError(KInterpError):
    """Input carries no usable signal (all-zero volume, empty token set, ...)."""


class TrainingError(KInterpError):
    """Training produced non-finite values (loss or gradients)."""

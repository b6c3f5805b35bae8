"""Exception taxonomy shared across the package.

Every failure mode raised by library code derives from ``KInterpError`` so
callers (and the CLI) can map errors to exit codes without string matching.
Each class names a rule the package enforces and is raised somewhere in it.
The transforms accept any extent; extents that disagree with each other
raise :class:`DimensionError`.
"""


class KInterpError(Exception):
    """Base class for all kinterp errors."""


class DimensionError(KInterpError):
    """Shapes or extents are inconsistent with what an operation requires."""


class DomainError(KInterpError):
    """A volume is tagged with the wrong domain for the requested transform."""


class DegenerateInputError(KInterpError):
    """Input carries no usable signal (all-zero volume, empty token set, ...)."""


class FormatError(KInterpError):
    """A serialized artifact (.kvol / .kmask) is malformed."""


class CheckpointError(KInterpError):
    """A model checkpoint is malformed or inconsistent with the target model."""


class SpecError(KInterpError):
    """Generation parameters (phantom / mask) are invalid or unsatisfiable."""


class ConfigError(KInterpError):
    """A configuration value is invalid or an unknown key was supplied."""


class RangeError(KInterpError):
    """A scalar argument (e.g. a schedule step) is outside its valid range."""


class TrainingError(KInterpError):
    """Training produced non-finite values (loss or gradients)."""

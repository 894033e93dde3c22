"""Exception hierarchy shared across the package."""


class HatenetError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(HatenetError):
    """Operand shapes are incompatible with the requested operation."""


class InvalidConfig(HatenetError):
    """A configuration value violates a documented constraint."""


class EmptyTableError(HatenetError):
    """An embedding file produced no usable vectors."""


class InputEncodingError(HatenetError):
    """An input file is not UTF-8 text."""

    @classmethod
    def of(cls, path, exc: UnicodeDecodeError) -> "InputEncodingError":
        """The error for ``path``, whose bytes failed to decode with ``exc``."""
        return cls(f"{path} is not UTF-8 text ({exc.reason})")


class MissingColumn(HatenetError):
    """A dataset file lacks a required header column."""


class CorpusTooSmall(HatenetError):
    """A class has too few posts for the requested stratified split."""


class EmptyClass(HatenetError):
    """A training corpus is missing one of the three classes."""


class PreprocessingMismatch(HatenetError):
    """Input preprocessing does not match a bundle's fingerprint."""


class CheckpointIntegrityError(HatenetError):
    """A checkpoint file is corrupt or truncated."""


class CheckpointVersionError(HatenetError):
    """A checkpoint was written by an unsupported format version."""


class NumericError(HatenetError):
    """Training produced a non-finite loss or gradient."""


class NonFiniteValue(HatenetError):
    """A gradient check encountered NaN or infinity."""

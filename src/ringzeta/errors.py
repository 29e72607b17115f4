"""Shared exception types, mapped to CLI exit codes by ringzeta.cli."""


class MalformedInputError(ValueError):
    """Bad user input: index out of range, length mismatch, duplicate triple, ..."""


class LookupError_(LookupError):
    """Unknown catalog or formula name."""


class ResourceGuardError(RuntimeError):
    """Predicted work exceeds the configured ceiling."""

    def __init__(self, message, predicted=None, ceiling=None):
        super().__init__(message)
        self.predicted = predicted
        self.ceiling = ceiling


class InternalConsistencyError(RuntimeError):
    """A mathematical invariant that the pipeline guarantees was violated."""


class NonExpandableError(ValueError):
    """Rational function has no power series at Y = 0 for the given prime."""


class PoleError(ValueError):
    """A substitution sent a denominator factor to 1."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class CoverageError(ValueError):
    """A Dirichlet coefficient was requested outside the covered prime range."""


class UnsupportedError(ValueError):
    """Input is outside the supported regime (stated, not silently answered)."""

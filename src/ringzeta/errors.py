"""Shared exception types, mapped to CLI exit codes by ringzeta.cli, the one
resource guard every walk counts its work against, the one depth-first driver
every generator walk runs on, and shared constants."""

DEFAULT_CEILING = 10**8
MODES = ("subrings", "ideals", "sublattices")  # what `latticezeta.count` counts


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


class Budget:
    """The units of work of one walk, counted against `ceiling`.

    A walk predicts a total it knows before any work, or charges its units as
    it goes, or both; past the ceiling either raises ResourceGuardError."""

    def __init__(self, ceiling, what, unit):
        self.ceiling, self.what, self.unit, self.used = ceiling, what, unit, 0

    def predict(self, total):
        self.used += total
        if self.used > self.ceiling:
            raise ResourceGuardError(
                f"{self.what} needs {self.used} {self.unit}, over ceiling {self.ceiling}",
                predicted=self.used, ceiling=self.ceiling)

    def charge(self, units=1):
        self.used += units
        if self.used > self.ceiling:
            raise ResourceGuardError(
                f"{self.what} visited more than {self.ceiling} {self.unit}", ceiling=self.ceiling)


def depth_first(place, *root):
    """Run place(*root), then place(*step) for each step a call yields, depth
    first on one explicit stack of pending generators, so no walk recurses."""
    stack = [place(*root)]
    while stack:
        if (step := next(stack[-1], None)) is None:
            stack.pop()
        else:
            stack.append(place(*step))


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

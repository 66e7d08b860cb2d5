"""Exception types shared across the package.

Each class carries the process exit code the command line front end maps
it to (2 = input/parse, 3 = dimension/partition, 4 = rank precondition,
5 = numeric failure).
"""


class GsvdKitError(Exception):
    exit_code = 5


class CsvParseError(GsvdKitError, ValueError):
    exit_code = 2


class DomainError(GsvdKitError, ValueError):
    exit_code = 2


class DocumentError(GsvdKitError, ValueError):
    """A factors document that is not an object holding every key, well typed."""

    exit_code = 2


class UnsupportedBeta(GsvdKitError, ValueError):
    exit_code = 2


class DimensionMismatch(GsvdKitError, ValueError):
    exit_code = 3


class InvalidDimensions(GsvdKitError, ValueError):
    exit_code = 3


class InvalidPartition(GsvdKitError, ValueError):
    exit_code = 3


class RankOutOfRange(GsvdKitError, ValueError):
    exit_code = 3


class NotOrthonormal(GsvdKitError, ValueError):
    exit_code = 3


class NoAugmentationNeeded(GsvdKitError, ValueError):
    exit_code = 3


class NeedsAugmentation(GsvdKitError, ValueError):
    exit_code = 4


class SingularH(GsvdKitError, ValueError):
    exit_code = 4


class ZeroWithin(GsvdKitError, ArithmeticError):
    exit_code = 5


class ZeroDenominator(GsvdKitError, ArithmeticError):
    exit_code = 5


class DegenerateData(GsvdKitError, ValueError):
    exit_code = 5


class NumericalCheckFailed(GsvdKitError, RuntimeError):
    """Two independent constructions of the same quantity disagreed."""

    exit_code = 5

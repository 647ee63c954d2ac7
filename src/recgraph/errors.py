"""Exception types shared across the package."""


class RecgraphError(Exception):
    """Base class for all package-specific errors."""


class ParseError(RecgraphError):
    """A rating file line could not be parsed."""

    def __init__(self, path, line_number, message):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class EmptyDatasetError(RecgraphError):
    """The dataset contains no ratings."""


class UnknownNodeError(RecgraphError, KeyError):
    """A person or movie id is not present in the graph."""


class UndefinedMetricError(RecgraphError):
    """A metric is undefined for the given graph (empty, or giant too small)."""


class FitError(RecgraphError):
    """A curve fit is underdetermined or its input is invalid."""


class DegenerateModelError(RecgraphError):
    """The random-graph model has no growing neighborhood (z2 <= z1, or no edges)."""


class InvalidDistributionError(RecgraphError):
    """A degree distribution's arcs do not balance, or it has too few vertices or people."""


class GraphMismatchError(RecgraphError):
    """Two structures that must describe the same population do not."""


class ConfigError(RecgraphError):
    """Bad command-line or config-file value."""

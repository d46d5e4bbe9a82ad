"""Exception types shared across the package."""


class MeshError(ValueError):
    """Invalid combinatorial or geometric mesh data."""


class DomainError(ValueError):
    """Parameter outside the domain of a smooth map."""


class DegenerateGeometryError(RuntimeError):
    """Containment search exhausted without finding a positive clearance;
    clearances holds the values found for the simplices before the failing
    one in a search over several."""

    def __init__(self, message, clearances=()):
        super().__init__(message)
        self.clearances = list(clearances)


class SamplingFailureError(RuntimeError):
    """All normal-shift candidates for a simplex were rejected."""

    def __init__(self, message, simplex=None, level=None, diagnostics=None):
        super().__init__(message)
        self.simplex = simplex
        self.level = level
        self.diagnostics = diagnostics or {}


class NewtonDivergenceError(RuntimeError):
    """Newton inversion of a chain link failed to converge."""

    def __init__(self, message, link=None):
        super().__init__(message)
        self.link = link


class PerturbationError(RuntimeError):
    """A perturbation level aborted; carries the offending simplex."""

    def __init__(self, message, simplex=None, level=None):
        super().__init__(message)
        self.simplex = simplex
        self.level = level


class ConfigError(ValueError):
    """Scenario file could not be parsed; carries a line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
